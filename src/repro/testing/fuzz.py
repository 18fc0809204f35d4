"""The one fuzz CLI: ``python -m repro.testing.fuzz``.

Modes
-----

* **fuzz** (default): run ``--runs`` consecutive seeds from ``--seed``
  through each ``--scenario`` of the registry
  (:mod:`repro.testing.scenarios`), auditing every run.  A failing run
  writes its reproducer (shrunk, for the op-program scenarios) to the
  corpus and the exit code becomes 1.  Each scenario ends with a
  summary tally; ``--require-coverage`` fails unless every coverage
  class of the scenario was observed.
* **--replay PATH**: re-run one corpus entry through its scenario and
  check everything it pins (:func:`~repro.testing.scenarios.replay_entry`).
* **--self-test**: fault-injection self-verification — for every
  registered fault, prove the fuzzer finds the planted bug, shrinks it
  to a small reproducer (≤ ``--max-shrunk-ops``), and that the shrunk
  program passes once the fault is removed.

Scenarios (``all`` = ``list`` + ``contraction``, with contraction at a
tenth of ``--ops``): ``list``, ``contraction``, ``crash`` (mid-batch
crash injection, crash seed = program seed), ``faults`` (runtime fault
recovery), ``snapshots`` (snapshot save/restore crash + corruption),
``serve`` (serving-layer chaos; ``--ops`` is requests per run).

Examples::

    PYTHONPATH=src python -m repro.testing.fuzz --seed 0 --ops 2000 --backend both
    PYTHONPATH=src python -m repro.testing.fuzz --scenario crash --runs 200 --ops 80
    PYTHONPATH=src python -m repro.testing.fuzz --scenario faults --runs 200 --require-coverage
    PYTHONPATH=src python -m repro.testing.fuzz --self-test
    PYTHONPATH=src python -m repro.testing.fuzz --replay tests/corpus/foo.json

Exit codes: 0 clean, 1 violation found (reproducer written), 2 usage
error, budget exhaustion, coverage failure or self-test harness
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..errors import BudgetExceededError, InvalidParameterError
from .corpus import save_entry
from .executor import run_sequence
from .faults import FAULTS
from .generator import generate
from .ops import OpSequence
from .scenarios import SCENARIOS, FuzzOptions, covered, replay_entry
from .shrinker import shrink

__all__ = ["fuzz", "main", "self_test"]

# Contraction batches are ~an order of magnitude heavier than list ops
# (each one re-derives the rake trace); 'all' scales them down so the
# default CLI stays inside the CI smoke budget.
CONTRACTION_OPS_DIVISOR = 10


def fuzz(
    scenarios: Sequence[str],
    *,
    seed: int = 0,
    runs: int = 1,
    options: Optional[FuzzOptions] = None,
    corpus_dir: Optional[str] = None,
    save: bool = True,
    require_coverage: bool = False,
    quiet: bool = False,
) -> int:
    """Run ``runs`` seeds through each named scenario; returns the exit
    code (see module docstring)."""
    base = options or FuzzOptions()
    tallies: Dict[str, Dict[str, int]] = {name: {} for name in scenarios}
    failed = dict.fromkeys(scenarios, 0)
    spent = dict.fromkeys(scenarios, 0.0)
    runs = max(1, runs)
    for run in range(runs):
        for name in scenarios:
            scenario = SCENARIOS[name]
            n_ops = scenario.default_ops if base.ops is None else base.ops
            if name == "contraction" and len(scenarios) > 1:
                n_ops = max(1, n_ops // CONTRACTION_OPS_DIVISOR)
            t0 = time.perf_counter()
            try:
                out = scenario.run(seed + run, replace(base, ops=n_ops))
            except BudgetExceededError as exc:
                print(
                    f"[{name}] budget exceeded ({exc.budget}) on seed "
                    f"{seed + run}: {exc}",
                    file=sys.stderr,
                )
                return 2
            spent[name] += time.perf_counter() - t0
            for key, count in out.tally.items():
                tallies[name][key] = tallies[name].get(key, 0) + count
            if not quiet:
                status = "ok" if out.ok else "FAIL"
                print(f"[{name}] {status:>4}  {out.line}")
            if out.ok:
                continue
            failed[name] += 1
            print(f"[{name}] violation: {out.failure}")
            if save and out.entry is not None:
                path = save_entry(out.entry, corpus_dir)
                print(f"[{name}] reproducer written to {path}")
    rc = 1 if any(failed.values()) else 0
    for name in scenarios:
        tally = tallies[name]
        classes = SCENARIOS[name].coverage
        hit = [c for c in classes if covered(c, tally)]
        parts = [f"{k}={v}" for k, v in sorted(tally.items())]
        if classes:
            parts.append(f"coverage {len(hit)}/{len(classes)}")
        print(
            f"[{name}] {runs} runs in {spent[name]:.1f}s, "
            f"{failed[name]} failed"
            + (": " + "  ".join(parts) if parts else "")
        )
        missing = [c for c in classes if c not in hit]
        if require_coverage and rc == 0 and missing:
            print(
                f"[{name}] coverage failure: no {'/'.join(missing)} "
                "observed — widen --runs",
                file=sys.stderr,
            )
            rc = 2
    return rc


def self_test(
    *,
    seeds: int = 10,
    ops: int = 80,
    max_shrunk_ops: int = 12,
    verbose: bool = True,
) -> int:
    """Fault-injection self-verification (see module docstring).

    Journal faults (``needs_crash``) only corrupt the *rollback* path,
    so for those the search, the shrink predicate and the final clean
    re-run all arm crash injection — the clean run then doubles as a
    true-rollback check on the shrunk program."""
    failures: List[str] = []
    for name, fault_obj in sorted(FAULTS.items()):
        profile = "batch" if fault_obj.needs_crash else "default"
        found = None
        for seed in range(seeds):
            crash = seed if fault_obj.needs_crash else None
            report = run_sequence(
                generate("list", seed, ops, profile=profile),
                backend="both",
                fault=name,
                crash_seed=crash,
            )
            if not report.ok:
                found = seed
                break
        if found is None:
            failures.append(f"{name}: not detected in {seeds} seeds x {ops} ops")
            if verbose:
                print(f"[self-test] FAIL {name}: fault never detected")
            continue
        seq = generate("list", found, ops, profile=profile)
        crash = found if fault_obj.needs_crash else None

        def fails(cand: OpSequence) -> bool:
            return not run_sequence(
                cand, backend="both", fault=name, crash_seed=crash
            ).ok

        result = shrink(seq, fails)
        shrunk = result.sequence
        n_shrunk = len(shrunk.ops)
        # fault removed (crash schedule kept for needs_crash faults)
        clean = run_sequence(shrunk, backend="both", crash_seed=crash)
        detail = (
            f"seed {found}: {len(seq.ops)} -> {n_shrunk} ops "
            f"({result.attempts} replays)"
        )
        if n_shrunk > max_shrunk_ops:
            failures.append(
                f"{name}: shrunk to {n_shrunk} ops > {max_shrunk_ops}"
            )
            if verbose:
                print(f"[self-test] FAIL {name}: {detail} — too large")
        elif not clean.ok:
            failures.append(
                f"{name}: shrunk program still fails without the fault "
                f"({clean.failure}) — real bug or flaky oracle?"
            )
            if verbose:
                print(f"[self-test] FAIL {name}: shrunk repro fails cleanly")
        else:
            if verbose:
                print(
                    f"[self-test]  ok  {name}: {detail}; expected "
                    f"oracle: {fault_obj.detected_by}"
                )
    if failures:
        print("\nfault-injection self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 2
    if verbose:
        print(f"[self-test] all {len(FAULTS)} faults detected and shrunk.")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--seed", type=int, default=0, help="first seed")
    ap.add_argument(
        "--runs", type=int, default=1, metavar="K",
        help="fuzz K consecutive seeds starting at --seed",
    )
    ap.add_argument(
        "--scenario",
        choices=["all", *SCENARIOS],
        default="all",
        help="registered scenario (default: list + contraction)",
    )
    ap.add_argument(
        "--ops", type=int, default=None,
        help="ops per program / requests per serve run (default per "
        "scenario: 500, faults 60, serve 200; snapshots ignores it)",
    )
    ap.add_argument(
        "--backend",
        choices=["reference", "flat", "both"],
        default="both",
        help="subject backends of the program scenarios ('both' = "
        "lockstep differential)",
    )
    ap.add_argument(
        "--check-every",
        type=int,
        default=1,
        help="audit every K-th op (1 = every op)",
    )
    ap.add_argument(
        "--profile",
        choices=["default", "batch", "faulty"],
        default=None,
        help="generator op-mix profile of the list and crash scenarios "
        "(default: 'batch' for crash, else 'default')",
    )
    ap.add_argument(
        "--fault",
        choices=sorted(FAULTS),
        default=None,
        help="inject a known code fault into the program scenarios "
        "(demonstration / debugging; nothing is written to the corpus)",
    )
    ap.add_argument(
        "--op-budget",
        type=int,
        default=None,
        metavar="N",
        help="abort (exit 2) after executing N ops in one sequence — "
        "hang guard; the offending seed stays replayable",
    )
    ap.add_argument(
        "--wall-timeout",
        type=float,
        default=None,
        metavar="S",
        help="abort (exit 2) once one sequence has run S wall-clock "
        "seconds — hang guard; the offending seed stays replayable",
    )
    ap.add_argument(
        "--require-coverage", action="store_true",
        help="exit 2 unless every coverage class of each scenario was "
        "observed across the runs",
    )
    ap.add_argument(
        "--corpus-dir",
        default=None,
        help="where to write reproducers (default tests/corpus/)",
    )
    ap.add_argument(
        "--no-save",
        action="store_true",
        help="do not write reproducers to the corpus",
    )
    ap.add_argument(
        "--quiet", action="store_true",
        help="print violations and summaries only",
    )
    ap.add_argument(
        "--replay", metavar="PATH", default=None,
        help="replay one corpus entry instead of fuzzing",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="run the fault-injection self-verification and exit",
    )
    ap.add_argument(
        "--max-shrunk-ops",
        type=int,
        default=12,
        help="self-test bound on the shrunk reproducer length",
    )
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test(max_shrunk_ops=args.max_shrunk_ops)

    if args.replay:
        try:
            out = replay_entry(args.replay)
        except InvalidParameterError as exc:
            print(f"[replay] {exc}", file=sys.stderr)
            return 2
        status = "ok" if out.ok else f"FAIL: {out.failure}"
        print(f"[replay] {os.path.basename(args.replay)}: {status}")
        print(f"[replay]   {out.line}")
        return 0 if out.ok else 1

    scenarios = (
        ["list", "contraction"] if args.scenario == "all" else [args.scenario]
    )
    return fuzz(
        scenarios,
        seed=args.seed,
        runs=args.runs,
        options=FuzzOptions(
            ops=args.ops,
            backend=args.backend,
            check_every=args.check_every,
            fault=args.fault,
            profile=args.profile,
            op_budget=args.op_budget,
            wall_timeout=args.wall_timeout,
        ),
        corpus_dir=args.corpus_dir,
        save=not args.no_save,
        require_coverage=args.require_coverage,
        quiet=args.quiet,
    )


if __name__ == "__main__":
    raise SystemExit(main())
