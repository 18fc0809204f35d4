"""The fuzz scenario registry behind ``python -m repro.testing.fuzz``.

A :class:`Scenario` is everything the one fuzz CLI needs for one
workload: ``run`` (generator + executor + audits for one seed),
``replay`` (re-run one corpus entry and check what it pins) and the
coverage classes ``--require-coverage`` demands across a batch of runs.
The scenario-specific logic stays in its own module; the adapters here
only translate it into :class:`Outcome` verdicts and corpus entries.

===========  ==========================================  ================
scenario     one seed runs                               coverage classes
===========  ==========================================  ================
list         a generated list program, twin backends     —
contraction  a generated contraction program             —
crash        a batch-profile list program, a mid-batch   crash-fired
             crash armed on every batch (seed = crash
             seed)
faults       :func:`repro.resilience.harness.fuzz_one`   clean, degraded,
                                                         aborted
snapshots    :func:`repro.snapshots.fuzz.fuzz_one`       differential,
                                                         save-crash,
                                                         restore-crash,
                                                         corruption
serve        :func:`repro.serve.chaos.chaos_one`         the nine chaos
                                                         classes
===========  ==========================================  ================

A coverage class counts as observed when some tally key equals it or
extends it with a ``-suffix`` (``differential-state`` covers
``differential``; ``save-overshoot`` does not cover ``save-crash``).
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..errors import InvalidParameterError
from ..resilience.executor import ResiliencePolicy
from ..resilience.faults import FaultPlan
from ..resilience import harness as resilience
from ..serve import chaos
from ..snapshots import fuzz as snapshot_fuzz
from .corpus import load_entry, make_entry
from .executor import run_sequence
from .generator import generate
from .ops import OpSequence
from .shrinker import shrink

__all__ = [
    "FuzzOptions",
    "Outcome",
    "SCENARIOS",
    "Scenario",
    "covered",
    "replay_entry",
]


@dataclass
class FuzzOptions:
    """Fuzz-loop knobs; the program scenarios (list / contraction / crash)
    read all of them, the others only ``ops``."""

    #: Ops per program / requests per serve run; the fuzz loop replaces
    #: ``None`` with the scenario's ``default_ops``.
    ops: Optional[int] = None
    backend: str = "both"
    check_every: int = 1
    fault: Optional[str] = None
    profile: Optional[str] = None
    op_budget: Optional[int] = None
    wall_timeout: Optional[float] = None


@dataclass
class Outcome:
    """One seeded run, or one corpus replay, condensed for the fuzz loop."""

    ok: bool
    line: str
    tally: Dict[str, int] = field(default_factory=dict)
    failure: str = ""
    #: Reproducer to write to the corpus when the run failed.
    entry: Optional[Dict[str, Any]] = None
    #: The scenario's own report (RunReport / ResilienceReport / ...).
    report: Any = None


@dataclass(frozen=True)
class Scenario:
    name: str
    run: Callable[[int, FuzzOptions], Outcome]
    replay: Callable[[Dict[str, Any]], Outcome]
    coverage: Tuple[str, ...] = ()
    default_ops: int = 500


def covered(cls: str, tally: Mapping[str, int]) -> bool:
    """Whether coverage class ``cls`` was observed (module docstring)."""
    return any(
        v and (k == cls or k.startswith(cls + "-")) for k, v in tally.items()
    )


# ---------------------------------------------------------------------------
# list / contraction / crash: generated op programs
# ---------------------------------------------------------------------------


def _run_program(scenario: str, seed: int, opts: FuzzOptions) -> Outcome:
    family = "contraction" if scenario == "contraction" else "list"
    crash = seed if scenario == "crash" else None
    profile = "default"
    if family == "list":
        profile = opts.profile or ("default" if crash is None else "batch")
    seq = generate(family, seed, opts.ops, profile=profile)

    def replay(cand: OpSequence, **budget: Any) -> Any:
        return run_sequence(
            cand, backend=opts.backend, fault=opts.fault, crash_seed=crash,
            **budget,
        )

    t0 = time.perf_counter()
    report = replay(
        seq, check_every=opts.check_every, op_budget=opts.op_budget,
        wall_timeout=opts.wall_timeout,
    )
    crashinfo = "" if crash is None else f"crashes={report.crashes}  "
    line = (
        f"{seq.describe()}  backend={opts.backend}  "
        f"ops={report.ops_executed}/{len(seq.ops)}  checks={report.checks}  "
        f"{crashinfo}final_n={report.final_n}  "
        f"{time.perf_counter() - t0:.2f}s"
    )
    tally = {}
    if crash is not None:
        tally = {
            "crash-fired": int(report.crashes > 0),
            "crashes": report.crashes,
        }
    if report.ok:
        return Outcome(True, line, tally, report=report)
    result = shrink(seq, lambda cand: not replay(cand).ok, max_replays=600)
    shrunk = result.sequence
    final = replay(shrunk)
    line += (
        f"\n  violation: {report.failure}\n  shrunk {len(seq.ops)} -> "
        f"{len(shrunk.ops)} ops ({result.attempts} replays)"
    )
    config: Dict[str, Any] = {"backend": opts.backend}
    if crash is not None:
        config["crash_seed"] = crash
    # Fault-injected failures are synthetic; only real bugs are pinned.
    entry = None
    if opts.fault is None:
        entry = make_entry(
            scenario, config, program=shrunk, note=str(final.failure)
        )
    return Outcome(False, line, tally, str(final.failure), entry, report)


def _replay_program(entry: Dict[str, Any]) -> Outcome:
    """Replay an op program; crash entries must still fire a crash and
    snapshot entries must still sample the differential rig, then run
    their persistence exercise without overshooting its crash point."""
    config = entry["config"]
    crash = config["crash_seed"] if entry["scenario"] == "crash" else None
    snapshot_seed = config.get("snapshot_seed")
    parts = []
    failure = ""
    report = None
    if "program" in entry:
        seq = OpSequence.from_json(entry["program"])
        backend = config.get("backend", "both")
        report = run_sequence(
            seq,
            backend=backend,
            crash_seed=crash,
            snapshot_seed=snapshot_seed,
            snapshot_mode=config.get("snapshot_mode", "state"),
        )
        parts.append(f"{seq.describe()}  backend={backend}")
        if not report.ok:
            failure = str(report.failure)
        if crash is not None:
            parts.append(f"crashes={report.crashes}")
            if not failure and report.crashes == 0:
                failure = "crash schedule no longer fires"
        if snapshot_seed is not None:
            parts.append(f"snapshots={report.snapshots}")
            if not failure and report.snapshots == 0:
                failure = "snapshot rig no longer samples"
    exercise = config.get("snapshot_exercise")
    if exercise is not None and not failure:
        outcome, error = snapshot_fuzz.fuzz_one(
            int(config["exercise_seed"]),
            exercise,
            config.get("exercise_backend", "flat"),
        )
        parts.append(f"exercise={outcome}")
        if error is not None:
            failure = error
        elif "overshoot" in outcome:
            failure = f"exercise crash no longer fires ({outcome})"
    return Outcome(
        not failure, "  ".join(parts), failure=failure, report=report
    )


# ---------------------------------------------------------------------------
# faults: the resilience harness
# ---------------------------------------------------------------------------


def _policy_json(policy: ResiliencePolicy) -> Dict[str, Any]:
    return {
        "max_retries": policy.max_retries,
        "ladder": list(policy.ladder),
        "detect": policy.detect,
    }


def _run_faults(seed: int, opts: FuzzOptions) -> Outcome:
    t0 = time.perf_counter()
    report = resilience.fuzz_one(seed, opts.ops)
    line = (
        f"seed={seed}  {report.outcome:>8}  faults={len(report.faults)}  "
        f"degradations={len(report.degradations)}  "
        f"aborted={len(report.aborted_ops)}  {time.perf_counter() - t0:.2f}s"
    )
    config = {
        "plan": resilience.plan_for_seed(seed).describe(),
        "policy": _policy_json(resilience.policy_for_seed(seed)),
    }
    entry = make_entry(
        "faults",
        config,
        program=report.seq,
        expect={"outcome": report.outcome},
        note=str(report.failure),
    )
    return Outcome(
        report.ok, line, {report.outcome: 1}, str(report.failure or ""),
        entry, report,
    )


def _replay_faults(entry: Dict[str, Any]) -> Outcome:
    """The run must recover, land in the pinned outcome class, and fire
    the pinned fault family at least ``min_faults`` times."""
    policy = dict(entry["config"]["policy"])
    policy["ladder"] = tuple(policy["ladder"])
    report = resilience.run_resilience_program(
        OpSequence.from_json(entry["program"]),
        plan=FaultPlan(**entry["config"]["plan"]),
        policy=ResiliencePolicy(**policy),
    )
    expect = entry["expect"]
    sub = expect.get("fault_substring")
    checks = (
        (
            report.outcome == expect["outcome"],
            f"outcome {report.outcome!r} != pinned {expect['outcome']!r}",
        ),
        (
            sub is None or any(sub in f for f in report.faults),
            f"pinned fault {sub!r} no longer fires ({report.faults})",
        ),
        (
            len(report.faults) >= expect.get("min_faults", 0),
            f"{len(report.faults)} faults fired < pinned min_faults",
        ),
    )
    failure = "" if report.ok else str(report.failure)
    failure = failure or next((msg for ok, msg in checks if not ok), "")
    return Outcome(
        not failure, report.describe(), failure=failure, report=report
    )


# ---------------------------------------------------------------------------
# snapshots: the persistence exercises
# ---------------------------------------------------------------------------


def _run_snapshots(seed: int, opts: FuzzOptions) -> Outcome:
    name, backend = snapshot_fuzz.schedule(seed)
    t0 = time.perf_counter()
    outcome, failure = snapshot_fuzz.fuzz_one(seed, name, backend)
    line = (
        f"seed={seed}  {backend:>9}  {outcome}  "
        f"{time.perf_counter() - t0:.2f}s"
    )
    config = {
        "snapshot_exercise": name,
        "exercise_seed": seed,
        "exercise_backend": backend,
    }
    entry = make_entry("snapshots", config, note=failure or "")
    return Outcome(failure is None, line, {outcome: 1}, failure or "", entry)


# ---------------------------------------------------------------------------
# serve: the chaos harness
# ---------------------------------------------------------------------------

_SERVE_PINS = ("digest", "statuses", "shed_ids", "quarantined_ids")


def _run_serve(seed: int, opts: FuzzOptions) -> Outcome:
    report = chaos.chaos_one(seed, opts.ops)
    config = asdict(report.config)
    config["ladder"] = list(config["ladder"])
    entry = make_entry(
        "serve",
        config,
        expect={key: getattr(report, key) for key in _SERVE_PINS},
        note=report.failure,
    )
    tally = {cls: 1 for cls, hit in report.observed.items() if hit}
    return Outcome(
        report.ok, report.describe(), tally, report.failure, entry, report
    )


def _replay_serve(entry: Dict[str, Any]) -> Outcome:
    """The run must pass its gate AND reproduce every pinned decision
    (digest, status counts, shed and quarantine ids)."""
    config = dict(entry["config"])
    config["ladder"] = tuple(config["ladder"])
    report = chaos.run_chaos(chaos.ChaosConfig(**config))
    failure = report.failure
    for key in _SERVE_PINS:
        want = entry["expect"].get(key)
        got = getattr(report, key)
        if not failure and want is not None and got != want:
            failure = f"replay drift: {key} {got!r} != pinned {want!r}"
    return Outcome(
        not failure, report.describe(), failure=failure, report=report
    )


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("list", partial(_run_program, "list"), _replay_program),
        Scenario(
            "contraction", partial(_run_program, "contraction"),
            _replay_program,
        ),
        Scenario(
            "crash", partial(_run_program, "crash"), _replay_program,
            ("crash-fired",),
        ),
        Scenario(
            "faults",
            _run_faults,
            _replay_faults,
            ("clean", "degraded", "aborted"),
            default_ops=60,
        ),
        Scenario(
            "snapshots",
            _run_snapshots,
            _replay_program,
            ("differential", "save-crash", "restore-crash", "corruption"),
        ),
        Scenario(
            "serve",
            _run_serve,
            _replay_serve,
            chaos.COVERAGE_CLASSES,
            default_ops=200,
        ),
    )
}


def replay_entry(path: str) -> Outcome:
    """Replay one corpus entry through its scenario.  Raises
    :class:`~repro.errors.InvalidParameterError` for a file that is not
    a corpus entry or names no registered scenario; a replay that
    breaks what the entry pins is a failing :class:`Outcome`."""
    entry = load_entry(path)
    scenario = SCENARIOS.get(entry.get("scenario", ""))
    if scenario is None:
        raise InvalidParameterError(
            f"{os.path.basename(path)}: unknown scenario "
            f"{entry.get('scenario')!r} (known: {', '.join(SCENARIOS)})"
        )
    return scenario.replay(entry)
