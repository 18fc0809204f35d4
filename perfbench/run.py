"""Benchmark of the serving stack and the paper's batch operations.

Run from the repository root::

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 30 --trace 0

Workloads: ``serve-small`` and ``serve-large`` drive
``repro.serve.service.BatchService`` with closed-loop clients;
``paper-batches`` calls the §2/§3/§4 batch operations directly
(``IncrementalListPrefix``, ``DynamicTreeContraction``).  Each run

* builds its structures :data:`common.SETUP_REPEATS` times (with
  warm-up) and reports the median as ``setup_s``;
* measures for ``--seconds`` seconds;
* checks every output after the clock stops (see the workload modules);
* prints a readable report, then as its last line one JSON object with
  ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
one-second blocks without and with every layer boundary wrapped
(``tracing.py``), reports the per-layer metrics of the traced blocks and
the tracing overhead against the untraced ones, and writes the spans to
``.perfbench-out/``.  Each run also writes a report there with sample
counts, statuses and final sizes.  The metric tables live in
``metrics.py`` and match ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("serve-small", "serve-large", "paper-batches")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no package source at {SRC}/repro; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import statistics

    import metrics
    from common import P90_MIN_SAMPLES, result_line

    if args.workload == "paper-batches":
        import paper_load as load
    else:
        import serve_load as load  # type: ignore[no-redef]

    trace = bool(args.trace)
    res = load.run(args.workload, args.seed, args.seconds, trace)
    errors: List[str] = list(res["errors"])
    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_times_s": res["setup_times"],
        "statuses": res["statuses"],
        "rejected_reasons": res["reasons"],
        "latency": res["lat"].summary(),
        "goodput_blocks": res.get("goodput_blocks"),
        **res["detail"],
    }
    setup_s = statistics.median(res["setup_times"])
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    if trace:
        values, extra = metrics.per_layer(res)
        report.update(extra)
        audit = extra["span_trees"]
        if audit["self_sum_error_max_s"] > 1e-6 or audit["self_min_s"] < -1e-6:
            errors.append(f"span trees inconsistent: {audit}")
        res["trace"]["rec"].save(stem + "-spans.npz")
    else:
        values = metrics.end_to_end(res, setup_s)
        for cls in ("write", "read"):
            n = res["lat"].count(cls)
            if n < P90_MIN_SAMPLES:
                errors.append(
                    f"{n} {cls} samples cannot support a p90 "
                    f"(need {P90_MIN_SAMPLES})"
                )
    report["metrics"] = {k: v for k, (v, _) in values.items()}
    report["errors"] = errors
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)

    for cls, s in report["latency"].items():
        print(f"{cls:>18}: n={s['samples']:<7} p50={s['p50_ms']:.3f} ms "
              f"p90={s['p90_ms']:.3f} ms p99={s['p99_ms']:.3f} ms")
    for name, (value, unit) in values.items():
        print(f"{name:>40} = {value:.6g} {unit}")
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}")
    print(result_line(not errors, res["attempted"], res["failed"], values))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
