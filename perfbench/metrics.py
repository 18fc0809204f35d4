"""Metric tables and their derivation from one run's measurements.

Every workload reports every metric of its mode, so the tables below
are the whole vocabulary; a layer a workload never enters reports 0
for its per-layer metrics (``paper-batches`` never enters ``serve``,
the serve workloads never enter ``contraction`` or ``kernels``).

End to end, a *write* is a call that changes state and a *read* one
that only answers: on the serve workloads, write and read requests
(latency from submit to reply, applied requests only); on
``paper-batches``, the mutating batch calls (list insert/delete,
contraction leaf batch, sweep, grow/prune, each with its ``value()``)
and the ``batch_prefix`` calls.

The tail is reported at p90, not p99: on ``paper-batches`` full
garbage collections (50-110 ms each, about one a second) land in 3-5%
of the update calls, so the p99 is set by which calls they hit and
spread 0.3-0.6 of its median across seeds, wider than any bound the
benchmark may set.  Each run's p99 and sample counts are still printed
and written to the report file.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from common import pct
from tracing import SETUP_SPANS, SPAN_NAMES, WAIT_SPANS

#: (name, unit, better, bound) — must match BENCHMARK.json.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("goodput_rps", "1/s", "higher", 0.24),
    ("write_latency_p50_ms", "ms", "lower", 0.24),
    ("write_latency_p90_ms", "ms", "lower", 0.24),
    ("read_latency_p50_ms", "ms", "lower", 0.24),
    ("read_latency_p90_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
]

STATUSES = ("applied", "rejected", "shed", "circuit-open", "timeout",
            "quarantined", "failed")
REJECT_REASONS = ("position-out-of-range", "unknown-handle",
                  "duplicate-handle", "not-a-leaf", "delete-all-leaves",
                  "admission-mismatch")

#: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.window_ms_p50", "ms", "lower"),
    ("serve.window_self_ms_p50", "ms", "lower"),
    ("serve.requests_per_window", "count", "higher"),
    ("serve.windows", "count", "higher"),
    ("serve.read_ms_p50", "ms", "lower"),
    ("serve.loop_busy_share", "ratio", "lower"),
    *[(f"serve.status.{s}", "count", "higher" if s == "applied" else "lower")
      for s in STATUSES],
    *[(f"serve.rejected.{r}", "count", "lower")
      for r in REJECT_REASONS + ("other",)],
    ("transactions.admit_ms_p50", "ms", "lower"),
    ("transactions.execute_batch_ms_p50", "ms", "lower"),
    ("resilience.supervise_ms_p50", "ms", "lower"),
    ("resilience.supervise_self_ms_p50", "ms", "lower"),
    ("resilience.audit_ms_p50", "ms", "lower"),
    ("resilience.audit_share", "ratio", "lower"),
    ("resilience.attempts", "count", "higher"),
    ("resilience.retries", "count", "lower"),
    ("resilience.rollbacks", "count", "lower"),
    ("snapshots.materialize_ms_p50", "ms", "lower"),
    ("snapshots.read_fold_ms_p50", "ms", "lower"),
    ("snapshots.cells_copied_per_read", "count", "lower"),
    ("listprefix.batch_insert_ms_p50", "ms", "lower"),
    ("listprefix.batch_delete_ms_p50", "ms", "lower"),
    ("listprefix.batch_set_ms_p50", "ms", "lower"),
    ("listprefix.batch_prefix_ms_p50", "ms", "lower"),
    ("splitting.rebuild_mass", "count", "lower"),
    ("splitting.sites", "count", "lower"),
    ("splitting.rebuild_mass_ratio", "ratio", "lower"),
    ("splitting.work", "count", "lower"),
    ("splitting.span", "count", "lower"),
    ("splitting.build_ms", "ms", "lower"),
    ("contraction.batch_set_ms_p50", "ms", "lower"),
    ("contraction.heal_ms_p50", "ms", "lower"),
    ("contraction.value_ms_p50", "ms", "lower"),
    ("contraction.wound", "count", "lower"),
    ("contraction.wound_ratio", "ratio", "lower"),
    ("contraction.fresh_rt_nodes", "count", "lower"),
    ("contraction.build_ms", "ms", "lower"),
    ("kernels.calls", "count", "lower"),
    ("kernels.rows_per_call", "count", "higher"),
    ("kernels.ms", "ms", "lower"),
    ("kernels.bytes_moved", "bytes", "lower"),
    *[(f"self_share.{s}", "ratio", "lower") for s in SPAN_NAMES
      if s not in WAIT_SPANS + SETUP_SPANS],
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]


def end_to_end(res: Dict[str, Any], setup_s: float) -> Dict[str, Tuple[float, str]]:
    lat = res["lat"]
    values = {
        "goodput_rps": res["goodput"],
        "write_latency_p50_ms": lat.ms("write", 0.50),
        "write_latency_p90_ms": lat.ms("write", 0.90),
        "read_latency_p50_ms": lat.ms("read", 0.50),
        "read_latency_p90_ms": lat.ms("read", 0.90),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": setup_s,
    }
    return {name: (values[name], unit) for name, unit, _, _ in END_TO_END}


def _mean(xs: List[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def per_layer(res: Dict[str, Any]) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, Any]]:
    """Per-layer metrics of a traced run, plus the sample counts and
    the span-tree audit behind them."""
    tr = res["trace"]
    rec, setup_rec = tr["rec"], tr["setup_rec"]
    a = rec.arrays()
    sa = setup_rec.arrays()
    samples: Dict[str, int] = {}

    def spans(arr: Dict[str, Any], name: str, field: str = "dur") -> List[float]:
        mask = (arr["name"] == SPAN_NAMES.index(name)) & arr["closed"]
        return arr[field][mask].tolist()

    def p50_ms(name: str, field: str = "dur", arr: Any = None) -> float:
        xs = spans(a if arr is None else arr, name, field)
        samples[f"{name}.{field}"] = len(xs)
        return pct(xs, 0.5) * 1e3

    wall = tr["wall_s"]
    windows = spans(a, "serve.window")
    reads = spans(a, "serve.read")
    busy_self = float(sum(
        sum(spans(a, s, "self")) for s in SPAN_NAMES if s not in WAIT_SPANS
    ))
    v: Dict[str, float] = {
        "serve.queue_wait_ms_p50": pct(rec.samples["serve.queue_wait"], 0.5) * 1e3,
        "serve.window_ms_p50": p50_ms("serve.window"),
        "serve.window_self_ms_p50": p50_ms("serve.window", "self"),
        "serve.requests_per_window":
            rec.counts["serve.window_requests"] / max(1, len(windows)),
        "serve.windows": len(windows),
        "serve.read_ms_p50": p50_ms("serve.read"),
        "serve.loop_busy_share": (sum(windows) + sum(reads)) / wall,
        "transactions.admit_ms_p50": p50_ms("transactions.admit"),
        "transactions.execute_batch_ms_p50": p50_ms("transactions.execute_batch"),
        "resilience.supervise_ms_p50": p50_ms("resilience.supervise"),
        "resilience.supervise_self_ms_p50": p50_ms("resilience.supervise", "self"),
        "resilience.audit_ms_p50": p50_ms("resilience.audit"),
        "resilience.audit_share":
            sum(spans(a, "resilience.audit")) / max(1e-12, sum(windows))
            if windows else 0.0,
        "snapshots.materialize_ms_p50": p50_ms("snapshots.materialize"),
        "snapshots.read_fold_ms_p50": p50_ms("snapshots.read_fold"),
        "snapshots.cells_copied_per_read":
            rec.counts["snapshots.cells_copied"] / max(1, len(reads)),
        "splitting.build_ms": p50_ms("splitting.build", arr=sa),
        "contraction.batch_set_ms_p50": p50_ms("contraction.batch_set"),
        "contraction.heal_ms_p50": p50_ms("contraction.heal"),
        "contraction.value_ms_p50": p50_ms("contraction.value"),
        "contraction.build_ms": p50_ms("contraction.build", arr=sa),
        "kernels.calls": rec.counts["kernels.calls"],
        "kernels.rows_per_call":
            rec.counts["kernels.rows"] / max(1, rec.counts["kernels.calls"]),
        "kernels.ms": sum(spans(a, "kernels.call")) * 1e3,
        "kernels.bytes_moved": rec.counts["kernels.bytes_moved"],
        "trace.overhead_share": tr["overhead_share"],
        "trace.spans": len(a["name"]),
    }
    samples["serve.queue_wait"] = len(rec.samples["serve.queue_wait"])
    for verb in ("batch_insert", "batch_delete", "batch_set", "batch_prefix"):
        v[f"listprefix.{verb}_ms_p50"] = p50_ms(f"listprefix.{verb}")
    for key in ("rebuild_mass", "sites", "rebuild_mass_ratio", "work", "span"):
        v[f"splitting.{key}"] = _mean(rec.samples[f"splitting.{key}"])
    for key in ("wound", "wound_ratio", "fresh_rt_nodes"):
        v[f"contraction.{key}"] = _mean(rec.samples[f"contraction.{key}"])
    for key in ("attempts", "retries", "rollbacks"):
        v[f"resilience.{key}"] = tr["executor"].get(key, 0)
    statuses = res["trace_statuses"] or {}
    reasons = dict(res["trace_reasons"] or {})
    for s in STATUSES:
        v[f"serve.status.{s}"] = statuses.get(s, 0)
    for r in REJECT_REASONS:
        v[f"serve.rejected.{r}"] = reasons.pop(r, 0)
    v["serve.rejected.other"] = sum(reasons.values())
    for s in SPAN_NAMES:
        if s not in WAIT_SPANS + SETUP_SPANS:
            v[f"self_share.{s}"] = sum(spans(a, s, "self")) / max(1e-12, busy_self)
    audit = rec.trees(a)
    audit["unclosed"] = int((~a["closed"]).sum())
    return (
        {name: (float(v[name]), unit) for name, unit, _ in PER_LAYER},
        {"samples": samples, "span_trees": audit},
    )
