"""Serve-layer benchmark: batch-window size vs throughput and latency.

Drives an open-loop firehose of seeded write/read traffic (the
``serve`` generator profile, Zipf-skewed across shards) at a live
:class:`repro.serve.service.BatchService` once per window size ``w``
(``policy.max_batch``), and records per-cell throughput plus latency
quantiles.  Throughput counts every answered request; goodput counts
only the ``applied`` ones, and ``rejected`` (failed admission, which
grows with the window) is reported beside it.  The headroom policy
(deep queues, shedding disabled, no faults, no poison) isolates the one
variable under test: how much per-window overhead the coalescing
amortises.

The sweep is the paper's batching story measured end-to-end: ``w=1``
executes one request per supervised window (every request pays
admission + snapshot + commit alone), while larger windows spread that
cost across the batch until the per-item work dominates and the curve
flattens.

Writes ``BENCH_SERVE.json`` (schema ``repro-serve-bench/1``) at the
repo root; ``benchmarks/regress.py`` gates on the same-machine ratio
``goodput(w=32) / goodput(w=1)`` so no baseline artifact or machine
normalisation is needed.

Run:  PYTHONPATH=src python benchmarks/serve_harness.py [--quick]
          [--out BENCH_SERVE.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.algebra.monoid import sum_monoid  # noqa: E402
from repro.algebra.rings import INTEGER  # noqa: E402
from repro.resilience.executor import ResiliencePolicy  # noqa: E402
from repro.serve.loadgen import generate_specs, spec_args  # noqa: E402
from repro.serve.requests import ServePolicy  # noqa: E402
from repro.serve.service import BatchService  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCHEMA = "repro-serve-bench/1"

#: The swept window sizes; 1 is the no-coalescing baseline cell.
WINDOW_SIZES = (1, 8, 32, 128)

SEED = 20100
N_SHARDS = 2
SHARD_LEN = 64
N_REQUESTS = 4000
N_REQUESTS_QUICK = 800


def _quantile(sorted_xs: List[float], q: float) -> float:
    if not sorted_xs:
        return 0.0
    idx = min(len(sorted_xs) - 1, int(q * (len(sorted_xs) - 1) + 0.5))
    return sorted_xs[idx]


async def _drive(service: BatchService, specs: List[Any]) -> Dict[str, Any]:
    """Fire every spec without pacing; record per-request latency."""
    latencies: List[float] = []
    statuses: Dict[str, int] = {}

    async def one(spec: Any) -> None:
        args = spec_args(spec, SHARD_LEN)
        t0 = time.monotonic()
        resp = await service.submit(spec.shard, spec.kind, *args)
        latencies.append(time.monotonic() - t0)
        statuses[resp.status] = statuses.get(resp.status, 0) + 1

    t_start = time.monotonic()
    await asyncio.gather(*(one(s) for s in specs))
    elapsed = time.monotonic() - t_start
    latencies.sort()
    return {
        "elapsed_s": round(elapsed, 6),
        "throughput_rps": round(len(specs) / elapsed, 1),
        "goodput_rps": round(statuses.get("applied", 0) / elapsed, 1),
        "rejected": statuses.get("rejected", 0),
        "latency_p50_ms": round(_quantile(latencies, 0.50) * 1e3, 4),
        "latency_p95_ms": round(_quantile(latencies, 0.95) * 1e3, 4),
        "latency_p99_ms": round(_quantile(latencies, 0.99) * 1e3, 4),
        "statuses": dict(sorted(statuses.items())),
    }


def run_cell(window: int, n_requests: int) -> Dict[str, Any]:
    """One sweep cell: a fresh service + identical seeded traffic."""
    monoid = sum_monoid(INTEGER)
    policy = ServePolicy(
        max_batch=window,
        max_wait_s=0.002,
        queue_capacity=max(4 * window, 4096),
        shed_highwater=1.0,  # headroom: never shed
        resilience=ResiliencePolicy(ladder=("flat",)),
    )
    shard_values = {
        sid: list(range(1, SHARD_LEN + 1)) for sid in range(N_SHARDS)
    }
    specs = generate_specs(
        seed=SEED, n_requests=n_requests, n_shards=N_SHARDS, zipf_s=1.1
    )

    async def scenario() -> Dict[str, Any]:
        async with BatchService(
            monoid, shard_values, seed=SEED, policy=policy
        ) as svc:
            measured = await _drive(svc, specs)
            measured["windows"] = sum(
                s["windows"] for s in svc.stats().values()
            )
            return measured

    cell = asyncio.run(scenario())
    cell.update({"window": window, "n_requests": n_requests})
    return cell


def run(quick: bool = False) -> Dict[str, Any]:
    n_requests = N_REQUESTS_QUICK if quick else N_REQUESTS
    cells = []
    for window in WINDOW_SIZES:
        cell = run_cell(window, n_requests)
        cells.append(cell)
        print(
            f"w={window:<4} tput {cell['throughput_rps']:>9.1f} req/s  "
            f"goodput {cell['goodput_rps']:>9.1f} req/s  "
            f"rejected {cell['rejected']:>3}  "
            f"p50 {cell['latency_p50_ms']:.2f}ms  "
            f"p95 {cell['latency_p95_ms']:.2f}ms  "
            f"p99 {cell['latency_p99_ms']:.2f}ms  "
            f"windows {cell['windows']}"
        )
    by_window = {c["window"]: c for c in cells}
    ratio = by_window[32]["goodput_rps"] / by_window[1]["goodput_rps"]
    print(f"batching speedup goodput(w=32)/goodput(w=1): {ratio:.2f}x")
    return {
        "schema": SCHEMA,
        "quick": quick,
        "seed": SEED,
        "n_shards": N_SHARDS,
        "shard_len": SHARD_LEN,
        "cells": cells,
        "batching_speedup_w32_over_w1": round(ratio, 3),
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument(
        "--out",
        default=os.path.join(REPO_ROOT, "BENCH_SERVE.json"),
        help="output path (default: BENCH_SERVE.json at the repo root)",
    )
    args = ap.parse_args(argv)
    report = run(quick=args.quick)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
