"""Closed-loop traffic against the asyncio serving stack.

Every client coroutine awaits its reply before it sends the next
request, all on one event loop in one thread.  Request specs are made
from the seed before the clock starts; positions stay raw until submit
time, where :class:`InFlight` normalises them against the shard's live
length so that no write can conflict with another in its window (see
there).  The spec list is replayed cyclically when a run outlasts it.

The output check replays each shard's ``applied_log`` over its initial
values on a plain list and demands equality with the shard's final
``values()``; a seeded sample of read answers is checked against the
same replay at the log position the read saw.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from common import SETUP_REPEATS, Goodput, Latencies, peak_rss_mb
from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.serve.loadgen import RAW, RequestSpec, spec_args
from repro.serve.requests import READ_KINDS, STATUSES, ServePolicy
from repro.serve.service import BatchService

#: Specs generated per run (replayed cyclically).
N_SPECS = 1 << 15

#: Reads whose answers are checked after the run, at most.
READ_CHECKS = 256


@dataclass(frozen=True)
class ServeShape:
    shards: int
    leaves: int
    clients: int
    mix: Tuple[Tuple[str, float], ...]
    #: Requests sent per set-up as warm-up (part of ``setup_s``).
    warm_requests: int
    zipf_s: float = 1.1

    @property
    def drift_bound(self) -> int:
        """Largest generated insert/delete imbalance per shard."""
        return max(4, self.leaves // 8)


SHAPES = {
    "serve-small": ServeShape(
        shards=8,
        leaves=128,
        clients=64,
        mix=(("insert", 0.25), ("delete", 0.25), ("set", 0.20),
             ("prefix", 0.15), ("range", 0.15)),
        warm_requests=1024,
    ),
    "serve-large": ServeShape(
        shards=2,
        leaves=16384,
        clients=32,
        mix=(("insert", 0.175), ("delete", 0.175), ("set", 0.15),
             ("prefix", 0.25), ("range", 0.25)),
        warm_requests=64,
    ),
}


def make_specs(seed: int, shape: ServeShape, n: int) -> List[RequestSpec]:
    """Zipf-skewed shard choice, the shape's op mix, raw positions.

    Inserts and deletes have equal weight; a shard whose generated
    insert/delete balance reaches ``drift_bound`` gets the opposite
    kind, and the list ends balanced per shard, so replaying it
    cyclically does not shrink or grow shards by construction.
    """
    rng = random.Random(repr(("perfbench-serve", seed)))
    shard_ids = list(range(shape.shards))
    shard_w = [1.0 / (k + 1) ** shape.zipf_s for k in shard_ids]
    kinds = [k for k, _ in shape.mix]
    kind_w = [w for _, w in shape.mix]
    bound = shape.drift_bound
    balance = [0] * shape.shards
    specs: List[RequestSpec] = []

    def spec(shard: int, kind: str) -> RequestSpec:
        value = rng.randrange(RAW) if kind in ("insert", "set") else None
        return RequestSpec(
            shard=shard,
            kind=kind,
            raw=(rng.randrange(RAW), rng.randrange(RAW)),
            value=value,
        )

    for _ in range(n):
        shard = rng.choices(shard_ids, shard_w)[0]
        kind = rng.choices(kinds, kind_w)[0]
        if kind in ("insert", "delete"):
            if balance[shard] >= bound:
                kind = "delete"
            elif balance[shard] <= -bound:
                kind = "insert"
            balance[shard] += 1 if kind == "insert" else -1
        specs.append(spec(shard, kind))
    for shard, b in enumerate(balance):
        kind = "delete" if b > 0 else "insert"
        specs.extend(spec(shard, kind) for _ in range(abs(b)))
    return specs


class InFlight:
    """Writes sent to one shard and not yet answered; normalises raw
    positions so that every request is admissible when its phase runs.

    A window applies its phases in set, delete, insert order, each
    against the length at the phase's start, and rejects duplicate set
    or delete positions.  Before a set or delete runs, at most the
    deletes in flight when it was sent can have run, so it picks a
    position below ``length - deletes`` that no set (or delete) in
    flight holds.  An insert also follows the deletes sent after it
    into its own window, at most ``max_batch - 1``, so its range is
    that much shorter.  Reads are answered at submit time and use
    ``spec_args`` unchanged.
    """

    def __init__(self, max_batch: int) -> None:
        self.max_batch = max_batch
        self.deletes = 0
        self.held: Dict[str, Counter] = {"set": Counter(), "delete": Counter()}

    def args(self, spec: RequestSpec, length: int) -> Tuple[Any, ...]:
        kind = spec.kind
        if kind in READ_KINDS:
            return spec_args(spec, length)
        room = length - self.deletes
        if kind == "insert":
            hi = max(0, room - (self.max_batch - 1))
            return (spec.raw[0] % (hi + 1), spec.value)
        room = max(1, room)
        held = self.held[kind]
        pos = spec.raw[0] % room
        for _ in range(room):
            if not held[pos]:
                break
            pos = (pos + 1) % room
        return (pos,) if kind == "delete" else (pos, spec.value)

    def enter(self, kind: str, args: Tuple[Any, ...]) -> None:
        if kind in self.held:
            self.held[kind][args[0]] += 1
            self.deletes += kind == "delete"

    def leave(self, kind: str, args: Tuple[Any, ...]) -> None:
        if kind in self.held:
            self.held[kind][args[0]] -= 1
            self.deletes -= kind == "delete"


class Drive:
    """Counters of one measured phase (closed loop until a deadline)."""

    def __init__(self) -> None:
        self.lat = Latencies()
        self.statuses: Counter = Counter()
        self.reasons: Counter = Counter()
        self.attempted = 0
        self.applied = 0
        self.elapsed = 0.0
        self.goodput = Goodput(time.perf_counter())
        self.read_checks: List[Tuple[int, int, str, Tuple[Any, ...], Any]] = []
        self.errors: List[str] = []
        self.traced_statuses: Counter = Counter()
        self.traced_reasons: Counter = Counter()

    @property
    def failed(self) -> int:
        return self.attempted - self.applied


async def closed_loop(
    svc: BatchService,
    specs: List[RequestSpec],
    cursor: "itertools.count[int]",
    clients: int,
    seconds: float,
    check_every: int,
    limit: Optional[int] = None,
    toggle: Optional[Any] = None,
) -> Drive:
    """Run until ``seconds`` pass (or ``limit`` specs were sent);
    ``toggle`` (a :class:`tracing.Toggle`) switches tracing between
    requests."""
    shards = svc.shards
    flights = {sid: InFlight(svc.policy.max_batch) for sid in shards}
    n_specs = len(specs)
    d = Drive()
    deadline = d.goodput.t0 + seconds

    async def client() -> None:
        while time.perf_counter() < deadline:
            i = next(cursor)
            if limit is not None and i >= limit:
                return
            if toggle is not None:
                toggle.tick()
            spec = specs[i % n_specs]
            shard = shards[spec.shard]
            flight = flights[spec.shard]
            args = flight.args(spec, len(shard))
            d.attempted += 1
            flight.enter(spec.kind, args)
            t0 = time.perf_counter()
            try:
                resp = await svc.submit(spec.shard, spec.kind, *args)
            except Exception as exc:  # count it and keep the load going
                d.statuses["exception"] += 1
                d.errors.append(f"{spec.kind}{args}: {exc!r}")
                continue
            finally:
                flight.leave(spec.kind, args)
            t1 = time.perf_counter()
            d.statuses[resp.status] += 1
            if toggle is not None:
                toggle.done()
                if toggle.on:
                    d.traced_statuses[resp.status] += 1
                    if resp.status == "rejected":
                        d.traced_reasons[resp.reason] += 1
            if resp.status != "applied":
                if resp.status == "rejected":
                    d.reasons[resp.reason] += 1
                continue
            d.applied += 1
            d.goodput.add(t1)
            is_read = spec.kind in READ_KINDS
            d.lat.add("read" if is_read else "write", t1 - t0)
            if (
                is_read
                and i % check_every == 0
                and len(d.read_checks) < READ_CHECKS
            ):
                d.read_checks.append(
                    (spec.shard, len(shard.applied_log), spec.kind, args,
                     resp.result)
                )

    await asyncio.gather(*(client() for _ in range(clients)))
    d.elapsed = time.perf_counter() - d.goodput.t0
    return d


def replay_check(
    initial: Dict[int, List[int]],
    svc: BatchService,
    read_checks: List[Tuple[int, int, str, Tuple[Any, ...], Any]],
) -> List[str]:
    """Plain-list replay of every shard's ``applied_log``; returns the
    list of mismatches (empty when the outputs are correct)."""
    errors: List[str] = []
    by_shard: Dict[int, List[Tuple[int, str, Tuple[Any, ...], Any]]] = {}
    for sid, pos, kind, args, result in read_checks:
        by_shard.setdefault(sid, []).append((pos, kind, args, result))
    for sid, shard in svc.shards.items():
        items = list(initial[sid])
        pending = sorted(by_shard.get(sid, ()), key=lambda c: c[0])
        k = 0
        log = shard.applied_log
        for step in range(len(log) + 1):
            while k < len(pending) and pending[k][0] == step:
                _, kind, args, result = pending[k]
                lo, hi = (0, args[0]) if kind == "prefix" else args
                want = sum(items[lo : hi + 1])
                if result != want:
                    errors.append(
                        f"shard {sid}: {kind}{args} after {step} phases "
                        f"answered {result}, replay gives {want}"
                    )
                k += 1
            if step == len(log):
                break
            verb, payload, _ = log[step]
            if verb == "set":
                for pos, value in payload:
                    items[pos] = value
            elif verb == "delete":
                for pos in sorted(payload, reverse=True):
                    del items[pos]
            else:
                # Pre-batch positions; equal positions keep request order
                # ahead of the original occupant.
                order = sorted(
                    range(len(payload)), key=lambda j: (payload[j][0], j),
                    reverse=True,
                )
                for j in order:
                    items.insert(payload[j][0], payload[j][1])
        if items != shard.values():
            errors.append(f"shard {sid}: final values differ from replay")
        try:
            shard.check_invariants()
        except Exception as exc:
            errors.append(f"shard {sid}: invariants: {exc!r}")
    return errors


async def _build(
    seed: int, shape: ServeShape, initial: Dict[int, List[int]],
    warm_specs: List[RequestSpec],
) -> BatchService:
    svc = BatchService(
        sum_monoid(INTEGER), initial, seed=seed, policy=ServePolicy()
    )
    await svc.start()
    # Warm-up: the first windows, reads and pins pay lazy set-up.
    await closed_loop(
        svc, warm_specs, itertools.count(), shape.clients, float("inf"),
        check_every=1 << 30, limit=len(warm_specs),
    )
    return svc


def run(
    workload: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """One benchmark run; returns the raw measurements (see ``run.py``)."""
    import tracing

    shape = SHAPES[workload]
    rng = random.Random(repr(("perfbench-serve-init", seed)))
    initial = {
        sid: [rng.randrange(RAW) for _ in range(shape.leaves)]
        for sid in range(shape.shards)
    }
    specs = make_specs(seed, shape, N_SPECS)
    warm_specs = make_specs(seed + 1, shape, shape.warm_requests)
    check_every = max(1, N_SPECS // READ_CHECKS)

    async def main() -> Dict[str, Any]:
        setup_rec: Optional[tracing.Recorder] = None
        restore = None
        if trace:
            setup_rec = tracing.Recorder()
            restore = tracing.install(setup_rec)
        setup_times: List[float] = []
        svc: Optional[BatchService] = None
        try:
            for _ in range(SETUP_REPEATS):
                if svc is not None:
                    await svc.close()
                t0 = time.perf_counter()
                svc = await _build(seed, shape, initial, warm_specs)
                setup_times.append(time.perf_counter() - t0)
        finally:
            if restore is not None:
                restore()
        assert svc is not None
        cursor = itertools.count()
        out: Dict[str, Any] = {"setup_times": setup_times}
        gc.collect()
        toggle = None
        if trace:
            toggle = tracing.Toggle(
                tracing.Recorder(), lambda: _executor_stats(svc)
            )
        d = await closed_loop(
            svc, specs, cursor, shape.clients, seconds, check_every,
            toggle=toggle,
        )
        if toggle is not None:
            toggle.finish()
            out["trace"] = {
                "rec": toggle.rec,
                "setup_rec": setup_rec,
                "wall_s": toggle.seconds[1],
                "overhead_share": toggle.overhead_share,
                "executor": dict(toggle.deltas),
            }
        await svc.close()
        out["errors"] = replay_check(initial, svc, d.read_checks) + d.errors
        out["read_checks"] = len(d.read_checks)
        out["drive"] = d
        out["shard_lengths"] = {sid: len(s) for sid, s in svc.shards.items()}
        return out

    raw = asyncio.run(main())
    rss = peak_rss_mb()
    d: Drive = raw["drive"]
    statuses = Counter({status: 0 for status in STATUSES})
    statuses.update(d.statuses)
    return {
        "setup_times": raw["setup_times"],
        "peak_rss_mb": rss,
        "attempted": d.attempted,
        "failed": d.failed,
        "errors": raw["errors"],
        "goodput": d.goodput.rate(seconds),
        "goodput_blocks": d.goodput.blocks,
        "lat": d.lat,
        "statuses": dict(statuses),
        "reasons": dict(d.reasons),
        "trace_statuses": dict(d.traced_statuses),
        "trace_reasons": dict(d.traced_reasons),
        "trace": raw.get("trace"),
        "detail": {
            "shape": {
                "shards": shape.shards,
                "leaves": shape.leaves,
                "clients": shape.clients,
                "mix": dict(shape.mix),
                "zipf_s": shape.zipf_s,
                "loop": "closed",
            },
            "final_shard_lengths": raw["shard_lengths"],
            "read_checks": raw["read_checks"],
            "requests": d.attempted,
            "elapsed_s": d.elapsed,
        },
    }


def _executor_stats(svc: BatchService) -> Dict[str, float]:
    total: Counter = Counter()
    for shard in svc.shards.values():
        stats = shard.session.stats
        for key in ("attempts", "retries", "rollbacks"):
            total[key] += stats[key]
    return dict(total)
