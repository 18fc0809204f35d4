"""Span recorder for the traced benchmark runs.

The recorder wraps the *public* calls of each layer from the outside
(``install`` swaps module/class attributes, ``restore`` puts the
originals back), so the program under test carries no tracing code
and an untraced run executes exactly the library's own functions.

A span is ``(name, start, end, parent, request id)``; a window span
serves many requests, so their ids are kept beside it (``window_reqs``)
and its own id is -1, as is that of every span outside a serve request.
The current span lives in a :class:`contextvars.ContextVar`, so every
asyncio task (client coroutine, per-shard window pump) has its own span
stack: a window span is the root of its own tree, never a child of the
``serve.submit`` span that happens to be awaiting it.  Spans are kept
in flat typed arrays in memory and written out once, at the end.

Self time of a span is its duration minus the durations of its direct
children.  Children are synchronous calls made inside the parent on
the same task, so they are nested and disjoint, and the self times of a
tree sum to the duration of its root (checked by :meth:`Recorder.trees`).
"""

from __future__ import annotations

import contextvars
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

now = time.monotonic  # the serve layer's MonotonicClock reads the same clock

#: Span names; the part before the first dot is the layer (module).
SPAN_NAMES = (
    "serve.submit",
    "serve.window",
    "serve.read",
    "transactions.admit",
    "transactions.execute_batch",
    "resilience.supervise",
    "resilience.audit",
    "snapshots.materialize",
    "snapshots.read_fold",
    "listprefix.batch_insert",
    "listprefix.batch_delete",
    "listprefix.batch_set",
    "listprefix.batch_prefix",
    "splitting.build",
    "contraction.build",
    "contraction.batch_set",
    "contraction.grow",
    "contraction.prune",
    "contraction.value",
    "contraction.heal",
    "contraction.replay",
    "kernels.call",
)

#: Spans whose self time is waiting (the awaiting client coroutine),
#: not work on the loop.
WAIT_SPANS = ("serve.submit",)

#: Spans of building a structure: they run during set-up, so they are
#: reported as build times, not as shares of the measured run.
SETUP_SPANS = ("splitting.build", "contraction.build")


class Recorder:
    """In-memory span store plus the counters taken at span boundaries."""

    def __init__(self) -> None:
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("q")
        self.window_reqs: Dict[int, Tuple[int, ...]] = {}
        self.current: "contextvars.ContextVar[int]" = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)

    # -- span lifecycle -------------------------------------------------
    def open(self, nid: int) -> Tuple[int, Any]:
        idx = len(self.name)
        parent = self.current.get()
        self.name.append(nid)
        self.start.append(now())
        self.end.append(-1.0)
        self.parent.append(parent)
        self.req.append(self.req[parent] if parent >= 0 else -1)
        return idx, self.current.set(idx)

    def close(self, idx: int, token: Any) -> None:
        self.end[idx] = now()
        self.current.reset(token)

    def current_name(self) -> str:
        idx = self.current.get()
        return SPAN_NAMES[self.name[idx]] if idx >= 0 else ""

    # -- derived views --------------------------------------------------
    def arrays(self) -> Dict[str, Any]:
        import numpy as np

        n = len(self.name)
        name = np.frombuffer(self.name, dtype=np.int32, count=n).copy()
        start = np.frombuffer(self.start, dtype=np.float64, count=n).copy()
        end = np.frombuffer(self.end, dtype=np.float64, count=n).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).copy()
        closed = end >= 0.0
        dur = np.where(closed, end - start, 0.0)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "req": np.frombuffer(self.req, dtype=np.int64, count=n).copy(),
            "dur": dur,
            "self": dur - child,
            "closed": closed,
        }

    def trees(self, a: Dict[str, Any]) -> Dict[str, float]:
        """Per-tree audit: the self times of each tree sum to its root's
        duration, and no span's children outlast it."""
        import numpy as np

        parent = a["parent"]
        root = np.arange(len(parent))
        # Pointer jumping: root[i] becomes the root of i's tree.
        for _ in range(64):
            up = parent[root]
            nxt = np.where(up >= 0, up, root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        sums = np.zeros(len(parent))
        np.add.at(sums, root, a["self"])
        is_root = parent < 0
        err = np.abs(sums[is_root] - a["dur"][is_root])
        return {
            "trees": float(is_root.sum()),
            "self_sum_error_max_s": float(err.max()) if err.size else 0.0,
            "self_min_s": float(a["self"].min()) if len(parent) else 0.0,
        }

    def save(self, path: str) -> None:
        import numpy as np

        a = self.arrays()
        pairs = [(i, r) for i, reqs in self.window_reqs.items() for r in reqs]
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            window_span=np.array([i for i, _ in pairs], dtype=np.int64),
            window_req=np.array([r for _, r in pairs], dtype=np.int64),
            **{k: a[k] for k in ("name", "start", "end", "parent", "req")},
        )


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _span(rec: Recorder, name: str, orig: Callable[..., Any]) -> Callable[..., Any]:
    nid = rec.ids[name]

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        idx, token = rec.open(nid)
        try:
            return orig(*args, **kwargs)
        finally:
            rec.close(idx, token)

    return wrapper


def _submit(rec: Recorder, orig: Callable[..., Any]) -> Callable[..., Any]:
    nid = rec.ids["serve.submit"]

    async def submit(self: Any, *args: Any, **kwargs: Any) -> Any:
        idx, token = rec.open(nid)
        try:
            resp = await orig(self, *args, **kwargs)
        finally:
            rec.close(idx, token)
        rec.req[idx] = resp.req_id
        return resp

    return submit


def _window(rec: Recorder, orig: Callable[..., Any]) -> Callable[..., Any]:
    nid = rec.ids["serve.window"]

    def execute_window(self: Any, window: Any, now_s: float) -> Any:
        idx, token = rec.open(nid)
        start = rec.start[idx]
        for req in window:
            rec.samples["serve.queue_wait"].append(start - req.arrival)
        rec.window_reqs[idx] = tuple(req.req_id for req in window)
        rec.counts["serve.window_requests"] += len(window)
        try:
            return orig(self, window, now_s)
        finally:
            rec.close(idx, token)

    return execute_window


def _read(rec: Recorder, orig: Callable[..., Any]) -> Callable[..., Any]:
    nid = rec.ids["serve.read"]

    def read(self: Any, req: Any, now_s: float) -> Any:
        idx, token = rec.open(nid)
        rec.req[idx] = req.req_id  # the pin and fold spans inherit it
        try:
            return orig(self, req, now_s)
        finally:
            rec.close(idx, token)

    return read


def _audit(rec: Recorder, orig: Callable[..., Any]) -> Callable[..., Any]:
    nid = rec.ids["resilience.audit"]

    def check_invariants(self: Any) -> Any:
        # Only the post-batch audit inside supervision is a serve-path
        # cost; the benchmark's own output checks call it too.
        if rec.current_name() != "resilience.supervise":
            return orig(self)
        idx, token = rec.open(nid)
        try:
            return orig(self)
        finally:
            rec.close(idx, token)

    return check_invariants


def _materialize(rec: Recorder, orig: Callable[..., Any]) -> Callable[..., Any]:
    nid = rec.ids["snapshots.materialize"]

    def materialize(self: Any, tree: Any) -> Any:
        idx, token = rec.open(nid)
        try:
            state = orig(self, tree)
        finally:
            rec.close(idx, token)
        rec.counts["snapshots.materializations"] += 1
        rec.counts["snapshots.cells_copied"] += sum(
            len(col) for col in state.columns.values()
        )
        return state

    return materialize


def _list_batch(
    rec: Recorder, name: str, orig: Callable[..., Any], span_tracker: Any
) -> Callable[..., Any]:
    nid = rec.ids[name]
    kind = name.split(".")[1]

    def batch(self: Any, items: Any, tracker: Any = None, **kwargs: Any) -> Any:
        # A caller-less tracker is created by the library anyway; passing
        # our own exposes the simulated work/span of this call.
        tracker = tracker if tracker is not None else span_tracker()
        n_before = len(self)
        idx, token = rec.open(nid)
        try:
            result = orig(self, items, tracker, **kwargs)
        finally:
            rec.close(idx, token)
        u = len(items)
        rec.samples["splitting.work"].append(tracker.work)
        rec.samples["splitting.span"].append(tracker.span)
        if kind in ("batch_insert", "batch_delete") and u:
            stats = self.tree.last_batch_stats or {}
            mass = stats.get("rebuild_mass", 0)
            rec.samples["splitting.rebuild_mass"].append(mass)
            rec.samples["splitting.sites"].append(stats.get("sites", 0))
            rec.samples["splitting.rebuild_mass_ratio"].append(
                mass / (u * _log2(n_before))
            )
        return result

    return batch


def _contraction_batch(
    rec: Recorder, name: str, orig: Callable[..., Any]
) -> Callable[..., Any]:
    nid = rec.ids[name]

    def batch(self: Any, items: Any, *args: Any, **kwargs: Any) -> Any:
        idx, token = rec.open(nid)
        try:
            result = orig(self, items, *args, **kwargs)
        finally:
            rec.close(idx, token)
        stats = self.last_stats
        if name == "contraction.batch_set" and items:
            wound = stats.get("wound", 0)
            rec.samples["contraction.wound"].append(wound)
            rec.samples["contraction.wound_ratio"].append(
                wound / (len(items) * _log2(self.pt.n_leaves))
            )
        elif items:
            rec.samples["contraction.fresh_rt_nodes"].append(
                stats.get("fresh_rt_nodes", 0)
            )
        return result

    return batch


def _kernel(rec: Recorder, orig: Callable[..., Any]) -> Callable[..., Any]:
    nid = rec.ids["kernels.call"]

    def kernel(self: Any, *cols: Any) -> Any:
        # NumpyKernels falls back to the scalar twin through super():
        # count the outermost call only.
        if rec.current_name() == "kernels.call":
            return orig(self, *cols)
        idx, token = rec.open(nid)
        try:
            out = orig(self, *cols)
        finally:
            rec.close(idx, token)
        rows = len(cols[0])
        rec.counts["kernels.calls"] += 1
        rec.counts["kernels.rows"] += rows
        # Columns read plus the two label columns written, 8 bytes each.
        rec.counts["kernels.bytes_moved"] += rows * (len(cols) + 2) * 8
        return out

    return kernel


def _log2(n: int) -> float:
    import math

    return math.log2(max(2, n))


#: Length of each untraced and traced block of a ``--trace 1`` run.
TRACE_BLOCK_S = 1.0


class Toggle:
    """Turns tracing on and off in alternating blocks of
    :data:`TRACE_BLOCK_S` (off first), so traced and untraced time see
    the same workload state; the load loop calls :meth:`tick` between
    operations and :meth:`done` for each finished one.  ``stats``
    (optional) returns counters whose growth during traced blocks is
    summed."""

    def __init__(
        self, rec: Recorder, stats: Callable[[], Dict[str, float]] = dict
    ) -> None:
        self.rec = rec
        self.stats = stats
        self.on = False
        self.restore: Callable[[], None] = lambda: None
        self.switched = time.perf_counter()
        self.seconds = [0.0, 0.0]  # [untraced, traced]
        self.ops = [0, 0]
        self.deltas: Dict[str, float] = defaultdict(float)
        self._stats_on: Dict[str, float] = {}

    def tick(self) -> None:
        t = time.perf_counter()
        if t - self.switched >= TRACE_BLOCK_S:
            self._switch(t)

    def done(self, n: int = 1) -> None:
        self.ops[self.on] += n

    def finish(self) -> None:
        if self.on:
            self._switch(time.perf_counter())

    def _switch(self, t: float) -> None:
        self.seconds[self.on] += t - self.switched
        self.switched = t
        if self.on:
            self.restore()
            for k, v in self.stats().items():
                self.deltas[k] += v - self._stats_on[k]
        else:
            self._stats_on = self.stats()
            self.restore = install(self.rec)
        self.on = not self.on

    @property
    def overhead_share(self) -> float:
        """Traced over untraced wall time per operation, minus 1."""
        off = self.seconds[0] / max(1, self.ops[0])
        on = self.seconds[1] / max(1, self.ops[1])
        return on / off - 1.0 if off > 0 else 0.0


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every traced boundary; returns the function that undoes it."""
    from repro.contraction.dynamic import DynamicTreeContraction
    from repro.listprefix.structure import IncrementalListPrefix
    from repro.perf import flat_rbsts
    from repro.perf.flat_contraction import FlatContraction
    from repro.perf.flat_rbsts import FlatRBSTS
    from repro.perf.kernels import NumpyKernels, PythonKernels
    from repro.pram.frames import SpanTracker
    from repro.resilience.executor import ResilientExecutor
    from repro.serve import shard as shard_mod
    from repro.serve.service import BatchService
    from repro.serve.shard import Shard
    from repro.snapshots.core import FlatSnapshot
    from repro.snapshots.reader import PinnedReader
    from repro.splitting import rbsts as rbsts_mod
    from repro.splitting.rbsts import RBSTS

    plan: List[Tuple[Any, str, Callable[[Callable[..., Any]], Callable[..., Any]]]] = [
        (BatchService, "submit", lambda f: _submit(rec, f)),
        (Shard, "execute_window", lambda f: _window(rec, f)),
        (Shard, "read", lambda f: _read(rec, f)),
        (ResilientExecutor, "supervise", lambda f: _span(rec, "resilience.supervise", f)),
        (FlatRBSTS, "check_invariants", lambda f: _audit(rec, f)),
        (RBSTS, "check_invariants", lambda f: _audit(rec, f)),
        (FlatSnapshot, "materialize", lambda f: _materialize(rec, f)),
        (FlatRBSTS, "__init__", lambda f: _span(rec, "splitting.build", f)),
        (DynamicTreeContraction, "__init__", lambda f: _span(rec, "contraction.build", f)),
        (DynamicTreeContraction, "value", lambda f: _span(rec, "contraction.value", f)),
        (FlatContraction, "heal", lambda f: _span(rec, "contraction.heal", f)),
        (FlatContraction, "replay", lambda f: _span(rec, "contraction.replay", f)),
    ]
    for verb in ("validate_batch_insert", "validate_batch_delete", "validate_batch_update"):
        plan.append((shard_mod, verb, lambda f: _span(rec, "transactions.admit", f)))
    for mod in (flat_rbsts, rbsts_mod):
        plan.append((mod, "execute_batch", lambda f: _span(rec, "transactions.execute_batch", f)))
    for method in ("prefix", "range_fold", "total"):
        plan.append((PinnedReader, method, lambda f: _span(rec, "snapshots.read_fold", f)))
    for method in ("batch_insert", "batch_delete", "batch_set", "batch_prefix"):
        name = f"listprefix.{method}"
        plan.append(
            (IncrementalListPrefix, method,
             lambda f, name=name: _list_batch(rec, name, f, SpanTracker))
        )
    for method, name in (
        ("batch_set_leaf_values", "contraction.batch_set"),
        ("batch_grow", "contraction.grow"),
        ("batch_prune", "contraction.prune"),
    ):
        plan.append(
            (DynamicTreeContraction, method,
             lambda f, name=name: _contraction_batch(rec, name, f))
        )
    for cls in (PythonKernels, NumpyKernels):
        for method in ("rake_add", "rake_mul", "compress"):
            if method in vars(cls):
                plan.append((cls, method, lambda f: _kernel(rec, f)))

    originals: List[Tuple[Any, str, Any]] = []
    for owner, attr, make in plan:
        orig = vars(owner)[attr]
        originals.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def restore() -> None:
        for owner, attr, orig in reversed(originals):
            setattr(owner, attr, orig)

    return restore
