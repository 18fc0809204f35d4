"""The paper's batch operations called directly on ``backend="flat"``.

No serve, resilience or snapshot layer: each call is one library call
on an :class:`~repro.listprefix.structure.IncrementalListPrefix`
(§2 batch insert/delete, §3 batch prefix) or a
:class:`~repro.contraction.dynamic.DynamicTreeContraction` over a Z/p
expression tree (§4 leaf-value batches, all-leaf sweeps on unchanged
topology, and grow/prune batches that change it).

Batch inputs (raw positions, values, leaf picks) are made from the
seed before the clock starts and replayed cyclically; positions are
normalised against the live length at call time.  The list's calls are
logged and replayed on a Python list after the run; a seeded sample of
``batch_prefix`` answers is checked against that model's prefix sums,
and ``value()`` against ``ExprTree.evaluate()``.
"""

from __future__ import annotations

import gc
import itertools
import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import SETUP_REPEATS, Goodput, Latencies, peak_rss_mb
from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER, modular_ring
from repro.contraction.dynamic import DynamicTreeContraction
from repro.listprefix.structure import IncrementalListPrefix
from repro.trees.builders import random_expression_tree
from repro.trees.nodes import add_op, mul_op

LIST_LEAVES = 1 << 16
TREE_LEAVES = 1 << 13
BATCH = 64
TOPOLOGY_BATCH = 16
#: batch_prefix calls per round: one after the insert, one after the
#: delete.
PREFIX_CALLS = 2
#: Round period of the all-leaf sweep and of the grow/prune cycle
#: (grow at offset 0, prune the grown nodes at offset PERIOD // 2).
SWEEP_PERIOD = 8
TOPOLOGY_PERIOD = 16
#: Rounds of inputs generated per run (replayed cyclically).
N_ROUNDS = 256
#: Every CHECK_PERIOD-th batch_prefix call is checked against the model.
CHECK_PERIOD = 16
MODULUS = (1 << 31) - 1
RAW = 1 << 30


def _distinct(raws: List[int], n: int) -> List[int]:
    """``raw % n`` with linear probing, so a batch never repeats."""
    seen: set = set()
    out: List[int] = []
    for r in raws:
        p = r % n
        while p in seen:
            p = (p + 1) % n
        seen.add(p)
        out.append(p)
    return out


class Inputs:
    """Every random input of a run, generated before the clock."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(repr(("perfbench-paper", seed)))

        def raws(k: int) -> List[int]:
            return [rng.randrange(RAW) for _ in range(k)]

        self.list_values = [rng.randrange(1 << 16) for _ in range(LIST_LEAVES)]
        self.rounds = [
            {
                "ins": list(zip(raws(BATCH), raws(BATCH))),
                "pre": [raws(BATCH) for _ in range(PREFIX_CALLS)],
                "del": raws(BATCH),
                "leaf": raws(BATCH),
                "leaf_vals": [r % MODULUS for r in raws(BATCH)],
                "grow": raws(TOPOLOGY_BATCH),
                "grow_ops": [rng.random() < 0.3 for _ in range(TOPOLOGY_BATCH)],
                "grow_vals": [(r % MODULUS, s % MODULUS) for r, s in
                              zip(raws(TOPOLOGY_BATCH), raws(TOPOLOGY_BATCH))],
                "prune_vals": [r % MODULUS for r in raws(TOPOLOGY_BATCH)],
            }
            for _ in range(N_ROUNDS)
        ]
        self.sweeps = [
            [r % MODULUS for r in raws(TREE_LEAVES + TOPOLOGY_BATCH)]
            for _ in range(4)
        ]
        self.tree_seed = rng.randrange(RAW)


class Paper:
    """The two structures plus the bookkeeping the round loop needs: the
    live leaf-id set of the expression tree and the list call log."""

    def __init__(self, seed: int, inputs: Inputs) -> None:
        self.lst = IncrementalListPrefix(
            sum_monoid(INTEGER), inputs.list_values, seed=seed, backend="flat"
        )
        self.tree = random_expression_tree(
            modular_ring(MODULUS), TREE_LEAVES, seed=inputs.tree_seed
        )
        self.eng = DynamicTreeContraction(self.tree, seed=seed, backend="flat")
        self.leaves = [leaf.nid for leaf in self.tree.leaves_in_order()]
        self.leaf_index = {nid: i for i, nid in enumerate(self.leaves)}
        self.grown: List[Tuple[int, int, int]] = []
        # ("ins", pairs) / ("del", positions) / ("pre", positions, answers)
        self.log: List[Tuple[Any, ...]] = []

    # -- leaf-set bookkeeping (outside the timed calls) -----------------
    def add_leaf(self, nid: int) -> None:
        self.leaf_index[nid] = len(self.leaves)
        self.leaves.append(nid)

    def drop_leaf(self, nid: int) -> None:
        i = self.leaf_index.pop(nid)
        last = self.leaves.pop()
        if last != nid:
            self.leaves[i] = last
            self.leaf_index[last] = i


class Run:
    """Counters of one measured phase."""

    def __init__(self) -> None:
        self.lat = Latencies()
        self.attempted = 0
        self.applied = 0
        self.elapsed = 0.0
        self.goodput = Goodput(time.perf_counter())
        self.errors: List[str] = []

    @property
    def failed(self) -> int:
        return self.attempted - self.applied


def _call(run: Run, classes: Tuple[str, ...], fn: Callable[[], Any]) -> Any:
    """Time one library call; an escaping exception counts as failed."""
    run.attempted += 1
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # count it and keep the run going
        run.errors.append(f"{classes[0]}: {type(exc).__name__}: {exc}")
        return None
    t1 = time.perf_counter()
    run.applied += 1
    run.goodput.add(t1)
    for name in classes:
        run.lat.add(name, t1 - t0)
    return out


def _prefix(p: Paper, run: Run, raws: List[int], check: bool) -> None:
    n = len(p.lst)
    positions = [raw % n for raw in raws]
    handles = [p.lst.handle_at(i) for i in positions]
    answers = _call(
        run, ("read", "list_query"), lambda: p.lst.batch_prefix(handles)
    )
    if check and answers is not None:
        p.log.append(("pre", positions, answers))


def do_round(p: Paper, inputs: Inputs, r: int, run: Run) -> None:
    inp = inputs.rounds[r % N_ROUNDS]
    lst, eng = p.lst, p.eng

    n = len(lst)
    pairs = [(raw % (n + 1), v) for raw, v in inp["ins"]]
    p.log.append(("ins", pairs))
    _call(run, ("write", "list_update"), lambda: lst.batch_insert(pairs))
    _prefix(p, run, inp["pre"][0], check=r % CHECK_PERIOD == 0)

    positions = _distinct(inp["del"], len(lst))
    doomed = [lst.handle_at(i) for i in positions]
    p.log.append(("del", positions))
    _call(run, ("write", "list_update"), lambda: lst.batch_delete(doomed))
    for raws in inp["pre"][1:]:
        _prefix(p, run, raws, check=False)

    picks = _distinct(inp["leaf"], len(p.leaves))
    updates = [(p.leaves[i], v) for i, v in zip(picks, inp["leaf_vals"])]

    def leaf_batch() -> Any:
        eng.batch_set_leaf_values(updates)
        return eng.value()

    _call(run, ("write", "contract_update"), leaf_batch)

    if r % SWEEP_PERIOD == SWEEP_PERIOD // 2:
        values = inputs.sweeps[(r // SWEEP_PERIOD) % len(inputs.sweeps)]
        sweep = list(zip(p.leaves, values))

        def sweep_batch() -> Any:
            eng.batch_set_leaf_values(sweep)
            return eng.value()

        _call(run, ("contract_sweep",), sweep_batch)

    phase = r % TOPOLOGY_PERIOD
    if phase == 0 and not p.grown:
        picks = _distinct(inp["grow"], len(p.leaves))
        targets = [p.leaves[i] for i in picks]
        requests = [
            (nid, mul_op() if is_mul else add_op(), lv, rv)
            for nid, is_mul, (lv, rv) in
            zip(targets, inp["grow_ops"], inp["grow_vals"])
        ]

        def grow() -> Any:
            created = eng.batch_grow(requests)
            eng.value()
            return created

        created = _call(run, ("contract_topology",), grow)
        if created is not None:
            for nid, (lid, rid) in zip(targets, created):
                p.drop_leaf(nid)
                p.add_leaf(lid)
                p.add_leaf(rid)
                p.grown.append((nid, lid, rid))
    elif phase == TOPOLOGY_PERIOD // 2 and p.grown:
        requests = [(nid, v) for (nid, _, _), v in zip(p.grown, inp["prune_vals"])]

        def prune() -> Any:
            eng.batch_prune(requests)
            return eng.value()

        if _call(run, ("contract_topology",), prune) is not None:
            for nid, lid, rid in p.grown:
                p.drop_leaf(lid)
                p.drop_leaf(rid)
                p.add_leaf(nid)
            p.grown = []


def drive(p: Paper, inputs: Inputs, rounds: "itertools.count[int]",
          seconds: float, limit: Optional[int] = None,
          toggle: Optional[Any] = None) -> Run:
    """Whole rounds until ``seconds`` pass (or ``limit`` rounds ran);
    ``toggle`` (a :class:`tracing.Toggle`) switches tracing between
    rounds."""
    run = Run()
    deadline = run.goodput.t0 + seconds
    while time.perf_counter() < deadline:
        r = next(rounds)
        if limit is not None and r >= limit:
            break
        if toggle is not None:
            toggle.tick()
        calls = run.attempted
        do_round(p, inputs, r, run)
        if toggle is not None:
            toggle.done(run.attempted - calls)
    run.elapsed = time.perf_counter() - run.goodput.t0
    if toggle is not None:
        toggle.finish()
    return run


def model_check(p: Paper, inputs: Inputs) -> List[str]:
    """Replay the list log on a Python list; check sampled prefix
    answers, the final values, the expression value and invariants."""
    errors: List[str] = []
    items = list(inputs.list_values)
    for entry in p.log:
        if entry[0] == "ins":
            pairs = entry[1]
            order = sorted(range(len(pairs)), key=lambda j: (pairs[j][0], j),
                           reverse=True)
            for j in order:
                items.insert(pairs[j][0], pairs[j][1])
        elif entry[0] == "del":
            for pos in sorted(entry[1], reverse=True):
                del items[pos]
        else:
            _, positions, answers = entry
            prefix = list(itertools.accumulate(items))
            want = [prefix[i] for i in positions]
            if answers != want:
                errors.append("batch_prefix answers differ from the model")
    if p.lst.values() != items:
        errors.append("list values differ from the model")
    if p.eng.value() != p.tree.evaluate():
        errors.append("contraction value() differs from evaluate()")
    try:
        p.lst.check_invariants()
        p.eng.check_consistency()
    except Exception as exc:
        errors.append(f"invariants: {exc!r}")
    return errors


#: Warm-up rounds per setup: covers one sweep and one grow/prune cycle.
WARM_ROUNDS = TOPOLOGY_PERIOD


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import tracing

    inputs = Inputs(seed)

    def build() -> Paper:
        p = Paper(seed, inputs)
        # Lazy set-up (kernel selection, NumPy paths, shortcut interning,
        # first heal) happens in these warm-up rounds.
        drive(p, inputs, itertools.count(), float("inf"), limit=WARM_ROUNDS)
        return p

    setup_rec = tracing.Recorder() if trace else None
    restore = tracing.install(setup_rec) if setup_rec is not None else None
    setup_times: List[float] = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            p = build()
            setup_times.append(time.perf_counter() - t0)
    finally:
        if restore is not None:
            restore()

    rounds = itertools.count(WARM_ROUNDS)
    gc.collect()
    toggle = tracing.Toggle(tracing.Recorder()) if trace else None
    d = drive(p, inputs, rounds, seconds, toggle=toggle)
    out_trace = None
    if toggle is not None:
        out_trace = {
            "rec": toggle.rec,
            "setup_rec": setup_rec,
            "wall_s": toggle.seconds[1],
            "overhead_share": toggle.overhead_share,
            "executor": {},
        }
    errors = model_check(p, inputs) + d.errors
    return {
        "setup_times": setup_times,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": d.attempted,
        "failed": d.failed,
        "errors": errors,
        "goodput": d.goodput.rate(seconds),
        "goodput_blocks": d.goodput.blocks,
        "lat": d.lat,
        "statuses": None,
        "reasons": None,
        "trace_statuses": None,
        "trace_reasons": None,
        "trace": out_trace,
        "detail": {
            "shape": {
                "list_leaves": LIST_LEAVES,
                "tree_leaves": TREE_LEAVES,
                "batch": BATCH,
                "topology_batch": TOPOLOGY_BATCH,
                "sweep_period": SWEEP_PERIOD,
                "topology_period": TOPOLOGY_PERIOD,
                "loop": "closed (one caller, back to back)",
            },
            "final_lengths": {"list": len(p.lst), "tree_leaves": len(p.leaves)},
            "prefix_checks": sum(1 for e in p.log if e[0] == "pre"),
            "calls": d.attempted,
            "elapsed_s": d.elapsed,
            "ops": d.lat.summary(),
        },
    }
