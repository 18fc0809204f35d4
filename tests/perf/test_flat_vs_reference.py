"""Differential harness: FlatRBSTS pinned op-for-op against the
reference RBSTS.

The flat backend's equivalence contract (see
``src/repro/perf/flat_rbsts.py``) promises *bit-identical* trees for
the same seed and operation sequence — not merely the same
distribution.  These tests drive randomized mixed batch sequences
through both backends in lockstep and compare

* tree shapes (preorder ``is_leaf``/``n_leaves``/``depth``/``height``),
* leaf items and exactly-maintained summaries,
* shortcut lists (as target-depth tuples, position by position),
* ``last_batch_stats`` (rebuild mass, sites, charged work/span),
* Theorem 2.1 activation round/processor counts,
* list-prefix and contraction answers built on top.

Between hypothesis and the seed-matrix test the harness covers well
over 200 distinct random operation sequences.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.errors import UnknownNodeError
from repro.listprefix.structure import IncrementalListPrefix
from repro.perf.flat_rbsts import FlatLeaf, FlatRBSTS
from repro.pram.frames import SpanTracker
from repro.splitting.activation import activate, ancestors_closure, deactivate
from repro.splitting.build import Summarizer
from repro.splitting.rbsts import RBSTS

SUM = Summarizer(sum_monoid(INTEGER), lambda item: item)


def shape_signature(tree):
    """Backend-independent preorder signature of an RBSTS.

    One tuple per node: ``(is_leaf, n_leaves, depth, height, item,
    shortcut_target_depths, summary)`` — everything the paper's
    invariants constrain.
    """
    sig = []
    if isinstance(tree, FlatRBSTS):
        left, right = tree._left, tree._right
        depth_arr = tree._depth
        stack = [tree.root_index]
        while stack:
            v = stack.pop()
            leaf = left[v] == -1
            sc = tree._shortcuts[v]
            sig.append(
                (
                    leaf,
                    tree._n_leaves[v],
                    depth_arr[v],
                    tree._height[v],
                    tree._item[v] if leaf else None,
                    None if sc is None else tuple(depth_arr[s] for s in sc),
                    tree._summary[v],
                )
            )
            if not leaf:
                stack.append(right[v])
                stack.append(left[v])
    else:
        stack = [tree.root]
        while stack:
            v = stack.pop()
            sc = v.shortcuts
            sig.append(
                (
                    v.is_leaf,
                    v.n_leaves,
                    v.depth,
                    v.height,
                    v.item if v.is_leaf else None,
                    None if sc is None else tuple(s.depth for s in sc),
                    v.summary,
                )
            )
            if not v.is_leaf:
                stack.append(v.right)
                stack.append(v.left)
    return sig


def make_pair(n, seed, summarized=True):
    items = list(range(n))
    kw = {"summarizer": SUM} if summarized else {}
    ref = RBSTS(items, seed=seed, **kw)
    flat = RBSTS(items, seed=seed, backend="flat", **kw)
    assert isinstance(flat, FlatRBSTS)
    return ref, flat


def assert_twins(ref, flat):
    assert shape_signature(ref) == shape_signature(flat)
    ref.check_invariants()
    flat.check_invariants()


# ---------------------------------------------------------------------------
# construction + the backend switch
# ---------------------------------------------------------------------------


def test_backend_switch_dispatches():
    flat = RBSTS(range(8), backend="flat")
    assert isinstance(flat, FlatRBSTS)
    assert isinstance(RBSTS(range(8)), RBSTS)
    with pytest.raises(ValueError):
        RBSTS(range(8), backend="columnar")


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 257])
def test_same_seed_same_tree(n, seed):
    ref, flat = make_pair(n, seed)
    assert_twins(ref, flat)
    assert [h.item for h in ref.leaves()] == [h.item for h in flat.leaves()]


# ---------------------------------------------------------------------------
# the main differential mix (hypothesis: 120 sequences here, plus the
# 96-cell seed matrix below and the structure/contraction mixes)
# ---------------------------------------------------------------------------


@st.composite
def op_sequences(draw):
    n0 = draw(st.integers(2, 48))
    seed = draw(st.integers(0, 2**16))
    n_ops = draw(st.integers(1, 8))
    ops = []
    for _ in range(n_ops):
        ops.append(
            draw(
                st.sampled_from(
                    ["ins1", "del1", "bins", "bdel", "bset", "activate"]
                )
            )
        )
    return n0, seed, ops, draw(st.randoms(use_true_random=False))


@given(op_sequences())
@settings(
    # The acceptance contract asks for >= 200 random op sequences per
    # backend pair; this property alone supplies them (the seed-matrix
    # and same-seed tests below add ~90 more).
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_mixed_ops_differential(case):
    n0, seed, ops, rnd = case
    ref, flat = make_pair(n0, seed)
    for op in ops:
        n = ref.n_leaves
        if op == "ins1":
            idx = rnd.randint(0, n)
            ref.insert(idx, 1000 + idx)
            flat.insert(idx, 1000 + idx)
        elif op == "del1":
            if n < 2:
                continue
            idx = rnd.randrange(n)
            ref.delete(ref.leaf_at(idx))
            flat.delete(flat.leaf_at(idx))
        elif op == "bins":
            k = rnd.randint(1, 5)
            reqs = sorted(
                {rnd.randint(0, n): 2000 + j for j in range(k)}.items()
            )
            rh = ref.batch_insert(reqs)
            fh = flat.batch_insert(reqs)
            assert [h.item for h in rh] == [h.item for h in fh]
            assert ref.last_batch_stats == flat.last_batch_stats
        elif op == "bdel":
            if n < 3:
                continue
            k = rnd.randint(1, min(4, n - 1))
            idxs = sorted(rnd.sample(range(n), k))
            ref.batch_delete([ref.leaf_at(i) for i in idxs])
            flat.batch_delete([flat.leaf_at(i) for i in idxs])
            assert ref.last_batch_stats == flat.last_batch_stats
        elif op == "bset":
            k = rnd.randint(1, min(4, n))
            idxs = sorted(rnd.sample(range(n), k))
            ref.batch_update_items(
                [(ref.leaf_at(i), -i) for i in idxs]
            )
            flat.batch_update_items(
                [(flat.leaf_at(i), -i) for i in idxs]
            )
        elif op == "activate":
            k = rnd.randint(1, min(6, n))
            idxs = sorted(rnd.sample(range(n), k))
            r = activate(ref, [ref.leaf_at(i) for i in idxs])
            f = activate(flat, [flat.leaf_at(i) for i in idxs])
            assert (
                r.rounds_stage1,
                r.rounds_stage2,
                r.rounds_stage3,
                r.processors,
                r.peak_processors,
                r.threshold,
                r.fallback_walk_steps,
            ) == (
                f.rounds_stage1,
                f.rounds_stage2,
                f.rounds_stage3,
                f.processors,
                f.peak_processors,
                f.threshold,
                f.fallback_walk_steps,
            )
            assert len(r.activated) == len(f.activated)
            deactivate(r)
            deactivate(f)
        assert_twins(ref, flat)


@pytest.mark.parametrize("seed", range(24))
def test_seed_matrix_long_mix(seed):
    """A longer deterministic mix per seed (24 sequences x 16 batches)."""
    rnd = random.Random(0xABCDEF ^ seed)
    ref, flat = make_pair(rnd.randint(4, 120), seed)
    for _ in range(16):
        n = ref.n_leaves
        kind = rnd.choice(["bins", "bdel", "single"])
        if kind == "bins":
            reqs = sorted(
                {rnd.randint(0, n): rnd.randint(-99, 99) for _ in range(4)}.items()
            )
            ref.batch_insert(reqs)
            flat.batch_insert(reqs)
            assert ref.last_batch_stats == flat.last_batch_stats
        elif kind == "bdel" and n > 4:
            idxs = sorted(rnd.sample(range(n), rnd.randint(1, 3)))
            ref.batch_delete([ref.leaf_at(i) for i in idxs])
            flat.batch_delete([flat.leaf_at(i) for i in idxs])
            assert ref.last_batch_stats == flat.last_batch_stats
        else:
            idx = rnd.randint(0, n)
            ref.insert(idx, idx)
            flat.insert(idx, idx)
        assert_twins(ref, flat)


# ---------------------------------------------------------------------------
# adversarial workload cells: delete-heavy churn and degenerate batch
# shapes (sorted runs, duplicate positions, boundary indices) that the
# uniform mixes above rarely produce
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_delete_heavy_churn(seed):
    """Shrink a 96-leaf pair down to 2 leaves through delete-dominated
    batches (3 deletes per insert), then regrow; the free-list and the
    repair pass both get exercised far more than in the uniform mix."""
    rnd = random.Random(0xDE1E7E ^ seed)
    ref, flat = make_pair(96, seed)
    while ref.n_leaves > 2:
        n = ref.n_leaves
        k = min(rnd.randint(3, 6), n - 1)
        idxs = sorted(rnd.sample(range(n), k))
        ref.batch_delete([ref.leaf_at(i) for i in idxs])
        flat.batch_delete([flat.leaf_at(i) for i in idxs])
        assert ref.last_batch_stats == flat.last_batch_stats
        if rnd.random() < 0.25:
            pos = rnd.randint(0, ref.n_leaves)
            ref.insert(pos, -7)
            flat.insert(pos, -7)
        assert_twins(ref, flat)
    # Regrow from the floor: the slab must absorb the churn.
    for j in range(10):
        reqs = [(rnd.randint(0, ref.n_leaves), 100 + j)]
        ref.batch_insert(reqs)
        flat.batch_insert(reqs)
        assert_twins(ref, flat)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "style", ["sorted_asc", "sorted_desc", "duplicate", "boundary"]
)
def test_adversarial_batch_shapes(style, seed):
    """Degenerate insert/delete position patterns.

    * ``sorted_asc`` / ``sorted_desc``: monotone runs concentrate all
      rebuild sites on one flank of the tree;
    * ``duplicate``: every insert lands at one position (the paper's
      worst case for a single Theorem 2.2 entry point);
    * ``boundary``: positions pinned to 0 and ``n`` (prepend/append).
    """
    rnd = random.Random(1000 * seed + 17)
    ref, flat = make_pair(24, seed)
    for step in range(8):
        n = ref.n_leaves
        if style == "sorted_asc":
            reqs = [(min(i, n), 10 * step + i) for i in range(5)]
            del_idxs = list(range(min(3, n - 1)))
        elif style == "sorted_desc":
            reqs = [(max(n - i, 0), 10 * step + i) for i in range(5)]
            del_idxs = sorted(range(n - 1, max(n - 4, 0), -1))
        elif style == "duplicate":
            pos = rnd.randint(0, n)
            reqs = [(pos, 10 * step + i) for i in range(5)]
            del_idxs = [rnd.randrange(n)] if n > 1 else []
        else:  # boundary
            reqs = [(0, -step), (n, step), (0, -step - 1), (n, step + 1)]
            del_idxs = ([0, n - 1] if n > 2 else [])
        rh = ref.batch_insert(reqs)
        fh = flat.batch_insert(reqs)
        assert [h.item for h in rh] == [h.item for h in fh]
        assert ref.last_batch_stats == flat.last_batch_stats
        assert_twins(ref, flat)
        del_idxs = sorted(set(del_idxs))
        if del_idxs and ref.n_leaves - len(del_idxs) >= 1:
            ref.batch_delete([ref.leaf_at(i) for i in del_idxs])
            flat.batch_delete([flat.leaf_at(i) for i in del_idxs])
            assert ref.last_batch_stats == flat.last_batch_stats
            assert_twins(ref, flat)
    assert [h.item for h in ref.leaves()] == [h.item for h in flat.leaves()]


# ---------------------------------------------------------------------------
# tracker parity: charged simulated costs agree batch-for-batch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_tracker_charges_identical(seed):
    ref, flat = make_pair(64, seed)
    rnd = random.Random(seed)
    for _ in range(6):
        n = ref.n_leaves
        tr_r, tr_f = SpanTracker(), SpanTracker()
        reqs = sorted({rnd.randint(0, n): 5 for _ in range(3)}.items())
        ref.batch_insert(reqs, tr_r)
        flat.batch_insert(reqs, tr_f)
        assert (tr_r.work, tr_r.span) == (tr_f.work, tr_f.span)
        tr_r, tr_f = SpanTracker(), SpanTracker()
        idxs = sorted(rnd.sample(range(ref.n_leaves), 2))
        ref.batch_delete([ref.leaf_at(i) for i in idxs], tr_r)
        flat.batch_delete([flat.leaf_at(i) for i in idxs], tr_f)
        assert (tr_r.work, tr_r.span) == (tr_f.work, tr_f.span)


# ---------------------------------------------------------------------------
# activation against the closure oracle on the flat backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_flat_activation_matches_closure_oracle(seed):
    rnd = random.Random(seed)
    ref, flat = make_pair(rnd.randint(16, 300), seed)
    k = rnd.randint(1, 12)
    idxs = sorted(rnd.sample(range(ref.n_leaves), k))
    rl = [ref.leaf_at(i) for i in idxs]
    fl = [flat.leaf_at(i) for i in idxs]
    r = activate(ref, rl)
    f = activate(flat, fl)
    # Same *size* of PT(U), and the reference matches the brute oracle.
    assert r.node_set() == ancestors_closure(rl)
    assert len(f.node_set()) == len(r.node_set())
    deactivate(r)
    deactivate(f)
    flat.check_invariants()  # clean active/low cells after deactivate


# ---------------------------------------------------------------------------
# handle durability and slab hygiene
# ---------------------------------------------------------------------------


def test_flat_handles_survive_rebuilds_and_die_on_delete():
    flat = RBSTS(range(32), seed=5, backend="flat")
    h10 = flat.leaf_at(10)
    flat.batch_insert([(0, -1), (20, -2)])
    assert h10.item == 10
    assert flat.index_of(h10) == flat.leaves().index(h10)
    flat.delete(h10)
    with pytest.raises(UnknownNodeError):
        flat.index_of(h10)
    with pytest.raises(UnknownNodeError):
        flat.delete(h10)


def test_flat_slab_recycles_slots():
    flat = RBSTS(range(64), seed=7, backend="flat")
    baseline = flat.slab_size
    rnd = random.Random(7)
    for _ in range(12):
        n = flat.n_leaves
        idxs = sorted(rnd.sample(range(n), 4))
        flat.batch_delete([flat.leaf_at(i) for i in idxs])
        flat.batch_insert(
            sorted({rnd.randint(0, flat.n_leaves): 9 for _ in range(4)}.items())
        )
    # Churn must be absorbed by the free-list, not unbounded slab growth.
    assert flat.slab_size <= baseline + 2 * 64
    flat.check_invariants()


# ---------------------------------------------------------------------------
# list-prefix and summaries ride the same contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_listprefix_differential(seed):
    m = sum_monoid(INTEGER)
    rnd = random.Random(31 * seed + 1)
    vals = [rnd.randint(-50, 50) for _ in range(rnd.randint(4, 120))]
    ref = IncrementalListPrefix(m, vals, seed=seed)
    flat = IncrementalListPrefix(m, vals, seed=seed, backend="flat")
    for _ in range(5):
        n = len(ref)
        idxs = sorted(rnd.sample(range(n), rnd.randint(1, min(12, n))))
        # Duplicate handles in one batch ride along (same answer twice).
        idxs.append(rnd.choice(idxs))
        rh = [ref.handle_at(i) for i in idxs]
        fh = [flat.handle_at(i) for i in idxs]
        tr_r, tr_f = SpanTracker(), SpanTracker()
        assert ref.batch_prefix(rh, tr_r) == flat.batch_prefix(fh, tr_f)
        # Same P̂T(U) entry count on both backends -> identical charges.
        assert (tr_r.work, tr_r.span) == (tr_f.work, tr_f.span)
        assert ref.prefix(rh[0]) == flat.prefix(fh[0])
        i, j = (sorted(rnd.sample(range(n), 2)) if n > 1 else (0, 0))
        tr_r, tr_f = SpanTracker(), SpanTracker()
        assert ref.range_fold(
            ref.handle_at(i), ref.handle_at(j), tr_r
        ) == flat.range_fold(flat.handle_at(i), flat.handle_at(j), tr_f)
        assert (tr_r.work, tr_r.span) == (tr_f.work, tr_f.span)
        assert ref.total() == flat.total()
        reqs = sorted({rnd.randint(0, n): rnd.randint(-9, 9) for _ in range(3)}.items())
        ref.batch_insert(reqs)
        flat.batch_insert(reqs)
        assert ref.values() == flat.values()
    # Oracle: prefix over all handles is the running sum.
    assert flat.batch_prefix(flat.handles()) == list(
        itertools.accumulate(flat.values())
    )
