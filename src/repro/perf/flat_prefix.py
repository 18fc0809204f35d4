"""§3 prefix folds over the flat arrays.

:func:`flat_prefix_fold` is the sequential one-leaf prefix walk of
§1.2 over the ``parent``/``left`` arrays.

:func:`flat_batch_prefix` and :func:`flat_range_fold` answer the
Theorem 3.1 batch queries in *one* depth-first walk of the activated
region: membership is read straight from the ``active`` column that
:func:`~repro.perf.flat_activation.flat_activate` sets, and every child
outside it is a leaf of the extended parse tree ``P̂T(U)`` whose
``summary`` joins a running left-to-right ``monoid.combine``.  The walk
visits exactly the entries, in exactly the order, that the reference
:func:`~repro.splitting.parse_tree.build_extended_parse_tree` lists, so
the answers and the entry count ``k`` (which the callers charge as the
parallel prefix's cost) are identical on both backends — no entry
objects are built.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..algebra.monoid import Monoid
from ..errors import ParseTreeError
from .flat_rbsts import NIL, FlatLeaf, FlatRBSTS

__all__ = ["flat_batch_prefix", "flat_prefix_fold", "flat_range_fold"]


def _activated_root(tree: FlatRBSTS) -> int:
    root = tree.root_index
    if not tree._active[root]:
        raise ParseTreeError("root is not part of the activated parse tree")
    return root


def flat_batch_prefix(
    tree: FlatRBSTS, monoid: Monoid, handles: Sequence[FlatLeaf]
) -> Tuple[List[Any], int]:
    """Inclusive prefix folds at the activated ``U``-leaves ``handles``,
    in request order, plus the ``P̂T(U)`` entry count ``k``.

    ``handles`` must already be activated (and therefore checked) by
    :func:`~repro.perf.flat_activation.flat_activate`; the only active
    leaves are the ``U``-leaves, so the running fold is recorded at each
    of them.
    """
    left, right, summary, active = tree._left, tree._right, tree._summary, tree._active
    combine = monoid.combine
    stack = [_activated_root(tree)]
    pop, push = stack.pop, stack.append
    acc = monoid.identity
    at: Dict[int, Any] = {}
    k = 0
    while stack:
        node = pop()
        if active[node]:
            child = left[node]
            if child != NIL:
                push(right[node])
                push(child)
                continue
            acc = combine(acc, summary[node])
            at[node] = acc
        else:
            acc = combine(acc, summary[node])
        k += 1
    return [at[h.idx] for h in handles], k


def flat_range_fold(
    tree: FlatRBSTS, monoid: Monoid, i: int, j: int
) -> Tuple[Any, int]:
    """Fold of the ``P̂T(U)`` entries lying inside positions ``[i, j]``
    of the activated tree, plus the entry count ``k``.

    With ``U`` = the two endpoint leaves, the entries inside the range
    tile it exactly, so this is the fold of values ``i..j`` for any
    monoid.
    """
    left, right, active = tree._left, tree._right, tree._active
    summary, counts = tree._summary, tree._n_leaves
    combine = monoid.combine
    stack = [_activated_root(tree)]
    pop, push = stack.pop, stack.append
    acc = monoid.identity
    pos = 0
    k = 0
    while stack:
        node = pop()
        if active[node] and left[node] != NIL:
            push(right[node])
            push(left[node])
            continue
        width = counts[node]
        # Entry covers sequence positions [pos, pos + width).
        if pos >= i and pos + width - 1 <= j:
            acc = combine(acc, summary[node])
        pos += width
        k += 1
    return acc, k


def flat_prefix_fold(tree: FlatRBSTS, monoid: Monoid, handle: FlatLeaf) -> Any:
    """Inclusive prefix fold at one leaf; O(depth) sequential walk over
    the ``parent``/``left`` arrays (the 'known sequential algorithm' of
    §1.2)."""
    idx = tree._check_handle(handle)
    parent, left, summary = tree._parent, tree._left, tree._summary
    acc_left = monoid.identity
    node = idx
    p = parent[node]
    while p != NIL:
        if left[p] != node:
            acc_left = monoid.combine(summary[left[p]], acc_left)
        node = p
        p = parent[node]
    return monoid.combine(acc_left, summary[idx])
