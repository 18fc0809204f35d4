"""Transactional batch execution for the RBSTS backends (PR 3).

The paper's batch contract is *atomic*: Theorems 2.2/2.3 assume a
request batch ``U`` is applied as a unit and the RBSTS distribution is
preserved afterwards — there is no well-defined state "halfway through
a batch".  This module supplies the three pieces both backends share:

1. **Admission control** (:func:`validate_batch_insert` /
   :func:`validate_batch_delete` / :func:`validate_batch_update`):
   RNG-free whole-batch validators producing
   :class:`~repro.errors.RequestRejection` records.  A rejected batch
   raises :func:`~repro.errors.batch_validation_error` *before any
   state is touched*: no mutation, no RNG consumption, and
   ``last_batch_stats`` reset to ``{}`` so a stale previous-batch
   report cannot masquerade as this batch's outcome.

2. **Journals** (:class:`~repro.snapshots.core.ReferenceSnapshot` for
   the pointer-graph backend, :class:`~repro.snapshots.core.FlatSnapshot`
   for the struct-of-arrays backend, opened by each tree's
   ``_txn_begin``): undo logs capturing pre-images at every mutation
   hook so that any exception escaping mid-apply restores the
   pre-batch state bit-for-bit — structure, shortcut lists, summaries,
   ``last_batch_stats`` and ``rng_state()`` all equal the pre-batch
   snapshot (DESIGN.md §7 maps this to the Theorems 2.2/2.3
   distribution-preservation claim).

3. **The driver** (:func:`execute_batch`): strict/partial policy
   dispatch around a journaled core apply.  ``policy="strict"``
   (default) rejects the whole batch atomically on any invalid
   request; ``policy="partial"`` drops rejected requests, applies the
   rest transactionally, and returns a :class:`BatchReport` with one
   :class:`RequestOutcome` per submitted request.

Journal mechanics
-----------------

*Reference backend* — an ordered undo log.  Rebuilds detach the old
subtree intact (old internal nodes are never mutated) and only splice
one child pointer plus re-place the reused leaf objects, so the log
records (a) the splice link + per-leaf ``(parent, depth, summary,
shortcuts)`` pre-images per rebuild, (b) ``(n_leaves, height, summary,
shortcuts)`` pre-images per repaired ancestor, (c) ``(item, summary)``
pre-images per relabelled leaf.  Rollback replays the log in reverse
and restores the RNG state, node-id counter, high-water mark and
stats.

*Flat backend* — an array-epoch snapshot.  The slab only grows during
a batch (columns are append-only apart from in-place writes), so
rollback is: truncate every column to the pre-batch length, write back
the lazily-saved per-slot pre-images (all 12 columns, captured
``dict.setdefault``-style at the first mutation of each pre-existing
slot), and restore the free list via the *min-length tail* trick —
entries below the minimum length the free list ever reached are
untouched originals; every original popped below the running minimum
is recorded and re-appended in index order on rollback.

Neither journal touches :class:`~repro.pram.frames.SpanTracker`
accounting or draws randomness, so the machine-readable perf harness
sees bit-identical simulated costs with journaling on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple

from .errors import (
    InvalidParameterError,
    RequestRejection,
    batch_validation_error,
)

__all__ = [
    "POLICIES",
    "RequestOutcome",
    "BatchReport",
    "validate_batch_insert",
    "validate_batch_delete",
    "validate_batch_update",
    "execute_batch",
]

POLICIES = ("strict", "partial")


# ---------------------------------------------------------------------------
# per-request outcome reporting (policy="partial")
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RequestOutcome:
    """Outcome of one request in a ``policy="partial"`` batch."""

    index: int
    accepted: bool
    result: Any = None
    reason: str = ""
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.accepted:
            return f"request[{self.index}]: applied"
        return f"request[{self.index}]: rejected ({self.reason})"


@dataclass(frozen=True)
class BatchReport:
    """Per-request report returned by ``policy="partial"`` batch calls.

    ``outcomes`` has one entry per *submitted* request, in submission
    order.  ``applied``/``rejected`` are the split counts.  For batch
    inserts each accepted outcome's ``result`` is the new leaf handle;
    for batch deletes it is the deleted item.
    """

    outcomes: Tuple[RequestOutcome, ...]

    @property
    def applied(self) -> int:
        return sum(1 for o in self.outcomes if o.accepted)

    @property
    def rejected(self) -> int:
        return sum(1 for o in self.outcomes if not o.accepted)

    @property
    def results(self) -> List[Any]:
        """Results of the accepted requests, in submission order."""
        return [o.result for o in self.outcomes if o.accepted]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchReport(applied={self.applied}, rejected={self.rejected})"
        )


# ---------------------------------------------------------------------------
# RNG-free whole-batch validators (admission control)
# ---------------------------------------------------------------------------


def validate_batch_insert(
    n_leaves: int, requests: Sequence[Tuple[int, Any]]
) -> List[RequestRejection]:
    """Validate a batch of ``(index, item)`` insert requests against the
    pre-batch sequence length.  Touches no state, draws no randomness."""
    rejections: List[RequestRejection] = []
    for i, req in enumerate(requests):
        idx = req[0]
        if not isinstance(idx, int) or not 0 <= idx <= n_leaves:
            rejections.append(
                RequestRejection(
                    i,
                    "position-out-of-range",
                    f"insert position {idx!r} out of range 0..{n_leaves}",
                )
            )
    return rejections


def validate_batch_delete(
    n_leaves: int,
    handles: Sequence[Any],
    *,
    is_leaf: Callable[[Any], bool],
    is_member: Callable[[Any], bool],
) -> List[RequestRejection]:
    """Validate a batch of delete handles.

    Per-request checks run in submission order — not-a-leaf, then
    unknown-handle, then duplicate-handle — followed by the batch-level
    delete-all-leaves check over the surviving valid requests (deleting
    every leaf is rejected as a whole: *all* otherwise-valid requests
    are marked, so ``policy="partial"`` applies none of them).
    The predicate callables let both backends share identical
    accept/reject behaviour.
    """
    rejections: List[RequestRejection] = []
    seen: Set[Any] = set()
    valid: List[int] = []
    for i, h in enumerate(handles):
        if not is_leaf(h):
            rejections.append(
                RequestRejection(i, "not-a-leaf", "delete target must be a leaf")
            )
            continue
        if not is_member(h):
            rejections.append(
                RequestRejection(
                    i, "unknown-handle", "leaf does not belong to this RBSTS"
                )
            )
            continue
        if id(h) in seen:
            rejections.append(
                RequestRejection(
                    i, "duplicate-handle", "duplicate leaves in batch delete"
                )
            )
            continue
        seen.add(id(h))
        valid.append(i)
    if valid and len(valid) >= n_leaves:
        for i in valid:
            rejections.append(
                RequestRejection(
                    i,
                    "delete-all-leaves",
                    "cannot delete every leaf of an RBSTS",
                )
            )
        rejections.sort(key=lambda r: r.index)
    return rejections


def validate_batch_update(
    updates: Sequence[Tuple[Any, Any]],
    *,
    is_leaf: Callable[[Any], bool],
    is_member: Callable[[Any], bool],
) -> List[RequestRejection]:
    """Validate a batch of ``(handle, item)`` relabel requests.
    Duplicate handles are allowed (last write wins, as before)."""
    rejections: List[RequestRejection] = []
    for i, (h, _item) in enumerate(updates):
        if not is_leaf(h):
            rejections.append(
                RequestRejection(i, "not-a-leaf", "update target must be a leaf")
            )
        elif not is_member(h):
            rejections.append(
                RequestRejection(
                    i, "unknown-handle", "leaf does not belong to this RBSTS"
                )
            )
    return rejections


# ---------------------------------------------------------------------------
# the policy driver
# ---------------------------------------------------------------------------


def execute_batch(
    tree: Any,
    requests: Sequence[Any],
    rejections: Sequence[RequestRejection],
    apply: Callable[[Sequence[Any]], Tuple[Any, Optional[List[Any]]]],
    *,
    policy: str,
    verb: str,
) -> Any:
    """Run one batch under ``policy``.

    ``apply(admitted)`` performs the already-validated core batch and
    returns ``(public_result, per_admitted_results)``; it runs inside a
    transaction (``tree._txn_begin``/``_txn_rollback``/``_txn_commit``)
    so any escaping exception — including injected crash faults —
    restores the pre-batch state bit-for-bit before propagating.

    * ``strict`` (default): any rejection aborts the whole batch —
      ``last_batch_stats`` is reset to ``{}`` and the factory-chosen
      :class:`~repro.errors.BatchValidationError` subclass raised;
      otherwise returns ``public_result``.
    * ``partial``: rejected requests are dropped, the remainder applied
      transactionally, and a :class:`BatchReport` returned.
    """
    if policy not in POLICIES:
        raise InvalidParameterError(
            f"unknown batch policy {policy!r} (expected one of {POLICIES})"
        )

    if policy == "strict":
        if rejections:
            tree.last_batch_stats = {}
            raise batch_validation_error(
                rejections, len(requests), verb=verb
            )
        if not requests:
            return apply(requests)[0]
        return _apply_txn(tree, requests, apply)[0]

    # policy == "partial"
    rej_by_index = {r.index: r for r in rejections}
    admitted = [
        req for i, req in enumerate(requests) if i not in rej_by_index
    ]
    per_admitted: Optional[List[Any]] = None
    if admitted:
        _, per_admitted = _apply_txn(tree, admitted, apply)
    elif requests:
        # Nothing applied: don't leave the previous batch's stats around.
        tree.last_batch_stats = {}
    outcomes: List[RequestOutcome] = []
    ai = 0
    for i in range(len(requests)):
        rej = rej_by_index.get(i)
        if rej is not None:
            outcomes.append(
                RequestOutcome(i, False, None, rej.reason, rej.detail)
            )
        else:
            result = per_admitted[ai] if per_admitted is not None else None
            outcomes.append(RequestOutcome(i, True, result))
            ai += 1
    return BatchReport(tuple(outcomes))


def _apply_txn(
    tree: Any,
    admitted: Sequence[Any],
    apply: Callable[[Sequence[Any]], Tuple[Any, Optional[List[Any]]]],
) -> Tuple[Any, Optional[List[Any]]]:
    # Nested-transaction flattening: when an *outer* transaction is
    # already open (``tree._txn`` set — e.g. the resilience layer's
    # batch checkpoint, see :mod:`repro.resilience.executor`), the inner
    # batch records its pre-images into the open snapshot stack and the
    # outer owner decides commit vs. rollback.  The snapshot layer does
    # support genuine nesting (repro.snapshots.core.txn_begin), but a
    # batch inside a checkpoint needs no independent rewind point of
    # its own — flattening keeps the hot path at one snapshot.
    # Pinned-epoch readers (snapshots.reader) are observer-only stack
    # members: flattening into one would leave a failing batch with no
    # rollback owner, so the search for an open checkpoint skips them.
    txn = getattr(tree, "_txn", None)
    while txn is not None and getattr(txn, "pinned", False):
        txn = txn._outer
    if txn is not None:
        return apply(admitted)
    journal = tree._txn_begin()
    try:
        result = apply(admitted)
    except BaseException:
        tree._txn_rollback(journal)
        raise
    tree._txn_commit(journal)
    return result
