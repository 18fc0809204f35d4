"""Pinned-epoch readers over the MVCC snapshot layer (PR 10).

The PR 8 snapshot layer left one read-path gap (ROADMAP item 5): a
*writer* could rewind or persist a capture-epoch image, but a *reader*
had no way to keep answering queries from a pinned version while a
batch mutates the live structure.  :class:`PinnedReader` closes it:

* **Flat backend** (``FlatRBSTS``): pinning is O(1)
  — a :class:`_PinnedFlatSnapshot` joins the transaction stack and
  observes copy-on-write pre-images through the journal seam; the
  reader lazily cuts the capture-epoch image with
  :meth:`~repro.snapshots.core.FlatSnapshot.materialize` on first
  query and caches it (the capture-epoch version never changes, so one
  cut is exact forever).
* **Reference backend**: the pointer graph has no epoch trick, so the
  reader deep-captures a :class:`~repro.snapshots.core.SnapshotState`
  eagerly at pin time (O(n)) — same answers, different cost, and the
  asymmetry is part of the API contract.

A pinned snapshot is deliberately **not** a rollback owner: the
``pinned`` flag tells :func:`repro.transactions.execute_batch` to open
its own genuine nested transaction instead of flattening into the
reader (a reader must never absorb a writer's crash-rollback duty).
Exits must nest: close the reader only when no writer transaction
opened after it is still open (the stack raises
:class:`~repro.errors.SnapshotStateError` otherwise).

Entry points: ``RBSTS.pinned_reader()`` / ``FlatRBSTS.pinned_reader()``
(context managers) and
``DynamicTreeContraction.pinned_reader()`` for the contraction parse
tree.  ``repro.serve`` answers every read from one of these pins while
writer windows commit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List, Optional

from ..errors import InvalidParameterError, PositionError
from .core import NIL, FlatSnapshot, SnapshotState, txn_begin, txn_commit

__all__ = ["PinnedReader", "pinned_reader"]


class _PinnedFlatSnapshot(FlatSnapshot):
    """A flat snapshot whose only job is observing for a reader.

    ``pinned = True`` opts it out of the transaction-flattening
    shortcut in :func:`repro.transactions._apply_txn`: writer batches
    running while this pin is open keep their own rollback bracket.
    """

    __slots__ = ()

    pinned = True


class PinnedReader:
    """Query surface over one pinned capture-epoch image.

    All answers — ``values()``, ``value_at``, ``prefix``, ``total``,
    ``range_fold`` — come from the pinned version and are immune to
    writer mutations (and writer rollbacks) that happen while the pin
    is open.  Fold answers need a ``monoid``; structural reads do not.
    """

    def __init__(self, tree: Any, *, monoid: Any = None) -> None:
        self._tree = tree
        self._monoid = monoid
        self._snap: Optional[_PinnedFlatSnapshot] = None
        self._state: Optional[SnapshotState] = None
        self._leaves: Optional[List[int]] = None
        if hasattr(tree, "root_index"):
            self._snap = _PinnedFlatSnapshot(tree)
            txn_begin(tree, self._snap)
        else:
            # Pointer graph: no O(1) epoch pin exists; deep-capture now.
            self._state = SnapshotState.capture(tree)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release the pin (flat family: pop the observing snapshot off
        the transaction stack, keeping the writer's mutations).
        Idempotent."""
        if self._snap is not None:
            txn_commit(self._tree, self._snap)
            self._snap = None

    # -- the pinned image ----------------------------------------------
    def state(self) -> SnapshotState:
        """The materialized capture-epoch image (cut lazily on the flat
        family, cached — the pinned version is immutable by
        construction)."""
        if self._state is None and self._snap is not None:
            self._state = self._snap.materialize(self._tree)
        if self._state is None:
            raise InvalidParameterError(
                "pinned reader was closed before its image was "
                "materialized; query it inside the pinned_reader() block"
            )
        return self._state

    @property
    def epoch(self) -> int:
        """Snapshot-epoch tag of the pinned image."""
        return self.state().epoch

    def _leaf_slots(self) -> List[int]:
        if self._leaves is None:
            state = self.state()
            left = state.columns["_left"]
            right = state.columns["_right"]
            out: List[int] = []
            stack: List[int] = []
            cur = state.root_index
            while stack or cur != NIL:
                while cur != NIL:
                    stack.append(cur)
                    cur = left[cur]
                cur = stack.pop()
                if left[cur] == NIL and right[cur] == NIL:
                    out.append(cur)
                cur = right[cur]
            self._leaves = out
        return self._leaves

    # -- structural reads ----------------------------------------------
    def __len__(self) -> int:
        return len(self._leaf_slots())

    def values(self) -> List[Any]:
        """Leaf items in sequence order, at the pinned epoch."""
        items = self.state().columns["_item"]
        return [items[s] for s in self._leaf_slots()]

    def value_at(self, index: int) -> Any:
        leaves = self._leaf_slots()
        if not 0 <= index < len(leaves):
            raise PositionError(
                f"pinned read position {index} out of range "
                f"0..{len(leaves) - 1}"
            )
        return self.state().columns["_item"][leaves[index]]

    # -- fold reads (monoid required) ----------------------------------
    def _fold(self, lo: int, hi: int) -> Any:
        if self._monoid is None:
            raise InvalidParameterError(
                "fold reads need a monoid: construct the reader with "
                "pinned_reader(monoid=...)"
            )
        leaves = self._leaf_slots()
        if not (0 <= lo <= hi < len(leaves)):
            raise PositionError(
                f"pinned fold range [{lo}, {hi}] out of range for "
                f"{len(leaves)} leaves"
            )
        items = self.state().columns["_item"]
        acc = self._monoid.identity
        for s in leaves[lo : hi + 1]:
            acc = self._monoid.combine(acc, items[s])
        return acc

    def prefix(self, index: int) -> Any:
        """Fold of ``values()[0..index]`` (inclusive), pinned-epoch."""
        return self._fold(0, index)

    def range_fold(self, i: int, j: int) -> Any:
        """Fold of ``values()[i..j]`` (inclusive), pinned-epoch."""
        return self._fold(i, j)

    def total(self) -> Any:
        """Fold of every value, pinned-epoch (identity when empty)."""
        if self._monoid is None:
            raise InvalidParameterError(
                "fold reads need a monoid: construct the reader with "
                "pinned_reader(monoid=...)"
            )
        if not self._leaf_slots():
            return self._monoid.identity
        return self._fold(0, len(self._leaf_slots()) - 1)


@contextmanager
def pinned_reader(
    tree: Any, *, monoid: Any = None
) -> Iterator[PinnedReader]:
    """Pin ``tree``'s current version and yield a :class:`PinnedReader`
    answering from it while the caller keeps mutating the live tree.
    The pin is released on exit (writer mutations are kept)."""
    reader = PinnedReader(tree, monoid=monoid)
    try:
        yield reader
    finally:
        reader.close()
