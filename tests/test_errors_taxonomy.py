"""Taxonomy sweep (PR 3): historical bare-builtin raise sites are
re-parented onto dual-inheritance ReproError subclasses.

Every swept site must satisfy *both* catch contracts: ``except
ReproError`` (the library taxonomy) and the legacy builtin (callers
that predate the sweep).
"""

from __future__ import annotations

import pytest

from repro import errors
from repro.errors import (
    BatchHandleError,
    BatchPositionError,
    BatchStructureError,
    BatchValidationError,
    ConvergenceError,
    EmptyTreeError,
    InvalidParameterError,
    LabelError,
    ParseTreeError,
    PositionError,
    ReproError,
    RequestRejection,
    batch_validation_error,
)


# ---------------------------------------------------------------------------
# class-level contracts
# ---------------------------------------------------------------------------


def test_dual_inheritance_classes():
    assert issubclass(InvalidParameterError, ReproError)
    assert issubclass(InvalidParameterError, ValueError)
    assert issubclass(EmptyTreeError, InvalidParameterError)
    assert issubclass(PositionError, ReproError)
    assert issubclass(PositionError, IndexError)
    assert issubclass(ConvergenceError, ReproError)
    assert issubclass(ConvergenceError, RuntimeError)
    assert issubclass(ParseTreeError, ReproError)
    assert issubclass(ParseTreeError, ValueError)
    assert issubclass(LabelError, ReproError)
    assert issubclass(LabelError, ValueError)


def test_batch_error_compat_classes():
    assert issubclass(BatchValidationError, errors.RequestError)
    assert issubclass(BatchStructureError, errors.TreeStructureError)
    assert issubclass(BatchHandleError, errors.UnknownNodeError)
    assert issubclass(BatchPositionError, IndexError)


def test_batch_validation_error_factory_mapping():
    def mk(*reasons):
        return batch_validation_error(
            [RequestRejection(i, r) for i, r in enumerate(reasons)],
            len(reasons),
        )

    assert isinstance(mk("duplicate-handle"), BatchStructureError)
    assert isinstance(mk("not-a-leaf", "delete-all-leaves"), BatchStructureError)
    assert isinstance(mk("unknown-handle"), BatchHandleError)
    assert isinstance(
        mk("unknown-node", "target-removed-by-batch"), BatchHandleError
    )
    assert isinstance(mk("position-out-of-range"), BatchPositionError)
    # Mixed reason classes fall back to the plain base.
    mixed = mk("duplicate-handle", "unknown-handle")
    assert type(mixed) is BatchValidationError
    assert mixed.batch_size == 2
    assert len(mixed.rejections) == 2


# ---------------------------------------------------------------------------
# swept raise sites, both catch contracts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["reference", "flat"])
def test_empty_tree_both_catches(backend):
    from repro.splitting.rbsts import RBSTS

    for catch in (ReproError, ValueError, EmptyTreeError):
        with pytest.raises(catch):
            RBSTS([], backend=backend)


def test_unknown_backend_both_catches():
    from repro.splitting.rbsts import RBSTS

    for backend in ("gpu", "parallel"):
        for catch in (ReproError, ValueError, InvalidParameterError):
            with pytest.raises(catch):
                RBSTS([1, 2], backend=backend)


@pytest.mark.parametrize("backend", ["reference", "flat"])
def test_position_error_both_catches(backend):
    from repro.splitting.rbsts import RBSTS

    tree = RBSTS([1, 2, 3], backend=backend)
    for catch in (ReproError, IndexError, PositionError):
        with pytest.raises(catch):
            tree.leaf_at(17)
        with pytest.raises(catch):
            tree.insert(99, 0)


def test_build_zero_leaves_both_catches():
    import random

    from repro.splitting.build import build_subtree
    from repro.splitting.node import BSTNode

    for catch in (ReproError, ValueError, EmptyTreeError):
        with pytest.raises(catch):
            build_subtree(
                [],
                random.Random(0),
                base_depth=0,
                ancestor_path=[],
                shortcut_height_threshold=4,
                new_node=BSTNode,
            )


def test_tree_builders_both_catches():
    from repro.algebra.rings import INTEGER
    from repro.trees.builders import random_tree

    for catch in (ReproError, ValueError, EmptyTreeError):
        with pytest.raises(catch):
            random_tree(INTEGER, 0)


def test_modular_ring_both_catches():
    from repro.algebra.rings import modular_ring

    for catch in (ReproError, ValueError, InvalidParameterError):
        with pytest.raises(catch):
            modular_ring(1)


def test_unknown_op_kind_both_catches():
    from repro.algebra.rings import INTEGER
    from repro.contraction.labels import rake_label
    from repro.trees.nodes import Op

    bogus = Op(kind="xor")
    for catch in (ReproError, ValueError, LabelError):
        with pytest.raises(catch):
            bogus.apply(INTEGER, 1, 2)
        with pytest.raises(catch):
            rake_label(INTEGER, bogus, (0, 1), (1, 0))


def test_parse_tree_root_not_activated_both_catches():
    from repro.splitting.parse_tree import build_extended_parse_tree
    from repro.splitting.rbsts import RBSTS

    tree = RBSTS([1, 2, 3, 4])
    leaf = tree.leaf_at(0)
    for catch in (ReproError, ValueError, ParseTreeError):
        with pytest.raises(catch):
            # Empty member set: the root was never activated.
            build_extended_parse_tree(tree.root, set(), [leaf])


# ---------------------------------------------------------------------------
# this PR's sweep: graphs / linkcut / applications / pram
# ---------------------------------------------------------------------------


def test_new_dual_inheritance_classes():
    assert issubclass(errors.GraphStructureError, ReproError)
    assert issubclass(errors.GraphStructureError, ValueError)
    assert issubclass(errors.LinkCutError, errors.TreeStructureError)
    assert issubclass(errors.LinkCutError, ValueError)
    assert issubclass(errors.DuplicateKeyError, ReproError)
    assert issubclass(errors.DuplicateKeyError, KeyError)
    assert issubclass(errors.UnknownKeyError, errors.UnknownNodeError)
    assert issubclass(errors.UnknownKeyError, KeyError)
    assert issubclass(
        errors.NotAnInternalNodeError, errors.TreeStructureError
    )
    assert issubclass(errors.NotAnInternalNodeError, ValueError)
    assert issubclass(errors.StepDisciplineError, errors.PRAMError)


def test_graph_builders_both_catches():
    from repro.graphs.builders import random_sp_tree

    for catch in (ReproError, ValueError, errors.GraphStructureError):
        with pytest.raises(catch):
            random_sp_tree(0)


def test_graph_recognize_both_catches():
    from repro.graphs.recognize import recognize

    for catch in (ReproError, ValueError, errors.GraphStructureError):
        with pytest.raises(catch):
            recognize([], 0, 1)  # no edges
        with pytest.raises(catch):
            recognize([(0, 1, 1.0)], 0, 0)  # identical terminals
        with pytest.raises(catch):
            recognize([(0, 0, 1.0)], 0, 1)  # self-loop


def test_linkcut_both_catches():
    from repro.baselines.linkcut import LinkCutForest

    forest = LinkCutForest()
    forest.make_node(1)
    forest.make_node(2)
    for catch in (ReproError, KeyError, errors.DuplicateKeyError):
        with pytest.raises(catch):
            forest.make_node(1)
    for catch in (ReproError, KeyError, errors.UnknownKeyError):
        with pytest.raises(catch):
            forest.find_root(99)
    forest.link(1, 2)
    for catch in (ReproError, ValueError, errors.LinkCutError):
        with pytest.raises(catch):
            forest.link(1, 2)  # 1 is no longer a root
        with pytest.raises(catch):
            forest.cut(2)  # 2 is already a root


def test_batch_prune_leaf_both_catches():
    from repro.applications.properties import DynamicTreeProperties

    props = DynamicTreeProperties(seed=0)
    root = props.tree.root.nid  # the initial root is a leaf
    for catch in (ReproError, ValueError, errors.NotAnInternalNodeError):
        with pytest.raises(catch):
            props.batch_prune([root])


def test_parallel_sum_empty_both_catches():
    from repro.pram.programs import parallel_sum

    for catch in (ReproError, ValueError, InvalidParameterError):
        with pytest.raises(catch):
            parallel_sum([])
