"""Performance backends: flat array-backed cores for the hot paths.

The reference implementations under :mod:`repro.splitting` are
pointer-chasing object graphs — ideal for auditing against the paper,
but the batch-dynamic-trees experimental literature (Ikram et al.,
Tseng et al.) shows that layout loses heavily to flat struct-of-arrays
cores.  This package holds those cores:

* :mod:`~repro.perf.flat_rbsts` — ``FlatRBSTS``, the RBSTS of §2 over
  parallel int arrays with a slab allocator + free-list; selected via
  ``RBSTS(items, backend="flat")``.
* :mod:`~repro.perf.flat_activation` — Theorem 2.1 processor activation
  over the flat arrays.
* :mod:`~repro.perf.flat_prefix` — the §3 prefix folds of
  :class:`~repro.listprefix.structure.IncrementalListPrefix` over the
  flat arrays (one walk of the activated region per batch query).
* :mod:`~repro.perf.flat_contraction` — ``FlatContraction``, the rake
  tree of §4.2 over parallel label/topology columns with memoised
  replay; selected via ``DynamicTreeContraction(tree, backend="flat")``.
* :mod:`~repro.perf.kernels` — per-level label kernels (NumPy-vectorized
  over numeric rings, pure-Python otherwise; ``REPRO_KERNELS`` forces a
  mode).

Every flat core is pinned op-for-op against its reference twin by the
differential harness in ``tests/perf/`` — same seeds, same shapes, same
shortcut lists, same summaries, same activation round counts.
"""

from .flat_activation import FlatActivationResult, flat_activate, flat_deactivate
from .flat_contraction import FlatContraction
from .flat_prefix import flat_batch_prefix, flat_prefix_fold, flat_range_fold
from .flat_rbsts import FlatLeaf, FlatRBSTS
from .kernels import (
    KERNEL_ENV,
    NumpyKernels,
    PythonKernels,
    VectorRing,
    kernel_mode,
    prefix_compose,
    select_kernels,
    vector_ring_for,
)

__all__ = [
    "FlatActivationResult",
    "FlatContraction",
    "FlatLeaf",
    "FlatRBSTS",
    "KERNEL_ENV",
    "NumpyKernels",
    "PythonKernels",
    "VectorRing",
    "flat_activate",
    "flat_batch_prefix",
    "flat_deactivate",
    "flat_prefix_fold",
    "flat_range_fold",
    "kernel_mode",
    "prefix_compose",
    "select_kernels",
    "vector_ring_for",
]
