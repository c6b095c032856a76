"""Kernel backend selection.

The compiled extension ``torsionlab._core`` (built from ``_core.c``) is
used when it is importable; otherwise the pure-Python twin
``torsionlab._core_py`` takes over.
"""

from . import _core_py

try:
    from . import _core as _impl  # type: ignore[attr-defined]
except ImportError:
    _impl = _core_py

BACKEND = _impl.BACKEND_NAME

bits_of = _core_py.bits_of
greedy_generators = _core_py.greedy_generators  # no compiled twin
span_closure = _impl.span_closure
enumerate_submodules = _impl.enumerate_submodules
modularity_witness = _impl.modularity_witness
assoc_witness = _impl.assoc_witness
module_axiom_witness = _impl.module_axiom_witness
delta_cond1_witness = _impl.delta_cond1_witness
delta_cond2_witness = _impl.delta_cond2_witness


def backend():
    """Name of the active kernel backend."""
    return BACKEND
