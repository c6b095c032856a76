"""Kernel backend selection.

The compiled extension ``torsionlab._core`` (built from ``_core.c``)
holds twins of two kernels, ``enumerate_submodules`` and
``module_axiom_witness``, the ones that run faster in C.  When it is
importable they come from it; otherwise the pure-Python
``torsionlab._core_py`` takes over.  Every other kernel comes from
``_core_py`` on both backends.  Delta axioms are evaluated in ``delta``
and lattice modularity in ``modules``, with no kernel; the table checks
``module_axiom_witness`` and ``assoc_witness`` run only to name the
witness of an axiom that ``rings`` has found to fail.
"""

from . import _core_py

try:
    from . import _core as _impl  # type: ignore[attr-defined]
except ImportError:
    _impl = _core_py

BACKEND = _impl.BACKEND_NAME

# compiled when the extension is built
enumerate_submodules = _impl.enumerate_submodules
module_axiom_witness = _impl.module_axiom_witness

# no compiled twin
bits_of = _core_py.bits_of
greedy_generators = _core_py.greedy_generators
span_closure = _core_py.span_closure
assoc_witness = _core_py.assoc_witness


def backend():
    """Name of the active kernel backend."""
    return BACKEND
