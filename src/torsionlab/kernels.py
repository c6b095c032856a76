"""Kernel backend selection.

The compiled extension ``torsionlab._core`` (built from ``_core.c``)
holds one kernel, ``enumerate_submodules``.  When it is importable the
kernel comes from it; otherwise the pure-Python ``torsionlab._core_py``
takes over.  Every other kernel comes from ``_core_py`` on both
backends.
"""

from . import _core_py

try:
    from . import _core as _impl  # type: ignore[attr-defined]
except ImportError:
    _impl = _core_py

BACKEND = _impl.BACKEND_NAME

# compiled when the extension is built
enumerate_submodules = _impl.enumerate_submodules

# no compiled twin
bits_of = _core_py.bits_of
greedy_generators = _core_py.greedy_generators
span_closure = _core_py.span_closure


def backend():
    """Name of the active kernel backend."""
    return BACKEND
