"""Build script: compiles the optional C extension for the hot kernels.

With Cython installed the extension is built from ``_core.pyx``;
without it, from the tracked ``_core.c`` that Cython generated from
the same source.  The package works without the extension (a
pure-Python implementation of the same kernels is selected at import
time), so any failure here is downgraded to a warning and the build
proceeds extension-free.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """build_ext that tolerates a missing compiler toolchain."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            f"warning: building torsionlab._core failed ({exc}); "
            "falling back to the pure-Python kernels",
            file=sys.stderr,
        )


try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [Extension("torsionlab._core", ["src/torsionlab/_core.pyx"])],
        language_level=3,
    )
except ImportError:
    ext_modules = [Extension("torsionlab._core", ["src/torsionlab/_core.c"])]

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
