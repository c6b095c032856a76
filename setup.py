"""Build script: compiles the optional C extension for one hot kernel.

The extension ``torsionlab._core`` is built from the hand-written
``src/torsionlab/_core.c`` and holds ``enumerate_submodules``.  The
package works without it (a pure-Python implementation of the same
kernel is selected at import time), so any failure here is downgraded
to a warning and the build proceeds extension-free.
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
            "falling back to the pure-Python kernel",
            file=sys.stderr,
        )


setup(
    ext_modules=[Extension("torsionlab._core", ["src/torsionlab/_core.c"])],
    cmdclass={"build_ext": optional_build_ext},
)
