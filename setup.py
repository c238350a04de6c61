"""Build the optional compiled kernel extension.

The package is fully functional without the extension (a pure-Python
twin of the kernels is selected at import time), so any failure to
cythonize or compile downgrades to a source-only install instead of
aborting. Without Cython, the extension is compiled from the shipped
``_speed.c``, which is generated from ``_speed.pyx``.
"""

from setuptools import Extension, setup

KERNELS = "src/garsidekit/kernels/_speed"

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = [Extension("garsidekit.kernels._speed", [KERNELS + ".c"])]
else:
    try:
        ext_modules = cythonize([KERNELS + ".pyx"], language_level=3)
    except Exception as exc:  # pragma: no cover - exercised only on broken toolchains
        print(f"warning: compiled kernels skipped ({exc}); using pure-Python backend")
        ext_modules = []
for ext in ext_modules:
    # A compile failure then prints a warning and skips the extension.
    ext.optional = True

setup(ext_modules=ext_modules)
