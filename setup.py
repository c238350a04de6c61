"""Build the optional compiled kernel extension.

``src/garsidekit/kernels/_speed.c`` is a hand-written C extension: it needs
only a C compiler and the Python headers. The package is fully functional
without it (a pure-Python twin of the kernels is selected at import time),
so a failed compile prints a warning and gives a source-only install
instead of aborting.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "garsidekit.kernels._speed",
            ["src/garsidekit/kernels/_speed.c"],
            optional=True,
        )
    ]
)
