"""Build the compiled kernel twin from the checkout's shipped C source.

``src/garsidekit/kernels/_speed.c`` is compiled with the interpreter's
own C compiler and flags into ``.bench_build/speed-<hash>/``, keyed by the
content hash of the C file, the compiler command and the interpreter ABI.
Nothing is written under ``src/`` and Cython is not needed. A workload
process loads the result as ``garsidekit.kernels._speed`` through a
meta-path finder, so the package's own backend selection picks it up
unchanged.
"""

from __future__ import annotations

import hashlib
import importlib.abc
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
import time

SPEED_C = os.path.join("src", "garsidekit", "kernels", "_speed.c")
# The Cython source the C file is generated from. Only its hash is
# recorded, so a kernel change made in it but not carried into the C file
# shows in the results.
SPEED_PYX = os.path.join("src", "garsidekit", "kernels", "_speed.pyx")
PACKAGE_INIT = os.path.join("src", "garsidekit", "__init__.py")
BUILD_DIR = ".bench_build"
MODULE = "garsidekit.kernels._speed"


def _compile_command(source: str, output: str) -> list[str]:
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    cflags = shlex.split(sysconfig.get_config_var("CFLAGS") or "")
    ccshared = shlex.split(sysconfig.get_config_var("CCSHARED") or "-fPIC")
    include = sysconfig.get_paths()["include"]
    return [*cc, "-shared", *ccshared, *cflags, f"-I{include}", source, "-o", output]


def file_sha256(path: str) -> str | None:
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def build_speed(root: str) -> dict:
    """Compile (or reuse) the extension; returns its provenance record."""
    source = os.path.join(root, SPEED_C)
    c_hash = file_sha256(source)
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    probe = _compile_command("SRC", "OUT")
    key = hashlib.sha256(
        "\0".join([c_hash, sys.implementation.cache_tag or "", suffix, *probe]).encode()
    ).hexdigest()[:16]
    out_dir = os.path.join(root, BUILD_DIR, f"speed-{key}")
    target = os.path.join(out_dir, "_speed" + suffix)
    record = {
        "source": SPEED_C,
        "source_sha256": c_hash,
        "pyx": SPEED_PYX,
        "pyx_sha256": file_sha256(os.path.join(root, SPEED_PYX)),
        "compiler": " ".join(probe[: probe.index("SRC")]),
        "path": os.path.relpath(target, root),
        "cached": os.path.exists(target),
        "build_s": 0.0,
    }
    if record["cached"]:
        return record
    os.makedirs(out_dir, exist_ok=True)
    partial = f"{target}.{os.getpid()}.tmp"
    start = time.perf_counter()
    done = subprocess.run(
        _compile_command(source, partial),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
        env=dict(os.environ, TMPDIR=out_dir),  # keep compiler scratch files inside
    )
    if done.returncode != 0:
        if os.path.exists(partial):
            os.remove(partial)
        raise RuntimeError(f"compiling {SPEED_C} failed:\n{done.stdout[-4000:]}")
    os.replace(partial, target)
    record["build_s"] = time.perf_counter() - start
    return record


class _SpeedFinder(importlib.abc.MetaPathFinder):
    def __init__(self, path: str):
        self.path = path

    def find_spec(self, fullname, path=None, target=None):
        if fullname != MODULE:
            return None
        return importlib.util.spec_from_file_location(fullname, self.path)


def install_finder(path: str) -> None:
    """Make ``import garsidekit.kernels._speed`` load the built file."""
    sys.meta_path.insert(0, _SpeedFinder(os.path.abspath(path)))
