"""Benchmark entry point: build the compiled twin, run one workload, relay.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 10 --trace 0

The compiled kernels are built from the checkout's own ``_speed.c`` (and
cached under ``.bench_build/``), then the workload runs in one fresh,
single-threaded child process with ``PYTHONHASHSEED`` fixed. The child
keeps its bytecode under ``.bench_build/pycache/`` (``PYTHONPYCACHEPREFIX``),
which one import-only process fills before the child starts. So no
``__pycache__`` in the tree is ever read, and set-up never includes
compiling a module, whatever ran in the checkout before. The child's
last line, the result object, is the last line printed here. The exit
code is non-zero, and no result is printed, when the checkout holds no
program, the build fails, the workload finds the wrong backend, or the
run does not end in time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import backend  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
HASH_SEED = "0"
DEADLINE_S = 175.0
PYCACHE = os.path.join(backend.BUILD_DIR, "pycache")
# Imports every module the workload process loads before its first timed
# operation, so that their bytecode is in the cache when it starts.
WARM_IMPORTS = "import garsidekit, workload"


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for required in (backend.PACKAGE_INIT, backend.SPEED_C):
        if not os.path.isfile(os.path.join(root, required)):
            print(f"no program here: {required} is missing", file=sys.stderr)
            return 2
    try:
        build = backend.build_speed(root)
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"cannot build the compiled kernels: {exc}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.pop("GARSIDEKIT_PURE", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if workloads.WORKLOADS[args.workload].backend == "pure":
        env["GARSIDEKIT_PURE"] = "1"
    env.update(
        PYTHONHASHSEED=HASH_SEED,
        PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), HERE]),
        PYTHONPYCACHEPREFIX=os.path.join(root, PYCACHE),
        PERFBENCH_SPEED=os.path.join(root, build["path"]),
        PERFBENCH_BUILD=json.dumps(build),
    )
    try:
        warm = subprocess.run(
            [sys.executable, "-c", WARM_IMPORTS],
            cwd=root,
            env=env,
            timeout=DEADLINE_S / 2,
        )
    except subprocess.TimeoutExpired:
        print("importing the program did not finish", file=sys.stderr)
        return 2
    if warm.returncode != 0:
        print("cannot import the program", file=sys.stderr)
        return 2
    # Started with -m, not as a script, so its own bytecode comes from the
    # cache too.
    command = [
        sys.executable,
        "-m", "workload",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
    child = subprocess.Popen(command, cwd=root, env=env)
    try:
        code = child.wait(timeout=max(DEADLINE_S - (time.monotonic() - started), 1.0))
    except subprocess.TimeoutExpired:
        print(f"{args.workload} did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        code = 124
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
