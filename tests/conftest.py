import importlib.util
import random
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from garsidekit.kernels import _pure

SPEED_C = Path(__file__).resolve().parents[1] / "src" / "garsidekit" / "kernels" / "_speed.c"


@pytest.fixture
def rng():
    return random.Random(0xB7A1D)


def random_word(rng, structure, max_len=30):
    from garsidekit.core import BraidWord

    length = rng.randrange(0, max_len + 1)
    letters = tuple(
        (rng.randrange(structure.atom_count), rng.choice((1, -1)))
        for _ in range(length)
    )
    return BraidWord(structure, letters)


@pytest.fixture(scope="session")
def compiled_speed(tmp_path_factory):
    """The compiled twin, built from the checkout's ``_speed.c``.

    It is compiled with the interpreter's own compiler and flags plus
    ``-Wall -Wextra -Werror`` into a temporary directory and loaded from
    there, so a stale in-place build is never the one tested and nothing
    is written under ``src/``. Skips only when no C compiler is found.
    """
    config = sysconfig.get_config_var
    cc = shlex.split(config("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]})")
    target = tmp_path_factory.mktemp("speed") / ("_speed" + (config("EXT_SUFFIX") or ".so"))
    command = [
        *cc,
        "-shared",
        *shlex.split(config("CCSHARED") or "-fPIC"),
        *shlex.split(config("CFLAGS") or ""),
        "-Wall",
        "-Wextra",
        "-Werror",
        "-I" + sysconfig.get_paths()["include"],
        str(SPEED_C),
        "-o",
        str(target),
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        pytest.fail(f"compiling {SPEED_C.name} failed:\n{done.stderr}")
    spec = importlib.util.spec_from_file_location("_speed", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session", params=["pure", "speed"])
def kit(request):
    """Each kernel twin in turn: the pure reference, then the fresh build."""
    if request.param == "pure":
        return _pure
    return request.getfixturevalue("compiled_speed")


@pytest.fixture(scope="session")
def twins(request):
    """Every twin that can be had here, keyed by name."""
    found = {"pure": _pure}
    try:
        found["speed"] = request.getfixturevalue("compiled_speed")
    except pytest.skip.Exception:
        pass
    return found
