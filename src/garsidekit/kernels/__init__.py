"""Kernel backend selection.

The hot inner loops (factor-sequence normalization, lattice operations on
simples) exist twice: the C extension ``_speed`` and the pure Python twin
``_pure``, which is the reference; both have identical semantics. The
compiled backend is preferred when importable; set ``GARSIDEKIT_PURE=1`` to
force the pure one (useful for debugging).

This module is the one place that says which kernels are compiled: the
names assigned from ``_impl`` below come from the selected backend, and
everything imported from ``_pure`` always runs in Python. The rest of the
package imports ``from .kernels import ...`` and never cares which twin
runs.
"""

import os
from types import ModuleType

from . import _pure
from ._pure import (
    KIND_ARTIN,
    KIND_BKL,
    atom_count,
    atom_perm,
    bkl_atom_index,
    bkl_atom_pair,
    compose,
    delta_len,
    identity_perm,
    invert,
    is_permutation,
    is_simple,
    join,
    simple_to_atoms,
)

_impl: ModuleType = _pure
if not os.environ.get("GARSIDEKIT_PURE"):
    try:
        from . import _speed as _impl  # type: ignore[no-redef]
    except ImportError:
        pass

BACKEND = "speed" if _impl is not _pure else "pure"

delta_perm = _impl.delta_perm
simple_len = _impl.simple_len
tau_simple = _impl.tau_simple
left_divides = _impl.left_divides
meet = _impl.meet
right_complement = _impl.right_complement
left_complement = _impl.left_complement
quotient_left = _impl.quotient_left
make_left_weighted = _impl.make_left_weighted
is_left_weighted = _impl.is_left_weighted
normalize_factors = _impl.normalize_factors
word_to_nf = _impl.word_to_nf
multiply_nf = _impl.multiply_nf
invert_nf = _impl.invert_nf
nf_lengths = _impl.nf_lengths


def backends() -> dict[str, ModuleType]:
    """All importable backends, keyed by name."""
    found = {"pure": _pure}
    try:
        from . import _speed

        found["speed"] = _speed
    except ImportError:
        pass
    return found
