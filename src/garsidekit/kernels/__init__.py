"""Kernel backend selection.

The pure Python twin ``_pure`` is the reference for every kernel. The C
extension ``_speed`` compiles only the six normal-form kernels that the
solver, the ranking and the oracle spend their kernel time in:
``word_to_nf``, ``multiply_nf``, ``invert_nf``, ``nf_lengths``,
``peel_lengths``, which scores a batch of peels ``p * target`` by length
without building the products, and ``expand_level``, one breadth-first
step of the oracle over packed normal forms. Given its ``orbits`` flag,
``expand_level`` takes one canonical step per child: it keys the child by
the least packed blob of its tau-orbit (``pack_orbit``), the images under
conjugation by the powers of delta, so a ball stores one state per orbit.
Both twins have identical semantics, and each raises ``ValueError`` on a
factor that is not a simple of the structure: every permutation is an
Artin simple, but a band factor must be a band simple, because the band
meet is exact only there.
The compiled backend is preferred when importable; set
``GARSIDEKIT_PURE=1`` to force the pure one (useful for debugging).

This module is the one place that says which kernels are compiled: the
names assigned from ``_impl`` below come from the selected backend, and
everything imported from ``_pure``, the lattice operations on single
simples included, always runs in Python. The rest of the package imports
``from .kernels import ...`` and never cares which twin runs.
"""

import os
from types import ModuleType

from . import _pure
from ._pure import (
    KIND_ARTIN,
    KIND_BKL,
    MAX_STRANDS,
    atom_count,
    atom_perm,
    bkl_atom_index,
    bkl_atom_pair,
    compose,
    delta_len,
    delta_perm,
    identity_perm,
    invert,
    is_left_weighted,
    is_permutation,
    is_simple,
    join,
    left_complement,
    left_divides,
    make_left_weighted,
    meet,
    orbit_size,
    pack_nf,
    pack_orbit,
    quotient_left,
    right_complement,
    simple_len,
    simple_to_atoms,
    tau_orbit,
    tau_period,
    tau_simple,
    unpack_nf,
)

_impl: ModuleType = _pure
if not os.environ.get("GARSIDEKIT_PURE"):
    try:
        from . import _speed as _impl  # type: ignore[no-redef]
    except ImportError:
        pass

BACKEND = "speed" if _impl is not _pure else "pure"

word_to_nf = _impl.word_to_nf
multiply_nf = _impl.multiply_nf
invert_nf = _impl.invert_nf
nf_lengths = _impl.nf_lengths
peel_lengths = _impl.peel_lengths
expand_level = _impl.expand_level


def backends() -> dict[str, ModuleType]:
    """All importable backends, keyed by name."""
    found = {"pure": _pure}
    try:
        from . import _speed

        found["speed"] = _speed
    except ImportError:
        pass
    return found
