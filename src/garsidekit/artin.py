"""Artin structure on B_n: atoms s1..s(n-1), permutation simples.

Conventions (fixed once, everything downstream relies on them):
permutations act on strand slots, words multiply left to right, and the
permutation of a product is ``perm(v)[perm(u)[i]]``. Under this reading a
simple left-divides another iff its crossing pairs are a subset, which the
tests cross-check against the defining property (a simple complement with
additive lengths).
"""

from __future__ import annotations

import functools

from .core import ARTIN, BraidWord, StructureDescriptor
from .errors import StructureMismatch


@functools.cache
def artin_structure(n: int) -> StructureDescriptor:
    """The classical Garside structure: delta is the half twist."""
    return StructureDescriptor(ARTIN, n)


def artin_atom_id(structure: StructureDescriptor, i: int) -> int:
    """Atom index of the generator ``s<i>`` (1-based ``i``)."""
    _check_artin(structure)
    if not 1 <= i <= structure.strand_count - 1:
        raise ValueError(
            f"s{i} does not exist in B_{structure.strand_count}"
        )
    return i - 1


def artin_word(n: int, letters: list[tuple[int, int]]) -> BraidWord:
    """Braid word from 1-based generator indices with signs."""
    structure = artin_structure(n)
    return structure.word((artin_atom_id(structure, i), s) for i, s in letters)


def _check_artin(structure: StructureDescriptor):
    if structure.kind != ARTIN:
        raise StructureMismatch(f"expected an Artin structure, got {structure!r}")
