"""Band-generator structure on B_n: atoms a(t,s), non-crossing partitions.

A band atom a(t,s) with t > s half-twists strands t and s in front of the
strands between them. Simples correspond to non-crossing partitions of the
strand set; the canonical permutation of a partition walks each block
upward (its maximum wraps to its minimum), and the fundamental element is
the single full cycle. Divisibility is partition refinement.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

from . import kernels
from .core import BKL, BraidWord, SimpleElement, StructureDescriptor
from .errors import CrossingPartition, StructureMismatch
from .artin import artin_structure


@functools.cache
def bkl_structure(n: int) -> StructureDescriptor:
    """The dual Garside structure: delta is the descending cycle product."""
    return StructureDescriptor(BKL, n)


def bkl_atom_id(structure: StructureDescriptor, t: int, s: int) -> int:
    """Atom index of ``a(t,s)`` (1-based strands, requires t > s)."""
    _check_bkl(structure)
    n = structure.strand_count
    if not 1 <= s < t <= n:
        raise ValueError(f"a({t},{s}) needs 1 <= s < t <= {n}")
    return kernels.bkl_atom_index(t - 1, s - 1)


def bkl_word(n: int, letters: Iterable[tuple[int, int, int]]) -> BraidWord:
    """Braid word from (t, s, sign) triples with 1-based strands."""
    structure = bkl_structure(n)
    return structure.word(
        (bkl_atom_id(structure, t, s), sign) for t, s, sign in letters
    )


def bkl_validate(structure: StructureDescriptor, blocks: Sequence[Sequence[int]]) -> SimpleElement:
    """Simple element of a partition given as 1-based blocks.

    Raises :class:`CrossingPartition` when two blocks interleave, and
    ``ValueError`` when the blocks are not a partition of the strands.
    """
    _check_bkl(structure)
    n = structure.strand_count
    flat = [x for block in blocks for x in block]
    if sorted(flat) != list(range(1, n + 1)) or not all(blocks):
        raise ValueError(f"blocks do not partition 1..{n}: {blocks!r}")
    perm = bytearray(range(n))
    for block in blocks:
        cycle = sorted(x - 1 for x in block)
        for a, b in zip(cycle, cycle[1:]):
            perm[a] = b
        perm[cycle[-1]] = cycle[0]
    data = bytes(perm)
    if not kernels.is_simple(kernels.KIND_BKL, data):
        raise CrossingPartition(f"blocks cross: {blocks!r}")
    return SimpleElement(structure, data)


# ---------------------------------------------------------------------------
# Translation between the two atom alphabets


def bkl_to_artin(w: BraidWord) -> BraidWord:
    """Rewrite band atoms as conjugated adjacent transpositions.

    ``a(t,s)`` becomes the adjacent atom for ``s`` carried past the strands
    between ``s`` and ``t``, costing ``2(t-s)-1`` letters.
    """
    _check_bkl(w.structure)
    n = w.structure.strand_count
    letters: list[tuple[int, int]] = []
    for atom, sign in w.letters:
        t, s = kernels.bkl_atom_pair(atom)
        body = (
            [(i, 1) for i in range(t - 1, s, -1)]
            + [(s, 1)]
            + [(i, -1) for i in range(s + 1, t)]
        )
        if sign < 0:
            body = [(a, -e) for a, e in reversed(body)]
        letters.extend(body)
    return BraidWord(artin_structure(n), tuple(letters))


def artin_to_bkl(w: BraidWord) -> BraidWord:
    """Adjacent atoms are band atoms: ``s<i>`` maps to ``a(i+1,i)``."""
    if w.structure.kind != "artin":
        raise StructureMismatch(f"expected an Artin word, got {w.structure!r}")
    n = w.structure.strand_count
    return BraidWord(
        bkl_structure(n),
        tuple((kernels.bkl_atom_index(a + 1, a), sign) for a, sign in w.letters),
    )


def _check_bkl(structure: StructureDescriptor):
    if structure.kind != BKL:
        raise StructureMismatch(f"expected a BKL structure, got {structure!r}")
