"""Brute-force geodesic lengths by breadth-first search.

One search core serves both entry points: ``enumerate_ball`` keeps every
state it reaches, and ``geodesic_length`` stops at the first node that is
its target. The core walks the Cayley graph over the signed atoms level by
level, deduplicating states by greedy normal form. States are packed into
single ``bytes`` blobs (signed 16-bit delta power followed by the factor
permutations), and the record of visited states is the ball's own table,
so a million-element ball stays within desk memory. The core owns every
guard: a negative radius raises ``ValueError``, and the radius and
node-count guards raise :class:`GuardExceeded` instead of thrashing. Exact
geodesics at useful radii are only feasible for a handful of strands, and
nothing here pretends to scale past that.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

from . import kernels
from .core import ARTIN, BraidWord, GreedyNF, StructureDescriptor, _nf_from_raw
from .errors import GuardExceeded, NotFound

RADIUS_GUARDS = {
    (ARTIN, 3): 10,
    ("bkl", 3): 8,
    (ARTIN, 4): 7,
    ("bkl", 4): 7,
}
DEFAULT_RADIUS_GUARD = 6
MAX_NODES = 6_000_000

RawNF = tuple[int, tuple[bytes, ...]]


def radius_guard(structure: StructureDescriptor) -> int:
    return RADIUS_GUARDS.get(
        (structure.kind, structure.strand_count), DEFAULT_RADIUS_GUARD
    )


def pack_nf(k: int, factors: tuple[bytes, ...]) -> bytes:
    return k.to_bytes(2, "big", signed=True) + b"".join(factors)


def unpack_nf(blob: bytes, n: int) -> RawNF:
    k = int.from_bytes(blob[:2], "big", signed=True)
    body = blob[2:]
    return k, tuple(body[i : i + n] for i in range(0, len(body), n))


def _signed_atom_nfs(structure: StructureDescriptor) -> list[RawNF]:
    code, n = structure.kind_code, structure.strand_count
    moves = []
    for a in range(structure.atom_count):
        for sign in (1, -1):
            moves.append(kernels.word_to_nf(code, n, [(a, sign)]))
    return moves


@dataclasses.dataclass
class BallIndex:
    """All elements within a geodesic radius, keyed by packed normal form."""

    structure: StructureDescriptor
    radius: int
    table: dict[bytes, int]

    def __len__(self) -> int:
        return len(self.table)

    def lookup_raw(self, k: int, factors: tuple[bytes, ...]) -> int | None:
        try:
            blob = pack_nf(k, factors)
        except OverflowError:  # a 16-bit delta power is beyond every radius
            return None
        return self.table.get(blob)

    def lookup(self, x: BraidWord | GreedyNF) -> int | None:
        """Geodesic length of an element, or None outside the ball."""
        if isinstance(x, GreedyNF):
            k, factors = x.raw()
        else:
            k, factors = x.raw_nf()
        return self.lookup_raw(k, factors)

    def items(self) -> Iterator[tuple[GreedyNF, int]]:
        n = self.structure.strand_count
        for blob, dist in self.table.items():
            yield _nf_from_raw(self.structure, *unpack_nf(blob, n)), dist

    def raw_items(self) -> Iterator[tuple[RawNF, int]]:
        n = self.structure.strand_count
        for blob, dist in self.table.items():
            yield unpack_nf(blob, n), dist


def _bfs(
    structure: StructureDescriptor,
    radius: int,
    max_nodes: int,
    target: bytes | None = None,
) -> tuple[dict[bytes, int], int | None]:
    """Breadth-first search from the identity, level by level.

    Returns the packed states reached with their distances, and the level
    at which ``target`` was first generated (None if it never was). The
    search stops at that node, without finishing its level.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    guard = radius_guard(structure)
    if radius > guard:
        raise GuardExceeded(
            f"radius {radius} exceeds the guard {guard} for {structure!r}"
        )
    code, n = structure.kind_code, structure.strand_count
    origin = pack_nf(0, ())
    table: dict[bytes, int] = {origin: 0}
    if target == origin:
        return table, 0
    moves = _signed_atom_nfs(structure)
    frontier: list[RawNF] = [(0, ())]
    for level in range(1, radius + 1):
        next_frontier: list[RawNF] = []
        for k, factors in frontier:
            for mk, mf in moves:
                nk, nf = kernels.multiply_nf(code, n, k, factors, mk, mf)
                blob = pack_nf(nk, nf)
                if blob not in table:
                    if blob == target:
                        return table, level
                    table[blob] = level
                    next_frontier.append((nk, nf))
            if len(table) > max_nodes:
                raise GuardExceeded(
                    f"search exceeded {max_nodes} nodes at radius {level}"
                )
        frontier = next_frontier
    return table, None


def enumerate_ball(
    structure: StructureDescriptor, radius: int, max_nodes: int = MAX_NODES
) -> BallIndex:
    """BFS ball of the given radius around the identity."""
    table, _ = _bfs(structure, radius, max_nodes)
    return BallIndex(structure=structure, radius=radius, table=table)


def geodesic_length(
    x: BraidWord, max_radius: int | None = None, max_nodes: int = MAX_NODES
) -> int:
    """Exact minimal letter count of ``x`` over the signed atoms.

    Searches outward level by level and stops as soon as the target's
    normal form appears; raises :class:`NotFound` if the ball of
    ``max_radius`` (default: the radius guard) does not contain it.
    """
    radius = radius_guard(x.structure) if max_radius is None else max_radius
    _, level = _bfs(x.structure, radius, max_nodes, pack_nf(*x.raw_nf()))
    if level is None:
        raise NotFound(f"no representative within {radius} letters")
    return level
