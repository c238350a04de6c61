"""Brute-force geodesic lengths by breadth-first search.

One search core serves both entry points: ``enumerate_ball`` keeps every
state it reaches, and ``geodesic_length`` stops at the first node that is
its target. The core walks the Cayley graph over the signed atoms level by
level, deduplicating states by greedy normal form. Each state is held
once, as one ``bytes`` blob: the delta power as 8 signed big-endian bytes
(``>q``, wide enough for every power the kernels accept), then the factor
permutations back to back, ``n`` bytes each. The ball's table is the record
of visited states, and the frontier holds the table's own keys; a parent
is unpacked only while it is expanded.

Finding the geodesic length is NP-hard in general, so the search is
exponential by nature and the one resource guard is the work it does: the
core raises :class:`GuardExceeded` once it stores more than ``max_nodes``
states (``MAX_NODES``: two million). On the compiled backend the whole
1.9M-state band B_5 ball of radius 6 peaks at about 260 MB of resident
memory, and the default search for ``(s1 s2^-1)^9`` in Artin B_3, which
stops near the budget, at about 290 MB. A negative radius raises
``ValueError``. Without an explicit radius, ``geodesic_length`` searches
to ``min(len(x), l_R(x))``: the rational normal form written in atoms is
a word of ``l_R`` letters, so the default search always reaches its
target. Exact geodesics are only feasible for a handful of strands, and
nothing here pretends to scale past that.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
from collections.abc import Iterator

from . import kernels
from .core import BraidWord, GreedyNF, StructureDescriptor, _nf_from_raw
from .errors import GuardExceeded, NotFound

MAX_NODES = 2_000_000

RawNF = tuple[int, tuple[bytes, ...]]

_POWER = struct.Struct(">q")


def pack_nf(k: int, factors: tuple[bytes, ...]) -> bytes:
    return _POWER.pack(k) + b"".join(factors)


@functools.cache
def _layout(n: int, size: int) -> struct.Struct:
    """The packing of a ``size``-byte state of ``n``-byte factors."""
    return struct.Struct(">q" + f"{n}s" * ((size - _POWER.size) // n))


def unpack_nf(blob: bytes, n: int) -> RawNF:
    fields = _layout(n, len(blob)).unpack(blob)
    return fields[0], fields[1:]


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
        # Each signed atom moves the delta power by at most one.
        if abs(k) > self.radius:
            return None
        return self.table.get(pack_nf(k, factors))

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
    target: RawNF | None = None,
) -> tuple[dict[bytes, int], int | None]:
    """Breadth-first search from the identity, level by level.

    Returns the packed states reached with their distances, and the level
    at which ``target`` was first generated (None if it never was). The
    search stops at that node, without finishing its level.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    goal = None
    if target is not None:
        k, factors = target
        # Each signed atom moves the delta power by at most one, so the
        # target lies at least |k| letters away.
        if abs(k) > radius:
            return {}, None
        goal = pack_nf(k, factors)
    code, n = structure.kind_code, structure.strand_count
    origin = pack_nf(0, ())
    table: dict[bytes, int] = {origin: 0}
    if goal == origin:
        return table, 0
    moves = _signed_atom_nfs(structure)
    frontier = [origin]
    for level in range(1, radius + 1):
        next_frontier = []
        for parent in frontier:
            k, factors = unpack_nf(parent, n)
            for mk, mf in moves:
                nk, nf = kernels.multiply_nf(code, n, k, factors, mk, mf)
                blob = pack_nf(nk, nf)
                if blob not in table:
                    if blob == goal:
                        return table, level
                    table[blob] = level
                    next_frontier.append(blob)
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
    normal form appears. The default radius ``min(len(x), l_R(x))`` bounds
    the geodesic length, so only an explicit ``max_radius`` below it
    raises :class:`NotFound`.
    """
    structure = x.structure
    k, factors = x.raw_nf()
    if max_radius is None:
        _, ell_r = kernels.nf_lengths(
            structure.kind_code, structure.strand_count, k, factors
        )
        max_radius = min(len(x), ell_r)
    _, level = _bfs(structure, max_radius, max_nodes, (k, factors))
    if level is None:
        raise NotFound(f"no representative within {max_radius} letters")
    return level
