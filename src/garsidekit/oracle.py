"""Brute-force geodesic lengths by breadth-first search.

One search core serves both entry points: ``enumerate_ball`` keeps every
state it reaches, and ``geodesic_length`` stops at the first node that is
its target. The core walks the Cayley graph over the signed atoms level by
level, deduplicating states by greedy normal form. Each state is held
once, as one ``bytes`` blob (``kernels.pack_nf``): the delta power as 8
signed big-endian bytes, wide enough for every power the kernels accept,
then the factor permutations back to back, ``n`` bytes each. The ball's
table is the record of visited states, and the frontier holds the table's
own keys. A level is expanded by ``kernels.expand_level``, one kernel call
per slice of ``SLICE`` parents, which multiplies, packs and stores the
children itself.

Finding the geodesic length is NP-hard in general, so the search is
exponential by nature and its resource guards are the work it does and the
time it takes: the core raises :class:`GuardExceeded` once it stores more
than ``max_nodes`` states (``MAX_NODES``: two million), or, given a
``deadline``, when the clock read before a slice is past it. On the
compiled backend the whole 1.9M-state band B_5 ball of radius 6 takes about
2 s and peaks at about 260 MB of resident memory, and the default search
for ``(s1 s2^-1)^9`` in Artin B_3, which stops near the budget, about 1.5 s
and 290 MB (2-CPU x86-64, CPython 3.11). A negative radius raises
``ValueError``. Without an explicit radius, ``geodesic_length`` searches
to ``min(len(x), l_R(x))``: the rational normal form written in atoms is
a word of ``l_R`` letters, so the default search always reaches its
target. Exact geodesics are only feasible for a handful of strands, and
nothing here pretends to scale past that.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Iterator

from . import kernels
from .core import BraidWord, GreedyNF, StructureDescriptor, _nf_from_raw
from .errors import GuardExceeded, NotFound
from .kernels import pack_nf, unpack_nf

MAX_NODES = 2_000_000
# Parents per kernel call: the deadline is read between slices.
SLICE = 512

RawNF = tuple[int, tuple[bytes, ...]]


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
    deadline: float | None = None,
) -> tuple[dict[bytes, int], int | None]:
    """Breadth-first search from the identity, level by level.

    Returns the packed states reached with their distances, and the level
    at which ``target`` was first generated (None if it never was). The
    search stops at that node, without finishing its level. Each level is
    expanded by ``kernels.expand_level`` in slices of ``SLICE`` parents;
    with a ``deadline`` (a ``time.monotonic()`` value) the clock is read
    before each slice.
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
        next_frontier: list[bytes] = []
        for start in range(0, len(frontier), SLICE):
            if deadline is not None and time.monotonic() > deadline:
                raise GuardExceeded(f"search hit its deadline at radius {level}")
            grown = kernels.expand_level(
                code, n, frontier[start : start + SLICE], moves, table, level, goal, max_nodes
            )
            if grown is None:
                return table, level
            next_frontier += grown
            if len(table) > max_nodes:
                raise GuardExceeded(
                    f"search exceeded {max_nodes} nodes at radius {level}"
                )
        frontier = next_frontier
    return table, None


def enumerate_ball(
    structure: StructureDescriptor,
    radius: int,
    max_nodes: int = MAX_NODES,
    deadline: float | None = None,
) -> BallIndex:
    """BFS ball of the given radius around the identity.

    ``deadline`` is an absolute ``time.monotonic()`` value; past it the
    search raises :class:`GuardExceeded`.
    """
    table, _ = _bfs(structure, radius, max_nodes, deadline=deadline)
    return BallIndex(structure=structure, radius=radius, table=table)


def geodesic_length(
    x: BraidWord,
    max_radius: int | None = None,
    max_nodes: int = MAX_NODES,
    deadline: float | None = None,
) -> int:
    """Exact minimal letter count of ``x`` over the signed atoms.

    Searches outward level by level and stops as soon as the target's
    normal form appears. The default radius ``min(len(x), l_R(x))`` bounds
    the geodesic length, so only an explicit ``max_radius`` below it
    raises :class:`NotFound`. Past ``deadline``, an absolute
    ``time.monotonic()`` value, the search raises :class:`GuardExceeded`.
    """
    structure = x.structure
    k, factors = x.raw_nf()
    if max_radius is None:
        _, ell_r = kernels.nf_lengths(
            structure.kind_code, structure.strand_count, k, factors
        )
        max_radius = min(len(x), ell_r)
    _, level = _bfs(structure, max_radius, max_nodes, (k, factors), deadline)
    if level is None:
        raise NotFound(f"no representative within {max_radius} letters")
    return level
