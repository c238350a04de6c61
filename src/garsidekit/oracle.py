"""Brute-force geodesic lengths by breadth-first search.

One level-growing helper, ``_grow``, serves both entry points. It walks
the Cayley graph over the signed atoms, deduplicating states by greedy
normal form, and adds one level to a ball by right multiplication.
``enumerate_ball`` grows one ball around the identity and keeps every
element, one state per tau-orbit. ``geodesic_length`` searches from both
ends (Pohl 1971): one ball grows around the identity and one around its
target ``x``, one full level at a time of the side with the smaller
frontier, ties going to the identity. The graph is undirected, because
the signed atoms are closed under inversion, so while the balls of radii
r0 and r1 share no state, ``x`` lies more than r0 + r1 letters away; the
first slice of a new level of one side that meets the other's table
therefore bounds the length by one more, and that is the answer. Two
balls of half the radius replace one of the full radius.

Each state is held once, as one ``bytes`` blob (``kernels.pack_nf``): the
delta power as 8 signed big-endian bytes, wide enough for every power the
kernels accept, then the factor permutations back to back, ``n`` bytes
each. A ball's table is the record of visited states, and its frontier
holds the table's own keys. A level is expanded by ``kernels.expand_level``,
one kernel call per slice of ``SLICE`` parents, which multiplies, packs
and stores the children itself.

A ball around the identity stores one state per tau-orbit. Tau, the
conjugation by delta, maps the signed atoms onto themselves, so it is a
Cayley-graph automorphism fixing the identity: the elements of an orbit
share their distance, and since x·a = tau^-i(tau^i(x)·tau^i(a)), the right
neighbours of the orbit representatives reach every orbit of the next
sphere. ``expand_level`` keys each child by the least packed blob of its
orbit (``kernels.pack_orbit``); the orbits have 2 images in Artin B_n and
n in band B_n, and the band B_4 ball of radius 7 shrinks from 386,013
states to 98,478. :class:`BallIndex` still means every element. The two
balls of a geodesic search stay plain: the target's is not tau-invariant.

Finding the geodesic length is NP-hard in general, so the search is
exponential by nature and its resource guards are the work it does and the
time it takes: a search raises :class:`GuardExceeded` once it stores more
than ``max_nodes`` states (``MAX_NODES``: two million), the states of both
balls of a two-sided search counted together, or, given a ``deadline``,
when the clock read before a slice is past it. A ball counts its stored
orbits, so the same budget covers about twice as many elements in Artin
B_n and up to n times as many in band B_n. On the compiled backend the
1.9M-element band B_5 ball of radius 6, stored as 380,057 orbits, takes
about 0.7 s and peaks at about 80 MB of resident memory (3.2 s and 258 MB
stored plainly). The default search for ``(s1 s2^-1)^9`` in Artin B_3
takes about 5 ms and peaks at 23 MB, nearly all of it the interpreter and
the package (0.3 s on the pure twin; 2-CPU x86-64, CPython 3.11). A
negative radius raises ``ValueError``. Without an explicit radius,
``geodesic_length`` searches to ``min(len(x), l_R(x))``: the rational
normal form written in atoms is a word of ``l_R`` letters, so the default
search always reaches its target. Exact geodesics are only feasible for a
handful of strands, and nothing here pretends to scale past that.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Iterator

from . import kernels
from .core import BraidWord, GreedyNF, StructureDescriptor, _check_same_structure, _nf_from_raw
from .errors import GuardExceeded, NotFound
from .kernels import pack_nf, pack_orbit, unpack_nf
from .lengths import rational_length

MAX_NODES = 2_000_000
# Parents per kernel call: the deadline is read before each slice.
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
    """All elements within a geodesic radius around the identity.

    ``table`` maps one packed state per tau-orbit, the orbit's least blob
    (``kernels.pack_orbit``), to the distance all its elements share. A
    lookup canonicalizes its argument; ``len()`` counts every element from
    the orbit sizes, and ``items()`` and ``raw_items()`` cover every
    element, expanding the orbits when asked.
    """

    structure: StructureDescriptor
    radius: int
    table: dict[bytes, int]

    def __len__(self) -> int:
        code, n = self.structure.kind_code, self.structure.strand_count
        return sum(kernels.orbit_size(code, n, unpack_nf(blob, n)[1]) for blob in self.table)

    def lookup_raw(self, k: int, factors: tuple[bytes, ...]) -> int | None:
        """Distance of the normal form ``(k, factors)``, or None outside
        the ball. Raises ``ValueError`` on a factor that is not a simple of
        the ball's structure."""
        code, n = self.structure.kind_code, self.structure.strand_count
        for f in factors:
            if not (isinstance(f, bytes) and len(f) == n and kernels.is_simple(code, f)):
                raise ValueError(f"factor {f!r} is not a simple of the ball's structure")
        # Each signed atom moves the delta power by at most one.
        if abs(k) > self.radius:
            return None
        return self.table.get(pack_orbit(code, n, k, factors))

    def lookup(self, x: BraidWord | GreedyNF) -> int | None:
        """Geodesic length of an element, or None outside the ball.

        Raises ``StructureMismatch`` for an element of another structure.
        """
        _check_same_structure(self, x)
        if isinstance(x, GreedyNF):
            k, factors = x.raw()
        else:
            k, factors = x.raw_nf()
        return self.lookup_raw(k, factors)

    def items(self) -> Iterator[tuple[GreedyNF, int]]:
        for raw, dist in self.raw_items():
            yield _nf_from_raw(self.structure, *raw), dist

    def raw_items(self) -> Iterator[tuple[RawNF, int]]:
        """Every element once, orbit by orbit in table order: the images
        under tau^0 .. tau^(d-1) of each stored state (``kernels.tau_orbit``),
        d its orbit's size."""
        code, n = self.structure.kind_code, self.structure.strand_count
        for blob, dist in self.table.items():
            k, factors = unpack_nf(blob, n)
            for image in kernels.tau_orbit(code, n, factors):
                yield (k, image), dist


def _grow(
    structure: StructureDescriptor,
    moves: list[RawNF],
    table: dict[bytes, int],
    frontier: list[bytes],
    level: int,
    max_nodes: int,
    deadline: float | None,
    other: dict[bytes, int] | None = None,
) -> list[bytes] | None:
    """Add level ``level`` to ``table`` by right multiplication of
    ``frontier``, its previous level, by the signed atoms.

    Returns the new level, the next frontier. Without ``other``, the table
    is a ball around the identity and stores one state per tau-orbit, and
    ``max_nodes`` counts the orbits. Given the ``other`` side's table of a
    two-sided search, both tables hold plain states, and the call returns
    None as soon as a slice of new states meets it; ``max_nodes`` then
    counts both tables together, and ``GuardExceeded`` is raised once they
    hold more. The level is expanded by ``kernels.expand_level`` in slices
    of ``SLICE`` parents; with a ``deadline`` (a ``time.monotonic()``
    value) the clock is read before each slice.
    """
    code, n = structure.kind_code, structure.strand_count
    orbits = int(other is None)
    budget = max_nodes if other is None else max_nodes - len(other)
    next_frontier: list[bytes] = []
    for start in range(0, len(frontier), SLICE):
        if deadline is not None and time.monotonic() > deadline:
            raise GuardExceeded(f"search hit its deadline at radius {level}")
        grown = kernels.expand_level(
            code, n, frontier[start : start + SLICE], moves, table, level, max(budget, 0), orbits
        )
        if other is not None and not other.keys().isdisjoint(grown):
            return None
        if len(table) > budget:
            raise GuardExceeded(f"search exceeded {max_nodes} nodes at radius {level}")
        next_frontier += grown
    return next_frontier


def enumerate_ball(
    structure: StructureDescriptor,
    radius: int,
    max_nodes: int = MAX_NODES,
    deadline: float | None = None,
) -> BallIndex:
    """BFS ball of the given radius around the identity, stored as
    tau-orbits.

    ``max_nodes`` bounds the stored orbits, which hold about twice as many
    elements in Artin B_n and up to n times as many in band B_n.
    ``deadline`` is an absolute ``time.monotonic()`` value; past it the
    search raises :class:`GuardExceeded`.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    moves = _signed_atom_nfs(structure)
    origin = pack_nf(0, ())
    table = {origin: 0}
    frontier = [origin]
    for level in range(1, radius + 1):
        frontier = _grow(structure, moves, table, frontier, level, max_nodes, deadline)
    return BallIndex(structure=structure, radius=radius, table=table)


def geodesic_length(
    x: BraidWord,
    max_radius: int | None = None,
    max_nodes: int = MAX_NODES,
    deadline: float | None = None,
) -> int:
    """Exact minimal letter count of ``x`` over the signed atoms.

    Grows one ball around the identity and one around ``x``, each by
    right multiplication, a full level of the side with the smaller
    frontier at a time, and stops when they meet. The default radius
    ``min(len(x), l_R(x))`` bounds the geodesic length, so only an
    explicit ``max_radius`` below it raises :class:`NotFound`. The node
    budget ``max_nodes`` covers both balls. Past ``deadline``, an absolute
    ``time.monotonic()`` value, the search raises :class:`GuardExceeded`.
    """
    structure = x.structure
    k, factors = x.raw_nf()
    if max_radius is None:
        max_radius = min(len(x), rational_length(x))
    if max_radius < 0:
        raise ValueError("radius must be non-negative")
    origin, target = pack_nf(0, ()), pack_nf(k, factors)
    if target == origin:
        return 0
    # Each signed atom moves the delta power by at most one, so the target
    # lies at least |k| letters away.
    if abs(k) > max_radius:
        raise NotFound(f"no representative within {max_radius} letters")
    moves = _signed_atom_nfs(structure)
    # Per side: its table, its frontier and the radius it covers. While
    # the balls of radii r0 and r1 are disjoint, x lies more than r0 + r1
    # away; a new state of one side in the other's table bounds it by
    # one more.
    sides = [({origin: 0}, [origin], 0), ({target: 0}, [target], 0)]
    while sides[0][2] + sides[1][2] < max_radius:
        # The smaller frontier grows; on a tie, the identity's.
        i = int(len(sides[1][1]) < len(sides[0][1]))
        table, frontier, radius = sides[i]
        other = sides[1 - i]
        frontier = _grow(
            structure, moves, table, frontier, radius + 1, max_nodes, deadline, other[0]
        )
        if frontier is None:
            return radius + 1 + other[2]
        sides[i] = (table, frontier, radius + 1)
    raise NotFound(f"no representative within {max_radius} letters")
