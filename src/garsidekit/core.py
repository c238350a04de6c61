"""Structure-generic Garside machinery for braid groups.

The public value types live here: structure descriptors, simple elements,
braid words, and the two normal forms. A simple element wraps the kernel
representation (a permutation of ``range(n)`` as ``bytes``); braid words
are signed atom sequences and are the universal I/O representation.

Every operation is a pure function on immutable values, so everything in
this module is safe to share across threads.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, Union

from . import kernels
from .errors import GuardExceeded, NotADivisor, StructureMismatch
from .kernels import MAX_STRANDS  # a simple is a permutation of range(n) as bytes

ARTIN = "artin"
BKL = "bkl"

_KIND_CODES = {ARTIN: kernels.KIND_ARTIN, BKL: kernels.KIND_BKL}

SIMPLE_CLOSURE_MAX_STRANDS = 8


@dataclasses.dataclass(frozen=True, eq=False)
class StructureDescriptor:
    """One of the two Garside structures on the braid group B_n.

    Only ``kind`` and ``strand_count`` are given; the constants follow from
    them. ``tau_atom_table[a]`` is the atom index of the conjugate of atom
    ``a`` by the fundamental element.
    """

    kind: str
    strand_count: int
    atom_count: int = dataclasses.field(init=False)
    delta_atom_length: int = dataclasses.field(init=False)
    tau_atom_table: tuple[int, ...] = dataclasses.field(init=False)

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown structure kind {self.kind!r}")
        n = self.strand_count
        if not 2 <= n <= MAX_STRANDS:
            raise ValueError(f"strand count {n} outside 2..{MAX_STRANDS}")
        code = _KIND_CODES[self.kind]
        perms = [kernels.atom_perm(code, n, a) for a in range(kernels.atom_count(code, n))]
        # Conjugation by delta permutes the atoms.
        index = {p: a for a, p in enumerate(perms)}
        tau_table = tuple(index[kernels.tau_simple(code, p, 1)] for p in perms)
        object.__setattr__(self, "atom_count", len(perms))
        object.__setattr__(self, "delta_atom_length", kernels.delta_len(code, n))
        object.__setattr__(self, "tau_atom_table", tau_table)

    @property
    def kind_code(self) -> int:
        return _KIND_CODES[self.kind]

    @property
    def delta(self) -> SimpleElement:
        return SimpleElement(
            self, kernels.delta_perm(self.kind_code, self.strand_count)
        )

    @property
    def identity_simple(self) -> SimpleElement:
        return SimpleElement(self, kernels.identity_perm(self.strand_count))

    def atom_simple(self, atom: int) -> SimpleElement:
        return SimpleElement(
            self, kernels.atom_perm(self.kind_code, self.strand_count, atom)
        )

    def atoms(self) -> tuple[SimpleElement, ...]:
        return tuple(self.atom_simple(a) for a in range(self.atom_count))

    def atom_label(self, atom: int) -> str:
        """Display name of an atom: ``s2`` (Artin) or ``a(3,1)`` (BKL)."""
        if not 0 <= atom < self.atom_count:
            raise ValueError(f"atom index {atom} out of range")
        if self.kind == ARTIN:
            return f"s{atom + 1}"
        t, s = kernels.bkl_atom_pair(atom)
        return f"a({t + 1},{s + 1})"

    def word(self, letters: Iterable[tuple[int, int]] = ()) -> BraidWord:
        return BraidWord(self, tuple(letters))

    def __eq__(self, other):
        if isinstance(other, StructureDescriptor):
            return (self.kind, self.strand_count) == (other.kind, other.strand_count)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.strand_count))

    def __repr__(self):
        return f"StructureDescriptor({self.kind!r}, n={self.strand_count})"


def _check_same_structure(a, b) -> StructureDescriptor:
    if a.structure != b.structure:
        raise StructureMismatch(
            f"mixed structures: {a.structure!r} vs {b.structure!r}"
        )
    return a.structure


@dataclasses.dataclass(frozen=True)
class SimpleElement:
    """A left divisor of the fundamental element.

    ``data`` is the underlying permutation in one-line notation. For the
    band structure the permutation always splits into upward cycles, one
    per block of the corresponding non-crossing partition.
    """

    structure: StructureDescriptor
    data: bytes

    def __post_init__(self):
        if len(self.data) != self.structure.strand_count:
            raise ValueError(
                f"{len(self.data)} bytes for {self.structure.strand_count} strands"
            )
        if not kernels.is_simple(self.structure.kind_code, self.data):
            raise ValueError(f"{self.data!r} is not a simple of {self.structure!r}")

    @property
    def one_line(self) -> tuple[int, ...]:
        """Permutation in 1-based one-line notation."""
        return tuple(x + 1 for x in self.data)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """1-based partition blocks (cycles of the permutation), by minimum."""
        n = len(self.data)
        seen = [False] * n
        out = []
        for i in range(n):
            if seen[i]:
                continue
            block = []
            j = i
            while not seen[j]:
                seen[j] = True
                block.append(j + 1)
                j = self.data[j]
            out.append(tuple(sorted(block)))
        return tuple(out)

    @property
    def canonical(self):
        """One-line permutation (Artin) or block partition (BKL)."""
        return self.one_line if self.structure.kind == ARTIN else self.blocks

    def atom_length(self) -> int:
        return kernels.simple_len(self.structure.kind_code, self.data)

    def is_identity(self) -> bool:
        return self.data == kernels.identity_perm(self.structure.strand_count)

    def is_delta(self) -> bool:
        return self.data == kernels.delta_perm(
            self.structure.kind_code, self.structure.strand_count
        )

    def atom_word(self) -> BraidWord:
        """A positive word for this simple, of minimal letter count."""
        atoms = kernels.simple_to_atoms(self.structure.kind_code, self.data)
        return BraidWord(self.structure, tuple((a, 1) for a in atoms))

    def __repr__(self):
        return f"SimpleElement({self.structure.kind}, {self.canonical!r})"


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A signed atom sequence; the empty sequence is the group identity."""

    structure: StructureDescriptor
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for atom, sign in self.letters:
            if not 0 <= atom < self.structure.atom_count:
                raise ValueError(f"bad atom {atom}")
            if sign not in (1, -1):
                raise ValueError(f"bad sign {sign}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        _check_same_structure(self, other)
        return BraidWord(self.structure, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(
            self.structure, tuple((a, -s) for a, s in reversed(self.letters))
        )

    def __pow__(self, exponent: int) -> BraidWord:
        base = self if exponent >= 0 else self.inverse()
        return BraidWord(self.structure, base.letters * abs(exponent))

    def raw_nf(self) -> tuple[int, tuple[bytes, ...]]:
        """Kernel greedy form ``(k, factors)``, computed once per word.

        The form is stored on the instance outside the dataclass fields,
        so equality, hashing and ``repr`` still see only the letters.
        """
        nf = self.__dict__.get("_raw_nf")
        if nf is None:
            nf = kernels.word_to_nf(
                self.structure.kind_code, self.structure.strand_count, self.letters
            )
            object.__setattr__(self, "_raw_nf", nf)
        return nf


@dataclasses.dataclass(frozen=True)
class GreedyNF:
    """Normal form ``delta^k p_1 ... p_r`` with left-weighted factors."""

    structure: StructureDescriptor
    k: int
    factors: tuple[SimpleElement, ...]

    def __post_init__(self):
        code = self.structure.kind_code
        for f in self.factors:
            if f.is_identity() or f.is_delta():
                raise ValueError(f"trivial or delta factor {f!r}")
        for a, b in zip(self.factors, self.factors[1:]):
            if not kernels.is_left_weighted(code, a.data, b.data):
                raise ValueError(f"factors {a!r}, {b!r} are not left-weighted")

    def raw(self) -> tuple[int, tuple[bytes, ...]]:
        return self.k, tuple(f.data for f in self.factors)

    def __repr__(self):
        return f"GreedyNF(k={self.k}, factors={[f.canonical for f in self.factors]})"


@dataclasses.dataclass(frozen=True)
class RationalNF:
    """Normal form ``(s_1 ... s_k)^-1 (p_1 ... p_l)`` with coprime parts."""

    structure: StructureDescriptor
    neg_factors: tuple[SimpleElement, ...]
    pos_factors: tuple[SimpleElement, ...]

    def __post_init__(self):
        code = self.structure.kind_code
        for f in self.neg_factors + self.pos_factors:
            if f.is_identity():
                raise ValueError("trivial factor")
        for part in (self.neg_factors, self.pos_factors):
            for a, b in zip(part, part[1:]):
                if not kernels.is_left_weighted(code, a.data, b.data):
                    raise ValueError(f"factors {a!r}, {b!r} are not left-weighted")

    def atom_length(self) -> int:
        return sum(f.atom_length() for f in self.neg_factors) + sum(
            f.atom_length() for f in self.pos_factors
        )


def _from_kernel(cls, *values):
    """A ``SimpleElement``, ``GreedyNF`` or ``RationalNF`` built from
    normal-form kernel output.

    The kernels return only simples, and only left-weighted factors, none
    trivial (nor delta, in a greedy form), so the checks of
    ``__post_init__``, which guard objects built from outside input, are
    skipped.
    """
    nf = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(nf, name, value)
    return nf


def _simples(structure: StructureDescriptor, factors) -> tuple[SimpleElement, ...]:
    return tuple(_from_kernel(SimpleElement, structure, f) for f in factors)


def _nf_from_raw(structure: StructureDescriptor, k: int, factors) -> GreedyNF:
    return _from_kernel(GreedyNF, structure, k, _simples(structure, factors))


# ---------------------------------------------------------------------------
# Lattice operations


def meet(s: SimpleElement, t: SimpleElement) -> SimpleElement:
    """Greatest common left divisor of two simples."""
    structure = _check_same_structure(s, t)
    return SimpleElement(structure, kernels.meet(structure.kind_code, s.data, t.data))


def join(s: SimpleElement, t: SimpleElement) -> SimpleElement:
    """Least common multiple of two simples (stays below delta)."""
    structure = _check_same_structure(s, t)
    return SimpleElement(structure, kernels.join(structure.kind_code, s.data, t.data))


def complement(s: SimpleElement, side: str = "right") -> SimpleElement:
    """The simple completing ``s`` to delta on the given side."""
    code = s.structure.kind_code
    if side == "right":
        return SimpleElement(s.structure, kernels.right_complement(code, s.data))
    if side == "left":
        return SimpleElement(s.structure, kernels.left_complement(code, s.data))
    raise ValueError(f"side must be 'left' or 'right', not {side!r}")


def left_divides(s: SimpleElement, t: SimpleElement) -> bool:
    """Whether ``s * q = t`` for some simple ``q``.

    Artin: crossing-set containment; BKL: partition refinement.
    """
    structure = _check_same_structure(s, t)
    return kernels.left_divides(structure.kind_code, s.data, t.data)


def quotient_simple(s: SimpleElement, t: SimpleElement) -> SimpleElement:
    """The simple ``q`` with ``s * q = t``."""
    structure = _check_same_structure(s, t)
    if not kernels.left_divides(structure.kind_code, s.data, t.data):
        raise NotADivisor(f"{s!r} does not left-divide {t!r}")
    return SimpleElement(structure, kernels.quotient_left(s.data, t.data))


def tau_power(x: Union[SimpleElement, BraidWord], k: int):
    """Conjugate by the k-th power of delta; length-preserving."""
    if isinstance(x, SimpleElement):
        return SimpleElement(
            x.structure, kernels.tau_simple(x.structure.kind_code, x.data, k)
        )
    table = x.structure.tau_atom_table
    steps = k % kernels.tau_period(x.structure.kind_code, x.structure.strand_count)
    letters = x.letters
    for _ in range(steps):
        letters = tuple((table[a], s) for a, s in letters)
    return BraidWord(x.structure, letters)


def local_slide(s: SimpleElement, p: SimpleElement) -> tuple[SimpleElement, SimpleElement]:
    """Left-weight the pair ``(s, p)`` without changing the product."""
    structure = _check_same_structure(s, p)
    a, b = kernels.make_left_weighted(structure.kind_code, s.data, p.data)
    return SimpleElement(structure, a), SimpleElement(structure, b)


# ---------------------------------------------------------------------------
# Normal forms


def greedy_nf(w: BraidWord) -> GreedyNF:
    """Greedy normal form of a word; the infimum power of delta is maximal."""
    k, factors = w.raw_nf()
    return _nf_from_raw(w.structure, k, factors)


def raw_rational_parts(
    kind: int, n: int, k: int, factors: tuple[bytes, ...]
) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """Kernel-level split of a greedy form into coprime positive parts.

    A negative delta power converts the leading ``min(r, -k)`` factors into
    twisted right complements on the inverted side; surplus delta powers
    stay as explicit delta factors of that side.
    """
    dp = kernels.delta_perm(kind, n)
    if k >= 0:
        return (), (dp,) * k + factors
    m = -k
    r = len(factors)
    neg = [dp] * max(m - r, 0)
    for j in range(min(m, r), 0, -1):
        twisted = kernels.tau_simple(kind, factors[j - 1], m - j)
        neg.append(kernels.right_complement(kind, twisted))
    return tuple(neg), factors[m:] if m < r else ()


def rational_nf(g: GreedyNF) -> RationalNF:
    """Rational (mixed) normal form computed from the greedy form."""
    structure = g.structure
    neg, pos = raw_rational_parts(
        structure.kind_code, structure.strand_count, *g.raw()
    )
    return _from_kernel(
        RationalNF, structure, _simples(structure, neg), _simples(structure, pos)
    )


def equals(x: BraidWord, y: BraidWord) -> bool:
    """Word problem: equality of greedy normal forms."""
    _check_same_structure(x, y)
    return x.raw_nf() == y.raw_nf()


def recompose(nf: Union[GreedyNF, RationalNF]) -> BraidWord:
    """A word representing the same group element as the normal form."""
    structure = nf.structure
    if isinstance(nf, GreedyNF):
        word = structure.delta.atom_word() ** nf.k
        for f in nf.factors:
            word = word * f.atom_word()
        return word
    word = structure.word()
    for f in reversed(nf.neg_factors):
        word = word * f.atom_word().inverse()
    for f in nf.pos_factors:
        word = word * f.atom_word()
    return word


# ---------------------------------------------------------------------------
# Simple-element enumeration


def simple_closure(structure: StructureDescriptor) -> frozenset[SimpleElement]:
    """Close the atoms under join and the complement ``a \\ b``.

    The complement of ``a`` in ``b`` is the tail of the join:
    ``a * (a \\ b) = a v b``. Guarded, since the closure is the full set of
    simples and grows combinatorially with the strand count.
    """
    n = structure.strand_count
    if n > SIMPLE_CLOSURE_MAX_STRANDS:
        raise GuardExceeded(
            f"simple_closure is limited to {SIMPLE_CLOSURE_MAX_STRANDS} strands"
        )
    code = structure.kind_code
    closed: set[bytes] = {
        kernels.atom_perm(code, n, a) for a in range(structure.atom_count)
    }
    frontier = list(closed)
    while frontier:
        fresh: set[bytes] = set()
        for a in frontier:
            for b in closed:
                for x, y in ((a, b), (b, a)):
                    j = kernels.join(code, x, y)
                    if j not in closed:
                        fresh.add(j)
                    c = kernels.quotient_left(x, j)
                    if c not in closed:
                        fresh.add(c)
        closed |= fresh
        frontier = list(fresh)
    return frozenset(SimpleElement(structure, p) for p in closed)


def enumerate_simples(structure: StructureDescriptor) -> Iterator[SimpleElement]:
    """Directly enumerate all simples (independent of the closure)."""
    import itertools

    n = structure.strand_count
    if n > SIMPLE_CLOSURE_MAX_STRANDS:
        raise GuardExceeded(
            f"enumeration is limited to {SIMPLE_CLOSURE_MAX_STRANDS} strands"
        )
    code = structure.kind_code
    for perm in itertools.permutations(range(n)):
        data = bytes(perm)
        if kernels.is_simple(code, data):
            yield SimpleElement(structure, data)
