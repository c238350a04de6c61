"""Pure-Python kernels for Garside normal-form arithmetic in braid groups.

This module is the reference backend. The C extension ``_speed`` compiles
the hot functions with identical semantics; ``garsidekit.kernels`` says
which those are and picks a twin at import time.

Representation
--------------

Everything here works on plain ``bytes`` and small integers, so values are
immutable, hashable and cheap to move around:

- A *simple element* is a permutation of ``range(n)`` stored as ``bytes`` of
  length ``n`` in one-line notation: ``p[i]`` is the final position of the
  strand that starts in slot ``i``.
- Words multiply left to right, so ``perm(u * v)[i] == perm(v)[perm(u)[i]]``.
- A *normal form* is a pair ``(k, factors)``: an integer power of the
  fundamental element followed by a tuple of left-weighted simple factors,
  none of which is the identity or the fundamental element.

Two structure kinds are supported, selected by the ``kind`` argument:

- ``KIND_ARTIN`` (0): every permutation is simple; the fundamental element
  is the reversal ``n-1-i``; atom ``i`` (``0 <= i <= n-2``) is the adjacent
  transposition of slots ``i`` and ``i+1``.
- ``KIND_BKL`` (1): simples are the permutations whose cycles each walk
  their support upward (max wraps to min) and whose supports are pairwise
  non-crossing, i.e. exactly the non-crossing partitions of ``range(n)``.
  The fundamental element is the full cycle ``i -> i+1 (mod n)``; the atom
  with flat index ``t*(t-1)//2 + s`` is the transposition of slots ``s < t``.

Each structure has its own fundamental element and atoms
(``delta_perm``, ``delta_len``, ``atom_count``, ``atom_perm``), its own
``tau_simple`` and ``tau_period``, and its own algorithm for ``meet``,
``simple_len``, ``is_simple``, ``simple_to_atoms`` and
``make_left_weighted``. ``join`` takes the meet of the two complements in
one way or the other. The complements are products with the fundamental
element. Left divisibility (``meet(s, t) == s``) and ``join`` follow from
the meet by Garside identities, which the test suite checks against the
raw definitions. An operation on two simples raises ``ValueError`` when
their strand counts differ; a normal-form kernel raises it on a factor
that is not a simple of the structure.
"""

from __future__ import annotations

import bisect
import functools
import operator
import struct
from typing import Iterable, Sequence

KIND_ARTIN = 0
KIND_BKL = 1
# The compiled twin's argument bounds (its ``MAXN`` and ``MAX_POWER``): the
# most strands a byte can label, and the largest delta power it accepts.
MAX_STRANDS = 256
MAX_POWER = 1 << 40


# ---------------------------------------------------------------------------
# Permutation plumbing


@functools.cache
def identity_perm(n: int) -> bytes:
    return bytes(range(n))


@functools.cache
def delta_perm(kind: int, n: int) -> bytes:
    if kind == KIND_ARTIN:
        return bytes(n - 1 - i for i in range(n))
    return bytes((i + 1) % n for i in range(n))


def atom_count(kind: int, n: int) -> int:
    return n - 1 if kind == KIND_ARTIN else n * (n - 1) // 2


def bkl_atom_index(t: int, s: int) -> int:
    """Flat index of the band atom joining slots ``s < t`` (0-based)."""
    return t * (t - 1) // 2 + s


def bkl_atom_pair(a: int) -> tuple[int, int]:
    """Inverse of :func:`bkl_atom_index`."""
    t = 1
    while (t + 1) * t // 2 <= a:
        t += 1
    return t, a - t * (t - 1) // 2


def atom_perm(kind: int, n: int, a: int) -> bytes:
    if not 0 <= a < atom_count(kind, n):
        raise ValueError(f"atom {a} outside 0..{atom_count(kind, n) - 1}")
    p = bytearray(range(n))
    if kind == KIND_ARTIN:
        p[a], p[a + 1] = p[a + 1], p[a]
    else:
        t, s = bkl_atom_pair(a)
        p[t], p[s] = p[s], p[t]
    return bytes(p)


_PAD = bytes(MAX_STRANDS)


def compose(p: bytes, q: bytes) -> bytes:
    """Product ``p * q``: apply ``p`` first, then ``q``.

    ``q`` padded to 256 bytes is a ``bytes.translate`` table for ``p``.
    """
    if not (isinstance(p, bytes) and isinstance(q, bytes)):
        raise ValueError("compose takes two bytes objects")
    n = len(q)
    if len(p) != n:
        raise ValueError(f"permutations of {len(p)} and {n} strands")
    if n and max(p) >= n:
        raise ValueError(f"{p!r} has a byte outside range({n})")
    return _compose(p, q)


def _compose(p: bytes, q: bytes) -> bytes:
    """:func:`compose` of two permutations its caller has checked."""
    return p.translate(q + _PAD[len(q) :])


def invert(p: bytes) -> bytes:
    out = bytearray(len(p))
    for i, x in enumerate(p):
        out[x] = i
    return bytes(out)


def simple_len(kind: int, p: bytes) -> int:
    if kind == KIND_BKL and not is_permutation(p, len(p)):
        raise ValueError(f"{p!r} is not a permutation of range({len(p)})")
    return _simple_len(kind, p)


def _simple_len(kind: int, p: bytes) -> int:
    """:func:`simple_len` of a simple its caller has checked."""
    if kind == KIND_ARTIN:
        # The inversions: read from the back, each value crosses the later
        # values below it, which a sorted list of them counts by bisection.
        later: list[int] = []
        count = 0
        for x in reversed(p):
            below = bisect.bisect_left(later, x)
            count += below
            later.insert(below, x)
        return count
    # n minus the block count: all but the largest slot of a block map upward.
    return sum(map(operator.gt, p, range(len(p))))


def tau_period(kind: int, n: int) -> int:
    """The period of tau, conjugation by delta, on ``n`` strands: 2 for
    Artin and ``n`` for band (1 on no strands), as delta^2 and delta^n
    are central."""
    return 2 if kind == KIND_ARTIN else n or 1


def tau_simple(kind: int, p: bytes, k: int) -> bytes:
    """Conjugate by the k-th power of the fundamental element."""
    if not (isinstance(p, bytes) and is_permutation(p, len(p))):
        raise ValueError(f"{p!r} is not a permutation of range({len(p)})")
    return _tau(kind, len(p), (p,), k)[0]


@functools.cache
def _tau_table(kind: int, n: int, k: int) -> bytes:
    """delta^k as a ``bytes.translate`` table: the relabelling of tau^k."""
    if kind == KIND_ARTIN:
        return delta_perm(kind, n) + _PAD[n:]
    return bytes((x + k) % n for x in range(n)) + _PAD[n:]


def _tau(kind: int, n: int, factors: Iterable[bytes], k: int) -> tuple[bytes, ...]:
    """:func:`tau_simple` of each of ``factors``, which its caller has
    checked to be permutations of ``n`` strands."""
    k %= tau_period(kind, n)
    if k == 0:
        return tuple(factors)
    table = _tau_table(kind, n, k)
    if kind == KIND_ARTIN:
        return tuple([f[::-1].translate(table) for f in factors])
    return tuple([(f[n - k :] + f[: n - k]).translate(table) for f in factors])


@functools.cache
def _range_set(n: int) -> frozenset[int]:
    return frozenset(range(n))


def is_permutation(p: bytes, n: int) -> bool:
    return len(p) == n and set(p) == _range_set(n)


def _is_band_simple(p: bytes) -> bool:
    """Whether the permutation ``p`` is a band simple, in one ascending scan.

    A band simple maps each slot to the next larger slot of its block and
    the largest back to the smallest, and its blocks do not cross. The
    scan keeps each block open at slot ``i`` on a stack, as the slot it
    goes on to and its smallest slot: blocks nest, so the innermost, on
    top, goes on to the nearest slot.
    """
    stack: list[tuple[int, int]] = []
    for i, x in enumerate(p):
        low = stack.pop()[1] if stack and stack[-1][0] == i else i
        if x > i:
            if stack and stack[-1][0] < x:
                return False
            stack.append((x, low))
        elif x != low:
            return False
    return True


def _check_factors(kind: int, n: int, factors: Sequence[bytes]) -> None:
    """Raise unless every factor is a simple of the structure on ``n``
    strands, as the compiled twin does."""
    for f in factors:
        if not is_permutation(f, n):
            raise ValueError(f"factor {f!r} is not a permutation of range({n})")
        if kind == KIND_BKL and not _is_band_simple(f):
            raise ValueError(f"factor {f!r} is not a band simple of {n} strands")


def _check_bounds(n: int, *powers: int) -> None:
    """Raise where the compiled twin does on a strand count or delta power."""
    if not 0 <= n <= MAX_STRANDS:
        raise ValueError(f"strand count {n} outside 0..{MAX_STRANDS}")
    for k in powers:
        if abs(k) > MAX_POWER:
            raise ValueError(f"delta power {k} outside +-{MAX_POWER}")


def is_simple(kind: int, p: bytes) -> bool:
    """Every permutation is an Artin simple; band simples are the
    permutations whose upward cycles form a non-crossing partition."""
    return is_permutation(p, len(p)) and (kind == KIND_ARTIN or _is_band_simple(p))


# ---------------------------------------------------------------------------
# Lattice operations on simples


def left_divides(kind: int, s: bytes, t: bytes) -> bool:
    return meet(kind, s, t) == s


def meet(kind: int, s: bytes, t: bytes) -> bytes:
    n = len(s)
    if len(t) != n:
        raise ValueError(f"simples of {n} and {len(t)} strands")
    # The band block walk ends at all only when ``s`` is a permutation.
    if kind == KIND_BKL and not (is_permutation(s, n) and is_permutation(t, n)):
        raise ValueError(f"{s!r} or {t!r} is not a permutation of range({n})")
    return _meet(kind, s, t)


def _meet(kind: int, s: bytes, t: bytes) -> bytes:
    """:func:`meet` of two simples its caller has checked."""
    n = len(s)
    if kind == KIND_BKL:
        # The common refinement of the two partitions. The slot after ``at``
        # in its meet block is the first slot after it on the upward walk
        # along ``s`` that shares its block of ``t``; the walk ends without
        # one when it wraps or passes ``end``, the largest slot of that
        # block.
        top = bytearray(n)
        for i in range(n - 1, -1, -1):
            top[i] = top[t[i]] if t[i] > i else i
        out = bytearray(n)
        done = bytearray(n)
        # An ascending scan meets each block first at its smallest slot.
        for i in range(n):
            if done[i]:
                continue
            end = top[i]
            at = i
            while True:
                done[at] = 1
                j = s[at]
                while at < j < end and top[j] != end:
                    j = s[j]
                if j <= at or j > end:
                    break
                out[at] = j
                at = j
            out[at] = i
        return bytes(out)
    # Greedily peel atoms dividing both arguments; any peel order yields
    # the same gcd.
    u = bytearray(s)
    v = bytearray(t)
    m = bytearray(range(n))
    mi = bytearray(range(n))
    moved = True
    while moved:
        moved = False
        for i in range(n - 1):
            if u[i] > u[i + 1] and v[i] > v[i + 1]:
                u[i], u[i + 1] = u[i + 1], u[i]
                v[i], v[i + 1] = v[i + 1], v[i]
                pi, pj = mi[i], mi[i + 1]
                m[pi], m[pj] = i + 1, i
                mi[i], mi[i + 1] = pj, pi
                moved = True
    return bytes(m)


def join(kind: int, s: bytes, t: bytes) -> bytes:
    """Least common multiple: ``x`` is a multiple of ``s`` iff
    ``right_complement(x)`` right-divides ``right_complement(s)``, so the
    join is the left complement of their greatest common right divisor
    (Dehornoy and Paris 1999). For band simples that is their meet, as
    absolute length is conjugation-invariant (Biane 1997); for Artin
    simples it is the inverse of the meet of their inverses.
    """
    a = right_complement(kind, s)
    b = right_complement(kind, t)
    if kind == KIND_BKL:
        g = meet(kind, a, b)
    else:
        g = invert(meet(kind, invert(a), invert(b)))
    return left_complement(kind, g)


def right_complement(kind: int, s: bytes) -> bytes:
    """The simple ``c`` with ``s * c = delta``."""
    return compose(invert(s), delta_perm(kind, len(s)))


def left_complement(kind: int, s: bytes) -> bytes:
    """The simple ``c`` with ``c * s = delta``."""
    return compose(delta_perm(kind, len(s)), invert(s))


def quotient_left(s: bytes, t: bytes) -> bytes:
    """The permutation ``q`` with ``s * q = t`` (divisibility not checked)."""
    if len(t) != len(s):
        raise ValueError(f"simples of {len(s)} and {len(t)} strands")
    return compose(invert(s), t)


# ---------------------------------------------------------------------------
# Left-weighted factor sequences


def make_left_weighted(kind: int, s: bytes, p: bytes) -> tuple[bytes, bytes]:
    """Slide as much of ``p`` as possible into ``s``; the product is kept."""
    n = len(s)
    if len(p) != n:
        raise ValueError(f"simples of {n} and {len(p)} strands")
    if kind == KIND_BKL and not (is_permutation(s, n) and is_permutation(p, n)):
        raise ValueError(f"{s!r} or {p!r} is not a permutation of range({n})")
    return _make_left_weighted(kind, s, p)


def _make_left_weighted(kind: int, s: bytes, p: bytes) -> tuple[bytes, bytes]:
    """:func:`make_left_weighted` of two simples its caller has checked."""
    n = len(s)
    if kind == KIND_BKL:
        # The meet of p with the right complement of s.
        b = _meet(kind, _compose(invert(s), delta_perm(kind, n)), p)
        if b == identity_perm(n):
            return s, p
        return _compose(s, b), _compose(invert(b), p)
    # Transfer every atom that starts p and can extend s. A transfer at i
    # changes only the pairs at i - 1 and i + 1, so the scan steps back
    # one slot after it; any transfer order ends at the same pair.
    sm = bytearray(s)
    si = bytearray(invert(s))
    pm = bytearray(p)
    moved = False
    i = 0
    while i < n - 1:
        if pm[i] > pm[i + 1] and si[i] < si[i + 1]:
            pm[i], pm[i + 1] = pm[i + 1], pm[i]
            pi, pj = si[i], si[i + 1]
            sm[pi], sm[pj] = i + 1, i
            si[i], si[i + 1] = pj, pi
            moved = True
            if i > 0:
                i -= 1
        else:
            i += 1
    if not moved:
        return s, p
    return bytes(sm), bytes(pm)


def is_left_weighted(kind: int, s: bytes, p: bytes) -> bool:
    return meet(kind, right_complement(kind, s), p) == identity_perm(len(s))


def _absorb(kind: int, fs: list[bytes], i: int, idp: bytes) -> bool:
    """Left-multiply the left-weighted suffix ``fs[i+1:]`` by ``fs[i]``.

    Each pair is left-weighted in turn and its right part carried on to
    the next, until a pair is already left-weighted (the rest stays as it
    is) or nothing is left to carry. By the domino rule of Garside theory,
    ``fs[i:]`` is then left-weighted save for deltas at its front. Returns
    False when the first pair was already left-weighted.
    """
    first = i
    while i < len(fs) - 1:
        s2, p2 = _make_left_weighted(kind, fs[i], fs[i + 1])
        if s2 is fs[i] or s2 == fs[i]:
            break
        fs[i] = s2
        if p2 == idp:
            del fs[i + 1]
            return True
        fs[i + 1] = p2
        i += 1
    return i > first


def _normalize(kind: int, n: int, fs: list[bytes], last: int) -> int:
    """Left-weight ``fs`` in place; return the count of stripped deltas.

    ``fs[:last+1]`` and ``fs[last+1:]`` must each be left-weighted. The
    factors from ``last`` down are absorbed into the suffix one at a time,
    until one leaves its right neighbour alone: the pairs left of it are
    untouched, hence still left-weighted. Deltas migrate to the front and
    are stripped off; identity factors left at the back are dropped.
    """
    idp = identity_perm(n)
    while last >= 0 and _absorb(kind, fs, last, idp):
        last -= 1
    dp = delta_perm(kind, n)
    lead = 0
    while lead < len(fs) and fs[lead] == dp:
        lead += 1
    del fs[:lead]
    while fs and fs[-1] == idp:
        fs.pop()
    return lead


def _prepend(kind: int, n: int, fs: list[bytes], f: bytes, k: int) -> int:
    """Left-multiply the normal form ``delta^k * fs`` by the simple ``f``, in
    place; return the new delta power.

    ``f * delta^k = delta^k * tau^k(f)``, so ``f`` is twisted by ``k``. An
    identity is dropped and a delta only raises the power; any other simple
    goes in front of ``fs`` and one rightward domino (:func:`_absorb`)
    left-weights the whole. The infimum rises by at most one per simple, so
    at most one delta then leads, and it is stripped off.
    """
    f = _tau(kind, n, (f,), k)[0]
    if f == identity_perm(n):
        return k
    dp = delta_perm(kind, n)
    if f == dp:
        return k + 1
    fs.insert(0, f)
    _absorb(kind, fs, 0, identity_perm(n))
    if fs[0] == dp:
        del fs[0]
        k += 1
    return k


def normalize_factors(
    kind: int, n: int, factors: Iterable[bytes]
) -> tuple[int, tuple[bytes, ...]]:
    """Normalize an arbitrary sequence of simple factors.

    Returns the power of delta that migrated to the front together with
    the left-weighted remainder.
    """
    factors = list(factors)
    _check_bounds(n)
    _check_factors(kind, n, factors)
    return _normalize_factors(kind, n, factors)


def _normalize_factors(
    kind: int, n: int, factors: Sequence[bytes]
) -> tuple[int, tuple[bytes, ...]]:
    """:func:`normalize_factors` of simples its caller has checked.

    The normal form is grown from the back, one domino per factor
    (:func:`_prepend`): the last factor first, each one twisted by the
    deltas stripped off the suffix so far.
    """
    fs: list[bytes] = []
    k = 0
    for f in reversed(factors):
        k = _prepend(kind, n, fs, f, k)
    return k, tuple(fs)


def _grow_run(
    kind: int, run: bytearray, size: int, a: int, p: bytes, positive: bool
) -> bool:
    """Put the letter of atom ``a`` (permutation ``p``) and the run's sign in
    front of the simple run ``run`` of ``size`` letters, in place, if the
    run's atoms still multiply to a simple; return whether it did.

    An Artin run holds the permutation of its atoms in word order, whatever
    its sign. The new atom swaps slots ``a`` and ``a + 1``, and the atoms
    stay a permutation braid iff the two strands starting there have not
    crossed yet. A band run holds its positive simple: ``a1 ... ak`` for a
    positive run, ``ak ... a1`` for a negative one, whose inverse the run
    is. The new product must be a band simple of one more atom.
    """
    if kind == KIND_ARTIN:
        if run[a] > run[a + 1]:
            return False
        run[a], run[a + 1] = run[a + 1], run[a]
        return True
    grown = _compose(p, run) if positive else _compose(run, p)
    if not _is_band_simple(grown) or _simple_len(kind, grown) != size + 1:
        return False
    run[:] = grown
    return True


def word_to_nf(
    kind: int, n: int, letters: Iterable[tuple[int, int]]
) -> tuple[int, tuple[bytes, ...]]:
    """Normal form of a word given as (atom index, sign) pairs.

    The word is cut, from the back, into simple runs: maximal runs of
    same-sign letters whose atoms multiply to a simple (:func:`_grow_run`).
    A positive run is that simple. A negative run ``a1^-1 ... ak^-1`` is
    ``(ak ... a1)^-1 = delta^-1 * c`` with ``c * ak ... a1 = delta``, one
    delta for the whole run. The normal form is grown from the back, one
    domino per factor (:func:`_prepend`): each run's simple is twisted by
    the delta power to its right, the negative runs' and the stripped
    deltas alike.
    """
    _check_bounds(n)
    # (positive, run) pairs from the back of the word.
    runs: list[tuple[bool, bytearray]] = []
    size = 0
    for a, sign in reversed(list(letters)):
        p = atom_perm(kind, n, a)
        positive = sign > 0
        if size and runs[-1][0] == positive and _grow_run(
            kind, runs[-1][1], size, a, p, positive
        ):
            size += 1
        else:
            runs.append((positive, bytearray(p)))
            size = 1
    dp = delta_perm(kind, n)
    fs: list[bytes] = []
    k = 0
    for positive, run in runs:
        f = bytes(run)
        if positive:
            k = _prepend(kind, n, fs, f, k)
        else:
            # The left complement of ak ... a1 is delta * (ak ... a1)^-1,
            # and an Artin run holds that inverse; its delta^-1 lies left
            # of it.
            f = _compose(dp, f if kind == KIND_ARTIN else invert(f))
            k = _prepend(kind, n, fs, f, k) - 1
    return k, tuple(fs)


def multiply_nf(
    kind: int,
    n: int,
    k1: int,
    f1: Sequence[bytes],
    k2: int,
    f2: Sequence[bytes],
) -> tuple[int, tuple[bytes, ...]]:
    """Product of two normal forms.

    The right-hand delta power commutes through the left factors, twisting
    them; twisting preserves left-weightedness, so the left factors are
    absorbed into the right form one at a time, the last first, and each
    stops at the first pair it leaves alone.
    """
    _check_bounds(n, k1, k2)
    _check_factors(kind, n, f1)
    _check_factors(kind, n, f2)
    return _multiply(kind, n, k1, f1, k2, f2)


def _multiply(
    kind: int, n: int, k1: int, f1: Sequence[bytes], k2: int, f2: Sequence[bytes]
) -> tuple[int, tuple[bytes, ...]]:
    """:func:`multiply_nf` on arguments its caller has checked."""
    if not f1:
        return k1 + k2, tuple(f2)
    if not f2:
        return k1 + k2, _tau(kind, n, f1, k2)
    fs = list(_tau(kind, n, f1, k2))
    fs.extend(f2)
    dk = _normalize(kind, n, fs, len(f1) - 1)
    return k1 + k2 + dk, tuple(fs)


def invert_nf(
    kind: int, n: int, k: int, f: Sequence[bytes]
) -> tuple[int, tuple[bytes, ...]]:
    """Inverse of a normal form.

    ``(delta^k f1 ... fr)^-1 = delta^-1 c_r ... delta^-1 c_1 delta^-k`` with
    ``c_j`` the left complement of ``f_j``, so the complements are
    prepended from ``c_1`` on, each followed by one delta^-1. The reversed,
    twisted complements of a normal form are already left-weighted, so on
    a normal form each :func:`_prepend` ends after one slide that moves
    nothing; that slide is what keeps a factor sequence that is not
    left-weighted correct, so it must stay.
    """
    _check_bounds(n, k)
    _check_factors(kind, n, f)
    fs: list[bytes] = []
    k = -k
    for x in f:
        k = _prepend(kind, n, fs, left_complement(kind, x), k) - 1
    return k, tuple(fs)


def delta_len(kind: int, n: int) -> int:
    return n * (n - 1) // 2 if kind == KIND_ARTIN else n - 1


def nf_lengths(kind: int, n: int, k: int, f: Sequence[bytes]) -> tuple[int, int]:
    """Greedy and rational atom lengths of a normal form.

    The rational length drops two copies of the leading factor lengths
    that cancel against negative delta powers.
    """
    _check_bounds(n, k)
    _check_factors(kind, n, f)
    return _lengths(kind, n, k, f)


def _lengths(kind: int, n: int, k: int, f: Sequence[bytes]) -> tuple[int, int]:
    """:func:`nf_lengths` of a normal form its caller has checked."""
    ld = delta_len(kind, n)
    lens = [_simple_len(kind, x) for x in f]
    greedy = abs(k) * ld + sum(lens)
    if k >= 0:
        return greedy, greedy
    rational = greedy - 2 * sum(lens[: min(len(f), -k)])
    return greedy, rational


def peel_lengths(
    kind: int,
    n: int,
    peels: Iterable[tuple[int, Sequence[bytes]]],
    k: int,
    f: Sequence[bytes],
    rational: int,
) -> tuple[int, ...]:
    """Greedy (``rational=0``) or rational (``rational=1``) length of
    ``p * (k, f)`` for each normal form ``p`` in ``peels``.

    This is the beam's scoring step: the caller keeps only the lengths, so
    the compiled twin never builds the products.
    """
    _check_bounds(n, k)
    if rational not in (0, 1):
        raise ValueError(f"rational is {rational!r}, not 0 or 1")
    _check_factors(kind, n, f)
    scores = []
    for k1, f1 in peels:
        _check_bounds(n, k1)
        _check_factors(kind, n, f1)
        scores.append(_lengths(kind, n, *_multiply(kind, n, k1, f1, k, f))[rational])
    return tuple(scores)


# ---------------------------------------------------------------------------
# Packed normal forms and the oracle's breadth-first step

_POWER = struct.Struct(">q")


def pack_nf(k: int, factors: Sequence[bytes]) -> bytes:
    """One ``bytes`` blob: ``k`` as 8 signed big-endian bytes, then the
    factors back to back."""
    return _POWER.pack(k) + b"".join(factors)


@functools.cache
def _layout(n: int, r: int) -> struct.Struct:
    """The packing of a normal form of ``r`` factors of ``n`` bytes."""
    return struct.Struct(">q" + f"{n}s" * r)


def unpack_nf(blob: bytes, n: int) -> tuple[int, tuple[bytes, ...]]:
    """Inverse of :func:`pack_nf`; the factors are not checked."""
    if not isinstance(blob, bytes):
        raise TypeError(f"a packed normal form must be bytes, not {type(blob).__name__}")
    size = len(blob) - _POWER.size
    if size < 0 or (size % n if n else size):
        raise ValueError(f"a packed normal form of {len(blob)} bytes, not 8 + r*{n}")
    fields = _layout(n, size // n if n else 0).unpack(blob)
    return fields[0], fields[1:]


def orbit_size(kind: int, n: int, factors: Sequence[bytes]) -> int:
    """Size of the tau-orbit of every normal form with these factors: the
    least divisor d of :func:`tau_period` such that tau^d fixes every
    factor. Tau fixes every delta power. The factors are not checked."""
    factors = tuple(factors)
    head = factors[:1]
    period = tau_period(kind, n)
    for d in range(1, period):
        # Most d already move the first factor.
        if period % d == 0 and _tau(kind, n, head, d) == head:
            if _tau(kind, n, factors, d) == factors:
                return d
    return period


def tau_orbit(kind: int, n: int, factors: Sequence[bytes]) -> list[tuple[bytes, ...]]:
    """The factors conjugated by delta^0 .. delta^(d-1), d their
    :func:`orbit_size`: the distinct images of the tau-orbit, each a normal
    form as it stands, as tau keeps a sequence left-weighted."""
    return [_tau(kind, n, factors, i) for i in range(orbit_size(kind, n, factors))]


def pack_orbit(kind: int, n: int, k: int, factors: Sequence[bytes]) -> bytes:
    """The least packed blob of the tau-orbit of ``(k, factors)``: every
    image shares the delta power, so that is the least joined image."""
    return _POWER.pack(k) + min(b"".join(image) for image in tau_orbit(kind, n, factors))


def expand_level(
    kind: int,
    n: int,
    frontier: Iterable[bytes],
    moves: Sequence[tuple[int, Sequence[bytes]]],
    table: dict[bytes, int],
    level: int,
    max_nodes: int,
    orbits: int = 0,
) -> list[bytes]:
    """One breadth-first step over packed normal forms.

    Each child ``parent * move`` (``multiply_nf``, packed by ``pack_nf``)
    that is not yet a key of ``table`` is stored there with the value
    ``level`` and appended to the returned next frontier. Stops after the
    first parent whose children bring ``len(table)`` above ``max_nodes``,
    and returns the children found so far. With ``orbits`` set to 1, each
    child is packed by ``pack_orbit`` instead, the least blob of its
    tau-orbit.
    """
    _check_bounds(n)
    if type(table) is not dict:
        raise TypeError(f"table must be a dict, not {type(table).__name__}")
    # The compiled twin reads both as C long longs.
    if not (0 <= level < 2**63 and 0 <= max_nodes < 2**63):
        raise ValueError(f"level {level} or max_nodes {max_nodes} outside 0..2**63-1")
    if orbits not in (0, 1):
        raise ValueError(f"orbits is {orbits!r}, not 0 or 1")
    for mk, mf in moves:
        _check_bounds(n, mk)
        _check_factors(kind, n, mf)
    grown = []
    for parent in frontier:
        k, factors = unpack_nf(parent, n)
        _check_bounds(n, k)
        _check_factors(kind, n, factors)
        for mk, mf in moves:
            k2, f2 = _multiply(kind, n, k, factors, mk, mf)
            child = pack_orbit(kind, n, k2, f2) if orbits else pack_nf(k2, f2)
            if child not in table:
                table[child] = level
                grown.append(child)
        if len(table) > max_nodes:
            break
    return grown


def simple_to_atoms(kind: int, p: bytes) -> tuple[int, ...]:
    """A positive atom word for a simple, of length ``simple_len``."""
    n = len(p)
    if kind == KIND_ARTIN:
        q = bytearray(p)
        word: list[int] = []
        i = 0
        while i < n - 1:
            if q[i] > q[i + 1]:
                word.append(i)
                q[i], q[i + 1] = q[i + 1], q[i]
                i = max(i - 1, 0)
            else:
                i += 1
        return tuple(word)
    # Blocks in the order of their smallest slots, each spelled from its
    # largest slot down: the inverse maps the smallest slot to the largest
    # and every other slot to the next smaller one.
    q = invert(p)
    word2: list[int] = []
    for i in range(n):
        at = q[i]
        while at > i:
            word2.append(bkl_atom_index(at, q[at]))
            at = q[at]
    return tuple(word2)
