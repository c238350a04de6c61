"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and implemented from the raw
definitions (divisor enumeration, quadruple crossing test), sharing no
algorithmic machinery with the package kernels it cross-checks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(q[x] for x in p)


@lru_cache(maxsize=None)
def delta_power(kind: int, n: int, k: int) -> tuple[int, ...]:
    """The k-th power, of either sign, of the fundamental permutation: the
    reversal for Artin, the cycle i -> i+1 (mod n) for band."""
    if kind == 0:
        step = tuple(n - 1 - i for i in range(n))
    else:
        step = tuple((i + 1) % n for i in range(n))
    if k < 0:
        step = tuple(step.index(i) for i in range(n))
    out = tuple(range(n))
    for _ in range(abs(k)):
        out = compose(out, step)
    return out


def tau(kind: int, p: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Conjugation by delta^k from its definition: delta^-k * p * delta^k."""
    n = len(p)
    return compose(compose(delta_power(kind, n, -k), p), delta_power(kind, n, k))


def inversions(p: tuple[int, ...]) -> int:
    return sum(
        1
        for i in range(len(p))
        for j in range(i + 1, len(p))
        if p[i] > p[j]
    )


def cycles_of(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(sorted(cyc)))
    return out


def refinement_meet(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """Band meet by its definition: the common refinement of the two
    partitions, each block a cycle that walks its slots upward."""
    out = list(range(len(s)))
    t_cycles = [set(b) for b in cycles_of(t)]
    for a in cycles_of(s):
        for b in t_cycles:
            block = sorted(b.intersection(a))
            for x, y in zip(block, block[1:] + block[:1]):
                out[x] = y
    return tuple(out)


def blocks_cross(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """The raw definition: x < y < z < w alternating between the blocks."""
    for x, z in itertools.combinations(a, 2):
        for y, w in itertools.combinations(b, 2):
            if x < y < z < w or y < x < w < z:
                return True
    return False


def is_noncrossing_simple(p: tuple[int, ...]) -> bool:
    """BKL simple: upward cycles with pairwise non-crossing supports."""
    cycles = cycles_of(p)
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:]):
            if p[a] != b:
                return False
        if p[cyc[-1]] != cyc[0]:
            return False
    for a, b in itertools.combinations(cycles, 2):
        if blocks_cross(a, b):
            return False
    return True


@lru_cache(maxsize=None)
def all_simples(kind: int, n: int) -> tuple[tuple[int, ...], ...]:
    perms = itertools.permutations(range(n))
    if kind == 0:
        return tuple(perms)
    return tuple(p for p in perms if is_noncrossing_simple(p))


def simple_length(kind: int, p: tuple[int, ...]) -> int:
    if kind == 0:
        return inversions(p)
    return len(p) - len(cycles_of(p))


def divides(kind: int, s: tuple[int, ...], t: tuple[int, ...]) -> bool:
    """Raw definition: a simple complement with additive lengths exists."""
    for u in all_simples(kind, len(s)):
        if compose(s, u) == t and simple_length(kind, s) + simple_length(
            kind, u
        ) == simple_length(kind, t):
            return True
    return False


def brute_meet(kind: int, s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    common = [
        u
        for u in all_simples(kind, len(s))
        if divides(kind, u, s) and divides(kind, u, t)
    ]
    best = max(common, key=lambda u: simple_length(kind, u))
    assert all(divides(kind, u, best) for u in common), "meet is not unique"
    return best


def brute_join(kind: int, s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    multiples = [
        u
        for u in all_simples(kind, len(s))
        if divides(kind, s, u) and divides(kind, t, u)
    ]
    best = min(multiples, key=lambda u: simple_length(kind, u))
    assert all(divides(kind, best, u) for u in multiples), "join is not unique"
    return best
