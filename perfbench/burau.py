"""Independent equality checker: the unreduced Burau representation.

The benchmark checks the program's answers with this module and nothing
from ``garsidekit``. Words arrive as text (``s3^-1``, ``a(4,2)``) or as
Artin letters ``(i, sign)``, where ``i`` is 0-based (``i`` stands for
``s(i+1)``). A band letter ``a(t,s)`` is expanded from its definition,
``(s(t-1) ... s(s+1)) s(s) (s(t-1) ... s(s+1))^-1``.

The representation is evaluated at a seeded random point ``t`` modulo the
prime 2^61-1 and applied to a seeded random row vector, so an element is
a tuple of ``n`` residues and each letter costs O(1). Equal braids always
agree; distinct braids collide only with probability about (word
length)/2^61, or when their product lies in the Burau kernel, which is
trivial for n <= 3 and never met by words of the sizes used here.
"""

from __future__ import annotations

import random
import re

P = (1 << 61) - 1

Letters = list[tuple[int, int]]

_TOKEN = re.compile(r"s(\d+)(\^-1)?$|a\((\d+),(\d+)\)(\^-1)?$")


def band_letters(t: int, s: int, sign: int = 1) -> Letters:
    """Artin letters of ``a(t,s)^sign`` (1-based strands, t > s)."""
    if not 1 <= s < t:
        raise ValueError(f"a({t},{s}) needs 1 <= s < t")
    body = (
        [(j - 1, 1) for j in range(t - 1, s, -1)]
        + [(s - 1, 1)]
        + [(j - 1, -1) for j in range(s + 1, t)]
    )
    if sign < 0:
        body = [(i, -e) for i, e in reversed(body)]
    return body


def parse_text(text: str) -> Letters:
    """Artin letters of a whitespace-separated word in either alphabet."""
    out: Letters = []
    for token in text.split():
        match = _TOKEN.match(token)
        if not match:
            raise ValueError(f"not a braid letter: {token!r}")
        if match.group(1):
            out.append((int(match.group(1)) - 1, -1 if match.group(2) else 1))
        else:
            t, s = int(match.group(3)), int(match.group(4))
            out.extend(band_letters(t, s, -1 if match.group(5) else 1))
    return out


def parse_rational_text(text: str) -> tuple[Letters, Letters]:
    """Letters of ``(s_1...s_k)`` and ``(p_1...p_l)`` in ``neg (..) pos (..)``."""
    match = re.fullmatch(r"\s*neg\s*(.*?)\s*pos\s*(.*?)\s*", text, re.DOTALL)
    if not match:
        raise ValueError(f"not a printed rational form: {text!r}")
    neg, pos = (
        [letter for factor in _factors(group) for letter in parse_text(factor)]
        for group in match.groups()
    )
    return neg, pos


def _factors(text: str) -> list[str]:
    """Top-level parenthesized groups; band letters nest one level deeper."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            start = i + 1 if depth == 0 else start
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
            if depth == 0:
                out.append(text[start:i])
        elif depth == 0 and not ch.isspace():
            raise ValueError(f"unexpected {ch!r} between factors in {text!r}")
    if depth:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    return out


def inverse(letters: Letters) -> Letters:
    return [(i, -e) for i, e in reversed(letters)]


def exponent_sum(letters: Letters) -> int:
    return sum(e for _, e in letters)


class Burau:
    """The Burau image of B_n at a random point, seen through a random vector."""

    def __init__(self, n: int, seed: int = 0):
        rng = random.Random(f"burau:{n}:{seed}")
        self.n = n
        self.t = rng.randrange(2, P - 1)
        self.t_inv = pow(self.t, P - 2, P)
        self.start = tuple(rng.randrange(1, P) for _ in range(n))

    def apply(self, vec: list[int], letters: Letters) -> list[int]:
        """``vec * rho(letters)``, in place: each letter mixes two columns."""
        t, ti = self.t, self.t_inv
        a_t, a_ti = (1 - t) % P, (1 - ti) % P
        n = self.n
        for i, sign in letters:
            if not 0 <= i < n - 1:
                raise ValueError(f"letter s{i + 1} does not exist in B_{n}")
            a, b = vec[i], vec[i + 1]
            if sign > 0:
                vec[i] = (a_t * a + b) % P
                vec[i + 1] = t * a % P
            else:
                vec[i] = ti * b % P
                vec[i + 1] = (a + a_ti * b) % P
        return vec

    def image(self, letters: Letters) -> tuple[int, ...]:
        return tuple(self.apply(list(self.start), letters))

    def equal(self, u: Letters, v: Letters) -> bool:
        return self.image(u) == self.image(v)

    def sphere_sizes(self, moves: list[Letters], radius: int) -> list[int]:
        """Element counts at each distance of the Cayley graph over ``moves``."""
        seen = {self.start}
        frontier = [self.start]
        sizes = [1]
        for _ in range(radius):
            fresh = []
            for vec in frontier:
                for move in moves:
                    image = tuple(self.apply(list(vec), move))
                    if image not in seen:
                        seen.add(image)
                        fresh.append(image)
            sizes.append(len(fresh))
            frontier = fresh
        return sizes


def signed_atoms(kind: str, n: int) -> list[Letters]:
    """Artin letters of every signed atom of one presentation of B_n."""
    if kind == "artin":
        atoms = [[(i, 1)] for i in range(n - 1)]
    else:
        atoms = [band_letters(t, s) for t in range(2, n + 1) for s in range(1, t)]
    return [m for a in atoms for m in (a, inverse(a))]
