"""Word and normal-form text grammar.

Words are whitespace-separated tokens: ``s<i>`` for Artin atoms,
``a(<t>,<s>)`` for band atoms, with an optional ``^-1`` suffix for
inverses. The empty string is the identity. Normal forms print as a
``D^k`` prefix followed by parenthesized factor words, so every piece of
output can be parsed back.
"""

from __future__ import annotations

import re

from .artin import artin_atom_id, artin_structure
from .bkl import bkl_atom_id, bkl_structure
from .core import ARTIN, BKL, BraidWord, GreedyNF, RationalNF, StructureDescriptor
from .errors import WordSyntaxError


class UnknownToken(WordSyntaxError):
    pass


class IndexOutOfRange(WordSyntaxError):
    pass


class BadAtomOrder(WordSyntaxError):
    pass


_ARTIN_TOKEN = re.compile(r"^s(\d+)(\^-1)?$")
_BKL_TOKEN = re.compile(r"^a\((\d+),(\d+)\)(\^-1)?$")


def parse_word(text: str, structure: StructureDescriptor) -> BraidWord:
    """Parse a word; errors carry the 1-based offending token position."""
    letters: list[tuple[int, int]] = []
    for position, token in enumerate(text.split(), start=1):
        if structure.kind == ARTIN:
            match = _ARTIN_TOKEN.match(token)
            if not match:
                raise UnknownToken(f"not an Artin atom: {token!r}", position)
            index = int(match.group(1))
            try:
                atom = artin_atom_id(structure, index)
            except ValueError as exc:
                raise IndexOutOfRange(str(exc), position) from None
            sign = -1 if match.group(2) else 1
        else:
            match = _BKL_TOKEN.match(token)
            if not match:
                raise UnknownToken(f"not a band atom: {token!r}", position)
            t, s = int(match.group(1)), int(match.group(2))
            if t <= s:
                raise BadAtomOrder(f"a({t},{s}) needs t > s", position)
            try:
                atom = bkl_atom_id(structure, t, s)
            except ValueError as exc:
                raise IndexOutOfRange(str(exc), position) from None
            sign = -1 if match.group(3) else 1
        letters.append((atom, sign))
    return BraidWord(structure, tuple(letters))


def sniff_structure(text: str, n: int) -> StructureDescriptor | None:
    """Guess the presentation from the tokens; None for the empty word."""
    tokens = text.split()
    if not tokens:
        return None
    artin_like = all(t.startswith("s") for t in tokens)
    bkl_like = all(t.startswith("a") for t in tokens)
    if artin_like:
        return artin_structure(n)
    if bkl_like:
        return bkl_structure(n)
    raise UnknownToken("word mixes Artin and band atoms")


def format_word(w: BraidWord) -> str:
    return " ".join(
        w.structure.atom_label(a) + ("^-1" if sign < 0 else "")
        for a, sign in w.letters
    )


def format_greedy(nf: GreedyNF) -> str:
    factors = "".join(f"({format_word(f.atom_word())})" for f in nf.factors)
    return f"D^{nf.k}" + (" " + factors if factors else "")


def format_rational(nf: RationalNF) -> str:
    neg = "".join(f"({format_word(f.atom_word())})" for f in nf.neg_factors)
    pos = "".join(f"({format_word(f.atom_word())})" for f in nf.pos_factors)
    return f"neg {neg} pos {pos}".replace("  ", " ")


_GREEDY_PREFIX = re.compile(r"^D\^(-?\d+)\s*")


def _split_factors(text: str) -> list[str]:
    """Top-level parenthesized groups; band atoms nest one level deeper."""
    factors = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                start = i + 1
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise WordSyntaxError(f"unbalanced parentheses in {text!r}")
            if depth == 0:
                factors.append(text[start:i])
        elif depth == 0 and not ch.isspace():
            raise WordSyntaxError(f"unexpected {ch!r} between factors in {text!r}")
    if depth != 0:
        raise WordSyntaxError(f"unbalanced parentheses in {text!r}")
    return factors


def parse_greedy(text: str, structure: StructureDescriptor) -> BraidWord:
    """Word equal to a printed greedy form (validated via normal forms)."""
    match = _GREEDY_PREFIX.match(text.strip())
    if not match:
        raise WordSyntaxError(f"not a greedy normal form: {text!r}")
    word = structure.delta.atom_word() ** int(match.group(1))
    for factor in _split_factors(text.strip()[match.end() :]):
        word = word * parse_word(factor, structure)
    return word


_RATIONAL_FORM = re.compile(r"^neg\s*(.*?)\s*pos\s*(.*)$", re.DOTALL)


def parse_rational(text: str, structure: StructureDescriptor) -> BraidWord:
    """Word equal to a printed rational form."""
    match = _RATIONAL_FORM.match(text.strip())
    if not match:
        raise WordSyntaxError(f"not a rational normal form: {text!r}")
    word = structure.word()
    for factor in reversed(_split_factors(match.group(1))):
        word = word * parse_word(factor, structure).inverse()
    for factor in _split_factors(match.group(2)):
        word = word * parse_word(factor, structure)
    return word
