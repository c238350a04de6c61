"""Length functions induced by the two normal forms, and their bounds.

Greedy and rational lengths sum the atom lengths of the normal-form
factors, counting delta powers with multiplicity. The rational length of
the band form doubles as an estimator of the minimal Artin length, with
distortion linear in the strand count on both sides; the exact minimal
length is only available from the brute-force oracle at small scale and is
deliberately not exposed as a cheap function here.

:func:`metric_length` is the one place where a form becomes a length, and
:func:`metric_nf` the one place that picks the form a metric reads. Each
word is normalized at most once per alphabet: its own form is stored by
:meth:`BraidWord.raw_nf` and the form of its translation into the other
alphabet by :func:`metric_nf`. So the four lengths of one word cost two
``word_to_nf`` calls, and the solver and the ranking, which read their
target and generator forms through :func:`metric_nf`, share that cache.
"""

from __future__ import annotations

import dataclasses
import enum
import functools

from . import kernels
from .bkl import artin_to_bkl, bkl_structure, bkl_to_artin
from .core import _KIND_CODES, ARTIN, BKL, BraidWord, SimpleElement
from .errors import NegativeLetter, StructureMismatch


class LengthMetric(enum.Enum):
    GREEDY_ARTIN = "greedy-artin"
    RATIONAL_ARTIN = "rational-artin"
    GREEDY_BKL = "greedy-bkl"
    RATIONAL_BKL = "rational-bkl"

    @property
    def structure_kind(self) -> str:
        return ARTIN if self.value.endswith("artin") else BKL

    @property
    def kind_code(self) -> int:
        return _KIND_CODES[self.structure_kind]

    @property
    def rational(self) -> bool:
        return self.value.startswith("rational")

    @classmethod
    def from_name(cls, name: str) -> "LengthMetric":
        for metric in cls:
            if metric.value == name:
                return metric
        raise ValueError(
            f"unknown metric {name!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


def positive_length(x: BraidWord | SimpleElement) -> int:
    """Letter count of a positive word, or atom length of a simple."""
    if isinstance(x, SimpleElement):
        return x.atom_length()
    for i, (_, sign) in enumerate(x.letters):
        if sign < 0:
            raise NegativeLetter(f"letter {i} is negative")
    return len(x.letters)


def greedy_length(x: BraidWord) -> int:
    """Atom length of the greedy normal form, delta powers included."""
    return metric_length(x, LengthMetric(f"greedy-{x.structure.kind}"))


def rational_length(x: BraidWord) -> int:
    """Atom length of the rational normal form.

    Computed from the greedy form: a negative delta power converts leading
    factors to complements, which shortens by twice their length.
    """
    return metric_length(x, LengthMetric(f"rational-{x.structure.kind}"))


def to_metric_structure(x: BraidWord, metric: LengthMetric) -> BraidWord:
    """Translate a word into the alphabet the metric measures."""
    if x.structure.kind == metric.structure_kind:
        return x
    return artin_to_bkl(x) if metric.structure_kind == BKL else bkl_to_artin(x)


def metric_nf(x: BraidWord, metric: LengthMetric) -> tuple[int, tuple[bytes, ...]]:
    """Kernel greedy form of ``x`` in the alphabet the metric measures.

    The translation's form is stored on ``x`` like ``raw_nf``'s, outside
    the dataclass fields; the translated word is not kept.
    """
    if x.structure.kind == metric.structure_kind:
        return x.raw_nf()
    nf = x.__dict__.get("_translated_nf")
    if nf is None:
        nf = to_metric_structure(x, metric).raw_nf()
        object.__setattr__(x, "_translated_nf", nf)
    return nf


def metric_length(x: BraidWord, metric: LengthMetric) -> int:
    """Length of ``x`` under any of the four metrics, translating alphabets
    when the word and the metric live in different structures."""
    n = x.structure.strand_count
    return kernels.nf_lengths(metric.kind_code, n, *metric_nf(x, metric))[metric.rational]


def cross_rational_bkl(x: BraidWord) -> int:
    """Rational band length of an Artin word: the minimal-length estimator."""
    if x.structure.kind != ARTIN:
        raise StructureMismatch("cross estimator expects an Artin word")
    return metric_length(x, LengthMetric.RATIONAL_BKL)


@functools.cache
def alpha(n: int) -> int:
    """Largest Artin letter count over the band-atom translations."""
    structure = bkl_structure(n)
    return max(
        len(bkl_to_artin(structure.word([(a, 1)])))
        for a in range(structure.atom_count)
    )


@dataclasses.dataclass(frozen=True)
class BoundsReport:
    """Observed lengths of one Artin word against the provable bounds."""

    x: BraidWord
    ell_oracle: int | None
    ell_G: int
    ell_R: int
    ell_R_cross: int
    alpha: int
    violations: tuple[str, ...]


def bounds_report(x: BraidWord, oracle_len: int | None = None) -> BoundsReport:
    """Check the sandwich bounds for one word.

    With an exact geodesic length available this verifies
    ``l <= l_R <= l_G <= (2 l(delta) - 1) l`` and
    ``l_R <= (l(delta) - 1) l`` for the Artin structure, plus the
    symmetrized cross bounds ``l <= alpha * l_R_cross`` and
    ``l_R_cross <= (n - 2) l``. Without it, only the internal ordering is
    checked.
    """
    if x.structure.kind != ARTIN:
        raise StructureMismatch("bounds_report expects an Artin word")
    n = x.structure.strand_count
    ld = x.structure.delta_atom_length
    ell_g = greedy_length(x)
    ell_r = rational_length(x)
    cross = cross_rational_bkl(x)
    a = alpha(n)
    violations = []
    if ell_r > ell_g:
        violations.append(f"l_R={ell_r} > l_G={ell_g}")
    if oracle_len is not None:
        if oracle_len > ell_r:
            violations.append(f"l={oracle_len} > l_R={ell_r}")
        if ell_g > (2 * ld - 1) * oracle_len:
            violations.append(
                f"l_G={ell_g} > (2*{ld}-1)*l={(2 * ld - 1) * oracle_len}"
            )
        if ell_r > (ld - 1) * oracle_len:
            violations.append(f"l_R={ell_r} > ({ld}-1)*l={(ld - 1) * oracle_len}")
        if oracle_len > a * cross:
            violations.append(f"l={oracle_len} > alpha*l_R2={a * cross}")
        if cross > (n - 2) * oracle_len:
            violations.append(f"l_R2={cross} > (n-2)*l={(n - 2) * oracle_len}")
    return BoundsReport(
        x=x,
        ell_oracle=oracle_len,
        ell_G=ell_g,
        ell_R=ell_r,
        ell_R_cross=cross,
        alpha=a,
        violations=tuple(violations),
    )
