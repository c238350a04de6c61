"""Garside-law properties of the kernel twins, checked with Hypothesis.

Every property runs on the pure reference and on the C extension built
from the checkout. Only the normal-form kernels are compiled, so the
lattice laws read their simples off each twin's normal forms and check
them with the pure lattice operations, the only ones there are. Each law
computes ``(got, want)`` from one twin; when they differ, the message
shows what every twin gives on the shrunk counterexample, so a
disagreement between the twins is the test's output. The profile is
derandomized, so tier-1 stays deterministic.
"""

import functools

import pytest

from garsidekit import artin_structure, bkl_structure, enumerate_ball
from garsidekit.kernels import _pure

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

settings.register_profile(
    "garside-laws", derandomize=True, database=None, deadline=None, max_examples=200
)
settings.load_profile("garside-laws")

ARTIN, BKL = _pure.KIND_ARTIN, _pure.KIND_BKL
SHAPES = [(ARTIN, 3), (ARTIN, 4), (ARTIN, 5), (BKL, 3), (BKL, 4), (BKL, 5)]
# Radii of the identity balls the geodesic law looks words up in.
BALLS = {(ARTIN, 3): 8, (ARTIN, 4): 6, (BKL, 3): 6, (BKL, 4): 4}


def words(kind, n, max_len):
    atom = st.integers(0, _pure.atom_count(kind, n) - 1)
    return st.lists(st.tuples(atom, st.sampled_from((1, -1))), max_size=max_len)


def cases(count, max_len=12):
    """``(kind, n, w_1, ..., w_count)`` with random words."""
    return st.sampled_from(SHAPES).flatmap(
        lambda shape: st.tuples(
            st.just(shape[0]),
            st.just(shape[1]),
            *[words(shape[0], shape[1], max_len) for _ in range(count)],
        )
    )


def check(law, kit, twins, case):
    got, want = law(kit, *case)
    if got == want:
        return
    lines = [f"{law.__name__} fails on {case!r}"]
    for name, twin in twins.items():
        try:
            lines.append("  {}: got {!r}, want {!r}".format(name, *law(twin, *case)))
        except Exception as exc:  # the other twin may fail differently
            lines.append(f"  {name}: raised {exc!r}")
    pytest.fail("\n".join(lines))


def head_simple(kit, kind, n, word):
    """A simple read off a word: the first factor of its positive part."""
    k, f = kit.word_to_nf(kind, n, [(a, 1) for a, _ in word])
    if k > 0:
        return _pure.delta_perm(kind, n)
    return f[0] if f else _pure.identity_perm(n)


def twist_all(kind, factors, j):
    return tuple(_pure.tau_simple(kind, x, j) for x in factors)


# -- the laws ---------------------------------------------------------------


def product_law(kit, kind, n, u, v):
    """nf(uv) is the product of nf(u) and nf(v)."""
    nu, nv = kit.word_to_nf(kind, n, u), kit.word_to_nf(kind, n, v)
    return kit.multiply_nf(kind, n, *nu, *nv), kit.word_to_nf(kind, n, u + v)


def inverse_law(kit, kind, n, u):
    """invert_nf gives nf(u^-1), cancels u and is an involution."""
    x = kit.word_to_nf(kind, n, u)
    inv = kit.invert_nf(kind, n, *x)
    got = (inv, kit.multiply_nf(kind, n, *x, *inv), kit.invert_nf(kind, n, *inv))
    u_inv = [(a, -sign) for a, sign in reversed(u)]
    return got, (kit.word_to_nf(kind, n, u_inv), (0, ()), x)


def tau_law(kit, kind, n, u):
    """tau acts on normal forms factor by factor, with period 2 (Artin) or n.

    Conjugating each letter by delta gives the twisted normal form, and
    delta to the period is central.
    """
    period = 2 if kind == ARTIN else n
    k, f = x = kit.word_to_nf(kind, n, u)
    atoms = {_pure.atom_perm(kind, n, a): a for a in range(_pure.atom_count(kind, n))}
    tau_u = [(atoms[_pure.tau_simple(kind, _pure.atom_perm(kind, n, a), 1)], s) for a, s in u]
    got = (
        kit.word_to_nf(kind, n, tau_u),
        twist_all(kind, f, period),
        kit.multiply_nf(kind, n, period, (), *x),
    )
    return got, ((k, twist_all(kind, f, 1)), f, kit.multiply_nf(kind, n, *x, period, ()))


def lattice_law(kit, kind, n, u, v, w):
    """meet is the greatest common left divisor; join absorbs it."""
    s, t, r = (head_simple(kit, kind, n, word) for word in (u, v, w))
    meet, divides = _pure.meet, _pure.left_divides
    st_meet = meet(kind, s, t)
    got = (
        st_meet,
        meet(kind, s, s),
        meet(kind, s, meet(kind, t, r)),
        divides(kind, st_meet, s) and divides(kind, st_meet, t),
        divides(kind, s, t),
        meet(kind, s, _pure.join(kind, s, t)),
        _pure.join(kind, s, st_meet),
        not (divides(kind, r, s) and divides(kind, r, t)) or divides(kind, r, st_meet),
    )
    want = (meet(kind, t, s), s, meet(kind, st_meet, r), True, st_meet == s, s, s, True)
    return got, want


def left_weighted_law(kit, kind, n, u, v):
    """make_left_weighted keeps the product and leaves a left-weighted pair."""
    s, p = head_simple(kit, kind, n, u), head_simple(kit, kind, n, v)
    s2, p2 = _pure.make_left_weighted(kind, s, p)
    length = _pure.simple_len
    got = (
        _pure.is_left_weighted(kind, s2, p2),
        _pure.compose(s2, p2),
        length(kind, s2) + length(kind, p2),
    )
    return got, (True, _pure.compose(s, p), length(kind, s) + length(kind, p))


@functools.cache
def ball(kind, n):
    structure = (artin_structure if kind == ARTIN else bkl_structure)(n)
    return enumerate_ball(structure, BALLS[kind, n])


def geodesic_law(kit, kind, n, u):
    """l <= l_R <= l_G, with the geodesic length l from a BFS ball.

    In band B_3 the rational form is geodesic, so there l == l_R.
    """
    x = kit.word_to_nf(kind, n, u)
    ell = ball(kind, n).lookup_raw(*x)
    greedy, rational = kit.nf_lengths(kind, n, *x)
    holds = ell is not None and ell <= min(len(u), rational) and rational <= greedy
    if (kind, n) == (BKL, 3):
        holds = holds and ell == rational
    return (ell, rational, greedy, holds), (ell, rational, greedy, True)


# -- the tests --------------------------------------------------------------


@given(cases(2))
def test_product(kit, twins, case):
    check(product_law, kit, twins, case)


@given(cases(1))
def test_inverse(kit, twins, case):
    check(inverse_law, kit, twins, case)


@given(cases(1))
def test_tau_period(kit, twins, case):
    check(tau_law, kit, twins, case)


@given(cases(3, max_len=16))
def test_lattice(kit, twins, case):
    check(lattice_law, kit, twins, case)


@given(cases(2, max_len=16))
def test_make_left_weighted(kit, twins, case):
    check(left_weighted_law, kit, twins, case)


@given(
    st.sampled_from(sorted(BALLS)).flatmap(
        lambda shape: st.tuples(
            st.just(shape[0]), st.just(shape[1]), words(*shape, BALLS[shape])
        )
    )
)
def test_geodesic_bounds(kit, twins, case):
    check(geodesic_law, kit, twins, case)
