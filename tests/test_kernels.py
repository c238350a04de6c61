"""Kernel-level tests: lattice oracles, backend equivalence, round trips."""

import itertools
import random
import subprocess
import sys

import pytest

import brute
from garsidekit import kernels
from garsidekit.kernels import _pure

BOTH_KINDS = (kernels.KIND_ARTIN, kernels.KIND_BKL)


def lattice_scales(kind):
    return (2, 3, 4) if kind == kernels.KIND_ARTIN else (2, 3, 4, 5)


class TestLatticeAgainstBruteForce:
    """meet/join/left_divides must match exhaustive divisor enumeration."""

    @pytest.mark.parametrize("kind", BOTH_KINDS)
    def test_divides(self, kind):
        for n in lattice_scales(kind):
            for s, t in itertools.product(brute.all_simples(kind, n), repeat=2):
                expected = brute.divides(kind, s, t)
                got = kernels.left_divides(kind, bytes(s), bytes(t))
                assert got == expected, (kind, n, s, t)

    @pytest.mark.parametrize("kind", BOTH_KINDS)
    def test_meet(self, kind):
        for n in lattice_scales(kind):
            for s, t in itertools.product(brute.all_simples(kind, n), repeat=2):
                expected = bytes(brute.brute_meet(kind, s, t))
                assert kernels.meet(kind, bytes(s), bytes(t)) == expected

    @pytest.mark.parametrize("kind", BOTH_KINDS)
    def test_join(self, kind):
        for n in lattice_scales(kind):
            for s, t in itertools.product(brute.all_simples(kind, n), repeat=2):
                expected = bytes(brute.brute_join(kind, s, t))
                assert kernels.join(kind, bytes(s), bytes(t)) == expected

    @pytest.mark.parametrize("kind", BOTH_KINDS)
    def test_meet_join_lattice_laws(self, kind):
        n = 4
        simples = [bytes(p) for p in brute.all_simples(kind, n)]
        rng = random.Random(7)
        picks = [rng.choice(simples) for _ in range(30)]
        for s, t in itertools.product(picks[:10], repeat=2):
            assert kernels.meet(kind, s, t) == kernels.meet(kind, t, s)
            assert kernels.join(kind, s, t) == kernels.join(kind, t, s)
            assert kernels.meet(kind, s, s) == s
            assert kernels.join(kind, s, s) == s
        for s, t, u in zip(picks[:10], picks[10:20], picks[20:]):
            assert kernels.meet(kind, s, kernels.meet(kind, t, u)) == kernels.meet(
                kind, kernels.meet(kind, s, t), u
            )
            assert kernels.join(kind, s, kernels.join(kind, t, u)) == kernels.join(
                kind, kernels.join(kind, s, t), u
            )


class TestComplements:
    @pytest.mark.parametrize("kind", BOTH_KINDS)
    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_complement_products(self, kind, n):
        delta = kernels.delta_perm(kind, n)
        for p in brute.all_simples(kind, n):
            data = bytes(p)
            right = kernels.right_complement(kind, data)
            left = kernels.left_complement(kind, data)
            assert kernels.compose(data, right) == delta
            assert kernels.compose(left, data) == delta
            assert kernels.is_simple(kind, right) and kernels.is_simple(kind, left)

    def test_double_right_complement_is_tau(self):
        for kind in BOTH_KINDS:
            n = 4
            for p in brute.all_simples(kind, n):
                data = bytes(p)
                twice = kernels.right_complement(
                    kind, kernels.right_complement(kind, data)
                )
                assert twice == kernels.tau_simple(kind, data, 1)


class TestNormalForms:
    @pytest.mark.parametrize("kind", BOTH_KINDS)
    def test_word_round_trips(self, kind, rng):
        for n in (3, 5, 8):
            atoms = kernels.atom_count(kind, n)
            for _ in range(120):
                word = [
                    (rng.randrange(atoms), rng.choice((1, -1)))
                    for _ in range(rng.randrange(0, 40))
                ]
                k, f = kernels.word_to_nf(kind, n, word)
                # factors are valid simples, never identity or delta
                delta = kernels.delta_perm(kind, n)
                idp = kernels.identity_perm(n)
                for x in f:
                    assert kernels.is_simple(kind, x)
                    assert x not in (delta, idp)
                for a, b in zip(f, f[1:]):
                    assert kernels.is_left_weighted(kind, a, b)
                # inverse cancels
                ki, fi = kernels.invert_nf(kind, n, k, f)
                assert kernels.multiply_nf(kind, n, k, f, ki, fi) == (0, ())
                assert kernels.multiply_nf(kind, n, ki, fi, k, f) == (0, ())
                # splitting the word anywhere multiplies back to the same nf
                cut = rng.randrange(0, len(word) + 1)
                k1, f1 = kernels.word_to_nf(kind, n, word[:cut])
                k2, f2 = kernels.word_to_nf(kind, n, word[cut:])
                assert kernels.multiply_nf(kind, n, k1, f1, k2, f2) == (k, f)

    @pytest.mark.parametrize("kind", BOTH_KINDS)
    def test_greedy_head_is_maximal(self, kind, rng):
        """First factor = the largest simple dividing the whole element."""
        n = 3 if kind == kernels.KIND_ARTIN else 4
        atoms = kernels.atom_count(kind, n)
        simples = [bytes(p) for p in brute.all_simples(kind, n)]
        for _ in range(40):
            word = [(rng.randrange(atoms), 1) for _ in range(rng.randrange(1, 12))]
            k, f = kernels.word_to_nf(kind, n, word)
            head = (
                kernels.delta_perm(kind, n)
                if k > 0
                else (f[0] if f else kernels.identity_perm(n))
            )
            best = max(
                (
                    u
                    for u in simples
                    if kernels.word_to_nf(
                        kind,
                        n,
                        [(a, -1) for a in reversed(kernels.simple_to_atoms(kind, u))]
                        + word,
                    )[0]
                    >= 0
                ),
                key=lambda u: kernels.simple_len(kind, u),
            )
            assert head == best

    @pytest.mark.parametrize("kind", BOTH_KINDS)
    def test_slide_matches_meet_formula(self, kind):
        n = 4
        simples = [bytes(p) for p in brute.all_simples(kind, n)]
        for s, p in itertools.product(simples, repeat=2):
            b = kernels.meet(kind, kernels.right_complement(kind, s), p)
            expected = (
                kernels.compose(s, b),
                kernels.compose(kernels.invert(b), p),
            )
            got = kernels.make_left_weighted(kind, s, p)
            assert got == expected
            assert kernels.is_left_weighted(kind, *got)


class TestTau:
    @pytest.mark.parametrize("kind", BOTH_KINDS)
    @pytest.mark.parametrize("n", (3, 4, 6, 8))
    def test_tau_bijective_length_preserving(self, kind, n):
        if n > 5:
            rng = random.Random(n)
            sample = []
            atoms = kernels.atom_count(kind, n)
            for _ in range(60):
                _, f = kernels.word_to_nf(
                    kind, n, [(rng.randrange(atoms), 1) for _ in range(3)]
                )
                sample.extend(f)
        else:
            sample = [bytes(p) for p in brute.all_simples(kind, n)]
        for data in sample:
            fwd = kernels.tau_simple(kind, data, 1)
            assert kernels.is_simple(kind, fwd)
            assert kernels.tau_simple(kind, fwd, -1) == data
            assert kernels.simple_len(kind, fwd) == kernels.simple_len(kind, data)

    def test_tau_periods_on_atoms(self):
        for n in range(2, 9):
            for kind, period in (
                (kernels.KIND_ARTIN, n * (n - 1)),
                (kernels.KIND_BKL, 2 * n),
            ):
                for a in range(kernels.atom_count(kind, n)):
                    data = kernels.atom_perm(kind, n, a)
                    assert kernels.tau_simple(kind, data, period) == data


class TestBackendEquivalence:
    """The compiled twin must agree with the pure one bit for bit."""

    def test_fuzz_against_pure(self, compiled_speed, rng):
        speed = compiled_speed
        for kind in BOTH_KINDS:
            for n in (2, 3, 5, 9, 16):
                atoms = _pure.atom_count(kind, n)
                simples = []
                for _ in range(200):
                    word = [
                        (rng.randrange(atoms), rng.choice((1, -1)))
                        for _ in range(rng.randrange(0, 30))
                    ]
                    nf_p = _pure.word_to_nf(kind, n, word)
                    nf_s = speed.word_to_nf(kind, n, word)
                    assert nf_p == nf_s
                    assert _pure.invert_nf(kind, n, *nf_p) == speed.invert_nf(
                        kind, n, *nf_s
                    )
                    assert _pure.nf_lengths(kind, n, *nf_p) == speed.nf_lengths(
                        kind, n, *nf_s
                    )
                    simples.extend(nf_p[1][:1])
                simples.append(_pure.identity_perm(n))
                simples.append(_pure.delta_perm(kind, n))
                for s, t in zip(simples, reversed(simples)):
                    assert _pure.meet(kind, s, t) == speed.meet(kind, s, t)
                    assert _pure.left_divides(kind, s, t) == speed.left_divides(
                        kind, s, t
                    )
                    assert _pure.make_left_weighted(kind, s, t) == (
                        speed.make_left_weighted(kind, s, t)
                    )
                    assert _pure.right_complement(kind, s) == speed.right_complement(
                        kind, s
                    )
                    assert _pure.left_complement(kind, s) == speed.left_complement(
                        kind, s
                    )
                    for k in (-5, -1, 0, 1, 4):
                        assert _pure.tau_simple(kind, s, k) == speed.tau_simple(
                            kind, s, k
                        )


# Each call reads or writes outside its arguments unless the twin checks
# them first; every twin must raise instead.
BAD_CALLS = [
    "delta_perm(0, 1000)",
    "delta_perm(1, 1000)",
    r"meet(0, b'\x02\x01\x00', b'\x00')",
    r"meet(1, b'\x02\x01\x00', b'\x00')",
    "meet(0, 'abc', 'abc')",
    r"simple_len(1, b'\x05\x00')",
    r"left_divides(0, b'\x01\x00', b'\x00')",
    r"left_complement(0, b'\x07\x00\x01')",
    "right_complement(0, 'abc')",
    r"quotient_left(b'\x00\x01\x02', b'\x00')",
    r"tau_simple(0, b'\x00\x01\x05', 1)",
    r"make_left_weighted(0, b'\x01\x00', b'\x00')",
    r"is_left_weighted(0, b'\x00\x01', b'\x00')",
    r"normalize_factors(0, 3, [b'\x01\x00', b'\x00'])",
    "word_to_nf(0, 3, [(5, 1)])",
    "word_to_nf(1, 3, [(3, -1)])",
    "word_to_nf(0, 1000, [])",
    r"multiply_nf(0, 3, 0, (b'\x00\x09\x01',), 0, (b'\x01\x00\x02',))",
    r"invert_nf(0, 3, 0, (b'\x00\x09\x01',))",
    r"nf_lengths(1, 3, 0, (b'\x00\x05\x01',))",
]

PROBE = """
import importlib.util, sys
name, path, call = sys.argv[1:]
spec = importlib.util.spec_from_file_location(name, path)
kit = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kit)
try:
    result = eval(call, vars(kit))
except Exception as exc:
    print("raised", type(exc).__name__)
else:
    print("returned", repr(result))
"""


@pytest.mark.parametrize("call", BAD_CALLS)
def test_bad_arguments_raise(kit, call):
    # In a child process, so that a crash fails this test instead of
    # killing the test run.
    name = kit.__name__.rpartition(".")[2]
    done = subprocess.run(
        [sys.executable, "-c", PROBE, name, kit.__file__, call],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, (done.returncode, done.stderr[-2000:])
    assert done.stdout.startswith("raised"), done.stdout
