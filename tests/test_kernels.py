"""Kernel-level tests: lattice oracles, backend equivalence, round trips."""

import collections
import itertools
import random
import subprocess
import sys

import pytest

import brute
from garsidekit import kernels
from garsidekit.artin import artin_structure
from garsidekit.bkl import bkl_structure
from garsidekit.experiments import ExperimentConfig, gen_sample, rank_generators
from garsidekit.kernels import _pure
from garsidekit.lengths import LengthMetric
from garsidekit.oracle import enumerate_ball
from garsidekit.solver import SolverConfig, memory_length_search
from garsidekit.syntax import parse_word

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


class TestBandLatticeByDefinition:
    """The block walk that both twins run for the band meet, and the band
    length and spelling, against the definitions of ``brute``."""

    def test_meet_is_the_common_refinement(self):
        kind = kernels.KIND_BKL
        for n in range(8):
            simples = brute.all_simples(kind, n)
            for s, t in itertools.product(simples, repeat=2):
                expected = bytes(brute.refinement_meet(s, t))
                assert _pure.meet(kind, bytes(s), bytes(t)) == expected, (s, t)

    def test_length_and_atoms(self):
        kind = kernels.KIND_BKL
        for n in range(9):
            for s in brute.all_simples(kind, n):
                length = _pure.simple_len(kind, bytes(s))
                assert length == brute.simple_length(kind, s), s
                atoms = _pure.simple_to_atoms(kind, bytes(s))
                product = tuple(range(n))
                for a in atoms:
                    product = brute.compose(product, tuple(_pure.atom_perm(kind, n, a)))
                assert (len(atoms), product) == (length, s)


class TestIsSimple:
    """is_simple against the raw definitions of brute.py."""

    def test_band_simples_are_the_noncrossing_permutations(self):
        for n in range(8):
            for p in itertools.permutations(range(n)):
                expected = brute.is_noncrossing_simple(p)
                assert kernels.is_simple(kernels.KIND_BKL, bytes(p)) == expected, p

    def test_every_permutation_is_an_artin_simple(self):
        for n in range(7):
            for p in itertools.permutations(range(n)):
                assert kernels.is_simple(kernels.KIND_ARTIN, bytes(p)), p

    @pytest.mark.parametrize("kind", BOTH_KINDS)
    def test_non_permutations_rejected(self, kind):
        for data in (b"\x00\x00", b"\x01", b"\x00\x02", b"\x01\x01\x00", b"\x00\x01\x03"):
            assert not kernels.is_simple(kind, data), data


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


class TestPermutationPlumbing:
    @pytest.mark.parametrize("n", (0, 1, 4, 256))
    def test_compose_is_the_table_lookup(self, n, rng):
        for _ in range(20):
            p = bytes(rng.sample(range(n), n))
            q = bytes(rng.sample(range(n), n))
            assert kernels.compose(p, q) == bytes(q[x] for x in p)

    @pytest.mark.parametrize(
        "p,q",
        [
            ("abc", b"\x00\x01\x02"),
            (b"\x00\x01\x02", [0, 1, 2]),
            (bytearray(b"\x00\x01"), b"\x00\x01"),
            (b"\x00\x01", b"\x00\x01\x02"),
            (b"\x00\x01\x02", b"\x00\x01"),
            (b"\x00\x03\x01", b"\x00\x01\x02"),
            (b"\xff", b"\x00"),
        ],
    )
    def test_compose_rejects_bad_operands(self, p, q):
        with pytest.raises(ValueError):
            kernels.compose(p, q)

    def test_cached_perms_still_raise(self):
        assert kernels.delta_perm(0, 5) is kernels.delta_perm(0, 5)
        assert kernels.identity_perm(5) is kernels.identity_perm(5)
        for _ in range(2):
            with pytest.raises(ValueError):
                kernels.delta_perm(0, 1000)
            with pytest.raises(ValueError):
                kernels.identity_perm(1000)


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


def run_heavy_words(kind, n, rng):
    """Words of long simple runs: each sign alone, a strong sign bias, and
    one atom repeated, so that a run meets a repeated crossing."""
    atoms = _pure.atom_count(kind, n)
    words = [
        [(a, sign)] * count
        for a in {0, atoms // 2, atoms - 1}
        for sign in (1, -1)
        for count in (2, 3)
    ]
    for bias in (1.0, 0.0, 0.9, 0.1):
        for _ in range(6):
            # Half the letters from a pool of three atoms, for repeats.
            pool = [rng.randrange(atoms) for _ in range(3)]
            words.append(
                [
                    (
                        rng.choice(pool) if rng.random() < 0.5 else rng.randrange(atoms),
                        1 if rng.random() < bias else -1,
                    )
                    for _ in range(rng.randrange(1, 25))
                ]
            )
    return words


class TestSimpleRuns:
    """``word_to_nf`` makes one factor of each run of same-sign letters
    whose atoms multiply to a simple; the normal form must not change."""

    @pytest.mark.parametrize("kind", BOTH_KINDS)
    @pytest.mark.parametrize("n", (2, 3, 4, 8, 16))
    def test_run_heavy_words(self, kit, kind, n):
        rng = random.Random(f"simple runs:{kind}:{n}")
        ld = _pure.delta_len(kind, n)
        for word in run_heavy_words(kind, n, rng):
            k, f = kit.word_to_nf(kind, n, word)
            # Single letters meet no run of two: fold their forms instead.
            fold = (0, ())
            for letter in word:
                fold = kit.multiply_nf(kind, n, *fold, *kit.word_to_nf(kind, n, [letter]))
            assert (k, f) == fold, word
            # The exponent sum counts each delta by its length.
            assert k * ld + sum(_pure.simple_len(kind, x) for x in f) == sum(
                sign for _, sign in word
            ), word
            assert (k, f) == _pure.word_to_nf(kind, n, word), word


def letter_fold(kit, kind, n, word):
    """The normal form of ``word`` as the product of its single letters."""
    fold = (0, ())
    for letter in word:
        fold = kit.multiply_nf(kind, n, *fold, *kit.word_to_nf(kind, n, [letter]))
    return fold


def delta_word(kind, n, m):
    """delta^m spelled in atoms, positive for m >= 0 and negative below."""
    atoms = _pure.simple_to_atoms(kind, _pure.delta_perm(kind, n))
    if m >= 0:
        return [(a, 1) for a in atoms] * m
    return [(a, -1) for a in reversed(atoms)] * -m


def delta_split_words(kind, n, rng):
    """Words whose positive runs make a delta around a negative run: delta
    spelled in atoms, cut in two, with y^-1 y put in the cut for a short
    random positive word y, and several such words in a row."""
    atoms = _pure.atom_count(kind, n)
    spelled = delta_word(kind, n, 1)
    words = []
    for _ in range(8):
        word = []
        for _ in range(rng.randrange(1, 5)):
            cut = rng.randrange(len(spelled) + 1)
            y = [(rng.randrange(atoms), 1) for _ in range(rng.randrange(1, 4))]
            inv_y = [(a, -1) for a, _ in reversed(y)]
            word += spelled[:cut] + inv_y + y + spelled[cut:]
            # A letter of either sign, so the deltas twist what lies left.
            word.append((rng.randrange(atoms), rng.choice((1, -1))))
        words.append(word)
    return words


class TestLongAndDeltaHeavyWords:
    """Long words and words full of deltas, which strip a delta off the
    front of the growing normal form again and again; each must equal the
    product of its single letters."""

    @pytest.mark.parametrize(
        "kind,n,length",
        [
            (kind, n, length)
            for kind in BOTH_KINDS
            for n, length in ((3, 128), (3, 512), (4, 256), (4, 512), (12, 64), (16, 64))
        ],
    )
    def test_long_words(self, kit, kind, n, length):
        rng = random.Random(f"long words:{kind}:{n}:{length}")
        atoms = _pure.atom_count(kind, n)
        for bias in (0.5, 0.9, 0.1):
            word = [
                (rng.randrange(atoms), 1 if rng.random() < bias else -1)
                for _ in range(length)
            ]
            nf = kit.word_to_nf(kind, n, word)
            assert nf == letter_fold(kit, kind, n, word), (bias, word)
            inverse = [(a, -sign) for a, sign in reversed(word)]
            assert kit.invert_nf(kind, n, *nf) == kit.word_to_nf(kind, n, inverse)

    @pytest.mark.parametrize("kind", BOTH_KINDS)
    @pytest.mark.parametrize("n", (2, 3, 4, 5, 8))
    def test_delta_powers_and_split_deltas(self, kit, kind, n):
        rng = random.Random(f"delta words:{kind}:{n}")
        atoms = _pure.atom_count(kind, n)
        for m in (1, 2, 3, 7):
            assert kit.word_to_nf(kind, n, delta_word(kind, n, m)) == (m, ())
            assert kit.word_to_nf(kind, n, delta_word(kind, n, -m)) == (-m, ())
        words = delta_split_words(kind, n, rng)
        for m in (1, 2, 3, -1, -2):
            x = [(rng.randrange(atoms), rng.choice((1, -1))) for _ in range(6)]
            words += [delta_word(kind, n, m) + x, x + delta_word(kind, n, m)]
        for word in words:
            assert kit.word_to_nf(kind, n, word) == letter_fold(kit, kind, n, word), word


def factor_sequences(kind, n, rng):
    """Arbitrary sequences of simples, a fifth of them identities and a
    fifth deltas, so that neither is left-weighted."""
    dp, idp = _pure.delta_perm(kind, n), _pure.identity_perm(n)
    simples = [bytes(p) for p in brute.all_simples(kind, n)]
    for _ in range(60):
        yield [
            (idp, dp, rng.choice(simples))[min(int(rng.random() * 5), 2)]
            for _ in range(rng.randrange(0, 16))
        ]


class TestNormalizeFactors:
    """``normalize_factors`` and ``invert_nf`` on factor sequences that are
    not normal forms, against the product of the single factors."""

    @staticmethod
    def single(kind, n, f):
        if f == _pure.delta_perm(kind, n):
            return 1, ()
        return 0, (() if f == _pure.identity_perm(n) else (f,))

    @pytest.mark.parametrize("kind,n", [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5)])
    def test_against_the_product_of_factors(self, kit, kind, n):
        rng = random.Random(f"factor sequences:{kind}:{n}")
        for seq in factor_sequences(kind, n, rng):
            fold = (0, ())
            for f in seq:
                fold = kit.multiply_nf(kind, n, *fold, *self.single(kind, n, f))
            assert _pure.normalize_factors(kind, n, seq) == fold, seq
            # invert_nf takes any simples, left-weighted or not.
            k = rng.randrange(-3, 4)
            assert kit.invert_nf(kind, n, k, tuple(seq)) == kit.invert_nf(
                kind, n, fold[0] + k, fold[1]
            ), (k, seq)


class TestSimpleLength:
    def test_artin_length_is_the_inversion_count(self):
        for n in range(8):
            for p in itertools.permutations(range(n)):
                assert _pure.simple_len(kernels.KIND_ARTIN, bytes(p)) == brute.inversions(p), p


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

    @pytest.mark.parametrize("kind", BOTH_KINDS)
    def test_tau_is_conjugation_by_delta(self, kind):
        for n in range(8):
            for p in brute.all_simples(kind, n):
                for k in range(-3, 2 * n + 2):
                    assert kernels.tau_simple(kind, bytes(p), k) == bytes(brute.tau(kind, p, k))


class TestBackendEquivalence:
    """The compiled twin must agree with the pure one bit for bit."""

    def test_fuzz_against_pure(self, compiled_speed, rng):
        speed = compiled_speed
        for kind in BOTH_KINDS:
            for n in (2, 3, 5, 9, 16):
                atoms = _pure.atom_count(kind, n)
                prev = (0, ())
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
                    assert _pure.multiply_nf(kind, n, *prev, *nf_p) == (
                        speed.multiply_nf(kind, n, *prev, *nf_s)
                    )
                    prev = nf_p

    def test_long_words_against_pure(self, compiled_speed, rng):
        """Words of 128 to 512 letters, which grow long normal forms."""
        speed = compiled_speed
        for kind in BOTH_KINDS:
            for n in (2, 3, 4, 6, 9):
                atoms = _pure.atom_count(kind, n)
                for _ in range(6):
                    bias = rng.choice((0.1, 0.5, 0.9))
                    word = [
                        (rng.randrange(atoms), 1 if rng.random() < bias else -1)
                        for _ in range(rng.randrange(128, 513))
                    ]
                    nf_p = _pure.word_to_nf(kind, n, word)
                    assert nf_p == speed.word_to_nf(kind, n, word)
                    assert _pure.invert_nf(kind, n, *nf_p) == speed.invert_nf(kind, n, *nf_p)

    def test_peel_lengths_is_the_composition(self, kit, rng):
        """Each score is nf_lengths(multiply_nf(peel, target))[rational]."""
        for kind in BOTH_KINDS:
            for n in (3, 4, 6, 9, 12, 16):
                atoms = _pure.atom_count(kind, n)

                def nf():
                    word = [
                        (rng.randrange(atoms), rng.choice((1, -1)))
                        for _ in range(rng.randrange(0, 16))
                    ]
                    k, f = _pure.word_to_nf(kind, n, word)
                    return k + rng.choice((0, 0, -1, -3, 2)), f

                for _ in range(12):
                    peels = [nf() for _ in range(rng.randrange(0, 6))]
                    peels += [(0, ()), (-2, ())]  # identity and a pure delta power
                    rng.shuffle(peels)
                    for target in (nf(), (0, ()), (-4, ())):
                        for rational in (0, 1):
                            expected = tuple(
                                _pure.nf_lengths(
                                    kind, n, *_pure.multiply_nf(kind, n, *p, *target)
                                )[rational]
                                for p in peels
                            )
                            got = kit.peel_lengths(kind, n, peels, *target, rational)
                            assert got == expected, (kind, n, peels, target, rational)

    @pytest.mark.parametrize(
        "make,n,radius",
        [(artin_structure, 3, 6), (bkl_structure, 3, 5), (artin_structure, 4, 5), (bkl_structure, 4, 4)],
    )
    def test_expand_level_against_pure(self, compiled_speed, make, n, radius, rng):
        """Both twins grow the same table, in the same order, and return the
        same next frontier, also when the node budget stops them in the
        middle of a level, with plain states and with tau-orbits."""
        structure = make(n)
        kind = structure.kind_code
        moves = [
            _pure.word_to_nf(kind, n, [(a, sign)])
            for a in range(structure.atom_count)
            for sign in (1, -1)
        ]
        # Every element of the ball, not only its orbit keys: a parent of
        # either kind may be expanded with either flag.
        ball = [
            (kernels.pack_nf(*raw), dist)
            for raw, dist in enumerate_ball(structure, radius).raw_items()
        ]

        def expand(frontier, seen, level, max_nodes, orbits):
            outcomes = []
            for twin in (_pure, compiled_speed):
                table = dict(seen)
                grown = twin.expand_level(kind, n, frontier, moves, table, level, max_nodes, orbits)
                new = list(table)[len(seen) :]
                # The next frontier holds the table's own keys.
                assert len(grown) == len(new)
                assert all(a is b for a, b in zip(grown, new))
                outcomes.append((list(table.items()), grown))
            assert outcomes[0] == outcomes[1]
            return outcomes[0]

        for orbits in (0, 1):
            for _ in range(4):
                frontier = [blob for blob, _ in rng.sample(ball, min(60, len(ball)))]
                seen = rng.sample(ball, len(ball) // 2)
                level = rng.randrange(1, 2 * radius)
                table, full = expand(frontier, seen, level, 10**9, orbits)
                assert len(full) > 4
                assert table[len(seen) :] == [(blob, level) for blob in full]
                if orbits:
                    assert all(_pure.pack_orbit(kind, n, *_pure.unpack_nf(b, n)) == b for b in full)
                half = len(full) // 2
                table, grown = expand(frontier, seen, level, len(seen) + half, orbits)
                assert len(seen) + half < len(table) < len(seen) + len(full)
                assert grown == full[: len(grown)]

    def test_band_factors_must_be_band_simples(self, kit):
        """Every normal-form kernel takes exactly the band simples as band
        factors; any permutation is an Artin factor."""
        for n in range(8):
            simples = set(brute.all_simples(kernels.KIND_BKL, n))
            for p in itertools.permutations(range(n)):
                kit.nf_lengths(kernels.KIND_ARTIN, n, 0, (bytes(p),))
                try:
                    kit.nf_lengths(kernels.KIND_BKL, n, 0, (bytes(p),))
                except ValueError:
                    assert p not in simples, p
                else:
                    assert p in simples, p

    @pytest.mark.parametrize("kind,top", [(kernels.KIND_BKL, 6), (kernels.KIND_ARTIN, 5)])
    def test_every_pair_of_simples(self, compiled_speed, kind, top):
        """The lattice core, exhaustively: both twins multiply and score
        every pair of simples alike. Both meet band simples by the same
        block walk, which ``TestBandLatticeByDefinition`` judges."""
        for n in range(top + 1):
            simples = [bytes(p) for p in brute.all_simples(kind, n)]
            peels = [(0, (s,)) for s in simples]
            for p in simples:
                for s in simples:
                    expected = _pure.multiply_nf(kind, n, 0, (s,), 0, (p,))
                    got = compiled_speed.multiply_nf(kind, n, 0, (s,), 0, (p,))
                    assert got == expected, (kind, n, s, p)
                for k, rational in itertools.product((0, -1), (0, 1)):
                    expected = _pure.peel_lengths(kind, n, peels, k, (p,), rational)
                    got = compiled_speed.peel_lengths(kind, n, peels, k, (p,), rational)
                    assert got == expected, (kind, n, p, k, rational)

    def test_products_share_untouched_factors(self, kit, rng):
        """A product hands back the right factors its left one leaves alone."""
        for kind in BOTH_KINDS:
            n = 6
            atoms = _pure.atom_count(kind, n)
            shared = 0
            for _ in range(100):
                long_word = [(rng.randrange(atoms), 1) for _ in range(40)]
                right = kit.word_to_nf(kind, n, long_word)
                left = kit.word_to_nf(kind, n, [(rng.randrange(atoms), 1)])
                _, f = kit.multiply_nf(kind, n, *left, *right)
                # Factors the product left alone sit at the same place from
                # the end; they must be the very input objects.
                for got, old in zip(reversed(f), reversed(right[1])):
                    if got != old:
                        break
                    assert got is old
                    shared += 1
            assert shared > 0


NF_KERNELS = (
    "word_to_nf",
    "multiply_nf",
    "invert_nf",
    "nf_lengths",
    "peel_lengths",
    "expand_level",
)


class TestCompiledSet:
    """Only the six normal-form kernels are compiled."""

    def test_compiled_entry_points(self, compiled_speed):
        exported = {
            name
            for name, value in vars(compiled_speed).items()
            if callable(value) and not name.startswith("_")
        }
        assert exported == {*NF_KERNELS, "bkl_atom_index"}

    def test_per_simple_kernels_are_pure(self):
        assert kernels.meet is _pure.meet
        assert not hasattr(kernels, "normalize_factors")

    def test_hot_paths_call_only_normal_form_kernels(self, monkeypatch):
        calls = collections.Counter()

        def counting(name, kernel):
            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)

            return wrapper

        # Structures read their shape constants, and the band translation
        # renames letters; neither is a kernel call. The structures are
        # cached, and building one reads its atoms and their tau twists:
        # build them here, before the count starts, so that the count does
        # not depend on which tests ran first.
        for n in (4, 5):
            artin_structure(n)
            bkl_structure(n)
        skip = {*NF_KERNELS, "atom_count", "delta_len", "bkl_atom_index", "bkl_atom_pair"}
        for name, value in list(vars(kernels).items()):
            if callable(value) and not name.startswith("_") and name not in skip:
                monkeypatch.setattr(kernels, name, counting(name, value))
        b4 = artin_structure(4)
        gens = [parse_word(w, b4) for w in ("s1 s2", "s2 s3^-1", "s3 s1 s1")]
        cfg = SolverConfig(n=3, memory=8, metric=LengthMetric.RATIONAL_ARTIN)
        memory_length_search(gens[0] * gens[2] * gens[1], gens, cfg)
        sample = gen_sample(
            ExperimentConfig(
                ns=5, wl=4, ng=4, sl=6, samples=1, metric=LengthMetric.RATIONAL_BKL, seed=3
            ),
            0,
        )
        for metric in (LengthMetric.RATIONAL_ARTIN, LengthMetric.RATIONAL_BKL):
            rank_generators(sample, metric, random.Random(0))
        assert calls == {}

    def test_peels_are_scored_in_batches(self, monkeypatch):
        """No product is built only to be scored, and no element twice.

        A search scores every peel through ``peel_lengths``, one call per
        distinct element it expands, and builds the normal form of an entry
        only when it expands it: at most ``memory`` products per step. An
        entry that returns to an element already scored reuses its scores,
        which still count once per candidate. A ranking scores all its
        peels with one call and builds no product.
        """
        calls = collections.Counter()
        products = []
        for name in NF_KERNELS:
            kernel = getattr(kernels, name)

            def wrapper(*args, _name=name, _kernel=kernel):
                calls[_name] += 1
                out = _kernel(*args)
                if _name == "multiply_nf":
                    products.append(out)
                return out

            monkeypatch.setattr(kernels, name, wrapper)
        b5 = artin_structure(5)
        gens = [parse_word(w, b5) for w in ("s1 s2", "s2 s3^-1", "s3 s4 s4", "s4^-1 s1")]
        cfg = SolverConfig(n=4, memory=6, metric=LengthMetric.RATIONAL_BKL)
        target = gens[0] * gens[2] * gens[1].inverse() * gens[3]
        calls.clear()
        out = memory_length_search(target, gens, cfg)
        assert calls["nf_lengths"] == 0
        assert len(products) <= 1 + cfg.memory * (cfg.n - 1)
        assert calls["peel_lengths"] == len(set(products)) < len(products)
        assert out.length_evaluations == 2 * len(gens) * len(products)
        sample = gen_sample(
            ExperimentConfig(
                ns=5, wl=4, ng=4, sl=6, samples=1, metric=LengthMetric.RATIONAL_BKL, seed=3
            ),
            0,
        )
        calls.clear()
        rank_generators(sample, LengthMetric.RATIONAL_BKL, random.Random(0))
        assert calls["peel_lengths"] == 1
        assert calls["nf_lengths"] == 0


# Each call reads or writes outside its arguments unless the twin checks
# them first, or returns a wrong answer; every twin must raise instead.
BAD_CALLS = [
    "delta_perm(0, 1000)",
    "delta_perm(1, 1000)",
    r"meet(0, b'\x02\x01\x00', b'\x00')",
    r"meet(1, b'\x02\x01\x00', b'\x00')",
    r"meet(0, b'\x00', b'\x01\x00')",
    r"meet(1, b'\x00', b'\x01\x00')",
    r"join(1, b'\x00', b'\x01\x00')",
    "meet(0, 'abc', 'abc')",
    r"simple_len(1, b'\x05\x00')",
    # Not a permutation: the band meet's block walk would never end.
    r"meet(1, b'\x00\x02\x02\x00', bytes([0, 3, 2, 1]))",
    r"left_divides(0, b'\x01\x00', b'\x00')",
    r"left_divides(0, b'\x00', b'\x01\x00')",
    r"left_complement(0, b'\x07\x00\x01')",
    "right_complement(0, 'abc')",
    "compose('abc', 'abc')",
    r"compose(b'\x00\x01', b'\x00\x01\x02')",
    r"compose(b'\x00\x05\x01', b'\x00\x01\x02')",
    r"quotient_left(b'\x00\x01\x02', b'\x00')",
    r"quotient_left(b'\x00\x01', b'\x00\x01\x02')",
    r"tau_simple(0, b'\x00\x01\x05', 1)",
    # Not permutations: tau refuses them rather than relabel their bytes.
    r"tau_simple(1, b'\x00\x01\x05', 1)",
    r"tau_simple(0, b'\x00\x00\x01', 1)",
    r"make_left_weighted(0, b'\x01\x00', b'\x00')",
    r"make_left_weighted(0, b'\x00\x01', b'\x02\x00\x01')",
    r"is_left_weighted(0, b'\x00\x01', b'\x00')",
    r"is_left_weighted(0, b'\x00', b'\x01\x00')",
    r"normalize_factors(0, 3, [b'\x01\x00', b'\x00'])",
    "word_to_nf(0, 3, [(5, 1)])",
    "word_to_nf(1, 3, [(3, -1)])",
    "word_to_nf(0, 1000, [])",
    "word_to_nf(0, 3, [(-1, 1)])",
    r"multiply_nf(0, 3, 0, (b'\x00\x09\x01',), 0, (b'\x01\x00\x02',))",
    r"multiply_nf(1, 3, 0, (b'\x05\x00\x01',), 1, (b'\x01\x02\x00',))",
    "multiply_nf(0, 1000, 0, (), 0, ())",
    "multiply_nf(0, 3, 2**41, (), 0, ())",
    r"invert_nf(0, 3, 0, (b'\x00\x09\x01',))",
    "invert_nf(0, 3, 2**41, ())",
    r"nf_lengths(1, 3, 0, (b'\x00\x05\x01',))",
    r"nf_lengths(0, 3, 0, (b'\x05\x00\x01',))",
    "nf_lengths(0, 1000, 0, ())",
    "nf_lengths(0, 3, 2**41, ())",
    r"peel_lengths(0, 3, [(0, (b'\x00\x09\x01',))], 0, (b'\x01\x00\x02',), 0)",
    r"peel_lengths(1, 3, [(0, (b'\x01\x00\x02',))], 0, (b'\x05\x00\x01',), 1)",
    "peel_lengths(0, 3, [(0,)], 0, (), 0)",
    "peel_lengths(0, 3, [5], 0, (), 0)",
    "peel_lengths(0, 1000, [(0, ())], 0, (), 0)",
    "peel_lengths(0, 3, [(2**41, ())], 0, (), 1)",
    "peel_lengths(0, 3, [(0, ())], -2**41, (), 1)",
    # Packed normal forms: 8 bytes of delta power, then factors of n bytes.
    r"expand_level(0, 3, [bytes(7)], [(0, (b'\x01\x00\x02',))], {}, 1, 10)",
    r"expand_level(0, 3, [bytes(8) + b'\x00\x01'], [(0, (b'\x01\x00\x02',))], {}, 1, 10)",
    r"expand_level(0, 3, [bytes(8) + b'\x00\x00\x01'], [(0, (b'\x01\x00\x02',))], {}, 1, 10)",
    r"expand_level(0, 3, [(2**41).to_bytes(8, 'big')], [(0, (b'\x01\x00\x02',))], {}, 1, 10)",
    r"expand_level(0, 3, [(-2**41).to_bytes(8, 'big', signed=True)], [(0, ())], {}, 1, 10)",
    r"expand_level(0, 3, [bytes(8)], [(0, (b'\x01\x00\x02',))], [], 1, 10)",
    r"expand_level(0, 3, ['\x00' * 8], [(0, (b'\x01\x00\x02',))], {}, 1, 10)",
    r"expand_level(0, 3, [bytes(8)], [(0, (b'\x01\x00\x02',))], {}, -1, 10)",
    r"expand_level(0, 3, [bytes(8)], [(0, (b'\x01\x00\x02',))], {}, 1, -1)",
    r"expand_level(0, 3, [bytes(8)], [(0, (b'\x00\x09\x01',))], {}, 1, 10)",
    "expand_level(0, 1000, [], [], {}, 1, 10)",
    "expand_level(0, 3, [], [], {}, 1, 2**63)",
    "expand_level(0, 3, [], [], {}, 1, 10, 2)",
    "expand_level(0, 3, [], [], {}, 1, 10, 0, 0)",
    # Band factors that are permutations but not band simples: a cycle that
    # does not ascend, and two blocks that cross.
    r"multiply_nf(1, 3, 0, (b'\x02\x00\x01',), 0, (b'\x01\x02\x00',))",
    "multiply_nf(1, 4, 0, (bytes([2, 3, 0, 1]),), 0, (bytes([2, 3, 0, 1]),))",
    r"multiply_nf(1, 3, 0, (), 0, (b'\x02\x00\x01',))",
    r"invert_nf(1, 3, 0, (b'\x02\x00\x01',))",
    "invert_nf(1, 4, 0, (bytes([2, 3, 0, 1]),))",
    r"nf_lengths(1, 3, 0, (b'\x02\x00\x01',))",
    "nf_lengths(1, 4, 0, (bytes([2, 3, 0, 1]),))",
    r"peel_lengths(1, 3, [(0, (b'\x02\x00\x01',))], 0, (b'\x01\x02\x00',), 0)",
    "peel_lengths(1, 4, [(0, (bytes([2, 3, 0, 1]),))], 0, (), 1)",
    r"peel_lengths(1, 3, [(0, ())], 0, (b'\x02\x00\x01',), 0)",
    "peel_lengths(1, 4, [], 0, (bytes([2, 3, 0, 1]),), 1)",
    r"expand_level(1, 3, [bytes(8) + b'\x02\x00\x01'], [(0, (b'\x01\x02\x00',))], {}, 1, 10)",
    "expand_level(1, 4, [bytes(8) + bytes([2, 3, 0, 1])], [(0, ())], {}, 1, 10)",
    r"expand_level(1, 3, [bytes(8)], [(0, (b'\x02\x00\x01',))], {}, 1, 10)",
    "expand_level(1, 4, [bytes(8)], [(0, (bytes([2, 3, 0, 1]),))], {}, 1, 10)",
]

PROBE = """
import importlib.util, sys
name, path, call = sys.argv[1:]
spec = importlib.util.spec_from_file_location(name, path)
kit = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kit)
if not callable(getattr(kit, call.partition("(")[0], None)):
    print("missing from", name)
    sys.exit()
try:
    result = eval(call, vars(kit))
except Exception as exc:
    print("raised", type(exc).__name__)
else:
    print("returned", repr(result))
"""


@pytest.mark.parametrize(
    "kit,call",
    [
        (twin, call)
        for twin in ("pure", "speed")
        for call in BAD_CALLS
        # Only the normal-form kernels are compiled: every backend takes
        # the per-simple kernels from the pure twin.
        if twin == "pure" or call.partition("(")[0] in NF_KERNELS
    ],
    indirect=["kit"],
)
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
