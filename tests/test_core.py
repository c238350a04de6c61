"""Core types and generic operations: worked values and invariants."""

import dataclasses
import itertools
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from conftest import random_word
import garsidekit
from garsidekit import kernels
from garsidekit.artin import artin_structure
from garsidekit.bkl import bkl_structure
from garsidekit.core import (
    BraidWord,
    GreedyNF,
    RationalNF,
    SimpleElement,
    StructureDescriptor,
    complement,
    enumerate_simples,
    equals,
    greedy_nf,
    join,
    left_divides,
    local_slide,
    meet,
    quotient_simple,
    rational_nf,
    recompose,
    simple_closure,
    tau_power,
)
from garsidekit.errors import GuardExceeded, NotADivisor, StructureMismatch
from garsidekit.syntax import parse_word


@pytest.fixture
def b3():
    return artin_structure(3)


def simple_of(structure, text):
    """Simple element from a positive word (must be a single factor)."""
    word = parse_word(text, structure)
    k, factors = word.raw_nf()
    if k == 1 and not factors:
        return structure.delta
    if k == 0 and not factors:
        return structure.identity_simple
    assert k == 0 and len(factors) == 1, text
    return SimpleElement(structure, factors[0])


class TestLatticeOps:
    def test_meet_examples(self, b3):
        s12 = simple_of(b3, "s1 s2")
        delta = b3.delta
        assert meet(b3.identity_simple, s12) == b3.identity_simple
        assert meet(delta, s12) == s12
        assert meet(s12, delta) == s12

    def test_join_examples(self, b3):
        s1 = b3.atom_simple(0)
        s2 = b3.atom_simple(1)
        assert join(b3.identity_simple, s1) == s1
        assert join(s1, b3.delta) == b3.delta
        assert join(s1, s2) == b3.delta

    def test_structure_mismatch(self, b3):
        other = artin_structure(4)
        with pytest.raises(StructureMismatch):
            meet(b3.atom_simple(0), other.atom_simple(0))

    def test_left_divides_structure_mismatch(self, b3):
        for other in (artin_structure(4), bkl_structure(3)):
            with pytest.raises(StructureMismatch):
                left_divides(b3.identity_simple, other.delta)

    def test_complement_examples(self, b3):
        assert complement(b3.identity_simple, "right") == b3.delta
        assert complement(b3.delta, "left") == b3.identity_simple
        assert complement(b3.atom_simple(0), "left") == simple_of(b3, "s1 s2")

    def test_quotient_examples(self, b3):
        s1 = b3.atom_simple(0)
        t = simple_of(b3, "s1 s2")
        assert quotient_simple(b3.identity_simple, t) == t
        assert quotient_simple(t, t) == b3.identity_simple
        assert quotient_simple(s1, b3.delta) == simple_of(b3, "s2 s1")
        with pytest.raises(NotADivisor):
            quotient_simple(simple_of(b3, "s2"), simple_of(b3, "s1"))


class TestTau:
    def test_delta_fixed(self, b3):
        for k in range(-3, 4):
            assert tau_power(b3.delta, k) == b3.delta

    def test_artin_b4_atom(self):
        b4 = artin_structure(4)
        assert tau_power(b4.atom_simple(0), 1) == b4.atom_simple(2)

    def test_bkl_b3_atom(self):
        s = bkl_structure(3)
        a21 = s.atom_simple(0)
        a32 = s.atom_simple(2)
        assert tau_power(a21, 1) == a32

    def test_word_tau_is_conjugation(self, rng):
        for structure in (artin_structure(4), bkl_structure(4)):
            delta_word = structure.delta.atom_word()
            for _ in range(25):
                w = random_word(rng, structure, 12)
                for k in (-2, -1, 1, 3):
                    conj = (delta_word ** -k) * w * (delta_word ** k)
                    assert equals(tau_power(w, k), conj)


class TestLocalSlide:
    def test_examples(self, b3):
        s1 = b3.atom_simple(0)
        s2s1 = simple_of(b3, "s2 s1")
        assert local_slide(b3.delta, s2s1) == (b3.delta, s2s1)
        assert local_slide(s1, b3.identity_simple) == (s1, b3.identity_simple)
        assert local_slide(s1, s2s1) == (b3.delta, b3.identity_simple)

    @pytest.mark.parametrize("make", [artin_structure, bkl_structure])
    def test_product_preserved_exhaustive(self, make):
        structure = make(4)
        simples = list(enumerate_simples(structure))
        code = structure.kind_code
        for s, p in itertools.product(simples[:20], simples[:20]):
            a, b = local_slide(s, p)
            assert kernels.compose(s.data, p.data) == kernels.compose(a.data, b.data)
            assert kernels.left_divides(code, s.data, a.data)


class TestGreedyNF:
    def test_known_small_forms(self, b3):
        assert greedy_nf(b3.word()) == GreedyNF(b3, 0, ())
        assert greedy_nf(parse_word("s1 s2 s1", b3)) == GreedyNF(b3, 1, ())
        nf = greedy_nf(parse_word("s1^-1", b3))
        assert nf.k == -1 and [f.canonical for f in nf.factors] == [(3, 1, 2)]
        nf = greedy_nf(parse_word("s1 s1", b3))
        assert nf.k == 0 and len(nf.factors) == 2

    @pytest.mark.parametrize("make", [artin_structure, bkl_structure])
    def test_invariance_under_free_insertion(self, make, rng):
        structure = make(5)
        for _ in range(50):
            w = random_word(rng, structure, 20)
            i = rng.randrange(0, len(w.letters) + 1)
            a = rng.randrange(structure.atom_count)
            sign = rng.choice((1, -1))
            padded = structure.word(
                w.letters[:i] + ((a, sign), (a, -sign)) + w.letters[i:]
            )
            assert greedy_nf(padded) == greedy_nf(w)

    def test_invariance_under_artin_relations(self, rng):
        structure = artin_structure(5)
        braid = [((0, 1), (1, 1), (0, 1)), ((1, 1), (2, 1), (1, 1))]
        far = [((0, 1), (2, 1)), ((0, 1), (3, 1)), ((1, 1), (3, 1))]
        pairs = [(lhs, tuple(reversed(lhs))) for lhs in far]
        pairs += [
            (((0, 1), (1, 1), (0, 1)), ((1, 1), (0, 1), (1, 1))),
            (((2, 1), (3, 1), (2, 1)), ((3, 1), (2, 1), (3, 1))),
        ]
        for lhs, rhs in pairs:
            for _ in range(20):
                w = random_word(rng, structure, 15)
                i = rng.randrange(0, len(w.letters) + 1)
                w1 = structure.word(w.letters[:i] + lhs + w.letters[i:])
                w2 = structure.word(w.letters[:i] + rhs + w.letters[i:])
                assert greedy_nf(w1) == greedy_nf(w2)

    def test_invariance_under_bkl_relations(self, rng):
        structure = bkl_structure(4)

        def atom(t, s):
            return kernels.bkl_atom_index(t - 1, s - 1)

        # triple relations for t > s > r and one legal commutation
        pairs = []
        for t, s, r in itertools.combinations(range(4, 0, -1), 3):
            x = ((atom(t, s), 1), (atom(s, r), 1))
            y = ((atom(t, r), 1), (atom(t, s), 1))
            z = ((atom(s, r), 1), (atom(t, r), 1))
            pairs += [(x, y), (y, z), (x, z)]
        pairs.append((
            ((atom(2, 1), 1), (atom(4, 3), 1)),
            ((atom(4, 3), 1), (atom(2, 1), 1)),
        ))
        for lhs, rhs in pairs:
            for _ in range(12):
                w = random_word(rng, structure, 12)
                i = rng.randrange(0, len(w.letters) + 1)
                w1 = structure.word(w.letters[:i] + lhs + w.letters[i:])
                w2 = structure.word(w.letters[:i] + rhs + w.letters[i:])
                assert greedy_nf(w1) == greedy_nf(w2)


class TestRationalNF:
    def test_positive_case(self, b3):
        nf = rational_nf(greedy_nf(parse_word("s1 s2 s1", b3)))
        assert nf.neg_factors == ()
        assert [f.is_delta() for f in nf.pos_factors] == [True]

    def test_single_negative_atom(self, b3):
        nf = rational_nf(greedy_nf(parse_word("s1^-1", b3)))
        assert [f.canonical for f in nf.neg_factors] == [(2, 1, 3)]
        assert nf.pos_factors == ()

    def test_square_commutator_form(self, b3):
        nf = rational_nf(greedy_nf(parse_word("s2 s2 s1^-1 s1^-1", b3)))
        assert [f.canonical for f in nf.neg_factors] == [(3, 1, 2), (2, 3, 1)]
        assert [f.canonical for f in nf.pos_factors] == [(2, 3, 1), (3, 1, 2)]

    @pytest.mark.parametrize("make", [artin_structure, bkl_structure])
    def test_parts_coprime_and_recompose(self, make, rng):
        structure = make(4)
        for _ in range(500):
            w = random_word(rng, structure, 25)
            nf = rational_nf(greedy_nf(w))
            if nf.neg_factors and nf.pos_factors:
                assert meet(nf.neg_factors[0], nf.pos_factors[0]).is_identity()
            assert equals(recompose(nf), w)


class TestStoredNormalForm:
    """A word normalizes once and keeps the form out of its value."""

    def test_second_call_returns_the_stored_form(self, b3, monkeypatch):
        w = parse_word("s1 s2^-1 s1 s1", b3)
        first = w.raw_nf()

        def renormalized(*args):
            raise AssertionError("word_to_nf called again")

        monkeypatch.setattr(kernels, "word_to_nf", renormalized)
        assert w.raw_nf() is first
        assert greedy_nf(w).raw() == first
        assert equals(w, w)

    def test_stored_form_leaves_equality_hash_and_repr(self, b3):
        w = parse_word("s1 s2 s1^-1", b3)
        fresh = b3.word(w.letters)
        w.raw_nf()
        assert w == fresh and fresh == w
        assert hash(w) == hash(fresh)
        assert repr(w) == repr(fresh)

    @pytest.mark.parametrize("make", [artin_structure, bkl_structure])
    def test_pickle_and_replace_keep_correct_forms(self, make, rng):
        structure = make(4)
        code, n = structure.kind_code, structure.strand_count
        for _ in range(10):
            w = random_word(rng, structure, 12)
            w.raw_nf()
            clone = pickle.loads(pickle.dumps(w))
            assert clone == w
            assert clone.raw_nf() == kernels.word_to_nf(code, n, w.letters)
            other = random_word(rng, structure, 12)
            moved = dataclasses.replace(w, letters=other.letters)
            assert moved.raw_nf() == kernels.word_to_nf(code, n, other.letters)


class TestEqualsRecompose:
    def test_braid_relation(self, b3):
        assert equals(parse_word("s1 s2 s1", b3), parse_word("s2 s1 s2", b3))
        assert not equals(parse_word("s1 s2", b3), parse_word("s2 s1", b3))

    def test_inverse_cancels(self, rng, b3):
        for _ in range(30):
            w = random_word(rng, b3, 15)
            assert equals(w * w.inverse(), b3.word())

    @pytest.mark.parametrize("make", [artin_structure, bkl_structure])
    def test_recompose_greedy(self, make, rng):
        structure = make(5)
        for _ in range(60):
            w = random_word(rng, structure, 25)
            assert equals(recompose(greedy_nf(w)), w)

    def test_recompose_delta_power(self, b3):
        assert equals(recompose(GreedyNF(b3, 1, ())), parse_word("s1 s2 s1", b3))


class TestLeftWeightedStability:
    """Twisting and complementing preserve left-weightedness."""

    @pytest.mark.parametrize("make", [artin_structure, bkl_structure])
    @pytest.mark.parametrize("n", (3, 4))
    def test_tau_and_complement_pairs(self, make, n):
        structure = make(n)
        code = structure.kind_code
        simples = [s.data for s in enumerate_simples(structure)]
        weighted = [
            (s, p)
            for s, p in itertools.product(simples, repeat=2)
            if kernels.is_left_weighted(code, s, p)
        ]
        for s, p in weighted:
            for k in (-1, 1):
                assert kernels.is_left_weighted(
                    code,
                    kernels.tau_simple(code, s, k),
                    kernels.tau_simple(code, p, k),
                )
        for s, p in weighted:
            for k in range(-2, 3):
                left = kernels.right_complement(
                    code, kernels.tau_simple(code, p, k)
                )
                right = kernels.right_complement(
                    code, kernels.tau_simple(code, s, k + 1)
                )
                assert kernels.is_left_weighted(code, left, right)


class TestSimpleClosure:
    def test_artin_counts(self):
        assert len(simple_closure(artin_structure(2))) == 2
        assert len(simple_closure(artin_structure(3))) == 6
        assert len(simple_closure(artin_structure(4))) == 24

    def test_b2_contents(self):
        structure = artin_structure(2)
        closure = simple_closure(structure)
        assert closure == {structure.identity_simple, structure.delta}

    @pytest.mark.parametrize("n,catalan", [(2, 2), (3, 5), (4, 14), (5, 42), (6, 132)])
    def test_bkl_catalan(self, n, catalan):
        structure = bkl_structure(n)
        closure = simple_closure(structure)
        assert len(closure) == catalan
        assert closure == frozenset(enumerate_simples(structure))

    def test_matches_direct_enumeration(self):
        for make, n in ((artin_structure, 4), (bkl_structure, 5)):
            structure = make(n)
            assert simple_closure(structure) == frozenset(
                enumerate_simples(structure)
            )

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            simple_closure(artin_structure(9))


class TestConstructionChecks:
    """Malformed values raise ValueError when built, also under ``python -O``."""

    def test_bad_letters(self, b3):
        for letters in (((7, 1), (0, 5)), ((2, 1),), ((-1, 1),), ((0, 5),), ((0, 0),)):
            with pytest.raises(ValueError):
                BraidWord(b3, letters)

    def test_bad_simple(self, b3):
        for data in (b"", b"\x00\x01", bytes(range(4)), bytes([0, 0, 1])):
            with pytest.raises(ValueError):
                SimpleElement(b3, data)
        # Blocks {1,3} and {2,4} cross: a permutation, but no band simple.
        with pytest.raises(ValueError):
            SimpleElement(bkl_structure(4), bytes([2, 3, 0, 1]))

    def test_bad_structure(self):
        with pytest.raises(ValueError):
            StructureDescriptor("garside", 3)
        with pytest.raises(ValueError):
            StructureDescriptor("artin", 1)
        for make in (artin_structure, bkl_structure):
            with pytest.raises(ValueError):
                make(257)

    def test_constants_follow_kind_and_strands(self):
        # Only kind and strand count are given, so no descriptor can claim
        # atoms its structure lacks.
        with pytest.raises(TypeError):
            StructureDescriptor("artin", 3, 5, 3, (1, 0))
        artin = StructureDescriptor("artin", 3)
        assert artin == artin_structure(3)
        assert (artin.atom_count, artin.delta_atom_length) == (2, 3)
        assert artin.tau_atom_table == (1, 0)
        with pytest.raises(ValueError):
            artin.word([(4, 1)])
        band = StructureDescriptor("bkl", 4)
        assert (band.atom_count, band.delta_atom_length) == (6, 3)
        assert band.tau_atom_table == (2, 4, 5, 0, 1, 3)

    def test_largest_strand_count(self):
        # The byte representation holds permutations of up to 256 strands.
        structure = artin_structure(256)
        assert structure.delta.atom_length() == 256 * 255 // 2

    def test_bad_normal_form_factors(self, b3):
        s1, s2 = b3.atoms()
        assert not kernels.is_left_weighted(b3.kind_code, s1.data, s2.data)
        GreedyNF(b3, 0, (s1, s1))
        for factors in ((b3.identity_simple,), (b3.delta,), (s1, s2)):
            with pytest.raises(ValueError):
                GreedyNF(b3, 0, factors)
        RationalNF(b3, (s1,), (b3.delta,))
        for neg, pos in (((b3.identity_simple,), ()), ((), (s1, s2)), ((s1, s2), ())):
            with pytest.raises(ValueError):
                RationalNF(b3, neg, pos)

    def test_kernel_forms_skip_the_pair_check(self, monkeypatch, rng):
        # Forms built from kernel output are left-weighted by construction;
        # only forms built from outside input pay for the pair check.
        def refuse(*args):
            raise AssertionError("pair re-checked")

        b4 = artin_structure(4)
        words = [random_word(rng, b4) for _ in range(20)]
        monkeypatch.setattr(kernels, "is_left_weighted", refuse)
        for w in words:
            nf = greedy_nf(w)
            assert nf.raw() == w.raw_nf()
            assert equals(recompose(rational_nf(nf)), w)
        s1, s2 = b4.atoms()[:2]
        with pytest.raises(AssertionError, match="pair re-checked"):
            GreedyNF(b4, 0, (s1, s2))

    def test_checks_survive_optimize(self):
        script = textwrap.dedent(
            r"""
            from garsidekit.artin import artin_structure
            from garsidekit.core import BraidWord, SimpleElement

            if __debug__:
                raise SystemExit("asserts are on")
            b3 = artin_structure(3)
            for make in (
                lambda: BraidWord(b3, ((7, 1), (0, 5))),
                lambda: SimpleElement(b3, b"\x00"),
            ):
                try:
                    make()
                except ValueError:
                    print("ValueError")
            """
        )
        src = os.path.dirname(os.path.dirname(garsidekit.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["ValueError", "ValueError"]
