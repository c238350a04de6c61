"""Band-generator structure: partitions, translations, relations."""

import itertools

import pytest

import brute
from garsidekit import kernels
from garsidekit.artin import artin_structure
from garsidekit.bkl import (
    artin_to_bkl,
    bkl_structure,
    bkl_to_artin,
    bkl_validate,
    bkl_word,
)
from garsidekit.core import SimpleElement, enumerate_simples, equals, left_divides, meet
from garsidekit.errors import CrossingPartition
from garsidekit.lengths import positive_length
from garsidekit.syntax import format_word, parse_word
from conftest import random_word

CATALAN = {2: 2, 3: 5, 4: 14, 5: 42, 6: 132}


class TestStructure:
    def test_b3_basics(self):
        s = bkl_structure(3)
        assert s.delta_atom_length == 2
        assert s.atom_count == 3
        # tau rotates: a(2,1) -> a(3,2)
        assert s.atom_label(s.tau_atom_table[0]) == "a(3,2)"

    def test_b2_single_atom_is_delta(self):
        s = bkl_structure(2)
        assert s.atom_count == 1
        assert s.atom_simple(0) == s.delta

    def test_delta_word(self):
        # delta = a(n,n-1) a(n-1,n-2) ... a(2,1)
        for n in (3, 4, 5):
            s = bkl_structure(n)
            word = s.delta.atom_word()
            labels = [s.atom_label(a) for a, _ in word.letters]
            assert labels == [f"a({t},{t - 1})" for t in range(n, 1, -1)]

    def test_tau_table_matches_conjugation(self):
        for n in range(2, 7):
            s = bkl_structure(n)
            code = s.kind_code
            for a in range(s.atom_count):
                conj = kernels.tau_simple(code, kernels.atom_perm(code, n, a), 1)
                assert conj == kernels.atom_perm(code, n, s.tau_atom_table[a])


class TestValidate:
    def test_valid_partition(self):
        s = bkl_structure(3)
        el = bkl_validate(s, [[1, 3], [2]])
        assert el.blocks == ((1, 3), (2,))

    def test_crossing_rejected(self):
        s = bkl_structure(4)
        with pytest.raises(CrossingPartition):
            bkl_validate(s, [[1, 3], [2, 4]])

    def test_not_a_partition(self):
        s = bkl_structure(3)
        with pytest.raises(ValueError):
            bkl_validate(s, [[1, 2]])
        with pytest.raises(ValueError):
            bkl_validate(s, [[1, 2], [2, 3]])
        with pytest.raises(ValueError):
            bkl_validate(s, [[1, 2, 3], []])

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_counts_match_closure(self, n):
        structure = bkl_structure(n)
        valid = 0
        for p in itertools.permutations(range(n)):
            if brute.is_noncrossing_simple(p):
                valid += 1
        assert valid == CATALAN[n]
        assert valid == len(list(enumerate_simples(structure)))


class TestLengthAndDivisibility:
    def test_length_examples(self):
        for n in (3, 4, 5):
            s = bkl_structure(n)
            assert s.identity_simple.atom_length() == 0
            assert s.delta.atom_length() == n - 1
            for atom in s.atoms():
                assert atom.atom_length() == 1

    def test_divisibility_examples(self):
        s = bkl_structure(3)
        a21 = s.atom_simple(0)
        assert left_divides(s.identity_simple, s.delta)
        assert left_divides(a21, s.delta)
        two_one = bkl_validate(s, [[1, 2], [3]])
        assert left_divides(two_one, bkl_validate(s, [[1, 2, 3]]))
        assert not left_divides(
            bkl_validate(s, [[1, 3], [2]]), bkl_validate(s, [[1, 2], [3]])
        )

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_refinement_matches_generic_definition(self, n):
        structure = bkl_structure(n)
        for s, t in itertools.product(brute.all_simples(1, n), repeat=2):
            expected = brute.divides(1, s, t)
            got = left_divides(
                SimpleElement(structure, bytes(s)),
                SimpleElement(structure, bytes(t)),
            )
            assert got == expected

    def test_divides_iff_meet_is_self(self):
        b5 = bkl_structure(5)
        simples = list(enumerate_simples(b5))
        for s, t in itertools.product(simples, repeat=2):
            assert left_divides(s, t) == (meet(s, t) == s)


class TestTranslations:
    def test_atom_examples(self):
        b3 = bkl_structure(3)
        assert format_word(bkl_to_artin(parse_word("a(2,1)", b3))) == "s1"
        assert format_word(bkl_to_artin(parse_word("a(3,1)", b3))) == "s2 s1 s2^-1"
        b4 = bkl_structure(4)
        w = bkl_to_artin(parse_word("a(4,1)", b4))
        assert format_word(w) == "s3 s2 s1 s2^-1 s3^-1"
        assert len(w) == 5 == 2 * 3 - 1

    def test_translation_length_bound(self):
        for n in (3, 5, 8):
            structure = bkl_structure(n)
            for a in range(structure.atom_count):
                t, s = kernels.bkl_atom_pair(a)
                w = bkl_to_artin(structure.word([(a, 1)]))
                assert len(w) <= 2 * (t - s) - 1

    def test_artin_atom_mapping(self):
        b3 = artin_structure(3)
        assert format_word(artin_to_bkl(parse_word("s1", b3))) == "a(2,1)"
        assert format_word(artin_to_bkl(parse_word("s2^-1", b3))) == "a(3,2)^-1"

    def test_round_trip_equality(self, rng):
        for n in (3, 4, 5):
            artin = artin_structure(n)
            for _ in range(60):
                w = random_word(rng, artin, 15)
                back = bkl_to_artin(artin_to_bkl(w))
                assert equals(back, w)

    def test_translation_respects_group_element(self, rng):
        # Equal band words map to equal Artin elements.
        bkl = bkl_structure(4)
        for _ in range(40):
            w1 = random_word(rng, bkl, 10)
            insert = rng.randrange(bkl.atom_count)
            i = rng.randrange(0, len(w1.letters) + 1)
            w2 = bkl.word(
                w1.letters[:i] + ((insert, 1), (insert, -1)) + w1.letters[i:]
            )
            assert equals(w1, w2)
            assert equals(bkl_to_artin(w1), bkl_to_artin(w2))

    def test_simple_words_translate_to_permutation_braids(self):
        # A simple's band word maps to an Artin word with the same permutation.
        structure = bkl_structure(4)
        for s in enumerate_simples(structure):
            band = s.atom_word()
            assert positive_length(band) == s.atom_length()
            translated = bkl_to_artin(band)
            k, factors = translated.raw_nf()
            perm = kernels.identity_perm(4)
            for a, sign in band.letters:
                assert sign == 1
                perm = kernels.compose(perm, kernels.atom_perm(1, 4, a))
            assert perm == s.data


class TestRelationsLengthPreserving:
    def test_syntactic_letter_counts(self):
        # Triple relations and guarded commutations exchange 2-letter words.
        n = 5
        for t, s, r in itertools.combinations(range(n, 0, -1), 3):
            assert t > s > r
            forms = [
                [(t, s), (s, r)],
                [(t, r), (t, s)],
                [(s, r), (t, r)],
            ]
            assert len({len(f) for f in forms}) == 1
        count = 0
        for (t, s), (r, q) in itertools.combinations(
            itertools.combinations(range(1, n + 1), 2), 2
        ):
            if (t - r) * (t - q) * (s - r) * (s - q) > 0:
                count += 1
                assert len([(t, s), (r, q)]) == len([(r, q), (t, s)])
        assert count > 0

    def test_word_builder(self):
        w = bkl_word(3, [(3, 1, 1), (2, 1, -1)])
        assert format_word(w) == "a(3,1) a(2,1)^-1"
        with pytest.raises(ValueError):
            bkl_word(3, [(1, 3, 1)])
