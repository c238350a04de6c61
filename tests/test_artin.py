"""Artin structure: construction, lengths, divisibility conventions."""

import itertools

import pytest

import brute
from garsidekit import kernels
from garsidekit.artin import artin_structure, artin_word
from garsidekit.core import (
    SimpleElement,
    enumerate_simples,
    left_divides,
    meet,
    quotient_simple,
)


class TestStructure:
    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            artin_structure(1)

    def test_b3_delta_length(self):
        assert artin_structure(3).delta_atom_length == 3

    def test_b2_degenerate(self):
        s = artin_structure(2)
        assert s.delta == s.atom_simple(0)
        assert s.tau_atom_table == (0,)

    def test_b4_tau_table(self):
        s = artin_structure(4)
        assert s.tau_atom_table == (2, 1, 0)

    def test_tau_table_matches_conjugation(self):
        for n in range(2, 7):
            s = artin_structure(n)
            code = s.kind_code
            for a in range(s.atom_count):
                conj = kernels.tau_simple(code, kernels.atom_perm(code, n, a), 1)
                assert conj == kernels.atom_perm(code, n, s.tau_atom_table[a])

    def test_delta_is_reversal(self):
        for n in (2, 3, 5):
            s = artin_structure(n)
            assert s.delta.one_line == tuple(range(n, 0, -1))
            assert s.delta_atom_length == n * (n - 1) // 2


class TestSimpleLength:
    def test_examples(self):
        b3 = artin_structure(3)
        assert b3.identity_simple.atom_length() == 0
        for n in (3, 4, 6):
            s = artin_structure(n)
            assert s.delta.atom_length() == n * (n - 1) // 2
        s12 = SimpleElement(b3, bytes([2, 0, 1]))
        assert s12.atom_length() == 2

    def test_additive_across_quotient(self):
        b4 = artin_structure(4)
        simples = list(enumerate_simples(b4))
        for s, t in itertools.product(simples, repeat=2):
            if left_divides(s, t):
                q = quotient_simple(s, t)
                assert s.atom_length() + q.atom_length() == t.atom_length()


class TestDivisibility:
    def test_atoms_divide_delta(self):
        for n in (2, 3, 4, 5):
            s = artin_structure(n)
            for atom in s.atoms():
                assert left_divides(atom, s.delta)

    def test_examples(self):
        b3 = artin_structure(3)
        s1 = b3.atom_simple(0)
        s1s2 = SimpleElement(b3, bytes([2, 0, 1]))
        s2s1 = SimpleElement(b3, bytes([1, 2, 0]))
        assert left_divides(s1, s1s2)
        assert not left_divides(s1, s2s1)

    def test_matches_generic_definition(self):
        """Inversion containment == existence of an additive complement."""
        for n in (2, 3, 4):
            structure = artin_structure(n)
            for s, t in itertools.product(brute.all_simples(0, n), repeat=2):
                expected = brute.divides(0, s, t)
                got = left_divides(
                    SimpleElement(structure, bytes(s)),
                    SimpleElement(structure, bytes(t)),
                )
                assert got == expected

    def test_divides_iff_meet_is_self(self):
        b4 = artin_structure(4)
        simples = list(enumerate_simples(b4))
        for s, t in itertools.product(simples, repeat=2):
            assert left_divides(s, t) == (meet(s, t) == s)


class TestRelationsLengthPreserving:
    def test_syntactic_letter_counts(self):
        # Both defining relations exchange equal-length positive words.
        for n in (3, 4, 5):
            for i in range(n - 2):
                assert len([(i, 1), (i + 1, 1), (i, 1)]) == len(
                    [(i + 1, 1), (i, 1), (i + 1, 1)]
                )
            for i, j in itertools.combinations(range(n - 1), 2):
                if abs(i - j) > 1:
                    assert len([(i, 1), (j, 1)]) == len([(j, 1), (i, 1)])

    def test_word_builder(self):
        w = artin_word(3, [(1, 1), (2, -1)])
        assert w.letters == ((0, 1), (1, -1))
        with pytest.raises(ValueError):
            artin_word(3, [(3, 1)])
