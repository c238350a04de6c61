"""Length functions: exact values, fast paths, and the sandwich bounds."""

import dataclasses
import pickle
import sys

import pytest

from conftest import random_word
from garsidekit import kernels
from garsidekit.artin import artin_structure
from garsidekit.bkl import bkl_structure
from garsidekit.core import greedy_nf, rational_nf
from garsidekit.errors import NegativeLetter, StructureMismatch
from garsidekit.lengths import (
    LengthMetric,
    alpha,
    bounds_report,
    cross_rational_bkl,
    greedy_length,
    metric_length,
    positive_length,
    rational_length,
    to_metric_structure,
)
from garsidekit.oracle import enumerate_ball, geodesic_length
from garsidekit.solver import SolverConfig, memory_length_search
from garsidekit.syntax import parse_word


@pytest.fixture
def b3():
    return artin_structure(3)


class TestPositiveLength:
    def test_examples(self, b3):
        assert positive_length(b3.word()) == 0
        assert positive_length(artin_structure(4).delta) == 6
        assert positive_length(bkl_structure(4).delta) == 3

    def test_negative_letter_rejected(self, b3):
        with pytest.raises(NegativeLetter):
            positive_length(parse_word("s1 s2^-1", b3))


class TestGreedyLength:
    def test_empty(self, b3):
        assert greedy_length(b3.word()) == 0

    def test_single_inverse_atom(self, b3):
        assert greedy_length(parse_word("s1^-1", b3)) == 5

    def test_tightness_witness(self, b3):
        # l_G of a^-m meets the worst-case factor 2*l(delta)-1 = 5.
        for m in range(1, 6):
            w = parse_word(" ".join(["s1^-1"] * m), b3)
            assert greedy_length(w) == 5 * m

    def test_positive_words(self, b3, rng):
        for _ in range(20):
            length = rng.randrange(0, 15)
            w = b3.word([(rng.randrange(2), 1) for _ in range(length)])
            assert greedy_length(w) == length == rational_length(w)


class TestRationalLength:
    def test_inverse_positive(self, b3):
        assert rational_length(parse_word("s1^-1", b3)) == 1

    def test_square_commutator_values(self, b3):
        assert rational_length(parse_word("s2 s2 s1^-1 s1^-1", b3)) == 8

    @pytest.mark.parametrize("make", [artin_structure, bkl_structure])
    def test_fast_path_equals_direct_sum(self, make, rng):
        # The delta-removal shortcut must equal summing the rational form.
        for n in (3, 4, 6):
            structure = make(n)
            for _ in range(334):
                w = random_word(rng, structure, 25)
                direct = rational_nf(greedy_nf(w)).atom_length()
                assert rational_length(w) == direct

    @pytest.mark.parametrize("make", [artin_structure, bkl_structure])
    def test_symmetric_under_inverse(self, make, rng):
        structure = make(4)
        for _ in range(80):
            w = random_word(rng, structure, 20)
            assert rational_length(w) == rational_length(w.inverse())


class TestCrossLength:
    def test_single_atom(self, b3):
        assert cross_rational_bkl(parse_word("s1", b3)) == 1
        assert cross_rational_bkl(parse_word("s2", b3)) == 1

    def test_bkl_delta_word(self, b3):
        # An Artin word for the band delta is a positive band element.
        from garsidekit.bkl import bkl_structure, bkl_to_artin

        delta_word = bkl_to_artin(bkl_structure(3).delta.atom_word())
        assert cross_rational_bkl(delta_word) == 2

    def test_requires_artin(self):
        with pytest.raises(StructureMismatch):
            cross_rational_bkl(bkl_structure(3).word())

    def test_metric_length_dispatch(self, b3):
        w = parse_word("s2 s2 s1^-1 s1^-1", b3)
        assert metric_length(w, LengthMetric.GREEDY_ARTIN) == 12
        assert metric_length(w, LengthMetric.RATIONAL_ARTIN) == 8
        assert metric_length(w, LengthMetric.RATIONAL_BKL) == 4
        band = parse_word("a(3,1)", bkl_structure(3))
        assert metric_length(band, LengthMetric.RATIONAL_BKL) == 1
        assert metric_length(band, LengthMetric.RATIONAL_ARTIN) == 3


class TestStoredTranslation:
    """A word normalizes at most once per alphabet, whatever it is measured by."""

    @staticmethod
    def four_lengths(w):
        return tuple(metric_length(w, m) for m in LengthMetric)

    @staticmethod
    def fresh_lengths(kit, w):
        out = []
        for m in LengthMetric:
            x = to_metric_structure(w, m)
            code, n = x.structure.kind_code, x.structure.strand_count
            out.append(kit.nf_lengths(code, n, *kit.word_to_nf(code, n, x.letters))[m.rational])
        return tuple(out)

    @pytest.fixture
    def calls(self, monkeypatch):
        """The (kind, n) of every ``word_to_nf`` call."""
        seen = []
        word_to_nf = kernels.word_to_nf

        def counting(*args):
            seen.append(args[:2])
            return word_to_nf(*args)

        monkeypatch.setattr(kernels, "word_to_nf", counting)
        return seen

    @pytest.mark.parametrize("make", [artin_structure, bkl_structure])
    def test_four_lengths_normalize_twice(self, make, rng, calls):
        w = random_word(rng, make(4), 20)
        first = self.four_lengths(w)
        assert sorted(calls) == [(kernels.KIND_ARTIN, 4), (kernels.KIND_BKL, 4)]
        assert self.four_lengths(w) == first
        assert len(calls) == 2

    def test_cross_readers_share_the_stored_form(self, rng, calls):
        w = random_word(rng, artin_structure(4), 20)
        report = bounds_report(w)
        assert cross_rational_bkl(w) == report.ell_R_cross
        assert report.ell_R_cross == metric_length(w, LengthMetric.RATIONAL_BKL)
        assert self.four_lengths(w)[0] == report.ell_G
        assert len(calls) == 2

    @pytest.mark.parametrize("make", [artin_structure, bkl_structure])
    def test_stored_form_leaves_equality_hash_and_repr(self, make, rng):
        w = random_word(rng, make(4), 12)
        fresh = make(4).word(w.letters)
        self.four_lengths(w)
        assert w == fresh and fresh == w
        assert hash(w) == hash(fresh)
        assert repr(w) == repr(fresh)

    @pytest.mark.parametrize("make", [artin_structure, bkl_structure])
    def test_pickle_and_replace_keep_correct_lengths(self, make, rng):
        structure = make(4)
        for _ in range(10):
            w = random_word(rng, structure, 12)
            lengths = self.four_lengths(w)
            clone = pickle.loads(pickle.dumps(w))
            assert self.four_lengths(clone) == lengths
            other = random_word(rng, structure, 12)
            moved = dataclasses.replace(w, letters=other.letters)
            assert self.four_lengths(moved) == self.four_lengths(structure.word(other.letters))

    @pytest.mark.parametrize("make", [artin_structure, bkl_structure])
    def test_matches_a_fresh_translation(self, make, kit, rng, monkeypatch):
        monkeypatch.setattr(kernels, "word_to_nf", kit.word_to_nf)
        monkeypatch.setattr(kernels, "nf_lengths", kit.nf_lengths)
        for n in (3, 5):
            for _ in range(30):
                w = random_word(rng, make(n), 25)
                assert self.four_lengths(w) == self.fresh_lengths(kit, w)


class TestOneEntryPoint:
    """Every length is read by ``metric_length``, and a word's form in the
    metric's alphabet is built once, whichever module asks for it."""

    @staticmethod
    def count_calls(monkeypatch, fn, seen):
        """Record the arguments of every call of ``fn`` in every package
        module that holds it, the kernel twins aside."""

        def counting(*args):
            seen.append(args)
            return fn(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("garsidekit") and name not in (
                "garsidekit.kernels._pure", "garsidekit.kernels._speed"
            ):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counting)

    def test_only_metric_length_reads_lengths(self, rng, monkeypatch):
        lengths, nf_lengths = [], []
        self.count_calls(monkeypatch, metric_length, lengths)
        self.count_calls(monkeypatch, kernels.nf_lengths, nf_lengths)
        gens = [parse_word("s1 s2", artin_structure(3))]
        for make in (artin_structure, bkl_structure):
            for _ in range(5):
                w = random_word(rng, make(3), 8)
                geodesic_length(w)
                greedy_length(w)
                rational_length(w)
        for _ in range(5):
            w = random_word(rng, artin_structure(3), 8)
            for metric in LengthMetric:
                memory_length_search(w, gens, SolverConfig(0, 4, metric))
            bounds_report(w)
        # Three lengths of each of ten words, then four n = 0 searches and
        # a three-length report for each of five more.
        assert len(lengths) == len(nf_lengths) == 3 * 10 + 4 * 5 + 3 * 5

    def test_searches_share_the_band_forms_of_their_generators(self, rng, monkeypatch):
        band = []
        word_to_nf = kernels.word_to_nf

        def counting(code, n, letters):
            if code == kernels.KIND_BKL:
                band.append(letters)
            return word_to_nf(code, n, letters)

        monkeypatch.setattr(kernels, "word_to_nf", counting)
        structure = artin_structure(4)
        gens = [random_word(rng, structure, 6) for _ in range(4)]
        cfg = SolverConfig(2, 8, LengthMetric.RATIONAL_BKL)
        targets = [gens[0] * gens[1], gens[2] * gens[3].inverse()]
        for c in targets:
            memory_length_search(c, gens, cfg)
        assert sorted(band) == sorted(
            to_metric_structure(w, cfg.metric).letters for w in gens + targets
        )


class TestAlpha:
    def test_values(self):
        assert alpha(2) == 1
        assert alpha(3) == 3

    def test_bound(self):
        for n in range(2, 9):
            assert alpha(n) <= 2 * n - 3 or n == 2


class TestBoundsReport:
    def test_positive_collapse(self, b3):
        w = parse_word("s1 s2 s2 s1", b3)
        report = bounds_report(w, oracle_len=4)
        assert report.ell_G == report.ell_R == 4
        assert report.violations == ()

    def test_worked_example(self, b3):
        w = parse_word("s2 s2 s1^-1 s1^-1", b3)
        report = bounds_report(w, oracle_len=4)
        assert report.ell_R == 8 == (b3.delta_atom_length - 1) * 4
        assert report.violations == ()

    def test_random_with_oracle(self, rng):
        structure = artin_structure(3)
        ball = enumerate_ball(structure, 8)
        for _ in range(150):
            w = random_word(rng, structure, 8)
            dist = ball.lookup(w)
            assert dist is not None
            report = bounds_report(w, oracle_len=dist)
            assert report.violations == (), (w, report)

    @pytest.mark.parametrize("n,radius", [(3, 10), (4, 7)])
    def test_sandwich_on_full_ball(self, n, radius):
        # Every element of the guarded ball satisfies the basic sandwich.
        from garsidekit import kernels

        structure = artin_structure(n)
        ld = structure.delta_atom_length
        ball = enumerate_ball(structure, radius)
        for (k, f), dist in ball.raw_items():
            greedy, rational = kernels.nf_lengths(structure.kind_code, n, k, f)
            assert dist <= rational <= greedy <= (2 * ld - 1) * dist
            assert rational <= (ld - 1) * dist
