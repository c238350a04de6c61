"""Experiment harness: sampling contracts, ranking, determinism, outputs."""

import collections
import dataclasses
import math

import pytest

from garsidekit import kernels
from garsidekit.artin import artin_structure
from garsidekit.bkl import bkl_structure
from garsidekit.core import equals
from garsidekit.errors import StructureMismatch
from garsidekit.experiments import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentSample,
    _sample_positions,
    best_cor_position,
    child_rng,
    compare_metrics,
    compute_cor,
    gen_sample,
    rank_generators,
    ranked_positions,
    run_experiment,
    sentence_indices,
    write_csv,
    write_svg,
)
from garsidekit.lengths import LengthMetric, metric_length
from garsidekit.solver import SolverConfig, memory_length_search
from garsidekit.syntax import parse_word


def tiny_config(**overrides):
    base = dict(
        ns=4,
        wl=3,
        ng=3,
        sl=2,
        samples=12,
        metric=LengthMetric.RATIONAL_BKL,
        seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestGenSample:
    def test_generator_letter_counts(self):
        cfg = tiny_config()
        sample = gen_sample(cfg, 0)
        assert len(sample.generators) == cfg.ng
        for g in sample.generators:
            assert len(g.letters) == cfg.wl

    def test_sentence_is_generator_product(self):
        cfg = tiny_config(sl=3)
        sample = gen_sample(cfg, 1)
        expected = sample.generators[0]
        for g in sample.generators[1:3]:
            expected = expected * g
        assert sample.sentence.letters == expected.letters

    def test_modular_indices(self):
        assert sentence_indices(5, 3) == (1, 2, 3, 1, 2)
        assert sentence_indices(2, 5) == (1, 2)

    def test_deterministic(self):
        cfg = tiny_config()
        assert gen_sample(cfg, 4) == gen_sample(cfg, 4)
        assert gen_sample(cfg, 4) != gen_sample(cfg, 5)

    def test_sentence_longer_than_generator_list(self):
        cfg = tiny_config(sl=5, ng=3)
        sample = gen_sample(cfg, 0)
        indices = sentence_indices(5, 3)
        expected = sample.generators[indices[0] - 1]
        for i in indices[1:]:
            expected = expected * sample.generators[i - 1]
        assert sample.sentence.letters == expected.letters


class TestComputeCor:
    def test_index_one_always_in(self):
        cfg = tiny_config()
        for index in range(6):
            sample = gen_sample(cfg, index)
            assert 1 in compute_cor(sample)

    def test_disjoint_strands_commute(self):
        b4 = artin_structure(4)
        a1 = parse_word("s1 s1", b4)
        a2 = parse_word("s3 s3", b4)
        sample = ExperimentSample((a1, a2), a1 * a2)
        assert compute_cor(sample) >= {1, 2}

    def test_generic_noncommuting(self):
        b3 = artin_structure(3)
        a1 = parse_word("s1", b3)
        a2 = parse_word("s2", b3)
        sample = ExperimentSample((a1, a2), a1 * a2)
        assert compute_cor(sample) == {1}

    def test_matches_naive_equality(self):
        for sl in (2, 4, 5):
            self._check_naive_equality(tiny_config(sl=sl, ng=3, wl=2))

    def _check_naive_equality(self, cfg):
        for index in range(5):
            sample = gen_sample(cfg, index)
            indices = sentence_indices(cfg.sl, cfg.ng)
            naive = set()
            for i in range(1, cfg.ng + 1):
                if i in indices:
                    pos = indices.index(i)
                    rest = sample.sentence.structure.word()
                    for j, gi in enumerate(indices):
                        if j != pos:
                            rest = rest * sample.generators[gi - 1]
                    candidate = sample.generators[i - 1] * rest
                else:
                    candidate = sample.generators[i - 1] * sample.sentence
                if equals(candidate, sample.sentence):
                    naive.add(i)
            assert compute_cor(sample) == naive

    def test_malformed_sentence_raises(self):
        cfg = tiny_config(sl=3, wl=3)
        sample = gen_sample(cfg, 0)
        a1, a2, a3 = sample.generators
        assert a1.letters != a2.letters
        rng = child_rng(cfg.seed, "rank", 0)
        for sentence in (a2 * a1 * a3, a1 * a2 * a3.inverse(), a1 * a2 * a3 * a3):
            bad = ExperimentSample(sample.generators, sentence)
            with pytest.raises(ValueError):
                compute_cor(bad)
            with pytest.raises(ValueError):
                rank_generators(bad, cfg.metric, rng)

    def test_generators_of_another_structure_raise(self):
        # Band B_4 generators whose letters also spell Artin B_4 words: the
        # Artin sentence is their concatenation letter for letter.
        band, b4 = bkl_structure(4), artin_structure(4)
        gens = (band.word([(1, 1), (2, 1)]), band.word([(0, 1), (2, -1)]))
        sample = ExperimentSample(gens, b4.word(gens[0].letters + gens[1].letters))
        with pytest.raises(StructureMismatch):
            compute_cor(sample)
        for metric in (LengthMetric.RATIONAL_ARTIN, LengthMetric.RATIONAL_BKL):
            with pytest.raises(StructureMismatch):
                rank_generators(sample, metric, child_rng(0, "rank", 0))


class TestRanking:
    def test_two_signed_copies_occupy_both_positions(self):
        cfg = tiny_config(ng=1, sl=1)
        sample = gen_sample(cfg, 0)
        rng = child_rng(cfg.seed, "rank", 0)
        positions = rank_generators(sample, cfg.metric, rng)
        assert sorted(positions) == [1, 2]

    def test_scores_drive_order(self):
        for sl in (2, 5):
            self._check_scores_drive_order(tiny_config(ng=2, sl=sl, wl=4))

    def _check_scores_drive_order(self, cfg):
        sample = gen_sample(cfg, 3)
        rng = child_rng(cfg.seed, "rank", 3)
        positions = rank_generators(sample, cfg.metric, rng)
        # Position 2(j-1) belongs to a_j, scored by a_j^-1 X; position
        # 2(j-1) + 1 to a_j^-1, scored by a_j X.
        scores = []
        for g in sample.generators:
            for peel in (g.inverse(), g):
                scores.append(metric_length(peel * sample.sentence, cfg.metric))
        for a in range(len(scores)):
            for b in range(len(scores)):
                if scores[a] < scores[b]:
                    assert positions[a] < positions[b]

    def test_ranking_scores_are_the_beam_scores(self, monkeypatch):
        """A one-step beam wide enough to keep every move scores the peels
        that the ranking ranks, in one order: move (j, sign) at index
        2(j-1) + (sign < 0)."""
        cfg = tiny_config(ns=5, ng=4, sl=6, wl=4)
        sample = gen_sample(cfg, 2)
        ng = len(sample.generators)
        recorded = []
        peel_lengths = kernels.peel_lengths

        def recording(*args):
            scores = peel_lengths(*args)
            recorded.append(list(scores))
            return scores

        monkeypatch.setattr(kernels, "peel_lengths", recording)
        for metric in LengthMetric:
            recorded.clear()
            rank_generators(sample, metric, child_rng(cfg.seed, "rank", 2))
            (scores,) = recorded
            search_cfg = SolverConfig(n=1, memory=2 * ng, metric=metric)
            out = memory_length_search(sample.sentence, sample.generators, search_cfg)
            assert len(out.sequences) == 2 * ng
            for seq in out.sequences:
                ((j, sign),) = seq.moves
                assert scores[2 * (j - 1) + (sign < 0)] == seq.score, (metric, j, sign)

    def test_tie_shuffle_uniform_chi_square(self):
        # All-equal scores: item 0 should land uniformly across positions.
        slots = 6
        trials = 10_000
        counts = [0] * slots
        for t in range(trials):
            positions = ranked_positions([7] * slots, child_rng(5, "shuffle", t))
            counts[positions[0] - 1] += 1
        expected = trials / slots
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        # df=5; 20.5 is the 0.999 quantile, use a generous margin
        assert chi2 < 25, counts

    def test_best_cor_position_uses_positive_copies(self):
        positions = (5, 1, 2, 6)  # (1,+)=5 (1,-)=1 (2,+)=2 (2,-)=6
        assert best_cor_position(positions, {1, 2}) == 2
        assert best_cor_position(positions, {1}) == 5


class TestWorkPerSample:
    def test_each_generator_normalized_once_per_structure(self, monkeypatch):
        cfg = tiny_config(ns=5, ng=4, sl=6, wl=3)
        kinds = collections.Counter()
        word_to_nf = kernels.word_to_nf

        def counting(kind, n, letters):
            kinds[kind] += 1
            return word_to_nf(kind, n, letters)

        monkeypatch.setattr(kernels, "word_to_nf", counting)
        metrics = (LengthMetric.RATIONAL_ARTIN, LengthMetric.RATIONAL_BKL)
        for index in range(3):
            kinds.clear()
            _sample_positions(cfg, index, metrics)
            assert kinds == {kernels.KIND_ARTIN: cfg.ng, kernels.KIND_BKL: cfg.ng}

    def test_one_set_of_sentence_prefixes_per_alphabet(self, monkeypatch):
        """COR and the Artin ranking share the Artin prefixes: SL products
        per alphabet, plus one COR test per generator that occurs."""
        cfg = tiny_config(ns=5, ng=4, sl=6, wl=3)
        kinds = collections.Counter()
        multiply_nf = kernels.multiply_nf

        def counting(kind, *args):
            kinds[kind] += 1
            return multiply_nf(kind, *args)

        monkeypatch.setattr(kernels, "multiply_nf", counting)
        metrics = (LengthMetric.RATIONAL_ARTIN, LengthMetric.RATIONAL_BKL)
        for index in range(3):
            kinds.clear()
            _sample_positions(cfg, index, metrics)
            assert kinds == {kernels.KIND_ARTIN: cfg.sl + cfg.ng, kernels.KIND_BKL: cfg.sl}


class TestRunExperiment:
    def test_single_sample(self):
        cfg = tiny_config(samples=1)
        result = run_experiment(cfg)
        assert sum(result.histogram) == 1

    def test_cumulative_reaches_one(self):
        cfg = tiny_config()
        result = run_experiment(cfg)
        assert result.cumulative[-1] == 1.0
        assert all(a <= b for a, b in zip(result.cumulative, result.cumulative[1:]))

    def test_histogram_length(self):
        cfg = tiny_config()
        result = run_experiment(cfg)
        assert len(result.histogram) == 2 * cfg.ng

    def test_deterministic_and_schedule_independent(self):
        cfg = tiny_config()
        sequential = run_experiment(cfg)
        pooled = run_experiment(cfg, workers=3)
        assert sequential == pooled
        assert sequential == run_experiment(cfg)

    def test_json_round_trip(self):
        cfg = tiny_config()
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg


class TestCompareMetrics:
    def test_identical_metrics_zero_diffs(self):
        cfg = tiny_config()
        report = compare_metrics(cfg, cfg)
        assert all(d == 0 for d in report.diffs)
        assert report.fraction_nonneg() == 1.0
        assert report.area() == 0.0

    def test_rejects_mismatched_configs(self):
        cfg = tiny_config()
        other = dataclasses.replace(
            cfg, seed=cfg.seed + 1, metric=LengthMetric.RATIONAL_ARTIN
        )
        with pytest.raises(ValueError):
            compare_metrics(cfg, other)

    def test_shared_samples(self):
        cfg_b = tiny_config()
        cfg_a = dataclasses.replace(cfg_b, metric=LengthMetric.RATIONAL_ARTIN)
        report = compare_metrics(cfg_a, cfg_b)
        assert report.result_a == run_experiment(cfg_a)
        assert report.result_b == run_experiment(cfg_b)


class TestOutputs:
    def test_csv_golden_rows(self, tmp_path):
        result = ExperimentResult(histogram=(3, 1))
        path = tmp_path / "out.csv"
        write_csv(result, str(path))
        lines = path.read_text().splitlines()
        assert lines == [
            "position,count,probability,cumulative",
            "1,3,0.75,0.75",
            "2,1,0.25,1.0",
        ]

    def test_csv_row_count(self, tmp_path):
        cfg = tiny_config()
        result = run_experiment(cfg)
        path = tmp_path / "out.csv"
        write_csv(result, str(path))
        assert len(path.read_text().splitlines()) == 2 * cfg.ng + 1

    def test_csv_bytes_reproducible(self, tmp_path):
        cfg = tiny_config()
        paths = []
        for i, workers in enumerate((1, 2)):
            result = run_experiment(cfg, workers=workers)
            p = tmp_path / f"out{i}.csv"
            write_csv(result, str(p))
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_svg_polyline_per_metric(self, tmp_path):
        cfg_b = tiny_config()
        cfg_a = dataclasses.replace(cfg_b, metric=LengthMetric.RATIONAL_ARTIN)
        report = compare_metrics(cfg_a, cfg_b)
        path = tmp_path / "plot.svg"
        write_svg(
            [("rational-artin", report.result_a), ("rational-bkl", report.result_b)],
            str(path),
        )
        content = path.read_text()
        assert content.count("<polyline") == 2
        assert content.startswith("<svg")


class TestChildRng:
    def test_streams_independent_and_stable(self):
        a = child_rng(1, "sample", 0)
        b = child_rng(1, "sample", 1)
        c = child_rng(1, "rank", 0)
        values = [r.random() for r in (a, b, c)]
        assert len(set(values)) == 3
        assert child_rng(1, "sample", 0).random() == values[0]
