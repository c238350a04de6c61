"""Tests of the benchmark's own checker and of its result contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They use whichever kernel backend the package finds.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import garsidekit as gk  # noqa: E402

import burau  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402
import workloads  # noqa: E402


def s(i, e=1):
    return [(i - 1, e)]


def test_artin_relations_hold():
    check = burau.Burau(6)
    for i in range(1, 5):
        assert check.equal(s(i) + s(i + 1) + s(i), s(i + 1) + s(i) + s(i + 1))
        assert check.equal(s(i) + s(i, -1), [])
        for j in range(i + 2, 6):
            assert check.equal(s(i) + s(j), s(j) + s(i))


def test_band_relations_hold():
    check = burau.Burau(6)
    a = burau.band_letters
    for t in range(3, 7):
        for m in range(2, t):
            for r in range(1, m):
                # a(t,m) a(m,r) = a(t,r) a(t,m) = a(m,r) a(t,r)
                left = a(t, m) + a(m, r)
                assert check.equal(left, a(t, r) + a(t, m))
                assert check.equal(left, a(m, r) + a(t, r))
    assert check.equal(a(6, 5) + a(2, 1), a(2, 1) + a(6, 5))
    assert check.equal(a(6, 1) + a(4, 2), a(4, 2) + a(6, 1))
    assert check.equal(a(4, 2) + a(4, 2, -1), [])


def test_distinct_braids_differ():
    check = burau.Burau(4)
    assert not check.equal(s(1), s(2))
    assert not check.equal(s(1) + s(2), s(2) + s(1))
    assert not check.equal(s(1) + s(3, -1), s(3) + s(1, -1))
    assert not check.equal(burau.band_letters(3, 1), s(2) + s(1))


def test_band_letters_match_the_program_translation():
    b = gk.bkl_structure(5)
    for t in range(2, 6):
        for r in range(1, t):
            word = gk.parse_word(f"a({t},{r})^-1", b)
            assert list(gk.bkl_to_artin(word).letters) == burau.band_letters(t, r, -1)


def test_printed_rational_form_of_the_square_commutator():
    letters = burau.parse_text("s2 s2 s1^-1 s1^-1")
    neg, pos = burau.parse_rational_text("neg (s1 s2)(s2 s1) pos (s2 s1)(s1 s2)")
    check = burau.Burau(3)
    assert check.equal(burau.inverse(neg) + pos, letters)
    assert not check.equal(neg + pos, letters)


def test_sphere_sizes_of_artin_b3():
    sizes = burau.Burau(3).sphere_sizes(burau.signed_atoms("artin", 3), 10)
    assert sizes == [1, 4, 12, 30, 68, 148, 314, 656, 1356, 2782, 5676]


@pytest.fixture(scope="module")
def solve():
    return workloads.Solve(gk, seed=7)


def test_planted_assignment_is_accepted(solve):
    for index in (0, solve.PER_FAMILY):
        n, template, gens, p, target = solve.instances[index]
        planted = target if template == ("x1",) else target[: solve.N * len(gens[0])]
        report = workloads.Report()
        solve.check_assignment(index, gk.artin_structure(n).word(planted), report)
        assert not report.rejected, report.problems


def test_assignment_with_a_flipped_letter_is_rejected(solve):
    n, _, gens, _, target = solve.instances[0]
    flipped = list(target)
    flipped[3] = (flipped[3][0], -flipped[3][1])
    report = workloads.Report()
    solve.check_assignment(0, gk.artin_structure(n).word(flipped), report)
    assert report.rejected == {0}


def test_wrong_product_of_generators_is_rejected(solve):
    n, _, gens, _, target = solve.instances[0]
    gl = len(gens[0])
    pieces = [target[i : i + gl] for i in range(0, len(target), gl)]
    swapped = pieces[1] + pieces[0] + pieces[2] + pieces[3]
    assert swapped != target
    report = workloads.Report()
    solve.check_assignment(0, gk.artin_structure(n).word(swapped), report)
    assert report.rejected == {0}
    assert "Burau" in report.problems[0]


def test_sphere_count_off_by_one_is_rejected():
    oracle = workloads.Oracle(gk, seed=3)
    ball = gk.enumerate_ball(gk.artin_structure(3), 10)
    report = workloads.Report()
    oracle.check_ball(0, ball, report)
    assert not report.rejected, report.problems
    outer = next(key for key, d in ball.table.items() if d == 10)
    del ball.table[outer]
    oracle.check_ball(0, ball, report)
    assert report.rejected == {0}


def test_cor_check_matches_the_program_and_a_hand_computed_case():
    rank = workloads.Rank(gk, seed=1)
    check = burau.Burau(16)
    cfg = gk.ExperimentConfig(
        ns=16, wl=4, ng=32, sl=16, samples=1, metric=gk.LengthMetric.RATIONAL_BKL, seed=5
    )
    sample = gk.gen_sample(cfg, 0)
    assert rank.expected_cor(sample, check) == set(gk.compute_cor(sample))
    # s3 commutes with s1, so it may stand first in s1 s3 s2 ...; s2 may not.
    b16 = gk.artin_structure(16)
    gens = [b16.word([(a, 1)]) for a in [0, 2, 1] + [4] * 29]
    sentence = b16.word([letter for g in gens[:16] for letter in g.letters])
    sample = gk.ExperimentSample(tuple(gens), sentence)
    expected = rank.expected_cor(sample, check)
    assert {1, 2} <= expected and 3 not in expected
    assert expected == set(gk.compute_cor(sample))
    gens[2] = b16.word([(1, 1), (1, 1)])
    assert rank.expected_cor(gk.ExperimentSample(tuple(gens), sentence), check) is None


def _names(specs):
    return [spec["name"] for spec in specs]


def test_result_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    phase = workload.Phase([0.01, 0.02], 1, [], True)
    assert list(workload.end_to_end(phase, 0.5, 30.0)) == _names(spec["end_to_end"])
    layer = workload.per_layer(tracing.Tracer(), phase, phase, {})
    assert list(layer) == _names(spec["per_layer"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (_, unit) in {**workload.end_to_end(phase, 0.5, 30.0), **layer}.items():
        assert units[name] == unit, name
