"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
expensive artifacts (BFS balls, the paired experiment, the solver batch)
are module-scoped fixtures shared between criteria.
"""

import dataclasses
import itertools
import random

import pytest

import brute
from garsidekit import kernels
from garsidekit.artin import artin_structure
from garsidekit.bkl import bkl_structure
from garsidekit.core import (
    BraidWord,
    enumerate_simples,
    equals,
    greedy_nf,
    rational_nf,
    recompose,
    simple_closure,
)
from garsidekit.experiments import WINDOW, ExperimentConfig, child_rng, compare_metrics, write_csv
from garsidekit.lengths import (
    LengthMetric,
    alpha,
    bounds_report,
    greedy_length,
    rational_length,
)
from garsidekit.oracle import enumerate_ball
from garsidekit.solver import (
    EquationSpec,
    SolverConfig,
    evaluation_bound,
    memory_length_search,
    verify_candidates,
)
from garsidekit.syntax import format_rational, parse_word

SEED = 0x6A25

ALL_STRUCTURES = [(make, n) for make in (artin_structure, bkl_structure) for n in range(3, 9)]


def _random_words(structure, count, max_len, rng):
    for _ in range(count):
        length = rng.randrange(0, max_len + 1)
        yield BraidWord(
            structure,
            tuple(
                (rng.randrange(structure.atom_count), rng.choice((1, -1)))
                for _ in range(length)
            ),
        )


# ---------------------------------------------------------------------------
# Shared expensive artifacts


@pytest.fixture(scope="module")
def artin3_ball():
    return enumerate_ball(artin_structure(3), 10)


@pytest.fixture(scope="module")
def artin4_ball():
    return enumerate_ball(artin_structure(4), 7)


@pytest.fixture(scope="module")
def bkl3_ball():
    return enumerate_ball(bkl_structure(3), 8)


@pytest.fixture(scope="module")
def oracle_corpus(artin3_ball, artin4_ball):
    """500 random words per group with exact geodesic lengths attached."""
    corpus = {}
    for ball, radius, n in ((artin3_ball, 10, 3), (artin4_ball, 7, 4)):
        structure = artin_structure(n)
        rng = random.Random(SEED + n)
        words = []
        for w in _random_words(structure, 500, radius, rng):
            dist = ball.lookup(w)
            assert dist is not None  # letter count bounds the geodesic
            words.append((w, dist))
        corpus[n] = words
    return corpus


def _solver_batch():
    """100 planted membership instances; returns per-instance CSV rows."""
    structure = artin_structure(8)
    cfg = SolverConfig(n=4, memory=64, metric=LengthMetric.RATIONAL_BKL)
    bound = evaluation_bound(4, 8, 64)
    rows = ["instance,success,evaluations,best_score"]
    successes = 0
    for i in range(100):
        rng = child_rng(SEED, "plant", i)
        gens = [
            structure.word(
                [(rng.randrange(7), rng.choice((1, -1))) for _ in range(8)]
            )
            for _ in range(8)
        ]
        moves = []
        while len(moves) < 4:
            mv = (rng.randrange(1, 9), rng.choice((1, -1)))
            if moves and moves[-1][0] == mv[0] and moves[-1][1] == -mv[1]:
                continue
            moves.append(mv)
        planted = structure.word()
        for j, sign in moves:
            g = gens[j - 1]
            planted = planted * (g if sign > 0 else g.inverse())
        eq = EquationSpec((("x1", 1),), {"x1": tuple(gens)}, {}, planted)
        outcome = memory_length_search(planted, gens, cfg)
        assert outcome.length_evaluations <= bound
        found = verify_candidates(outcome.sequences, eq)
        if found is not None:
            assert equals(found["x1"], planted)  # no false positives
            successes += 1
        rows.append(
            f"{i},{int(found is not None)},{outcome.length_evaluations},"
            f"{outcome.sequences[0].score}"
        )
    return rows, successes


@pytest.fixture(scope="module")
def solver_batch():
    return _solver_batch()


def _paired_experiment(wl, workers=1):
    cfg_b = ExperimentConfig(
        ns=16, wl=wl, ng=32, sl=16, samples=200,
        metric=LengthMetric.RATIONAL_BKL, seed=SEED,
    )
    cfg_a = dataclasses.replace(cfg_b, metric=LengthMetric.RATIONAL_ARTIN)
    return compare_metrics(cfg_a, cfg_b, workers=workers)


@pytest.fixture(scope="module")
def experiment_runs():
    return {wl: _paired_experiment(wl) for wl in (4, 8, 16)}


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_1_normal_form_soundness():
    """10,000 random mixed-sign words: round trip + form invariants."""
    rng = random.Random(SEED)
    per_case = 10_000 // len(ALL_STRUCTURES)
    extra = 10_000 - per_case * len(ALL_STRUCTURES)
    checked = 0
    for case_idx, (make, n) in enumerate(ALL_STRUCTURES):
        structure = make(n)
        code = structure.kind_code
        idp = kernels.identity_perm(n)
        dp = kernels.delta_perm(code, n)
        count = per_case + (1 if case_idx < extra else 0)
        for w in _random_words(structure, count, 60, rng):
            k, factors = w.raw_nf()
            for f in factors:
                assert f != idp and f != dp
            for a, b in zip(factors, factors[1:]):
                assert kernels.is_left_weighted(code, a, b)
            nf = greedy_nf(w)
            assert equals(recompose(nf), w)
            rational = rational_nf(nf)
            for part in (rational.neg_factors, rational.pos_factors):
                for a, b in zip(part, part[1:]):
                    assert kernels.is_left_weighted(code, a.data, b.data)
            if rational.neg_factors and rational.pos_factors:
                head = kernels.meet(
                    code, rational.neg_factors[0].data, rational.pos_factors[0].data
                )
                assert head == idp
            checked += 1
    assert checked == 10_000
    print(f"\nACCEPTANCE 1 PASS: {checked} words round-trip with valid forms")


def test_criterion_2_lattice_oracle_equivalence():
    """meet/join/left-divides equal brute force at Artin<=4, BKL<=5."""
    pairs_checked = 0
    for kind, sizes in ((0, (2, 3, 4)), (1, (2, 3, 4, 5))):
        for n in sizes:
            simples = brute.all_simples(kind, n)
            for s, t in itertools.product(simples, repeat=2):
                bs, bt = bytes(s), bytes(t)
                assert kernels.left_divides(kind, bs, bt) == brute.divides(kind, s, t)
                assert kernels.meet(kind, bs, bt) == bytes(brute.brute_meet(kind, s, t))
                assert kernels.join(kind, bs, bt) == bytes(brute.brute_join(kind, s, t))
                pairs_checked += 1
    print(f"\nACCEPTANCE 2 PASS: {pairs_checked} simple pairs match brute force exactly")


def test_criterion_3_bkl_simple_model():
    """Closure sizes are the Catalan numbers and match non-crossing sets."""
    catalan = {2: 2, 3: 5, 4: 14, 5: 42, 6: 132}
    for n, expected in catalan.items():
        structure = bkl_structure(n)
        closure = simple_closure(structure)
        assert len(closure) == expected
        assert closure == frozenset(enumerate_simples(structure))
    print("\nACCEPTANCE 3 PASS: band closures are Catalan(2..6) = 2,5,14,42,132")


def test_criterion_4_bkl_b3_geodesy(bkl3_ball):
    """Rational band length is the exact geodesic on the radius-8 ball."""
    structure = bkl_structure(3)
    code, n = structure.kind_code, structure.strand_count
    for (k, f), dist in bkl3_ball.raw_items():
        _, rational = kernels.nf_lengths(code, n, k, f)
        assert rational == dist
    print(
        f"\nACCEPTANCE 4 PASS: rational length = geodesic on all "
        f"{len(bkl3_ball)} elements of the radius-8 band ball of B_3"
    )


def test_criterion_5_basic_length_bounds(oracle_corpus):
    """Sandwich bounds with oracle lengths; greedy tightness witness."""
    for n, words in oracle_corpus.items():
        ld = artin_structure(n).delta_atom_length
        for w, dist in words:
            lr = rational_length(w)
            lg = greedy_length(w)
            assert dist <= lr <= lg <= (2 * ld - 1) * dist
            assert lr <= (ld - 1) * dist
    b3 = artin_structure(3)
    for m in range(1, 6):
        w = parse_word(" ".join(["s1^-1"] * m), b3)
        assert greedy_length(w) == 5 * m
    print(
        "\nACCEPTANCE 5 PASS: bounds hold on 1000 oracle words; "
        "greedy tightness l_G(s1^-m) = 5m for m=1..5"
    )


def test_criterion_6_square_commutator_example(artin3_ball):
    """The B_3 rational form of s2^2 s1^-2, its length 8, exact length 4."""
    b3 = artin_structure(3)
    w = parse_word("s2 s2 s1^-1 s1^-1", b3)
    nf = rational_nf(greedy_nf(w))
    assert format_rational(nf) == "neg (s1 s2)(s2 s1) pos (s2 s1)(s1 s2)"
    assert [f.canonical for f in nf.neg_factors] == [(3, 1, 2), (2, 3, 1)]
    assert [f.canonical for f in nf.pos_factors] == [(2, 3, 1), (3, 1, 2)]
    assert rational_length(w) == 8
    assert artin3_ball.lookup(w) == 4
    print("\nACCEPTANCE 6 PASS: square-commutator form (s1 s2)(s2 s1)|(s2 s1)(s1 s2), l_R=8, l=4")


def test_criterion_7_cross_bounds(oracle_corpus):
    """Symmetrized band-estimator bounds; alpha within 2N-3."""
    ratios = []
    for n, words in oracle_corpus.items():
        a = alpha(n)
        for w, dist in words:
            report = bounds_report(w, oracle_len=dist)
            assert report.violations == ()
            assert dist <= a * report.ell_R_cross
            assert report.ell_R_cross <= (n - 2) * dist
            if dist:
                ratios.append(report.ell_R_cross / dist)
    for n in range(2, 9):
        assert alpha(n) <= max(2 * n - 3, 1)
    # The estimator-to-exact ratio distribution is reported, not asserted.
    ratios.sort()
    print(
        f"\nACCEPTANCE 7 PASS: cross bounds hold on the oracle corpus; "
        f"alpha(2..8) within 2N-3 "
        f"(estimator/exact ratio min {ratios[0]:.2f}, "
        f"median {ratios[len(ratios) // 2]:.2f}, max {ratios[-1]:.2f})"
    )


def test_criterion_8_solver_correctness(solver_batch):
    """100 planted membership instances, verified solutions, eval budget."""
    rows, successes = solver_batch
    assert len(rows) == 101
    print(
        f"\nACCEPTANCE 8 PASS: {successes}/100 instances solved, all verified "
        f"exactly; every run within {evaluation_bound(4, 8, 64)} length evaluations "
        f"(success rate reported, no threshold claimed)"
    )


def test_criterion_9_experiment_dominance(experiment_runs):
    """Band metric dominates on the paired run; WL sweep is monotone."""
    report = experiment_runs[8]
    frac = report.fraction_nonneg()
    area = report.area()
    assert frac >= 0.9, frac
    assert area > 0, area
    for metric_key in ("result_a", "result_b"):
        curve = [
            sum(getattr(experiment_runs[wl], metric_key).histogram[:3]) / 200
            for wl in (4, 8, 16)
        ]
        assert curve == sorted(curve), (metric_key, curve)
    print(
        f"\nACCEPTANCE 9 PASS: rational band curve >= rational Artin at "
        f"{frac:.0%} of the first {WINDOW} positions (area {area:+.3f}); "
        f"P(position<=3) nondecreasing in WL for both metrics"
    )


def test_criterion_10_determinism(tmp_path, solver_batch, experiment_runs):
    """Same seeds give bit-identical CSVs, sequentially and in parallel."""
    first = tmp_path / "exp_first.csv"
    again = tmp_path / "exp_again.csv"
    pooled = tmp_path / "exp_pooled.csv"
    write_csv(experiment_runs[8].result_b, str(first))
    write_csv(_paired_experiment(8).result_b, str(again))
    write_csv(_paired_experiment(8, workers=4).result_b, str(pooled))
    assert first.read_bytes() == again.read_bytes() == pooled.read_bytes()

    rows_first, _ = solver_batch
    rows_again, _ = _solver_batch()
    solver_first = tmp_path / "solver_first.csv"
    solver_again = tmp_path / "solver_again.csv"
    solver_first.write_text("\n".join(rows_first) + "\n")
    solver_again.write_text("\n".join(rows_again) + "\n")
    assert solver_first.read_bytes() == solver_again.read_bytes()
    print("\nACCEPTANCE 10 PASS: repeated and parallel runs emit bit-identical CSVs")
