"""Memory-length search: scoring, determinism, verification, equations."""

import collections
import itertools
import random

import pytest

from conftest import random_word
from garsidekit import kernels, solver
from garsidekit.artin import artin_structure
from garsidekit.bkl import bkl_structure
from garsidekit.core import equals
from garsidekit.errors import NoSolutionFound
from garsidekit.lengths import LengthMetric, metric_length
from garsidekit.solver import (
    EquationSpec,
    ScoredSequence,
    SearchOutcome,
    SearchTimeout,
    SolverConfig,
    evaluation_bound,
    memory_length_search,
    moves_to_word,
    solve_equation,
    solve_with_length_range,
    substitute,
    verify_candidates,
)
from garsidekit.syntax import parse_word


@pytest.fixture
def b3():
    return artin_structure(3)


@pytest.fixture
def squares(b3):
    return parse_word("s1 s1", b3), parse_word("s2 s2", b3)


def config(n, memory, metric=LengthMetric.RATIONAL_ARTIN, **kw):
    return SolverConfig(n=n, memory=memory, metric=metric, **kw)


def reference_search(c, gens, cfg):
    """The beam built word by word: each candidate ``g_j ** -sign * current``
    is scored by ``metric_length``, with no batched kernel and no memo."""
    beam = [(0, (), c)]
    evaluations = 0
    for _ in range(cfg.n):
        extensions = []
        for _score, moves, current in beam:
            for j, g in enumerate(gens, start=1):
                for sign in (1, -1):
                    candidate = g**-sign * current
                    evaluations += 1
                    score = metric_length(candidate, cfg.metric)
                    extensions.append((score, moves + ((j, sign),), candidate))
        extensions.sort(key=lambda entry: entry[0])
        beam = extensions[: cfg.memory]
    sequences = tuple(ScoredSequence(moves, score) for score, moves, _word in beam)
    return SearchOutcome(sequences, evaluations)


class TestMemoryLengthSearch:
    def test_n_zero(self, b3, squares):
        c = parse_word("s1 s2", b3)
        out = memory_length_search(c, list(squares), config(0, 4))
        assert len(out.sequences) == 1
        assert out.sequences[0].moves == ()
        assert out.sequences[0].score == metric_length(c, LengthMetric.RATIONAL_ARTIN)
        assert out.length_evaluations == 0

    def test_planted_product_found(self, b3, squares):
        a1, a2 = squares
        c = a1 * a2
        out = memory_length_search(c, [a1, a2], config(2, 4))
        zero = [s for s in out.sequences if s.score == 0]
        assert zero and zero[0].moves == ((1, 1), (2, 1))
        # brute force over all 16 move pairs: that solution is unique
        count = 0
        for m1, m2 in itertools.product(
            [(j, e) for j in (1, 2) for e in (1, -1)], repeat=2
        ):
            w = moves_to_word([m1, m2], [a1, a2])
            if equals(w, c):
                count += 1
                assert (m1, m2) == ((1, 1), (2, 1))
        assert count == 1

    def test_full_width_beam_is_exhaustive(self, b3, squares):
        a1, a2 = squares
        c = a2 * a1.inverse()
        out = memory_length_search(c, [a1, a2], config(2, 16))
        assert len(out.sequences) == 16
        assert any(s.score == 0 and s.moves == ((2, 1), (1, -1)) for s in out.sequences)

    def test_deterministic(self, b3, squares):
        a1, a2 = squares
        c = a1 * a2 * a1
        runs = [
            memory_length_search(c, [a1, a2], config(3, 5)) for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_beam_monotone_in_memory(self, b3, squares):
        a1, a2 = squares
        c = a1 * a2
        small = memory_length_search(c, [a1, a2], config(2, 2))
        large = memory_length_search(c, [a1, a2], config(2, 8))
        small_zero = {s.moves for s in small.sequences if s.score == 0}
        large_zero = {s.moves for s in large.sequences if s.score == 0}
        assert small_zero <= large_zero

    def test_evaluation_count_and_bound(self, b3, squares):
        a1, a2 = squares
        m = 2
        for n, memory in ((1, 4), (2, 4), (3, 2), (4, 8)):
            cfg = config(n, memory)
            out = memory_length_search(a1 * a2, [a1, a2], cfg)
            widths = [min(memory, (2 * m) ** s) for s in range(1, n)]
            expected = 2 * m + sum(2 * m * w for w in widths)
            assert out.length_evaluations == expected
            assert out.length_evaluations <= evaluation_bound(n, m, memory)

    def test_sorted_by_score_then_insertion(self, b3, squares):
        a1, a2 = squares
        out = memory_length_search(a1 * a2, [a1, a2], config(2, 16))
        scores = [s.score for s in out.sequences]
        assert scores == sorted(scores)

    def test_timeout(self, b3, squares):
        a1, a2 = squares
        with pytest.raises(SearchTimeout):
            memory_length_search(a1 * a2, [a1, a2], config(2, 4), deadline=0.0)

    def test_deadline_inside_a_wide_step(self, monkeypatch, squares):
        # A fake clock advances one tick per reading, so the deadline falls
        # at a fixed point of the search however fast the machine is. The
        # search checks it once per beam entry, right before the entry's
        # one peel_lengths call: every reading but the last is followed by
        # exactly one call, and a check once per step would let the search
        # finish.
        class TickingClock:
            readings = 0

            def monotonic(self):
                self.readings += 1
                return self.readings

        clock = TickingClock()
        monkeypatch.setattr(solver, "time", clock)
        scored = []
        peel_lengths = kernels.peel_lengths

        def counting(*args):
            scored.append(clock.readings)
            return peel_lengths(*args)

        monkeypatch.setattr(kernels, "peel_lengths", counting)
        a1, a2 = squares
        # 3 steps over 1, 4 and 4 beam entries: readings 1-9, the last step
        # makes readings 6-9, and the deadline passes at reading 8.
        with pytest.raises(SearchTimeout):
            memory_length_search(a1 * a2 * a1, [a1, a2], config(3, 4), deadline=7.5)
        assert clock.readings == 8
        assert scored == list(range(1, 8))

    @pytest.mark.parametrize(
        "strands, seed", [(5, 1), (5, 2), (8, 3), (8, 4)], ids=["B5-1", "B5-2", "B8-3", "B8-4"]
    )
    def test_same_outcome_as_a_product_per_peel(self, strands, seed):
        """The batched search returns what the word beam does, ties included."""
        rng = random.Random(seed)
        structure = artin_structure(strands)
        gens = [random_word(rng, structure, 6) for _ in range(strands - 1)]
        gens = [g for g in gens if len(g)] or [structure.word([(0, 1)])]
        c = gens[0]
        for _ in range(3):
            c = c * rng.choice(gens) ** rng.choice((1, -1))
        for metric in LengthMetric:
            cfg = config(3, 12, metric)
            out = memory_length_search(c, gens, cfg)
            assert out == reference_search(c, gens, cfg)
            scores = [s.score for s in out.sequences]
            assert len(set(scores)) < len(scores)  # ties are broken by insertion

    @pytest.mark.parametrize("make", [artin_structure, bkl_structure], ids=["artin", "band"])
    @pytest.mark.parametrize("strands", [4, 5, 6])
    def test_same_outcome_as_a_word_beam_on_each_twin(self, kit, monkeypatch, make, strands):
        """Each twin's search returns what the word beam does under every
        metric, on planted targets whose beams return to elements already
        scored, so that their scores are reused."""
        calls = collections.Counter()
        for name in ("word_to_nf", "multiply_nf", "invert_nf", "nf_lengths", "peel_lengths"):

            def counting(*args, _name=name, _kernel=getattr(kit, name)):
                calls[_name] += 1
                return _kernel(*args)

            monkeypatch.setattr(kernels, name, counting)
        searched = collections.Counter()
        rng = random.Random(strands)
        structure = make(strands)
        for _ in range(2):
            gens = [random_word(rng, structure, 5) for _ in range(strands - 1)]
            gens = [g for g in gens if len(g)] or [structure.word([(0, 1)])]
            c = structure.word()
            for _ in range(3):
                c = c * rng.choice(gens) ** rng.choice((1, -1))
            for metric in LengthMetric:
                cfg = config(4, 8, metric)
                calls.clear()
                expected = reference_search(c, gens, cfg)
                assert calls["peel_lengths"] == 0
                calls.clear()
                assert memory_length_search(c, gens, cfg) == expected
                searched += calls
        assert searched["peel_lengths"] < searched["multiply_nf"]


class TestVerifyCandidates:
    def test_membership_residual_identity(self, b3, squares):
        a1, a2 = squares
        c = a1 * a2
        eq = EquationSpec((("x1", 1),), {"x1": squares}, {}, c)
        out = memory_length_search(c, list(squares), config(2, 4))
        found = verify_candidates(out.sequences, eq)
        assert found is not None and equals(found["x1"], c)

    def test_conjugacy(self, b3, squares):
        a1, a2 = squares
        a = parse_word("s2", b3)
        x = a1
        target = x * a * x.inverse()
        eq = EquationSpec(
            (("x1", 1), ("p1", 1), ("x1", -1)), {"x1": squares}, {"p1": a}, target
        )
        out = memory_length_search(target, list(squares), config(1, 8))
        found = verify_candidates(out.sequences, eq)
        assert found is not None
        assert equals(target, found["x1"] * a * found["x1"].inverse())

    def test_empty_candidates(self, b3, squares):
        eq = EquationSpec((("x1", 1),), {"x1": squares}, {}, squares[0])
        assert verify_candidates([], eq) is None

    def test_rejects_multi_unknown(self, b3, squares):
        eq = EquationSpec(
            (("x1", 1), ("x2", 1)),
            {"x1": squares, "x2": squares},
            {},
            squares[0],
        )
        with pytest.raises(ValueError):
            verify_candidates([], eq)


class TestSolveEquation:
    def test_membership_planted(self, b3, squares):
        a1, a2 = squares
        planted = a1 * a2 * a1
        eq = EquationSpec((("x1", 1),), {"x1": squares}, {}, planted)
        found = solve_equation(eq, config(3, 8))
        assert equals(found["x1"], planted)
        assert len(found["x1"].letters) == 6  # three generators of length 2

    def test_decomposition_two_variables(self):
        b4 = artin_structure(4)
        xg = (parse_word("s1 s1", b4), parse_word("s2 s2", b4))
        yg = (parse_word("s3 s3", b4), parse_word("s2 s1", b4))
        a = parse_word("s2", b4)
        x = xg[0] * xg[1]
        y = yg[1] * yg[0]
        target = x * a * y
        eq = EquationSpec(
            (("x1", 1), ("p1", 1), ("x2", 1)),
            {"x1": xg, "x2": yg},
            {"p1": a},
            target,
        )
        found = solve_equation(eq, config(2, 8, LengthMetric.RATIONAL_BKL))
        assert equals(target, found["x1"] * a * found["x2"])

    def test_zero_variables(self, b3):
        p = parse_word("s1 s2", b3)
        eq = EquationSpec(
            (("p1", 1), ("p1", 1)), {}, {"p1": p}, p * p
        )
        assert solve_equation(eq, config(1, 2)) == {}

    def test_zero_variables_unsatisfied(self, b3):
        p = parse_word("s1 s2", b3)
        eq = EquationSpec((("p1", 1),), {}, {"p1": p}, p * p)
        with pytest.raises(NoSolutionFound):
            solve_equation(eq, config(1, 2))

    def test_inverted_leading_variable(self, b3, squares):
        a1, a2 = squares
        p = parse_word("s2", b3)
        x = a2 * a1
        target = x.inverse() * p
        eq = EquationSpec(
            (("x1", -1), ("p1", 1)), {"x1": squares}, {"p1": p}, target
        )
        found = solve_equation(eq, config(2, 8))
        assert equals(target, found["x1"].inverse() * p)

    def test_no_solution(self, b3, squares):
        # s1 is not in the subgroup of squares with expression length 1.
        eq = EquationSpec((("x1", 1),), {"x1": squares}, {}, parse_word("s1", b3))
        with pytest.raises(NoSolutionFound):
            solve_equation(eq, config(1, 8))

    def test_length_range_wrapper(self, b3, squares):
        a1, a2 = squares
        planted = a1 * a2
        eq = EquationSpec((("x1", 1),), {"x1": squares}, {}, planted)
        found = solve_with_length_range(eq, config(0, 8), [1, 2, 3])
        assert equals(found["x1"], planted)

    def test_cutoffs_respected(self, b3, squares):
        eq = EquationSpec((("x1", 1),), {"x1": squares}, {}, squares[0])
        with pytest.raises(ValueError):
            SolverConfig(
                n=1, memory=4, metric=LengthMetric.RATIONAL_ARTIN, cutoffs=(9,)
            )


class TestEquationSpec:
    def test_free_reduction_enforced(self, b3, squares):
        with pytest.raises(ValueError):
            EquationSpec(
                (("x1", 1), ("x1", -1)), {"x1": squares}, {}, b3.word()
            )

    def test_unknown_name_rejected(self, b3, squares):
        with pytest.raises(ValueError):
            EquationSpec((("y", 1),), {"x1": squares}, {}, b3.word())

    def test_json_round_trip(self, b3):
        doc = {
            "template": ["x1", "p1", "x1^-1"],
            "generators": {"x1": ["s1 s1", "s2 s2"]},
            "parameters": {"p1": "s2"},
            "target": "s1 s1 s2 s1^-1 s1^-1",
        }
        eq = EquationSpec.from_json(doc, b3)
        assert eq.template == (("x1", 1), ("p1", 1), ("x1", -1))
        assert len(eq.subgroup_generators["x1"]) == 2
        assert substitute(
            eq, {"x1": parse_word("s1 s1", b3)}
        ).letters == eq.target.letters
