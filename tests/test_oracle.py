"""BFS oracle: exact values, growth, guards, metric consistency."""

import collections
import time

import pytest

from conftest import random_word
from garsidekit import kernels, oracle
from garsidekit.artin import artin_structure
from garsidekit.bkl import bkl_structure, bkl_to_artin
from garsidekit.core import greedy_nf, recompose
from garsidekit.errors import GuardExceeded, NotFound, StructureMismatch
from garsidekit.kernels import _pure
from garsidekit.lengths import positive_length, rational_length
from garsidekit.oracle import BallIndex, enumerate_ball, geodesic_length
from garsidekit.syntax import parse_word


@pytest.fixture
def b3():
    return artin_structure(3)


class TickingClock:
    """A fake ``time`` whose clock advances one tick per reading, so that a
    deadline falls at a fixed point of a search however fast the machine
    is."""

    readings = 0

    def monotonic(self):
        self.readings += 1
        return self.readings


class TestGeodesicLength:
    def test_identity(self, b3):
        assert geodesic_length(b3.word()) == 0

    def test_delta_b3(self, b3):
        assert geodesic_length(parse_word("s1 s2 s1", b3)) == 3

    def test_square_commutator_geodesic(self, b3):
        assert geodesic_length(parse_word("s2 s2 s1^-1 s1^-1", b3)) == 4

    def test_not_found(self, b3):
        with pytest.raises(NotFound):
            geodesic_length(parse_word("s1 s2 s1", b3) ** 2, max_radius=2)

    def test_default_radius_reaches_long_words(self, b3):
        # Twelve positive letters: the default radius is read off the word.
        w = parse_word("s1 s2 s2 s1 s1 s2 s1 s1 s2 s2 s2 s1", b3)
        assert geodesic_length(w) == 12

    def test_band_b3_geodesic_is_rational(self, rng):
        # The paper's theorem: in B_3 the rational band length is geodesic.
        band = bkl_structure(3)
        for _ in range(50):
            w = random_word(rng, band, 10)
            assert geodesic_length(w) == rational_length(w)

    def test_band_b3_theorem_at_30_letters(self, compiled_speed, monkeypatch, rng):
        # The same theorem on words of 30 letters, whose geodesics reach 16
        # letters and more: one ball of that radius holds millions of states,
        # two of half of it some thousands. The pure twin takes about 0.7 s
        # per word here, so only the compiled one runs.
        monkeypatch.setattr(kernels, "expand_level", compiled_speed.expand_level)
        band = bkl_structure(3)
        lengths = []
        for _ in range(20):
            w = band.word([(rng.randrange(3), rng.choice((1, -1))) for _ in range(30)])
            lengths.append(rational_length(w))
            assert geodesic_length(w) == lengths[-1]
        assert max(lengths) >= 16

    def test_long_alternating_word(self, b3, twins, monkeypatch):
        # (s1 s2^-1)^9 is geodesic; one ball of radius 17 already holds
        # 1.5 million states.
        w = parse_word("s1 s2^-1 " * 9, b3)
        for twin in twins.values():
            monkeypatch.setattr(kernels, "expand_level", twin.expand_level)
            assert geodesic_length(w) == 18
            with pytest.raises(NotFound):
                geodesic_length(w, max_radius=17)

    @pytest.mark.parametrize(
        "make,n,radius",
        [(artin_structure, 3, 8), (bkl_structure, 3, 6), (artin_structure, 4, 6), (bkl_structure, 4, 4)],
    )
    def test_mixed_sign_words_match_ball(self, make, n, radius, twins, monkeypatch, rng):
        structure = make(n)
        ball = enumerate_ball(structure, radius)
        words = [random_word(rng, structure, radius) for _ in range(40)]
        for twin in twins.values():
            monkeypatch.setattr(kernels, "expand_level", twin.expand_level)
            for w in words:
                assert geodesic_length(w) == ball.lookup(w), w

    def test_infimum_exit_runs_no_search(self, b3, monkeypatch):
        calls = []
        for name in ("multiply_nf", "expand_level"):
            kernel = getattr(kernels, name)

            def counting(*args, _kernel=kernel):
                calls.append(args)
                return _kernel(*args)

            monkeypatch.setattr(kernels, name, counting)
        # Each signed atom moves the delta power by at most one.
        with pytest.raises(NotFound):
            geodesic_length(parse_word("s1 s2 s1", b3) ** 3, max_radius=2)
        with pytest.raises(NotFound):
            geodesic_length(artin_structure(2).word([(0, -1)] * 2**15), max_radius=10)
        assert calls == []

    def test_delta_power_outside_16_bits(self):
        # In B_2 the one atom is delta, so a word's length is its letter count.
        b2 = artin_structure(2)
        assert geodesic_length(b2.word([(0, 1)] * 2**15)) == 2**15
        assert geodesic_length(b2.word([(0, -1)] * (2**15 + 1))) == 2**15 + 1

    def test_node_guard(self, b3):
        with pytest.raises(GuardExceeded):
            enumerate_ball(b3, 8, max_nodes=50)
        with pytest.raises(GuardExceeded):
            geodesic_length(parse_word("s1 s2 s1", b3) ** 2, max_nodes=50)

    def test_deadline_between_slices(self, b3, monkeypatch):
        # A fake clock advances one tick per reading, so the deadline falls
        # at a fixed point of the search however fast the machine is. The
        # search reads it before each slice of SLICE parents: every reading
        # but the last is followed by exactly one expand_level call. The
        # last level takes more than one slice, so a check once per level
        # would let the search finish.
        radius = 10
        spheres = collections.Counter(enumerate_ball(b3, radius - 1).table.values())
        slices = [-(-spheres[d] // oracle.SLICE) for d in range(radius)]
        assert slices[-1] > 1
        readings = sum(slices)
        clock = TickingClock()
        monkeypatch.setattr(oracle, "time", clock)
        expanded = []
        expand_level = kernels.expand_level

        def counting(*args):
            expanded.append(clock.readings)
            return expand_level(*args)

        monkeypatch.setattr(kernels, "expand_level", counting)
        with pytest.raises(GuardExceeded, match="deadline"):
            enumerate_ball(b3, radius, deadline=readings - 0.5)
        assert clock.readings == readings
        assert expanded == list(range(1, readings))
        clock.readings = 0
        expanded.clear()
        assert len(enumerate_ball(b3, radius, deadline=readings + 0.5)) == 11047

    def test_query_deadline_between_slices(self, b3, monkeypatch):
        # The two-sided search reads the clock before each slice of either
        # side, and every reading but the last is followed by exactly one
        # expand_level call. Slices of 4 parents put several slices in a
        # level, so a check once per level would read the clock fewer times
        # than the search has slices.
        monkeypatch.setattr(oracle, "SLICE", 4)
        clock = TickingClock()
        monkeypatch.setattr(oracle, "time", clock)
        expanded = []
        expand_level = kernels.expand_level

        def counting(*args):
            expanded.append(clock.readings)
            return expand_level(*args)

        monkeypatch.setattr(kernels, "expand_level", counting)
        w = parse_word("s1 s2^-1 " * 4, b3)
        assert geodesic_length(w, deadline=float("inf")) == 8
        readings = clock.readings
        assert expanded == list(range(1, readings + 1))
        assert readings > 8  # more slices than levels
        clock.readings = 0
        expanded.clear()
        with pytest.raises(GuardExceeded, match="deadline"):
            geodesic_length(w, deadline=readings - 0.5)
        assert clock.readings == readings
        assert expanded == list(range(1, readings))

    def test_past_deadline(self, b3):
        with pytest.raises(GuardExceeded, match="deadline"):
            enumerate_ball(b3, 3, deadline=0.0)
        with pytest.raises(GuardExceeded, match="deadline"):
            geodesic_length(parse_word("s1 s2 s1", b3), deadline=0.0)
        # The exits that run no search never read the clock.
        assert len(enumerate_ball(b3, 0, deadline=0.0)) == 1
        assert geodesic_length(b3.word(), deadline=0.0) == 0
        deadline = time.monotonic() + 600
        assert geodesic_length(parse_word("s1 s2 s1", b3), deadline=deadline) == 3

    def test_negative_radius(self, b3):
        with pytest.raises(ValueError):
            enumerate_ball(b3, -1)
        with pytest.raises(ValueError):
            geodesic_length(b3.word(), max_radius=-1)


class TestBall:
    def test_radius_zero(self, b3):
        ball = enumerate_ball(b3, 0)
        assert len(ball) == 1
        assert ball.lookup(b3.word()) == 0

    def test_radius_one_b3(self, b3):
        # identity plus the four signed atoms
        ball = enumerate_ball(b3, 1)
        assert len(ball) == 5

    def test_strict_growth(self, b3):
        sizes = [len(enumerate_ball(b3, r)) for r in range(0, 7)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_lookup_forms(self, b3):
        ball = enumerate_ball(b3, 4)
        w = parse_word("s1 s2^-1", b3)
        assert ball.lookup(w) == 2
        assert ball.lookup(greedy_nf(w)) == 2
        assert ball.lookup(parse_word("s1 s2 s1", b3) ** 3) is None

    def test_lookup_refuses_another_structure(self, b3):
        # The band delta a(3,2) a(2,1) has the form (1, ()), as the Artin
        # delta does, so both pack alike. The Artin ball holds 3 there, but
        # the band delta has Artin length 2.
        ball = enumerate_ball(b3, 4)
        x = parse_word("a(3,2) a(2,1)", bkl_structure(3))
        assert geodesic_length(bkl_to_artin(x)) == 2
        for item in (x, greedy_nf(x)):
            with pytest.raises(StructureMismatch):
                ball.lookup(item)

    def test_lookup_raw_outside_16_bit_delta_power(self, b3):
        ball = enumerate_ball(b3, 2)
        for k in (1 << 15, -(1 << 15) - 1, 2**70, -(2**70)):
            assert ball.lookup_raw(k, ()) is None

    @pytest.mark.parametrize("make", [artin_structure, bkl_structure])
    def test_b2_ball_beyond_16_bit_delta_power(self, make):
        # B_2 is infinite cyclic on delta: the ball is delta^j for |j| <= r.
        radius = 2**15 + 1
        ball = enumerate_ball(make(2), radius)
        assert len(ball) == 2 * radius + 1
        assert ball.lookup(make(2).word([(0, -1)] * radius)) == radius

    def test_lookup_raw_refuses_non_simple_factors(self, b3):
        # A factor that is not a simple of the structure raises instead of
        # missing the table.
        ball = enumerate_ball(b3, 3)
        for factors in ((b"\x05\x01\x00",), (b"\x00\x01",), (b"\x01\x00\x02", "abc")):
            with pytest.raises(ValueError):
                ball.lookup_raw(0, factors)
        band = enumerate_ball(bkl_structure(4), 2)
        with pytest.raises(ValueError):
            band.lookup_raw(0, (bytes([2, 3, 0, 1]),))  # crossing blocks
        assert band.lookup_raw(0, (bytes([1, 0, 2, 3]),)) == 1

    def test_items_round_trip(self, b3):
        ball = enumerate_ball(b3, 3)
        seen = 0
        for nf, dist in ball.items():
            assert 0 <= dist <= 3
            assert ball.lookup(nf) == dist
            seen += 1
        assert seen == len(ball)


class TestOrbitBall:
    @pytest.mark.parametrize(
        "make,n,radius",
        [
            (artin_structure, 3, 8),
            (bkl_structure, 3, 6),
            (artin_structure, 4, 6),
            (bkl_structure, 4, 4),
            (bkl_structure, 6, 3),
        ],
    )
    def test_orbits_cover_the_plain_ball(self, make, n, radius, twins, monkeypatch):
        """On each twin, the orbit ball expands to the plain ball grown by
        ``expand_level`` with the flag off, sphere by sphere, each element
        once, and ``len()`` counts it; every element looks up to its own
        distance; each stored state is the least blob of its orbit, whose
        distinct images ``tau_orbit`` lists; and the balls hold orbits of
        every size that divides the period."""
        structure = make(n)
        code = structure.kind_code
        period = 2 if code == kernels.KIND_ARTIN else n
        moves = oracle._signed_atom_nfs(structure)
        for twin in twins.values():
            origin = kernels.pack_nf(0, ())
            plain, frontier = {origin: 0}, [origin]
            for level in range(1, radius + 1):
                frontier = twin.expand_level(code, n, frontier, moves, plain, level, 10**9, 0)
            monkeypatch.setattr(kernels, "expand_level", twin.expand_level)
            ball = enumerate_ball(structure, radius)
            assert len(ball.table) < len(plain)
            elements = [(kernels.pack_nf(*raw), dist) for raw, dist in ball.raw_items()]
            assert len(ball) == len(elements) == len(plain)
            assert dict(elements) == plain
            spheres = collections.Counter(dist for _, dist in elements)
            assert spheres == collections.Counter(plain.values())
            for blob, dist in plain.items():
                assert ball.lookup_raw(*kernels.unpack_nf(blob, n)) == dist
            for blob in ball.table:
                k, factors = kernels.unpack_nf(blob, n)
                images = {
                    tuple(_pure.tau_simple(code, f, i) for f in factors) for i in range(period)
                }
                assert blob == min(kernels.pack_nf(k, image) for image in images)
                orbit = kernels.tau_orbit(code, n, factors)
                assert len(set(orbit)) == len(orbit) == kernels.orbit_size(code, n, factors)
                assert set(orbit) == images
            sizes = {
                kernels.orbit_size(code, n, kernels.unpack_nf(blob, n)[1]) for blob in ball.table
            }
            assert sizes == {d for d in range(1, period + 1) if period % d == 0}


class TestExactness:
    @pytest.mark.parametrize(
        "make,n,radius",
        [
            (artin_structure, 3, 6),
            (bkl_structure, 3, 6),
            (artin_structure, 4, 6),
            (bkl_structure, 4, 4),
        ],
    )
    def test_geodesic_length_matches_ball(self, make, n, radius, twins, monkeypatch, rng):
        """The two-sided search finds the ball's distance on every node of
        the B_3 spheres and on 50 nodes of each B_4 sphere, on each twin,
        and nothing one letter short of it. The pure twin's band search is
        slow, so it samples band B_3 too."""
        structure = make(n)
        ball = enumerate_ball(structure, radius)
        spheres = [[] for _ in range(radius + 1)]
        for nf, dist in ball.items():
            spheres[dist].append(nf)
        assert all(spheres)
        for twin in twins.values():
            monkeypatch.setattr(kernels, "expand_level", twin.expand_level)
            every = n == 3 and (twin is not _pure or make is artin_structure)
            for dist, sphere in enumerate(spheres):
                for nf in sphere if every else rng.sample(sphere, min(50, len(sphere))):
                    w = recompose(nf)
                    assert geodesic_length(w) == dist
                    if dist:
                        with pytest.raises(NotFound):
                            geodesic_length(w, max_radius=dist - 1)


class TestOracleProperties:
    @pytest.mark.parametrize("make,n,radius", [(artin_structure, 3, 6), (bkl_structure, 3, 6)])
    def test_symmetric_under_inverse(self, make, n, radius, rng):
        structure = make(n)
        ball = enumerate_ball(structure, radius)
        for (k, f), dist in ball.raw_items():
            ki, fi = kernels.invert_nf(structure.kind_code, n, k, f)
            assert ball.lookup_raw(ki, fi) == dist

    def test_lipschitz(self, rng, b3):
        ball = enumerate_ball(b3, 7)
        for _ in range(80):
            w = random_word(rng, b3, 6)
            d = ball.lookup(w)
            atom = rng.randrange(b3.atom_count)
            sign = rng.choice((1, -1))
            d2 = ball.lookup(w * b3.word([(atom, sign)]))
            if d is not None and d2 is not None:
                assert abs(d - d2) <= 1

    @pytest.mark.parametrize("make", [artin_structure, bkl_structure])
    def test_positive_words_are_geodesic(self, make, rng):
        # Length-preserving relations make positive words minimal.
        structure = make(3)
        for _ in range(40):
            length = rng.randrange(0, 6)
            w = structure.word(
                [(rng.randrange(structure.atom_count), 1) for _ in range(length)]
            )
            assert geodesic_length(w) == positive_length(w)
