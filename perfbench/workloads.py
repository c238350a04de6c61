"""The four benchmark workloads: inputs, operations and output checks.

A workload builds a fixed list of operations from its seed. A run repeats
whole rounds of that list; the outputs of every round must be identical.
``check`` judges the outputs of one round, with the help of probes that
record intermediate results the public calls do not return. Every check
rests on ``burau`` or on properties the method must have, never on the
program's own verification.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import re
from collections import Counter
from typing import Callable

import burau

ATOM = re.compile(r"s\d+|a\(\d+,\d+\)")
burau_for = functools.cache(burau.Burau)
METRICS = ("greedy-artin", "rational-artin", "greedy-bkl", "rational-bkl")


def artin_text(letters) -> str:
    return " ".join(f"s{i + 1}" + ("^-1" if e < 0 else "") for i, e in letters)


def band_text(letters) -> str:
    return " ".join(f"a({t},{s})" + ("^-1" if e < 0 else "") for (t, s), e in letters)


def random_letters(rng: random.Random, atoms: list, length: int) -> list:
    return [(rng.choice(atoms), rng.choice((1, -1))) for _ in range(length)]


def band_pairs(n: int) -> list[tuple[int, int]]:
    return [(t, s) for t in range(2, n + 1) for s in range(1, t)]


def delta_length(kind: str, n: int) -> int:
    return n * (n - 1) // 2 if kind == "artin" else n - 1


def simple_length(kind: str, perm: bytes) -> int:
    """Atoms in a simple: crossings (Artin) or strands minus cycles (band)."""
    n = len(perm)
    if kind == "artin":
        return sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
    seen, cycles = bytearray(n), 0
    for i in range(n):
        if not seen[i]:
            cycles += 1
            while not seen[i]:
                seen[i] = 1
                i = perm[i]
    return n - cycles


@dataclasses.dataclass
class Report:
    """What ``check`` found: rejected operations and other failed claims."""

    rejected: set[int] = dataclasses.field(default_factory=set)
    problems: list[str] = dataclasses.field(default_factory=list)

    def reject(self, index: int, why: str) -> None:
        if index not in self.rejected and len(self.problems) < 20:
            self.problems.append(f"op {index}: {why}")
        self.rejected.add(index)

    def claim(self, ok: bool, why: str) -> None:
        if not ok:
            self.problems.append(why)


class Workload:
    name: str
    backend: str
    ops: list[Callable[[], object]]

    def digest(self, index: int, output):
        """A small value that equals across rounds iff the outputs do."""
        return output

    def probes(self) -> dict[tuple[str, str], str]:
        """``(module, function) -> key``: calls to record in the check round."""
        return {}

    def facts(self, outputs: list) -> dict[str, float]:
        """Per-round counts that per-layer ratios are taken against."""
        return {}

    def check(self, outputs: list, records: dict) -> Report:
        raise NotImplementedError


class Solve(Workload):
    """Planted equations solved by the memory-length attack."""

    name = "solve"
    backend = "speed"
    # name, template, strands, generators, letters per generator, planted
    # moves, parameter letters
    FAMILIES = (
        ("membership", ("x1",), 8, 8, 8, 4, 0),
        ("conjugacy", ("x1", "p1", "x1^-1"), 6, 6, 6, 4, 8),
    )
    PER_FAMILY = 100
    N, MEMORY = 4, 64

    def __init__(self, gk, seed: int):
        self.gk = gk
        rng = random.Random(f"solve:{seed}")
        self.cfg = gk.SolverConfig(
            n=self.N, memory=self.MEMORY, metric=gk.LengthMetric.RATIONAL_BKL
        )
        self.instances = []
        self.ops = []
        for _, template, n, ng, gl, moves, plen in self.FAMILIES:
            structure = gk.artin_structure(n)
            atoms = list(range(n - 1))
            for _ in range(self.PER_FAMILY):
                gens = [random_letters(rng, atoms, gl) for _ in range(ng)]
                x: burau.Letters = []
                last = None
                while len(x) < moves * gl:
                    j, sign = rng.randrange(ng), rng.choice((1, -1))
                    if last == (j, -sign):
                        continue
                    last = (j, sign)
                    x += gens[j] if sign > 0 else burau.inverse(gens[j])
                p = random_letters(rng, atoms, plen)
                target = x + p + burau.inverse(x) if "p1" in template else x
                doc = {
                    "template": list(template),
                    "generators": {"x1": [artin_text(g) for g in gens]},
                    "parameters": {"p1": artin_text(p)} if "p1" in template else {},
                    "target": artin_text(target),
                }
                eq = gk.EquationSpec.from_json(doc, structure)
                self.instances.append((n, template, gens, p, target))
                self.ops.append(functools.partial(self._solve, eq))

    def _solve(self, eq):
        try:
            return self.gk.solve_equation(eq, self.cfg)
        except self.gk.errors.NoSolutionFound:
            return None

    def digest(self, index, output):
        return None if output is None else output["x1"].letters

    def probes(self):
        return {("garsidekit.solver", "memory_length_search"): "searches"}

    def check_assignment(self, index: int, word, report: Report) -> None:
        """The answer is a product of N generators and solves its equation."""
        n, template, gens, p, target = self.instances[index]
        x = list(word.letters)
        gl = len(gens[0])
        pieces = [x[i : i + gl] for i in range(0, len(x), gl)]
        words = gens + [burau.inverse(g) for g in gens]
        if len(pieces) != self.N or any(piece not in words for piece in pieces):
            report.reject(index, "assignment is not a product of N generators")
            return
        value = {"x1": x, "x1^-1": burau.inverse(x), "p1": p}
        lhs = [letter for token in template for letter in value[token]]
        if not burau_for(n).equal(lhs, target):
            report.reject(index, "assignment fails its equation under Burau")

    def facts(self, outputs):
        return {"solved": sum(out is not None for out in outputs)}

    def check(self, outputs, records):
        report = Report()
        for index, out in enumerate(outputs):
            if out is not None:
                self.check_assignment(index, out["x1"], report)
        searches = records.get("searches", [])
        report.claim(
            len(searches) >= len(self.ops), f"only {len(searches)} searches recorded"
        )
        for args, result in searches:
            m, memory = len(args[1]), self.MEMORY
            bound = self.N * (self.N + 4 * m + 1) * memory // 2
            if result.length_evaluations > bound:
                report.claim(
                    False, f"search made {result.length_evaluations} > {bound} evaluations"
                )
                break
        return report


class Rank(Workload):
    """Paired rational-Artin vs rational-band ranking experiments."""

    name = "rank"
    backend = "speed"
    WLS = (4, 8, 16)
    NS, NG, SL = 16, 32, 16
    # Compare calls per word length, of SAMPLES paired samples each: enough
    # that the P(position <= 3) ordering over word lengths holds on any seed.
    CALLS = {4: 160, 8: 160, 16: 80}
    SAMPLES = 5
    WINDOW = 35

    def __init__(self, gk, seed: int):
        self.gk = gk
        rng = random.Random(f"rank:{seed}")
        self.wls = []
        self.ops = []
        for wl in self.WLS:
            for _ in range(self.CALLS[wl]):
                doc = {
                    "ns": self.NS, "wl": wl, "ng": self.NG, "sl": self.SL,
                    "samples": self.SAMPLES, "seed": rng.getrandbits(62),
                }
                cfg_a = gk.ExperimentConfig.from_json(dict(doc, metric="rational-artin"))
                cfg_b = gk.ExperimentConfig.from_json(dict(doc, metric="rational-bkl"))
                self.wls.append(wl)
                self.ops.append(functools.partial(self._compare, cfg_a, cfg_b))

    def _compare(self, cfg_a, cfg_b):
        result = self.gk.compare_metrics(cfg_a, cfg_b)
        return result.result_a.histogram, result.result_b.histogram

    def probes(self):
        return {
            ("garsidekit.experiments", "compute_cor"): "cor",
            ("garsidekit.experiments", "rank_generators"): "rank",
        }

    def facts(self, outputs):
        return {"samples": len(self.ops) * self.SAMPLES}

    def expected_cor(self, sample, check: burau.Burau) -> set[int] | None:
        """COR by Burau; None when the sentence is not the sampling model's."""
        gens = [list(g.letters) for g in sample.generators]
        ng = len(gens)
        slots = [j % ng for j in range(self.SL)]
        if list(sample.sentence.letters) != [x for j in slots for x in gens[j]]:
            return None
        identity = check.start
        cor = set()
        prefix_image = list(identity)  # image of the factors before slot q
        prefix: burau.Letters = []
        first = {}
        for q, j in enumerate(slots):
            first.setdefault(j, q)
        for q, j in enumerate(slots):
            if first[j] == q:
                # a_j P == P a_j, i.e. a_j stands first: the suffix cancels.
                left = check.image(gens[j] + prefix)
                right = tuple(check.apply(list(prefix_image), gens[j]))
                if left == right:
                    cor.add(j + 1)
            check.apply(prefix_image, gens[j])
            prefix += gens[j]
        for j in range(ng):
            if j not in first and check.image(gens[j]) == identity:
                cor.add(j + 1)
        return cor

    def check(self, outputs, records):
        report = Report()
        cors, ranks = records.get("cor", []), records.get("rank", [])
        per_op = self.SAMPLES
        if len(cors) != len(self.ops) * per_op or len(ranks) != 2 * len(cors):
            report.claim(False, f"recorded {len(cors)} COR sets and {len(ranks)} rankings")
            return report
        check = burau_for(self.NS)
        totals = {wl: ([0] * (2 * self.NG), [0] * (2 * self.NG)) for wl in self.WLS}
        for index, (out, wl) in enumerate(zip(outputs, self.wls)):
            hists = ([0] * (2 * self.NG), [0] * (2 * self.NG))
            for s in range(index * per_op, (index + 1) * per_op):
                (args, cor) = cors[s]
                expected = self.expected_cor(args[0], check)
                if expected is None or set(cor) != expected:
                    report.reject(index, f"COR {sorted(cor)} != Burau {expected}")
                for side in (0, 1):
                    positions = ranks[2 * s + side][1]
                    if sorted(positions) != list(range(1, 2 * self.NG + 1)):
                        report.reject(index, "positions are not a permutation")
                        continue
                    best = min(positions[2 * (i - 1)] for i in cor)
                    hists[side][best - 1] += 1
            if (tuple(hists[0]), tuple(hists[1])) != out:
                report.reject(index, "histograms disagree with the recorded rankings")
            for side in (0, 1):
                for p, c in enumerate(out[side]):
                    totals[wl][side][p] += c

        def cumulative(hist):
            run, total, out = 0, sum(hist), []
            for c in hist:
                run += c
                out.append(run / total)
            return out

        artin, band = (cumulative(h)[: self.WINDOW] for h in totals[8])
        diffs = [b - a for a, b in zip(artin, band)]
        share = sum(d >= 0 for d in diffs) / len(diffs)
        report.claim(share >= 0.9, f"band >= Artin at only {share:.0%} of positions (wl=8)")
        report.claim(sum(diffs) > 0, f"band-minus-Artin area {sum(diffs):.3f} <= 0 (wl=8)")
        for side, label in ((0, "Artin"), (1, "band")):
            top3 = [sum(totals[wl][side][:3]) / sum(totals[wl][side]) for wl in self.WLS]
            report.claim(top3 == sorted(top3), f"{label} P(position<=3) {top3} decreases")
        return report


class Oracle(Workload):
    """Fixed BFS balls and geodesic-length queries on random words."""

    name = "oracle"
    backend = "speed"
    BALLS = (("artin", 3, 10), ("bkl", 3, 8), ("artin", 4, 7), ("bkl", 4, 7))
    BURAU_BALLS = 3  # the B_3 balls and Artin B_4 r7; band B_4 r7 is too big
    # kind, strands, letters, words: all within the default radius guards.
    # A query word is positive or negative, so its geodesic length is its
    # letter count. Artin B_3 grows slowly, so its long queries cost nearly
    # the same wherever the target sits in the last BFS level; they hold
    # the 95th percentile, and the cheaper families the median.
    QUERIES = (
        ("artin", 3, 10, 80), ("bkl", 3, 7, 40), ("artin", 4, 6, 40),
        ("bkl", 4, 4, 40), ("artin", 5, 5, 40), ("bkl", 5, 3, 40),
    )

    def __init__(self, gk, seed: int):
        self.gk = gk
        rng = random.Random(f"oracle:{seed}")
        make = {"artin": gk.artin_structure, "bkl": gk.bkl_structure}
        self.ops = [
            functools.partial(self._ball, make[kind](n), radius)
            for kind, n, radius in self.BALLS
        ]
        self.queries = []
        for kind, n, length, count in self.QUERIES:
            atoms = list(range(n - 1)) if kind == "artin" else band_pairs(n)
            for _ in range(count):
                sign = rng.choice((1, -1))
                letters = [(rng.choice(atoms), sign) for _ in range(length)]
                text = artin_text(letters) if kind == "artin" else band_text(letters)
                word = gk.parse_word(text, make[kind](n))
                self.queries.append((kind, n, text, word))
                self.ops.append(functools.partial(self._query, word))

    def _ball(self, structure, radius):
        return self.gk.enumerate_ball(structure, radius)

    def _query(self, word):
        return self.gk.geodesic_length(word)

    def digest(self, index, output):
        if index < len(self.BALLS):
            return tuple(sorted(Counter(output.table.values()).items()))
        return output

    def facts(self, outputs):
        return {
            "ball_ops": len(self.BALLS),
            "queries": len(self.queries),
            "ball_states": sum(len(b) - 1 for b in outputs[: len(self.BALLS)]),
        }

    def check(self, outputs, records):
        report = Report()
        balls = {}
        for index, spec in enumerate(self.BALLS):
            balls[spec[:2]] = outputs[index]
            self.check_ball(index, outputs[index], report)
        for index, (kind, n, text, word) in enumerate(self.queries, start=len(self.BALLS)):
            self.check_query(index, outputs[index], balls.get((kind, n)), report)
        return report

    def check_ball(self, index: int, ball, report: Report) -> None:
        """Node-wise length laws; sphere sizes against a Burau BFS."""
        kind, n, radius = self.BALLS[index]
        sizes = [0] * (radius + 1)
        code, ld = ball.structure.kind_code, delta_length(kind, n)
        lengths: dict[bytes, int] = {}
        bad = 0
        for (k, factors), d in ball.raw_items():
            sizes[d] += 1
            e = k * ld
            for f in factors:
                if f not in lengths:
                    lengths[f] = simple_length(kind, f)
                e += lengths[f]
            _, rational = self.gk.kernels.nf_lengths(code, n, k, factors)
            if not abs(e) <= d <= rational or (d - e) % 2:
                bad += 1
            elif (kind, n) == ("bkl", 3) and rational != d:
                bad += 1  # the paper's theorem: band B_3 rational forms are geodesic
        if bad:
            report.reject(index, f"{bad} ball nodes break |e| <= d <= l_R or parity")
        if index < self.BURAU_BALLS:
            expected = burau_for(n).sphere_sizes(burau.signed_atoms(kind, n), radius)
            if sizes != expected:
                report.reject(index, f"spheres {sizes} != Burau BFS {expected}")

    def check_query(self, index: int, d, ball, report: Report) -> None:
        """``d`` is the letter count, and the ball agrees where it reaches."""
        _, _, text, word = self.queries[index - len(self.BALLS)]
        signs = [-1 if token.endswith("^-1") else 1 for token in text.split()]
        e = sum(signs)
        rational = self.gk.rational_length(word)
        if d != abs(e) or not abs(e) <= d <= min(len(signs), rational):
            report.reject(index, f"d={d}, but the word has e={e}, |w|={len(signs)}, l_R={rational}")
        if ball is not None and len(signs) <= ball.radius and ball.lookup(word) != d:
            report.reject(index, f"d={d} but the ball says {ball.lookup(word)}")


class LengthsPure(Workload):
    """Parse, measure, normalise and print text words on the pure backend."""

    name = "lengths-pure"
    backend = "pure"
    # (letters, alphabet, strands..., words per strand count). Pure band
    # normal forms grow fast with the strand count, so band words on many
    # strands stay short. The 95th percentile falls among the 48 Artin
    # words of 128 letters on 4 strands, whose costs are close.
    CELLS = (
        (16, "artin", (4, 8, 12, 16), 32),
        (16, "bkl", (4, 8, 12), 32),
        (16, "bkl", (16,), 8),
        (32, "artin", (4, 8, 12, 16), 16),
        (32, "bkl", (4, 8), 16),
        (64, "artin", (4, 8), 8),
        (64, "bkl", (4,), 8),
        (128, "artin", (4,), 48),
        (128, "artin", (8, 12, 16), 1),
        (128, "bkl", (4,), 1),
        (256, "artin", (4, 8, 16), 1),
        (256, "bkl", (4,), 1),
        (512, "artin", (4, 8), 1),
    )

    def __init__(self, gk, seed: int):
        self.gk = gk
        rng = random.Random(f"lengths-pure:{seed}")
        self.metrics = [gk.LengthMetric.from_name(m) for m in METRICS]
        make = {"artin": gk.artin_structure, "bkl": gk.bkl_structure}
        self.words = []
        self.ops = []
        for length, kind, strands, count in self.CELLS:
            for n in strands:
                for _ in range(count):
                    if kind == "artin":
                        text = artin_text(random_letters(rng, list(range(n - 1)), length))
                    else:
                        text = band_text(random_letters(rng, band_pairs(n), length))
                    self.words.append((n, kind, text))
                    self.ops.append(functools.partial(self._measure, text, make[kind](n)))

    def _measure(self, text, structure):
        gk = self.gk
        w = gk.parse_word(text, structure)
        lengths = tuple(gk.metric_length(w, m) for m in self.metrics)
        return w, lengths, gk.format_rational(gk.rational_nf(gk.greedy_nf(w)))

    def digest(self, index, output):
        return output[1:]

    def compiled_lengths(self, speed, n, kind, w, artin_letters) -> tuple[int, ...]:
        """The four lengths from the compiled twin's kernels."""
        if kind == "artin":
            band = [(speed.bkl_atom_index(i + 1, i), e) for i, e in w.letters]
            artin = list(w.letters)
        else:
            band, artin = list(w.letters), artin_letters
        out = []
        for code, letters in ((speed.KIND_ARTIN, artin), (speed.KIND_BKL, band)):
            out += speed.nf_lengths(code, n, *speed.word_to_nf(code, n, letters))
        return tuple(out)

    def check(self, outputs, records):
        report = Report()
        gk = self.gk
        speed = gk.kernels.backends().get("speed")
        report.claim(speed is not None, "the compiled twin cannot be imported")
        for index, ((n, kind, text), (w, lengths, printed)) in enumerate(
            zip(self.words, outputs)
        ):
            check = burau_for(n)
            letters = burau.parse_text(text)
            e = burau.exponent_sum(letters)
            size = len(text.split())
            if gk.format_word(w) != text or gk.parse_word(gk.format_word(w), w.structure) != w:
                report.reject(index, "parse_word/format_word do not round-trip")
            neg, pos = burau.parse_rational_text(printed)
            if not check.equal(burau.inverse(neg) + pos, letters):
                report.reject(index, "printed rational form differs under Burau")
            reparsed = burau.parse_text(gk.format_word(gk.syntax.parse_rational(printed, w.structure)))
            if not check.equal(reparsed, letters):
                report.reject(index, "parse_rational(format_rational) differs under Burau")
            ga, ra, gb, rb = lengths
            own_rational = ra if kind == "artin" else rb
            atoms = len(ATOM.findall(printed))
            ok = (
                all((x - e) % 2 == 0 for x in lengths)
                and abs(e) <= ra <= ga
                and abs(e) <= rb <= gb
                and atoms == own_rational
            )
            if kind == "artin":
                ok = ok and ra <= (delta_length("artin", n) - 1) * size
                ok = ok and rb <= (n - 2) * size
            if not ok:
                report.reject(index, f"lengths {lengths} break parity or bounds (e={e})")
            if speed is not None and self.compiled_lengths(speed, n, kind, w, letters) != lengths:
                report.reject(index, "pure and compiled lengths differ")
        return report


WORKLOADS = {w.name: w for w in (Solve, Rank, Oracle, LengthsPure)}
