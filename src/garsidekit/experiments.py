"""Randomized ranking experiments comparing length functions.

One sample draws NG subgroup generators (each WL uniform signed Artin
atoms on NS strands), multiplies SL of them into a sentence X (cycling
through the generators when SL exceeds NG), and asks: if the 2·NG signed
generators are sorted by the metric length of ``a^-1 X``, how high does a
correct first generator rank? Ties are reordered uniformly at random.
Histograms of the best attained position, accumulated over many samples,
measure how useful the metric is for peeling equations.

Work per sample: each generator is normalized once per structure, so an
Artin-versus-band comparison makes 2·NG word normalizations. X is the
product of the generators' normal forms along the sentence, never a
normalization of the sentence itself, and a word keeps its normal form
and a sample its sentence's prefix forms per alphabet, so ``compute_cor``
and the Artin ranking share both. The set of correct
first generators (COR) comes from a commutation test: generator i first
occurs at slot i, so it may stand first exactly when it commutes with the
product of the factors before it.

Reproducibility: every sample derives its own generators from
SHA-256(seed, "sample", index) feeding a Mersenne Twister, and its tie
shuffles from SHA-256(seed, "rank", index), so results are bit-identical
for a given (config, seed) under any evaluation order or parallel
schedule, and both metrics of a comparison see identical samples.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import random
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence

from . import kernels
from .artin import artin_structure
from .core import BraidWord, _check_same_structure
from .lengths import LengthMetric, metric_nf
from .solver import signed_peels


# The paper's plots and its dominance test read the first 35 positions.
WINDOW = 35


def child_rng(seed: int, *path: object) -> random.Random:
    """Independent deterministic stream for a derivation path."""
    material = ":".join([str(seed), *map(str, path)]).encode()
    value = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
    return random.Random(value)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    ns: int
    wl: int
    ng: int
    sl: int
    samples: int
    metric: LengthMetric
    seed: int

    def __post_init__(self):
        if min(self.ns - 1, self.wl, self.ng, self.sl, self.samples) < 1:
            raise ValueError("need ns >= 2 and wl, ng, sl, samples >= 1")

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        ints = ("ns", "wl", "ng", "sl", "samples", "seed")
        if not isinstance(doc, dict) or any(type(doc.get(k)) is not int for k in ints):
            raise ValueError(f"a config needs the integer fields {', '.join(ints)}: {doc!r}")
        return cls(metric=LengthMetric.from_name(doc.get("metric")), **{k: doc[k] for k in ints})

    def to_json(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["metric"] = self.metric.value
        return doc


@dataclasses.dataclass(frozen=True)
class ExperimentSample:
    generators: tuple[BraidWord, ...]
    sentence: BraidWord


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """Histogram of best positions (index i holds position i+1)."""

    histogram: tuple[int, ...]

    @property
    def samples(self) -> int:
        return sum(self.histogram)

    @property
    def cumulative(self) -> tuple[float, ...]:
        samples = self.samples
        return tuple(total / samples for total in itertools.accumulate(self.histogram))


def sentence_indices(sl: int, ng: int) -> tuple[int, ...]:
    """1-based generator index of each sentence factor: cycle through NG."""
    return tuple((j % ng) + 1 for j in range(sl))


def gen_sample(cfg: ExperimentConfig, index: int) -> ExperimentSample:
    """Draw the generators and the sentence for one sample."""
    rng = child_rng(cfg.seed, "sample", index)
    structure = artin_structure(cfg.ns)
    atoms = cfg.ns - 1
    generators = tuple(
        structure.word(
            (rng.randrange(atoms), 1 if rng.randrange(2) == 0 else -1)
            for _ in range(cfg.wl)
        )
        for _ in range(cfg.ng)
    )
    letters: list[tuple[int, int]] = []
    for i in sentence_indices(cfg.sl, cfg.ng):
        letters.extend(generators[i - 1].letters)
    return ExperimentSample(generators, structure.word(letters))


def compute_cor(sample: ExperimentSample) -> frozenset[int]:
    """Generators that can legally stand first in the sentence.

    Generator i qualifies when X equals ``a_i`` times the sentence with
    the first occurrence of ``a_i`` removed (for generators that do not
    occur, when ``a_i`` is trivial). Index 1 always qualifies. The factor
    count is derived from the letter counts, which needs equal-length
    generators (the sampling model guarantees that). Raises as
    :func:`_sentence_prefixes` does when the sentence is not the
    generators' product.
    """
    structure = sample.sentence.structure
    code, n = structure.kind_code, structure.strand_count
    gen_nfs = [g.raw_nf() for g in sample.generators]
    prefix = _sentence_prefixes(sample, code, n, gen_nfs)
    out = set()
    for i, nf in enumerate(gen_nfs, start=1):
        if i < len(prefix):
            # Sentence factors cycle, so generator i first occurs at slot i
            # and X = P a_i S with P = prefix[i-1]. Cancelling S on the
            # right, a_i P S = X exactly when a_i P = P a_i = prefix[i].
            if kernels.multiply_nf(code, n, *nf, *prefix[i - 1]) == prefix[i]:
                out.add(i)
        elif nf == (0, ()):
            out.add(i)
    return frozenset(out)


def _sentence_prefixes(
    sample: ExperimentSample,
    code: int,
    n: int,
    gen_nfs: Sequence[tuple[int, tuple[bytes, ...]]],
) -> tuple[tuple[int, tuple[bytes, ...]], ...]:
    """Forms of the first 0..SL sentence factors, from the generators' forms.

    ``gen_nfs`` holds the generators' forms in the structure ``(code, n)``;
    the last entry returned is the form of X there, so the sentence itself
    is never normalized. Raises ``StructureMismatch`` unless the generators
    and the sentence share a structure, and ``ValueError`` unless the
    sentence's letters are the generators' concatenation along
    :func:`sentence_indices`.
    The forms are stored on the sample per structure, outside the
    dataclass fields, like a word's ``raw_nf``.
    """
    stored = sample.__dict__.setdefault("_prefixes", {})
    if code in stored:
        return stored[code]
    for g in sample.generators:
        _check_same_structure(g, sample.sentence)
    indices = sentence_indices(_sentence_length(sample), len(sample.generators))
    letters = tuple(x for i in indices for x in sample.generators[i - 1].letters)
    if letters != sample.sentence.letters:
        raise ValueError(
            f"the sentence is not the product of generators {list(indices)}"
        )
    prefix = [(0, ())]
    for i in indices:
        prefix.append(kernels.multiply_nf(code, n, *prefix[-1], *gen_nfs[i - 1]))
    stored[code] = tuple(prefix)
    return stored[code]


def _sentence_length(sample: ExperimentSample) -> int:
    lengths = {len(g.letters) for g in sample.generators}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError("cannot infer the factor count from unequal generator lengths")
    return len(sample.sentence.letters) // lengths.pop()


def ranked_positions(scores: Sequence[int], rng: random.Random) -> tuple[int, ...]:
    """1-based rank of each entry, equal-score runs shuffled uniformly."""
    order = sorted(range(len(scores)), key=lambda g: scores[g])
    start = 0
    while start < len(order):
        stop = start
        while stop < len(order) and scores[order[stop]] == scores[order[start]]:
            stop += 1
        if stop - start > 1:
            block = order[start:stop]
            rng.shuffle(block)
            order[start:stop] = block
        start = stop
    positions = [0] * len(scores)
    for rank, g in enumerate(order, start=1):
        positions[g] = rank
    return tuple(positions)


def rank_generators(
    sample: ExperimentSample, metric: LengthMetric, rng: random.Random
) -> tuple[int, ...]:
    """Positions of all signed generators under the metric scores.

    The scores are the lengths of the solver's peels of X, in the order of
    :func:`garsidekit.solver.signed_peels`: position ``2*(j-1)`` belongs to
    ``a_j`` (the score of ``a_j^-1 X``), position ``2*(j-1) + 1`` to
    ``a_j^-1``. X is built from the generators' forms as in
    :func:`compute_cor`, with the same errors for a sentence that is not
    the generators' product.
    """
    code, n = metric.kind_code, sample.sentence.structure.strand_count
    gen_nfs = [metric_nf(g, metric) for g in sample.generators]
    target = _sentence_prefixes(sample, code, n, gen_nfs)[-1]
    peels = signed_peels(code, n, gen_nfs)
    scores = kernels.peel_lengths(code, n, peels, *target, metric.rational)
    return ranked_positions(scores, rng)


def best_cor_position(positions: Sequence[int], cor: Iterable[int]) -> int:
    """Best rank attained by the positive copy of a correct generator."""
    return min(positions[2 * (i - 1)] for i in cor)


def _sample_positions(cfg: ExperimentConfig, index: int, metrics: tuple[LengthMetric, ...]) -> tuple[int, ...]:
    sample = gen_sample(cfg, index)
    cor = compute_cor(sample)
    out = []
    for metric in metrics:
        rng = child_rng(cfg.seed, "rank", index)
        positions = rank_generators(sample, metric, rng)
        out.append(best_cor_position(positions, cor))
    return tuple(out)


def _run_tasks(
    task: Callable[[int], tuple[int, ...]],
    count: int,
    workers: int,
) -> list[tuple[int, ...]]:
    if workers <= 1:
        return [task(i) for i in range(count)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, range(count), chunksize=max(count // (4 * workers), 1)))


def _histogram(best_positions: Iterable[int], ng: int) -> ExperimentResult:
    counts = [0] * (2 * ng)
    for p in best_positions:
        counts[p - 1] += 1
    return ExperimentResult(tuple(counts))


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Accumulate the best-position histogram over all samples."""
    task = functools.partial(_sample_positions, cfg, metrics=(cfg.metric,))
    rows = _run_tasks(task, cfg.samples, workers)
    return _histogram((row[0] for row in rows), cfg.ng)


@dataclasses.dataclass(frozen=True)
class MetricComparison:
    """Paired results on identical samples; diffs are second minus first."""

    config_a: ExperimentConfig
    config_b: ExperimentConfig
    result_a: ExperimentResult
    result_b: ExperimentResult

    @property
    def diffs(self) -> tuple[float, ...]:
        return tuple(
            b - a for a, b in zip(self.result_a.cumulative, self.result_b.cumulative)
        )

    def fraction_nonneg(self) -> float:
        """Share of the first ``WINDOW`` positions where b's curve is not below a's."""
        diffs = self.diffs[:WINDOW]
        return sum(1 for d in diffs if d >= 0) / len(diffs)

    def area(self) -> float:
        """Sum of the differences over the first ``WINDOW`` positions."""
        return sum(self.diffs[:WINDOW])


def compare_metrics(
    cfg_a: ExperimentConfig,
    cfg_b: ExperimentConfig,
    workers: int = 1,
) -> MetricComparison:
    """Run both metrics on identical samples (identical seeds required)."""
    if dataclasses.replace(cfg_a, metric=cfg_b.metric) != cfg_b:
        raise ValueError(
            "comparison configs must agree on everything except the metric"
        )
    task = functools.partial(_sample_positions, cfg_a, metrics=(cfg_a.metric, cfg_b.metric))
    rows = _run_tasks(task, cfg_a.samples, workers)
    result_a = _histogram((row[0] for row in rows), cfg_a.ng)
    result_b = _histogram((row[1] for row in rows), cfg_b.ng)
    return MetricComparison(cfg_a, cfg_b, result_a, result_b)


# ---------------------------------------------------------------------------
# Output files


def write_csv(result: ExperimentResult, path: str) -> None:
    """One row per position: position,count,probability,cumulative."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["position", "count", "probability", "cumulative"])
        samples = result.samples
        rows = zip(result.histogram, result.cumulative)
        for position, (count, cumulative) in enumerate(rows, start=1):
            writer.writerow([position, count, count / samples, cumulative])


def write_svg(curves: Sequence[tuple[str, ExperimentResult]], path: str) -> None:
    """Polyline plot of the first ``WINDOW`` positions of the
    accumulated-probability curves."""
    width, height, margin = 640, 400, 45
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    span = max(min(WINDOW, len(result.cumulative)) for _, result in curves)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - 10}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{margin}" y2="10" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 8}" font-size="12">best position'
        f' (first {span})</text>',
        f'<text x="8" y="20" font-size="12">accumulated probability</text>',
    ]
    for idx, (label, result) in enumerate(curves):
        color = colors[idx % len(colors)]
        points = []
        values = result.cumulative[:span]
        for i, value in enumerate(values):
            x = margin + (width - margin - 10) * i / max(span - 1, 1)
            y = (height - margin) - (height - margin - 10) * value
            points.append(f"{x:.1f},{y:.1f}")
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{" ".join(points)}"/>'
        )
        parts.append(
            f'<text x="{width - 170}" y="{20 + 16 * idx}" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
