"""Memory-length beam search for random equations over braid subgroups.

One unknown is recovered at a time: candidate expressions for the leading
variable are grown one generator per step, keeping the ``M`` best-scoring
peeled targets in memory, where the score of a move sequence is the metric
length of what remains of the target after peeling those generators off
the left. Shorter residuals suggest correct peels; a zero-length residual
is an exact expression. Candidate sequences are then verified by the exact
word problem, so the solver never returns a wrong assignment; exhausting
the search proves nothing.

A search makes one ``kernels.peel_lengths`` call per distinct element it
expands: an entry that returns to an element already scored, by an inverse
move or another move order, reuses its scores, which still count once per
candidate. The store lives for one search only.

Everything is deterministic: score ties are broken by insertion order.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Mapping, Sequence

from . import kernels
from .core import BraidWord, StructureDescriptor, equals
from .errors import NoSolutionFound, StructureMismatch
from .lengths import LengthMetric, metric_length, metric_nf
from .syntax import parse_word

Token = tuple[str, int]


class SearchTimeout(NoSolutionFound):
    """The wall-clock budget ran out before the search finished."""


@dataclasses.dataclass(frozen=True, eq=False)
class EquationSpec:
    """A single equation ``target = w(x_1..x_k, p_1..p_n)``.

    The template is a freely reduced sequence of signed references to
    variables (keys of ``subgroup_generators``) and parameters. Variables
    range over the subgroup generated by their generator list.
    """

    template: tuple[Token, ...]
    subgroup_generators: Mapping[str, tuple[BraidWord, ...]]
    parameters: Mapping[str, BraidWord]
    target: BraidWord

    def __post_init__(self):
        names = set(self.subgroup_generators) | set(self.parameters)
        if set(self.subgroup_generators) & set(self.parameters):
            raise ValueError("a name cannot be both variable and parameter")
        for name, sign in self.template:
            if name not in names:
                raise ValueError(f"template references unknown name {name!r}")
            if sign not in (1, -1):
                raise ValueError(f"bad sign {sign!r} in template")
        for (a, sa), (b, sb) in zip(self.template, self.template[1:]):
            if a == b and sa == -sb:
                raise ValueError("template is not freely reduced")

    @property
    def variables(self) -> tuple[str, ...]:
        """Variable names in order of first occurrence."""
        seen: list[str] = []
        for name, _ in self.template:
            if name in self.subgroup_generators and name not in seen:
                seen.append(name)
        return tuple(seen)

    @classmethod
    def from_json(cls, doc: dict, structure: StructureDescriptor) -> "EquationSpec":
        """Wire format::

            {"template": ["x1", "p1", "x1^-1"],
             "generators": {"x1": ["s1 s1", "s2 s2"]},
             "parameters": {"p1": "s2"},
             "target": "s1 s2 s1"}

        ``generators`` and ``parameters`` may be left out; any other shape
        raises ``ValueError``.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"an equation spec must be a JSON object, not {doc!r}")
        generators = doc.get("generators", {})
        parameters = doc.get("parameters", {})
        if not (
            isinstance(generators, dict)
            and isinstance(parameters, dict)
            and _strings(doc.get("template"))
            and _strings([doc.get("target"), *parameters.values()])
            and all(map(_strings, generators.values()))
        ):
            raise ValueError(f"an equation spec not of the wire format: {doc!r}")
        template = tuple(_parse_token(t) for t in doc["template"])
        generators = {
            name: tuple(parse_word(w, structure) for w in words)
            for name, words in generators.items()
        }
        parameters = {name: parse_word(w, structure) for name, w in parameters.items()}
        return cls(template, generators, parameters, parse_word(doc["target"], structure))


def _strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _parse_token(text: str) -> Token:
    if text.endswith("^-1"):
        return text[:-3], -1
    return text, 1


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Beam parameters: expression length, memory width, scoring metric.

    ``cutoffs`` caps how many beam survivors are tried per variable when
    iterating over several unknowns; it defaults to the full memory.
    """

    n: int
    memory: int
    metric: LengthMetric
    cutoffs: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.n < 0 or self.memory < 1:
            raise ValueError("need n >= 0 and memory >= 1")
        if self.cutoffs is not None and any(
            c < 1 or c > self.memory for c in self.cutoffs
        ):
            raise ValueError("cutoffs must lie in 1..memory")


@dataclasses.dataclass(frozen=True)
class ScoredSequence:
    """A candidate peel: generator moves and the metric score of the remainder."""

    moves: tuple[tuple[int, int], ...]
    score: int


@dataclasses.dataclass(frozen=True)
class SearchOutcome:
    """The surviving sequences, and ``length_evaluations``: one per scored
    candidate, 2*|gens| per beam entry, reused scores counted again."""

    sequences: tuple[ScoredSequence, ...]
    length_evaluations: int


def evaluation_bound(n: int, m: int, memory: int) -> int:
    """Worst-case budget of group operations and length evaluations."""
    return n * (n + 4 * m + 1) * memory // 2


def signed_peels(code: int, n: int, forms: Sequence[tuple]) -> list[tuple]:
    """The forms that peel the signed generators, in the one order that the
    beam and the ranking share.

    Entry ``2*(j-1)`` is the form of ``g_j ** -1``, the peel of move
    ``(j, 1)``; entry ``2*(j-1) + 1`` is ``forms[j-1]`` itself, the peel of
    move ``(j, -1)``. ``forms`` holds the generators' normal forms in the
    structure ``(code, n)``.
    """
    return [p for nf in forms for p in (kernels.invert_nf(code, n, *nf), nf)]


def memory_length_search(
    c: BraidWord,
    gens: Sequence[BraidWord],
    cfg: SolverConfig,
    deadline: float | None = None,
) -> SearchOutcome:
    """Beam search for length-``n`` expressions of the leading factor of c.

    Returns at most ``memory`` move sequences sorted by (score, insertion
    order); a move ``(j, sign)`` peels ``gens[j-1] ** -sign`` off the left.
    A beam entry scores all its 2*|gens| peels with one
    ``kernels.peel_lengths`` call, which builds none of the products, or
    reuses the scores of an earlier entry with the same element: one call
    per distinct element of the search. A survivor's normal form is built
    only when the next step expands it. The length-evaluation counter
    counts one per scored candidate, reused or not, and excludes the score
    of ``c`` itself, which is only used for the trivial ``n=0`` search.
    """
    if not gens:
        raise ValueError("need at least one subgroup generator")
    for g in gens:
        if g.structure != c.structure:
            raise StructureMismatch("generators and target must share a structure")
    metric = cfg.metric
    if cfg.n == 0:
        return SearchOutcome((ScoredSequence((), metric_length(c, metric)),), 0)
    code, n = metric.kind_code, c.structure.strand_count
    peel_nfs = signed_peels(code, n, [metric_nf(g, metric) for g in gens])
    peel_moves = [(j, sign) for j in range(1, len(gens) + 1) for sign in (1, -1)]
    width = len(peel_nfs)

    # A beam entry (moves, peel, nf) stands for the form peel * nf, built
    # only when the entry is expanded: the last step's survivors never are.
    evaluations = 0
    beam: list[tuple[tuple[tuple[int, int], ...], tuple, tuple]] = [
        ((), (0, ()), metric_nf(c, metric))
    ]
    # The peels' scores of each element this search has expanded, keyed by
    # its greedy normal form: equal forms are equal elements, so an inverse
    # move or another move order that returns to one reuses its scores.
    # At most 1 + memory*(n-1) keys, dropped when the search returns.
    scored: dict[tuple, tuple[int, ...]] = {}
    for _step in range(cfg.n):
        scores: list[int] = []
        forms = []
        for _moves, peel, nf in beam:
            # Once per beam entry, so a wide step stops within one product
            # and 2*|gens| scores.
            if deadline is not None and time.monotonic() > deadline:
                raise SearchTimeout("memory-length search hit its deadline")
            nf = kernels.multiply_nf(code, n, *peel, *nf)
            forms.append(nf)
            lengths = scored.get(nf)
            if lengths is None:
                lengths = scored[nf] = kernels.peel_lengths(
                    code, n, peel_nfs, *nf, metric.rational
                )
            scores += lengths
        evaluations += len(scores)
        # sorted() is stable, so score ties keep insertion order.
        best = sorted(range(len(scores)), key=scores.__getitem__)[: cfg.memory]
        beam = [
            (beam[e][0] + (peel_moves[m],), peel_nfs[m], forms[e])
            for e, m in (divmod(i, width) for i in best)
        ]
    sequences = tuple(
        ScoredSequence(moves, scores[i]) for (moves, _peel, _nf), i in zip(beam, best)
    )
    return SearchOutcome(sequences, evaluations)


def moves_to_word(moves: Sequence[tuple[int, int]], gens: Sequence[BraidWord]) -> BraidWord:
    """The expression the move sequence proposes for the peeled element."""
    if not gens:
        raise ValueError("need generators")
    word = gens[0].structure.word()
    for j, sign in moves:
        g = gens[j - 1]
        word = word * (g if sign > 0 else g.inverse())
    return word


def substitute(eq: EquationSpec, assignment: Mapping[str, BraidWord]) -> BraidWord:
    """Template value under an assignment of every variable."""
    word = eq.target.structure.word()
    for name, sign in eq.template:
        value = assignment.get(name)
        if value is None:
            value = eq.parameters.get(name)
        if value is None:
            raise ValueError(f"no value for {name!r}")
        word = word * (value if sign > 0 else value.inverse())
    return word


def verify_candidates(
    cands: Sequence[ScoredSequence], eq: EquationSpec
) -> dict[str, BraidWord] | None:
    """First candidate that satisfies a single-unknown equation, if any."""
    variables = eq.variables
    if len(variables) != 1:
        raise ValueError("verify_candidates needs exactly one unknown")
    var = variables[0]
    gens = eq.subgroup_generators[var]
    for cand in cands:
        proposal = moves_to_word(cand.moves, gens)
        assignment = {var: proposal}
        if equals(eq.target, substitute(eq, assignment)):
            return assignment
    return None


def _peel_known(
    eq: EquationSpec,
    assignment: Mapping[str, BraidWord],
    template: tuple[Token, ...],
    target: BraidWord,
) -> tuple[tuple[Token, ...], BraidWord]:
    """Strip leading known tokens off the template, dividing the target."""
    while template:
        name, sign = template[0]
        value = assignment.get(name)
        if value is None:
            value = eq.parameters.get(name)
        if value is None:
            break
        signed = value if sign > 0 else value.inverse()
        target = signed.inverse() * target
        template = template[1:]
    return template, target


def solve_equation(
    eq: EquationSpec, cfg: SolverConfig, timeout: float | None = None
) -> dict[str, BraidWord]:
    """Find an assignment satisfying the equation, or raise.

    Unknowns are recovered left to right; each beam's top survivors (up to
    the configured cutoff) are tried before backtracking, so at most the
    product of the cutoffs is explored. The expression length ``cfg.n``
    applies to every variable. The returned assignment always satisfies
    the equation exactly; :class:`NoSolutionFound` means only that the
    search was exhausted.
    """
    deadline = time.monotonic() + timeout if timeout is not None else None
    variables = eq.variables
    cutoffs = cfg.cutoffs or (cfg.memory,) * len(variables)
    if len(cutoffs) < len(variables):
        raise ValueError(f"{len(variables)} variables need that many cutoffs")

    def recurse(assignment: dict[str, BraidWord], depth: int):
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout("solve_equation hit its deadline")
        template, target = _peel_known(eq, assignment, eq.template, eq.target)
        if not template:
            if equals(target, eq.target.structure.word()):
                return dict(assignment)
            return None
        name, sign = template[0]
        gens = eq.subgroup_generators[name]
        # An inverted leading unknown is recovered through its inverse,
        # which lies in the same subgroup.
        outcome = memory_length_search(target, gens, cfg, deadline)
        for cand in outcome.sequences[: cutoffs[depth]]:
            proposal = moves_to_word(cand.moves, gens)
            if sign < 0:
                proposal = proposal.inverse()
            assignment[name] = proposal
            found = recurse(assignment, depth + 1)
            if found is not None:
                return found
            del assignment[name]
        return None

    result = recurse({}, 0)
    if result is None:
        raise NoSolutionFound(
            "beam search exhausted without a verified assignment"
        )
    return result


def solve_with_length_range(
    eq: EquationSpec,
    cfg: SolverConfig,
    n_values: Sequence[int],
    timeout: float | None = None,
) -> dict[str, BraidWord]:
    """Retry :func:`solve_equation` over candidate expression lengths."""
    deadline = time.monotonic() + timeout if timeout is not None else None
    for n in n_values:
        remaining = None if deadline is None else max(deadline - time.monotonic(), 0.0)
        try:
            return solve_equation(
                eq, dataclasses.replace(cfg, n=n), timeout=remaining
            )
        except NoSolutionFound:
            continue
    raise NoSolutionFound(f"no solution for any expression length in {list(n_values)}")
