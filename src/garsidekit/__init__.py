"""Garside-group engine for braid groups.

Both classical Garside structures on the braid group are provided: the
Artin presentation (permutation simples) and the band-generator
presentation (non-crossing-partition simples). On top of the shared
lattice and normal-form machinery sit length functions with provable
distortion bounds, a memory-length beam solver for random equations, a
brute-force geodesic oracle, and a reproducible experiment harness.

The hot kernels run on a compiled backend when available; see
``garsidekit.kernels.BACKEND``.
"""

from .artin import artin_structure, artin_word
from .bkl import (
    artin_to_bkl,
    bkl_structure,
    bkl_to_artin,
    bkl_validate,
    bkl_word,
)
from .core import (
    BraidWord,
    GreedyNF,
    RationalNF,
    SimpleElement,
    StructureDescriptor,
    complement,
    enumerate_simples,
    equals,
    greedy_nf,
    join,
    left_divides,
    local_slide,
    meet,
    quotient_simple,
    rational_nf,
    recompose,
    simple_closure,
    tau_power,
)
from .lengths import (
    BoundsReport,
    LengthMetric,
    alpha,
    bounds_report,
    cross_rational_bkl,
    greedy_length,
    metric_length,
    positive_length,
    rational_length,
)
from .oracle import BallIndex, enumerate_ball, geodesic_length
from .solver import (
    EquationSpec,
    ScoredSequence,
    SearchOutcome,
    SolverConfig,
    evaluation_bound,
    memory_length_search,
    solve_equation,
    solve_with_length_range,
    verify_candidates,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentSample,
    MetricComparison,
    compare_metrics,
    compute_cor,
    gen_sample,
    rank_generators,
    run_experiment,
)
from .syntax import format_greedy, format_rational, format_word, parse_word

__version__ = "0.1.0"
