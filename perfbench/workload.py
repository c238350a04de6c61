"""One workload process: set up, time whole rounds, trace, check, report.

``run.py`` starts this module (``python -m workload``) with the environment
it needs; it is not meant to be started by hand. The last line of standard output is the
result object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback

import backend
import tracing
import workloads

clock = time.perf_counter


@dataclasses.dataclass(frozen=True)
class Crash:
    message: str


@dataclasses.dataclass
class Phase:
    best: list[float]  # each operation's shortest time over the rounds, by index
    rounds: int
    digests: list
    steady: bool  # every round gave the same digests


def run_op(op):
    try:
        return op()
    except Exception as exc:  # a crash is a failed operation, not a failed run
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return Crash(f"{type(exc).__name__}: {exc} ({where.filename}:{where.lineno})")


def measure(wl, ops, order, seconds: float | None = None, rounds: int | None = None) -> Phase:
    """Whole rounds until ``seconds`` of operation time, or ``rounds`` rounds.

    Operations run in ``order``, the same in every round, so that each kind
    is spread over the round. An operation's time is its best over the
    rounds: the machine's own slow spells then move the figures less.
    """
    phase = Phase([math.inf] * len(ops), 0, [], True)
    busy = 0.0
    while True:
        digests = [None] * len(ops)
        for i in order:
            start = clock()
            out = run_op(ops[i])
            elapsed = clock() - start
            phase.best[i] = min(phase.best[i], elapsed)
            busy += elapsed
            digests[i] = out if isinstance(out, Crash) else wl.digest(i, out)
            out = None
        if phase.rounds == 0:
            phase.digests = digests
        elif digests != phase.digests:
            phase.steady = False
        phase.rounds += 1
        if (rounds is not None and phase.rounds >= rounds) or (
            rounds is None and busy >= seconds
        ):
            return phase


def check_round(wl):
    """One untimed round with probes; returns outputs and probe records."""
    records: dict[str, list] = {}

    def recorder(store):
        def make(fn):
            def probed(*args, **kwargs):
                result = fn(*args, **kwargs)
                store.append((args, result))
                return result

            return probed

        return make

    undo = [
        tracing.patch_everywhere(module, fn, recorder(records.setdefault(key, [])))
        for (module, fn), key in wl.probes().items()
    ]
    try:
        outputs = [run_op(op) for op in wl.ops]
    finally:
        for u in undo:
            u()
    return outputs, records


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(phase.best) / sum(phase.best), "op/s"),
        "op_ms_p50": (1000 * statistics.median(phase.best), "ms"),
        "op_ms_p95": (1000 * percentile(phase.best, 0.95), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, untraced: Phase, traced: Phase, facts: dict) -> dict:
    rounds = traced.rounds
    calls, self_s = tracer.self_times()
    out = {}
    for layer, _, fn in tracing.TARGETS:
        name = f"{layer}.{fn}"
        out[f"{name}.calls"] = (calls[name] / rounds, "count")
        out[f"{name}.self_s"] = (self_s[name] / rounds, "s")
    out[f"{tracing.OP}.self_s"] = (self_s[tracing.OP] / rounds, "s")

    def per_round(key):
        return tracer.counts[key] / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    out["kernels.word_to_nf.letters"] = (per_round("kernels.word_to_nf.letters"), "count")
    out["kernels.factor_bytes"] = (per_round("kernels.factor_bytes"), "B")
    solved = facts.get("solved", 0)
    equals_in_solver = tracer.count_under("core.equals", "solver.solve_equation") / rounds
    out["solver.length_evaluations"] = (per_round("solver.length_evaluations"), "count")
    out["solver.solved"] = (solved, "count")
    out["solver.candidates_per_solve"] = (ratio(equals_in_solver, solved), "count")
    nf_in_experiments = tracer.count_under("kernels.word_to_nf", "experiments.compare_metrics")
    out["experiments.word_to_nf_per_sample"] = (
        ratio(nf_in_experiments / rounds, facts.get("samples", 0)),
        "count",
    )
    in_balls = tracer.count_under("kernels.multiply_nf", "oracle.enumerate_ball") / rounds
    in_queries = tracer.count_under("kernels.multiply_nf", "oracle.geodesic_length") / rounds
    out["oracle.expansions"] = (in_balls + in_queries, "count")
    out["oracle.new_state_ratio"] = (ratio(facts.get("ball_states", 0), in_balls), "ratio")
    out["oracle.geodesic_length.expansions_per_query"] = (
        ratio(in_queries, facts.get("queries", 0)),
        "count",
    )
    balls = facts.get("ball_ops", 0)
    out["oracle.ball_s"] = (sum(untraced.best[:balls]), "s")
    traced_s, untraced_s = sum(traced.best), sum(untraced.best)
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.overhead_ratio"] = (ratio(traced_s - untraced_s, untraced_s), "ratio")
    out["trace.spans"] = (len(tracer.start) / rounds, "count")
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    spawned = float(os.environ["PERFBENCH_SPAWNED"])
    backend.install_finder(os.environ["PERFBENCH_SPEED"])

    import garsidekit as gk

    cls = workloads.WORKLOADS[args.workload]
    if gk.kernels.BACKEND != cls.backend:
        print(
            f"{args.workload} needs the {cls.backend} backend, found {gk.kernels.BACKEND}",
            file=sys.stderr,
        )
        return 3
    wl = cls(gk, args.seed)
    order = list(range(len(wl.ops)))
    random.Random(f"order:{args.seed}").shuffle(order)
    setup_s = time.monotonic() - spawned

    untraced = measure(wl, wl.ops, order, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases = [untraced]
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_ops = [tracer.wrap(tracing.OP, op) for op in wl.ops]
            # One round: the oracle's spans alone take about 65 MB a round.
            traced = measure(wl, traced_ops, order, rounds=1)
        finally:
            tracer.uninstall()
        phases.append(traced)

    outputs, records = check_round(wl)
    crashed = {i for i, out in enumerate(outputs) if isinstance(out, Crash)}
    digests = [out if i in crashed else wl.digest(i, out) for i, out in enumerate(outputs)]
    problems = [f"op {i} crashed: {outputs[i].message}" for i in sorted(crashed)][:20]
    if any(not p.steady or p.digests != digests for p in phases):
        problems.append("outputs differ between rounds")
    rejected = set(crashed)
    if not crashed:
        report = wl.check(outputs, records)
        rejected |= report.rejected
        problems += report.problems
    facts = wl.facts(outputs) if not crashed else {}

    if args.trace:
        metrics = per_layer(tracer, untraced, traced, facts)
    else:
        metrics = end_to_end(untraced, setup_s, peak_rss_mb)
    result = {
        "correct": not problems,
        "attempted": untraced.rounds * len(wl.ops),
        "failed": untraced.rounds * len(rejected),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": gk.kernels.BACKEND,
        "build": json.loads(os.environ["PERFBENCH_BUILD"]),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "ops_per_round": len(wl.ops),
        "rounds": untraced.rounds,
        "problems": problems,
    }
    record = {"provenance": provenance, "result": result}
    results_dir = os.path.join(backend.BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results_dir, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(
            os.path.join(backend.BUILD_DIR, "trace", f"{args.workload}.spans"),
            {"workload": args.workload, "seed": args.seed, "rounds": traced.rounds},
        )
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
