"""Spans at the program's layer boundaries, recorded from outside.

The program's source is not edited. Each traced public function is
replaced, in every ``garsidekit`` module namespace that holds it, by a
wrapper that appends one span (name, parent, start, end) to in-memory
arrays. Kernel functions are wrapped in the ``garsidekit.kernels``
namespace, the boundary every caller goes through; calls inside a kernel
twin stay inside its span. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import Counter
from typing import Callable

# (layer, module, function): the boundaries that get a span.
TARGETS = [
    ("kernels", "garsidekit.kernels", "word_to_nf"),
    ("kernels", "garsidekit.kernels", "multiply_nf"),
    ("kernels", "garsidekit.kernels", "invert_nf"),
    ("kernels", "garsidekit.kernels", "nf_lengths"),
    ("core", "garsidekit.core", "greedy_nf"),
    ("core", "garsidekit.core", "rational_nf"),
    ("core", "garsidekit.core", "equals"),
    ("bkl", "garsidekit.bkl", "artin_to_bkl"),
    ("bkl", "garsidekit.bkl", "bkl_to_artin"),
    ("lengths", "garsidekit.lengths", "metric_length"),
    ("lengths", "garsidekit.lengths", "to_metric_structure"),
    ("syntax", "garsidekit.syntax", "parse_word"),
    ("syntax", "garsidekit.syntax", "format_rational"),
    ("solver", "garsidekit.solver", "solve_equation"),
    ("solver", "garsidekit.solver", "memory_length_search"),
    ("experiments", "garsidekit.experiments", "compare_metrics"),
    ("experiments", "garsidekit.experiments", "gen_sample"),
    ("experiments", "garsidekit.experiments", "compute_cor"),
    ("experiments", "garsidekit.experiments", "rank_generators"),
    ("oracle", "garsidekit.oracle", "enumerate_ball"),
    ("oracle", "garsidekit.oracle", "geodesic_length"),
]
OP = "bench.op"
_TWINS = ("garsidekit.kernels._pure", "garsidekit.kernels._speed")


def patch_everywhere(module: str, name: str, make: Callable) -> Callable[[], None]:
    """Replace ``module.name`` wherever a garsidekit module refers to it.

    ``make(original)`` builds the replacement. Returns a function that
    puts the original back.
    """
    original = getattr(sys.modules[module], name)
    replacement = make(original)
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("garsidekit") or mod_name in _TWINS:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr))

    def undo():
        for mod, attr in patched:
            setattr(mod, attr, original)

    return undo


def _factor_bytes(n: int, *factor_lists) -> int:
    return n * sum(len(f) for f in factor_lists)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list[Callable[[], None]] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        nid = self._id(name)
        ids, parents, starts, ends, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        counts = self.counts

        def word_to_nf(args, result):
            counts["kernels.word_to_nf.letters"] += len(args[2])
            counts["kernels.factor_bytes"] += _factor_bytes(args[1], result[1])

        def multiply_nf(args, result):
            counts["kernels.factor_bytes"] += _factor_bytes(args[1], args[3], args[5], result[1])

        def invert_nf(args, result):
            counts["kernels.factor_bytes"] += _factor_bytes(args[1], args[3], result[1])

        def memory_length_search(args, result):
            counts["solver.length_evaluations"] += result.length_evaluations

        after = {
            "word_to_nf": word_to_nf,
            "multiply_nf": multiply_nf,
            "invert_nf": invert_nf,
            "memory_length_search": memory_length_search,
        }
        for layer, module, fn in TARGETS:
            self._undo.append(
                patch_everywhere(
                    module,
                    fn,
                    lambda f, name=f"{layer}.{fn}", hook=after.get(fn): self.wrap(name, f, hook),
                )
            )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        names, ids, parents = self.names, self.name_id, self.parent
        for i, (s, e) in enumerate(zip(self.start, self.end)):
            name = names[ids[i]]
            calls[name] += 1
            self_s[name] += e - s
            p = parents[i]
            if p >= 0:
                self_s[names[ids[p]]] -= e - s
        return calls, self_s

    def count_under(self, child: str, ancestor: str) -> int:
        """Spans named ``child`` with an ancestor span named ``ancestor``."""
        if child not in self.names or ancestor not in self.names:
            return 0
        cid, aid = self.names.index(child), self.names.index(ancestor)
        ids, parents = self.name_id, self.parent
        under = bytearray(len(ids))
        total = 0
        for i in range(len(ids)):
            p = parents[i]
            if p >= 0 and (under[p] or ids[p] == aid):
                under[i] = 1
                if ids[i] == cid:
                    total += 1
        return total

    def write(self, path: str, meta: dict) -> None:
        """One JSON header line, then the four span arrays, raw."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = dict(
            meta,
            names=self.names,
            spans=len(self.start),
            arrays=[
                ["name_id", self.name_id.typecode],
                ["parent", self.parent.typecode],
                ["start_s", self.start.typecode],
                ["end_s", self.end.typecode],
            ],
        )
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
