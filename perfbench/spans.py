"""Span tracing of dagplace's public functions, from outside the package.

Each traced function is replaced, for the duration of a traced round, at
every place its callers look it up: the defining module, the package
namespace and every dagplace module that imported it by name (for example
``dagplace.cli.apsp`` and ``dagplace.harness.apsp``).  The wrapper records
one span per call -- name, start, end, parent span and job -- in memory.

Work counts (``.cells``, ``.hops``, ``.embeddings``, ``.pairs``) are computed
by the benchmark from the shapes of the arguments and results after the
round, outside any span.  They describe the instance; the program does not
count them.
"""

from __future__ import annotations

import functools
import inspect
import logging
import math
import os
import re
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function); the span name is "module.function"
TRACED = (
    ("model", "apsp"),
    ("model", "build_network"),
    ("model", "build_computation"),
    ("model", "infer_layering"),
    ("solver_tree", "min_delay_tree"),
    ("solver_layered", "min_cost_layered"),
    ("solver_layered", "apply_perturbations"),
    ("solver_treewidth", "min_cost_treewidth"),
    ("solver_treewidth", "min_fill_decomposition"),
    ("solver_treewidth", "layered_path_decomposition"),
    ("metrics", "capacity_aware_delay"),
    ("metrics", "embedding_delay"),
    ("metrics", "embedding_cost"),
    ("metrics", "max_link_usage"),
    ("oracle", "brute_force_min_delay"),
    ("harness", "random_network"),
    ("harness", "experiment_link_usage"),
    ("harness", "experiment_k2_gap"),
    ("cli", "main"),
    ("cli", "load_network"),
    ("cli", "load_computation"),
    ("cli", "save_state"),
    ("cli", "load_state"),
)


# ---------------------------------------------------------------------------
# self-time arithmetic


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.  ``spans`` holds (name, start, end, parent)
    tuples, possibly with more fields; parent is an index or -1."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = union_length(
            (max(start, spans[c][1]), min(end, spans[c][2])) for c in children[i]
        )
        out.append((end - start) - covered)
    return out


def uncovered_time(wall: float, spans) -> float:
    """Part of ``wall`` that no top-level span covers (benchmark time)."""
    return wall - union_length((s[1], s[2]) for s in spans if s[3] < 0)


# ---------------------------------------------------------------------------
# computed work counts, keyed by span name


def _domain_size(vertices, pinned, n) -> int:
    return math.prod(1 if w in pinned else n for w in vertices)


def _layer_domains(layer, r, pinned, n) -> list[int]:
    layers = [[] for _ in range(r)]
    for w, l in enumerate(layer):
        layers[l - 1].append(w)
    return [_domain_size(ws, pinned, n) for ws in layers]


def _pinned(cg) -> set:
    return set(cg.sources) | {cg.sink}


def _count_apsp(a, result):
    return {"pairs": a["net"].n ** 2}


def _count_tree(a, result):
    return {"cells": a["cg"].p * a["net"].n ** 2}


def _count_layered(a, result):
    ls = a["ls"]
    dom = _layer_domains(ls.layer, ls.r, _pinned(a["cg"]), a["net"].n)
    return {"cells": sum(x * y for x, y in zip(dom, dom[1:]))}


def _replan_start(state, edits) -> int:
    """First layer whose table apply_perturbations rebuilds."""
    layer = list(state.layer)
    start = state.r
    for (u, v, _), lay in edits:
        if u >= state.p or v >= state.p:
            start = min(start, max(1, lay - 1))
        else:
            start = min(start, layer[u], layer[v])
    return start


def _count_replan(a, result):
    state = a["state"]
    if not a["edits"]:
        return {"cells": 0}
    new_state = result[2]
    dom = _layer_domains(new_state.layer, new_state.r, dict(new_state.pinned), new_state.n)
    start = _replan_start(state, a["edits"])
    return {"cells": sum(dom[l - 1] * dom[l] for l in range(start, new_state.r))}


def _count_treewidth(a, result):
    pinned = _pinned(a["cg"])
    return {"cells": sum(_domain_size(bag, pinned, a["net"].n) for bag in a["td"].bags)}


def _count_capdelay(a, result):
    from dagplace.model import extract_path

    cg, dm, asg = a["cg"], a["dm"], a["e"].assignment
    hops = sum(len(extract_path(dm, asg[u], asg[v])) - 1 for u, v, _ in cg.edges)
    return {"hops": hops}


def _count_oracle(a, result):
    cg = a["cg"]
    return {"embeddings": a["net"].n ** (cg.p - len(_pinned(cg)))}


def _count_state(a, result):
    return {"bytes": os.path.getsize(a["path"])}


COUNTERS = {
    "model.apsp": _count_apsp,
    "solver_tree.min_delay_tree": _count_tree,
    "solver_layered.min_cost_layered": _count_layered,
    "solver_layered.apply_perturbations": _count_replan,
    "solver_treewidth.min_cost_treewidth": _count_treewidth,
    "metrics.capacity_aware_delay": _count_capdelay,
    "oracle.brute_force_min_delay": _count_oracle,
    "cli.save_state": _count_state,
}


# ---------------------------------------------------------------------------
# the tracer


class ResampleCounter(logging.Handler):
    """Sums the resample counts that harness.random_network logs at DEBUG."""

    _PATTERN = re.compile(r"connected after (\d+) resamples")

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.resamples = 0

    def emit(self, record):
        m = self._PATTERN.match(record.getMessage())
        if m:
            self.resamples += int(m.group(1))


class Tracer:
    """In-memory span recorder.  Spans are (name, start, end, parent, job)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._pending: list = []  # (span index, counter, fn, args, kwargs, result)
        self.job = -1
        self.active = False

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            spans, stack = self.spans, self._stack
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.job)
            if counter is not None:
                self._pending.append((sid, counter, fn, args, kwargs, result))
            return result

        return traced

    def counts(self) -> dict[str, float]:
        """Compute the deferred work counts of the spans recorded so far."""
        out: dict[str, float] = defaultdict(float)
        for sid, counter, fn, args, kwargs, result in self._pending:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            name = self.spans[sid][0]
            for key, value in counter(bound.arguments, result).items():
                out[f"{name}.{key}"] += value
        self._pending.clear()
        return out


@contextmanager
def installed(tracer: Tracer):
    """Put the tracer's wrappers in place of every function in TRACED,
    wherever dagplace modules reference it; yields the names not found."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "dagplace" or name.startswith("dagplace."))]
    undo, missing = [], []
    for mod_name, fn_name in TRACED:
        home = sys.modules.get(f"dagplace.{mod_name}")
        fn = getattr(home, fn_name, None)
        if fn is None:
            missing.append(f"{mod_name}.{fn_name}")
            continue
        wrapper = tracer.wrap(f"{mod_name}.{fn_name}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
    try:
        yield missing
    finally:
        for mod, attr, fn in reversed(undo):
            setattr(mod, attr, fn)
