"""A traced benchmark round still reads what it needs from the solvers.

``perfbench/spans.py`` computes its work counts from the arguments and
results of the traced functions: ``LayeredDPState.p``, ``.layer``, ``.r``,
``.pinned`` and ``.n``, a decomposition's ``bags``, a graph's ``sources`` and
``sink``.  Renaming one of them fails only a ``--trace 1`` run, so this test
traces one ``cost_replan`` instance and pins its counts.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
from workloads import CostReplan  # noqa: E402


def test_traced_cost_replan_counts(tmp_path):
    wl = CostReplan()
    jobs = wl.jobs(wl.setup([((8, 2, 10), 0)], tmp_path), tmp_path)
    tracer = spans.Tracer()
    with spans.installed(tracer) as missing:
        assert missing == []
        tracer.active = True
        for job in jobs:
            job.run()
        tracer.active = False
    assert tracer.counts() == {
        "model.apsp.pairs": 300.0,
        "solver_layered.min_cost_layered.cells": 50200.0,
        "solver_layered.apply_perturbations.cells": 150600.0,
        "solver_treewidth.min_cost_treewidth.cells": 105511.0,
    }
