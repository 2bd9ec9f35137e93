"""A traced benchmark round still reads what it needs from the solvers.

``perfbench/spans.py`` computes its work counts from the arguments and
results of the traced functions: ``LayeredDPState.p``, ``.layer``, ``.r``,
``.pinned`` and ``.n``, a decomposition's ``bags``, a graph's ``sources`` and
``sink``, and ``model.extract_path`` for the hops of
``capacity_aware_delay``.  Renaming one of them fails only a ``--trace 1``
run, so these tests trace one ``cost_replan`` and one ``cli_tree_eval``
instance and pin their counts.  Each job is judged against its reference as
``run.py`` judges it, so a count cannot drop silently because its jobs failed.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
from workloads import CliTreeEval, CostReplan, JobError, judge  # noqa: E402


def traced_counts(wl, selection, tmp_path) -> dict[str, float]:
    reference = json.loads((BENCH / "reference" / f"{wl.name}.json").read_text())
    jobs = wl.jobs(wl.setup(selection, tmp_path), tmp_path / "out")
    tracer = spans.Tracer()
    failed = {}
    with spans.installed(tracer) as missing:
        assert missing == []
        for job in jobs:
            tracer.active = True
            try:
                result = job.run()
            except Exception as exc:  # judged, as run.py judges a job that raises
                result = JobError(type(exc).__name__, str(exc))
            tracer.active = False
            status = judge(job, result, reference)
            if status != "ok":
                failed[job.key] = status
    assert failed == {}
    return tracer.counts()


def test_traced_cost_replan_counts(tmp_path):
    assert traced_counts(CostReplan(), [((8, 2, 10), 0)], tmp_path) == {
        "model.apsp.pairs": 300.0,
        "solver_layered.min_cost_layered.cells": 50200.0,
        "solver_layered.apply_perturbations.cells": 150600.0,
        "solver_treewidth.min_cost_treewidth.cells": 105511.0,
    }


def test_traced_cli_tree_eval_counts(tmp_path):
    counts = traced_counts(CliTreeEval(), [((48, 127), 0)], tmp_path)
    assert counts["metrics.capacity_aware_delay.hops"] == 90.0
    assert counts["model.apsp.pairs"] == 11664.0
