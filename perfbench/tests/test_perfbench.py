"""Self-tests of the benchmark: generators, output checks and span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import json
import logging
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import dagplace  # noqa: E402
import dagplace.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import CliTreeEval, CostReplan, WORKLOADS  # noqa: E402


def reference(name):
    return json.loads((BENCH / "reference" / f"{name}.json").read_text())


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_selection_is_a_function_of_the_seed(name):
    wl = WORKLOADS[name]
    assert wl.select(7) == wl.select(7)
    assert wl.select(7) != wl.select(8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_selectable_job_has_a_reference(name, tmp_path):
    wl = WORKLOADS[name]
    ref = reference(name)
    for seed in range(5):
        keys = [job.key for job in wl.jobs(wl.setup(wl.select(seed), tmp_path), tmp_path / "out")]
        assert len(set(keys)) == len(keys)
        assert all(key in ref for key in keys)


def test_cost_replan_instances_are_deterministic():
    a, b = CostReplan.instance((8, 2, 10), 3), CostReplan.instance((8, 2, 10), 3)
    assert a.net == b.net
    assert a.cg.edges == b.cg.edges and (a.cg.processing == b.cg.processing).all()
    assert [(label, cg.edges, edits) for label, cg, edits in a.replans] == \
        [(label, cg.edges, edits) for label, cg, edits in b.replans]
    assert CostReplan.instance((8, 2, 10), 4).net != a.net


def test_cli_input_files_are_deterministic(tmp_path):
    wl = CliTreeEval()
    for d in ("a", "b"):
        wl.setup(wl.select(5), tmp_path / d)
    files = sorted(p.name for p in (tmp_path / "a" / "in").iterdir())
    assert files
    for name in files:
        assert (tmp_path / "a" / "in" / name).read_bytes() == \
            (tmp_path / "b" / "in" / name).read_bytes()
    assert CliTreeEval().tree_docs((64, 511), 0) != CliTreeEval().tree_docs((64, 511), 1)


@pytest.mark.parametrize("p,k", [(127, 24), (511, 32), (40, 39)])
def test_in_tree_shape(p, k):
    import random

    succ = workloads.in_tree(random.Random(p), p, k)
    assert sorted(succ) == list(range(p - 1))
    has_pred = {v for v in succ.values()}
    assert all(w in has_pred for w in range(k, p))  # every internal vertex is fed
    assert all(w not in has_pred for w in range(k))  # sources have no inputs
    for w in range(p - 1):  # and everything drains into the sink
        seen = set()
        while w != p - 1:
            assert w not in seen
            seen.add(w)
            w = succ[w]


# ---------------------------------------------------------------------------
# output checks


def _cost_replan_jobs(tmp_path):
    wl = CostReplan()
    return wl, wl.setup([((8, 2, 10), 0)], tmp_path)


def test_cost_replan_jobs_pass_their_checks(tmp_path):
    wl, inputs = _cost_replan_jobs(tmp_path)
    ref = reference(wl.name)
    for job in wl.jobs(inputs, tmp_path):
        assert workloads.judge(job, job.run(), ref) == "ok", job.key


def test_a_cost_off_by_one_is_a_failure(tmp_path):
    wl, inputs = _cost_replan_jobs(tmp_path)
    ref = reference(wl.name)
    for job in wl.jobs(inputs, tmp_path):
        emb, cost, dm = job.run()
        assert workloads.judge(job, (emb, cost + 1, dm), ref) == "fail", job.key


def test_the_runner_counts_a_corrupted_result(tmp_path):
    wl, inputs = _cost_replan_jobs(tmp_path)

    class Corrupted:
        name = wl.name

        def jobs(self, inputs, outdir):
            jobs = wl.jobs(inputs, outdir)
            honest = jobs[0].run
            jobs[0].run = lambda: (lambda e, c, d: (e, c + 1, d))(*honest())
            return jobs

    r = run.run_round(Corrupted(), inputs, tmp_path, reference(wl.name), False, 0)
    assert r.statuses.count("fail") == 1 and r.statuses[0] == "fail"
    assert r.statuses.count("ok") == len(r.statuses) - 1


def test_known_bad_job_fails_unless_it_exits_2(tmp_path):
    job = workloads.Job("bad/x", lambda: None, known_bad=True)
    ref = {"bad/x": "raise:ValueError"}
    assert workloads.judge(job, workloads.JobError("ValueError", ""), ref) == "known"
    assert workloads.judge(job, workloads.JobError("TypeError", ""), ref) == "fail"
    assert workloads.judge(job, workloads.CliResult(1, "", ()), ref) == "fail"
    assert workloads.judge(job, workloads.CliResult(2, "", ()), ref) == "ok"


# ---------------------------------------------------------------------------
# spans


def test_self_time_of_nested_spans():
    # (name, start, end, parent)
    nested = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
        ("e", 12.0, 15.0, -1),
    ]
    assert spans.self_times(nested) == [3.0, 2.0, 1.0, 4.0, 3.0]
    assert spans.uncovered_time(20.0, nested) == 7.0
    assert sum(spans.self_times(nested)) + spans.uncovered_time(20.0, nested) == 20.0


def test_overlapping_children_are_not_subtracted_twice():
    assert spans.self_times([("p", 0.0, 10.0, -1), ("x", 1.0, 5.0, 0), ("y", 3.0, 6.0, 0)])[0] == 5.0


def test_tracer_records_nesting_and_restores_functions(capsys):
    fixtures = BENCH.parent / "fixtures"
    argv = ["validate", "--network", str(fixtures / "prodsum_net.json"),
            "--computation", str(fixtures / "prodsum_cg.json")]
    original = dagplace.cli.build_network
    tracer = spans.Tracer()
    with spans.installed(tracer) as missing:
        assert missing == []
        tracer.active = True
        assert dagplace.cli.main(argv) == 0
        tracer.active = False
    traced_out = capsys.readouterr().out
    assert dagplace.cli.build_network is original
    assert dagplace.cli.main(argv) == 0
    assert capsys.readouterr().out == traced_out
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main"
    load = names.index("cli.load_network")
    assert tracer.spans[load][3] == 0
    assert tracer.spans[names.index("model.build_network")][3] == load


def test_resample_counter_reads_the_harness_debug_log():
    counter = spans.ResampleCounter()
    log = logging.getLogger("dagplace.harness")
    old = log.level
    log.addHandler(counter)
    log.setLevel(logging.DEBUG)
    try:
        for seed in range(4):  # these draws resample 0, 2, 6 and 4 times
            dagplace.harness.random_network(30, 0.1, seed)
    finally:
        log.removeHandler(counter)
        log.setLevel(old)
    assert counter.resamples == 12


def test_tail_percentile_leaves_ten_jobs_beyond_it():
    for jobs in (30, 54, 61):
        pct = run.tail_percentile(jobs)
        values = list(range(jobs))
        assert jobs - 1 - run.nearest_rank(values, pct) >= run.TAIL_BEYOND
        assert jobs - 1 - run.nearest_rank(values, pct + 1) < run.TAIL_BEYOND


def test_job_latency_is_the_least_time_over_rounds():
    rounds = [run.Round(False, lat, [], [], 0.0) for lat in ([3.0, 1.0], [2.0, 5.0], [4.0, 0.5])]
    assert run.job_latencies(rounds) == [2.0, 0.5]
