"""Run one dagplace benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the script imports dagplace from ``src/`` of the checkout
that holds it and writes only under that checkout (``.perfbench_work/``,
removed at exit, and ``.perfbench_out/`` for span dumps).

A run sets up the workload's inputs five times (each time importing dagplace
in a fresh interpreter, then generating and writing the inputs) and reports
the median as ``setup_s``.  It then runs rounds of the workload's fixed batch
of jobs until ``--seconds`` are used, and at least MIN_ROUNDS rounds, so a run
can last longer than ``--seconds``.

A job's latency is the least of its times over the rounds.  The host's CPU
speed drifts in phases of seconds to minutes, by up to half, under load from
other tenants; over a run's rounds each job meets a fast phase at least once,
so the least time is the one the program sets, while a median follows the
host.  ``wall_s`` is the sum of these latencies over the batch, ``job_p50_ms``
their median and ``job_tail_ms`` the highest whole percentile of them with at
least TAIL_BEYOND jobs beyond it.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured with tracing off.  With ``--trace 1`` untraced and traced rounds
alternate; the per-layer metrics are per-round means over the traced rounds,
and ``trace.overhead_s`` is the batch time of the traced rounds minus that of
the untraced ones, both taken as above.  Every job's output is checked in
both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_SNIPPET = (
    "import sys; sys.path.insert(0, 'src'); import dagplace, dagplace.cli, dagplace.harness"
)
MIN_ROUNDS = 3
TAIL_BEYOND = 10  # jobs of the batch beyond the reported tail percentile


@dataclass
class Round:
    traced: bool
    latencies: list[float]
    statuses: list[str]
    keys: list[str]
    elapsed: float  # wall time of the round including the output checks
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    resamples: int = 0

    @property
    def wall(self) -> float:
        """Time spent running the batch of jobs, checks excluded."""
        return math.fsum(self.latencies)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def timed_setup(wl, seed: int, workdir: Path):
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, check=True)
        inputs = wl.setup(wl.select(seed), workdir)
        times.append(perf_counter() - start)
    return statistics.median(times), inputs


def run_round(wl, inputs, workdir: Path, reference: dict, traced: bool, job_base: int):
    import spans
    import workloads

    start = perf_counter()
    jobs = wl.jobs(inputs, workdir / "out")
    tracer = spans.Tracer() if traced else None
    counter = spans.ResampleCounter()
    harness_log = logging.getLogger("dagplace.harness")
    old_level = harness_log.level
    if traced:
        harness_log.addHandler(counter)
        harness_log.setLevel(logging.DEBUG)
    latencies, statuses = [], []
    try:
        with spans.installed(tracer) if traced else nullcontext():
            for j, job in enumerate(jobs):
                if traced:
                    tracer.job = job_base + j
                    tracer.active = True
                t0 = perf_counter()
                try:
                    result = job.run()
                except Exception as exc:  # a failing job is counted, not fatal
                    result = workloads.JobError(type(exc).__name__, str(exc))
                t1 = perf_counter()
                if traced:
                    tracer.active = False
                latencies.append(t1 - t0)
                statuses.append(workloads.judge(job, result, reference))
            counts = tracer.counts() if traced else {}
    finally:
        if traced:
            harness_log.removeHandler(counter)
            harness_log.setLevel(old_level)
    return Round(
        traced=traced, latencies=latencies, statuses=statuses, keys=[j.key for j in jobs],
        elapsed=perf_counter() - start, spans=tracer.spans if traced else [],
        counts=counts, resamples=counter.resamples,
    )


def run_rounds(wl, inputs, workdir, reference, seconds: float, trace: bool) -> list[Round]:
    rounds: list[Round] = []
    begin = perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        job_base = sum(len(r.latencies) for r in rounds)
        rounds.append(run_round(wl, inputs, workdir, reference, traced, job_base))
        if len(rounds) >= MIN_ROUNDS and perf_counter() - begin + rounds[-1].elapsed > seconds:
            return rounds


def job_latencies(rounds: list[Round]) -> list[float]:
    """Each job's least time over the given rounds, in batch order."""
    return [min(times) for times in zip(*(r.latencies for r in rounds))]


def tail_percentile(jobs: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of ``jobs`` beyond it."""
    return math.floor(100 * (jobs - TAIL_BEYOND) / jobs)


def nearest_rank(sorted_values, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(rounds: list[Round], setup_s: float) -> tuple[dict, str]:
    latencies = sorted(job_latencies(rounds))
    pct = tail_percentile(len(latencies))
    values = {
        "setup_s": setup_s,
        "wall_s": math.fsum(latencies),
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_tail_ms": 1e3 * nearest_rank(latencies, pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    note = f"p{pct} of {len(latencies)} jobs, each the least of {len(rounds)} rounds"
    return values, note


def per_layer(rounds: list[Round]) -> dict:
    import spans

    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    totals: dict[str, float] = {}

    def add(name, value):
        totals[name] = totals.get(name, 0.0) + value

    for r in traced:
        selfs = spans.self_times(r.spans)
        for s, own in zip(r.spans, selfs):
            add(f"{s[0]}.self_s", own)
            add(f"{s[0]}.calls", 1)
        for name, value in r.counts.items():
            add(name, value)
        add("harness.random_network.resamples", r.resamples)
        uncovered = spans.uncovered_time(r.wall, r.spans)
        if not math.isclose(math.fsum(selfs) + uncovered, r.wall, rel_tol=1e-9, abs_tol=1e-9):
            raise RuntimeError("self times and uncovered time do not add up to the round time")
        add("trace.uncovered_s", uncovered)
        add("trace.wall_s", r.wall)
        add("trace.spans", len(r.spans))
    values = {name: total / len(traced) for name, total in totals.items()}
    values["cli.state_bytes"] = values.pop("cli.save_state.bytes", 0.0)
    values["trace.overhead_s"] = (math.fsum(job_latencies(traced))
                                  - math.fsum(job_latencies(untraced)))
    return values


def dump_spans(rounds: list[Round], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for i, r in enumerate(rounds):
            for sid, (name, start, end, parent, job) in enumerate(r.spans):
                f.write(json.dumps({"round": i, "job": job, "id": sid, "parent": parent,
                                    "name": name, "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dagplace" / "__init__.py").is_file():
        print(f"error: no dagplace sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import dagplace
    import workloads

    if not Path(dagplace.__file__).resolve().is_relative_to(SRC):
        print(f"error: dagplace was imported from {dagplace.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference" / f"{wl.name}.json").read_text())

    workdir = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    try:
        setup_s, inputs = timed_setup(wl, args.seed, workdir)
        rounds = run_rounds(wl, inputs, workdir, reference, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    statuses = [s for r in rounds for s in r.statuses]
    attempted = len(statuses)
    failed = sum(s != "ok" for s in statuses)
    correct = all(s in ("ok", "known") for s in statuses)
    for kind, label in (("fail", "FAILED"), ("known", "known-bad, fails as at the seed")):
        keys = sorted({k for r in rounds for k, s in zip(r.keys, r.statuses) if s == kind})
        for key in keys:
            print(f"{label}: {key}", file=sys.stderr)

    print(f"workload={wl.name} seed={args.seed} rounds={len(rounds)}"
          f" jobs/round={len(rounds[0].keys)} attempted={attempted} failed={failed}"
          f" fail_ratio={failed / attempted:.6g} correct={str(correct).lower()}")
    notes = {}
    if args.trace:
        values = per_layer(rounds)
        specs = spec["per_layer"]
        dump_spans(rounds, ROOT / ".perfbench_out" / f"spans-{wl.name}-seed{args.seed}.jsonl")
    else:
        values, notes["job_tail_ms"] = end_to_end(rounds, setup_s)
        specs = spec["end_to_end"]
    metrics = {}
    for m in specs:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f" ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"{m['name']} = {value:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
