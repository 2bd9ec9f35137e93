"""Paired parent/change benchmark runs, written to one BENCH_<tag>.json file.

    python3 tools/bench_pair.py --tag apsp --parent REV \\
        --workloads studies cost_replan cli_tree_eval --seeds 101 102 103 7919

The default seeds are 101-110 and the held-out 7919, so that a default run
gives each workload the ten or more pairs a claimed gain needs.

For every (workload, seed) pair the script runs ``perfbench/run.py`` for the
``run_seconds`` of BENCHMARK.json, once on each side, each with its own
``perfbench/`` and ``src/``.  Both sides run from one temporary directory
(under ``--tmpdir`` when given), which is removed afterwards: the parent from
``parent/``, a ``git archive`` checkout of the parent revision, and the change
from ``change/``, a copy of this working tree's ``src/``, ``perfbench/``,
``fixtures/`` (which the workloads read) and BENCHMARK.json made before the
first run.  So the two sides differ only in their files, not in where they
lie, and edits to the working tree during a run do not reach it.  The side
that runs first alternates from one pair to the next, so a slow stretch of a
shared host does not land on one side only.  Both checkouts sit in one
directory that is renamed before each pair, to a name of 1 to 16 characters
that grows by one from pair to pair: the length of a checkout's path moves a
run's memory layout, which can shift a workload's times by several percent,
so each side meets the same spread of lengths and both sides of a pair meet
the same one.  Each run records that length as ``path_len``.  The size of the
environment moves the memory layout the same way (an unused variable once
moved ``cost_replan`` by up to about 20%), so each run's environment is
padded by one variable, ``BENCH_PAIR_PAD``, whose length steps through
0-4095 from pair to pair and is the same on both sides of a pair; each run
records it as ``env_len``.

The output holds the line count of each side's ``src/dagplace/*.py`` and
their difference, each run's end-to-end metrics and correctness, and per
workload the quartiles of each metric on both sides, whether every run of a
side was correct and how many jobs its runs failed in all, the ratio
change/parent of the medians (below 1 is better: every metric is
lower-is-better), the median over pairs of each pair's change/parent ratio
(``pair_ratio``; None when a parent value is 0), which a bimodal metric can
read far from the ratio of medians, the number of pairs the change won, the
parent's spread (its interquartile range over its median) and whether the medians lie
further apart than that range (``resolved``: a gap inside it is not told
from noise) and, for the end-to-end metrics of BENCHMARK.json, whether the
change's median is at most the parent's times one plus the metric's bound
(``within_bound``; None for other metrics), and whether a gain may be
claimed on the metric (``claim_met``: the change won at least nine tenths of
the pairs, the gap is ``resolved`` and the change's median is the lower).
Each side also reports the quartiles of its runs' attempted jobs
(``attempted``), and ``rss_follows_jobs`` flags a ``peak_rss_mb`` gap that
may be the job count's rather than the code's: it is true when the two
sides' medians of attempted jobs lie further apart than the parent's
interquartile range of them (None when no run reports ``peak_rss_mb``).  A
run's peak RSS grows with the jobs it fits in its seconds.  All of this sits
next to the seeds and the host (python, numpy, nproc).  The script exits 1,
after writing the file, when a change run is not correct or fails more jobs
than the parent run of its pair.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True, help="the file written is BENCH_<tag>.json")
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    ap.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int, default=[*range(101, 111), 7919])
    ap.add_argument("--tmpdir", type=Path, default=None,
                    help="directory for the two checkouts (default: system temp)")
    return ap.parse_args(argv)


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def unpack(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def copy_tree(dest: Path) -> None:
    """Copy what ``perfbench/run.py`` reads of the working tree to ``dest``."""
    for name in ("src", "perfbench", "fixtures"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest)


def src_lines(checkout: Path) -> int:
    """Lines of ``src/dagplace/*.py`` in ``checkout``, counted as ``wc -l`` does."""
    return sum(f.read_bytes().count(b"\n") for f in (checkout / "src" / "dagplace").glob("*.py"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float, env_len: int) -> dict:
    """One perfbench run's result line, as a dict, with the environment padded
    by ``env_len`` characters."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, env={**os.environ, "BENCH_PAIR_PAD": "x" * env_len},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: v["value"] for k, v in res["metrics"].items()}}


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    names = runs[0]["parent"]["metrics"]
    sides = {side: {m: quartiles([r[side]["metrics"][m] for r in runs]) for m in names}
             for side in ("parent", "change")}
    for side, summary in sides.items():
        summary["correct"] = all(r[side]["correct"] for r in runs)
        summary["failed"] = sum(r[side]["failed"] for r in runs)
        summary["attempted"] = quartiles([r[side]["attempted"] for r in runs])
    ratio = {m: sides["change"][m]["median"] / sides["parent"][m]["median"]
             if sides["parent"][m]["median"] else None for m in names}
    pair_ratio = {m: statistics.median([r["change"]["metrics"][m] / r["parent"]["metrics"][m]
                                        for r in runs])
                  if all(r["parent"]["metrics"][m] for r in runs) else None for m in names}
    wins = {m: sum(r["change"]["metrics"][m] < r["parent"]["metrics"][m] for r in runs)
            for m in names}
    iqr = {m: sides["parent"][m]["q3"] - sides["parent"][m]["q1"] for m in names}
    spread = {m: iqr[m] / sides["parent"][m]["median"] if sides["parent"][m]["median"] else None
              for m in names}
    resolved = {m: abs(sides["change"][m]["median"] - sides["parent"][m]["median"]) > iqr[m]
                for m in names}
    within = {m: sides["change"][m]["median"] <= sides["parent"][m]["median"] * (1 + BOUNDS[m])
              if m in BOUNDS else None for m in names}
    claim = {m: 10 * wins[m] >= 9 * len(runs) and resolved[m]
             and sides["change"][m]["median"] < sides["parent"][m]["median"] for m in names}
    # a run's peak RSS grows with the jobs it fits in its seconds
    pj, cj = sides["parent"]["attempted"], sides["change"]["attempted"]
    rss_jobs = (abs(cj["median"] - pj["median"]) > pj["q3"] - pj["q1"]
                if "peak_rss_mb" in names else None)
    return {**sides, "ratio": ratio, "pair_ratio": pair_ratio, "change_wins": wins,
            "parent_spread": spread, "resolved": resolved, "within_bound": within,
            "claim_met": claim, "rss_follows_jobs": rss_jobs, "pairs": len(runs)}


def refused(wl: str, runs: list[dict]) -> list[str]:
    """The change runs that are not correct or fail more jobs than their parent."""
    return [f"{wl} seed {r['seed']}: correct={r['change']['correct']}, failed "
            f"{r['change']['failed']} against the parent's {r['parent']['failed']}"
            for r in runs
            if not r["change"]["correct"] or r["change"]["failed"] > r["parent"]["failed"]]


def host() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main(argv=None) -> int:
    args = parse_args(argv)
    parent_rev = git("rev-parse", args.parent).decode().strip()
    out = ROOT / f"BENCH_{args.tag}.json"
    seconds = SPEC["run_seconds"]
    if args.tmpdir:
        args.tmpdir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="bench-pair-", dir=args.tmpdir))
    result = {"tag": args.tag, "parent": parent_rev, "change": "working tree",
              "seconds": seconds, "seeds": args.seeds, "host": host(), "workloads": {}}
    try:
        home = tmp / "d"
        unpack(parent_rev, home / "parent")
        copy_tree(home / "change")
        lines = {side: src_lines(home / side) for side in ("parent", "change")}
        result["src_lines"] = {**lines, "change_minus_parent": lines["change"] - lines["parent"]}
        pair = 0
        bad = []
        for wl in args.workloads:
            runs = []
            for seed in args.seeds:
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                home = home.rename(tmp / ("d" * (1 + pair % 16)))
                pair += 1
                run = {"seed": seed, "first": order[0],
                       "path_len": len(str(home / "parent")),  # "change" is as long
                       # an odd step, so the padding's length mod 16 varies too
                       "env_len": 1031 * pair % 4096}
                for side in order:
                    run[side] = run_once(home / side, wl, seed, seconds, run["env_len"])
                runs.append(run)
                ratios = {m: run["change"]["metrics"][m] / run["parent"]["metrics"][m]
                          for m in run["parent"]["metrics"] if run["parent"]["metrics"][m]}
                print(f"{wl} seed {seed}: " + " ".join(f"{m}={r:.3f}" for m, r in ratios.items()),
                      file=sys.stderr)
            result["workloads"][wl] = {"runs": runs, **summarize(runs)}
            bad += refused(wl, runs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(out)
    for line in bad:
        print(f"refused: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
