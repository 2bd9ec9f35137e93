"""Paired parent/change benchmark runs, written to one BENCH_<tag>.json file.

    python3 tools/bench_pair.py --tag apsp --parent REV \\
        --workloads studies cost_replan cli_tree_eval --seeds 101 102 103 7919

The default seeds are 101-110 and the held-out 7919, so that a default run
gives each workload the ten or more pairs a claimed gain needs.

For every (workload, seed) pair the script runs ``perfbench/run.py`` for the
``run_seconds`` of BENCHMARK.json, once in a checkout of the parent revision
and once in this working tree, each with its own ``perfbench/`` and ``src/``.
The side that runs first alternates from one pair to the next, so a slow
stretch of a shared host does not land on one side only.  The parent checkout
is unpacked with ``git archive`` into a temporary directory (under
``--tmpdir`` when given) and removed afterwards.

The output holds each run's end-to-end metrics and correctness, and per
workload the quartiles of each metric on both sides, the ratio change/parent
of the medians (below 1 is better: every metric is lower-is-better) and the
number of pairs the change won, next to the seeds and the host (python,
numpy, nproc).
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


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True, help="the file written is BENCH_<tag>.json")
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    ap.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int, default=[*range(101, 111), 7919])
    ap.add_argument("--tmpdir", type=Path, default=None,
                    help="directory for the parent checkout (default: system temp)")
    return ap.parse_args(argv)


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def unpack(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run's result line, as a dict."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
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
    ratio = {m: sides["change"][m]["median"] / sides["parent"][m]["median"]
             if sides["parent"][m]["median"] else None for m in names}
    wins = {m: sum(r["change"]["metrics"][m] < r["parent"]["metrics"][m] for r in runs)
            for m in names}
    return {**sides, "ratio": ratio, "change_wins": wins, "pairs": len(runs)}


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
    tmp = Path(tempfile.mkdtemp(prefix="bench-parent-", dir=args.tmpdir))
    result = {"tag": args.tag, "parent": parent_rev, "change": "working tree",
              "seconds": seconds, "seeds": args.seeds, "host": host(), "workloads": {}}
    try:
        unpack(parent_rev, tmp)
        sides = {"parent": tmp, "change": ROOT}
        pair = 0
        for wl in args.workloads:
            runs = []
            for seed in args.seeds:
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                pair += 1
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(sides[side], wl, seed, seconds)
                runs.append(run)
                ratios = {m: run["change"]["metrics"][m] / run["parent"]["metrics"][m]
                          for m in run["parent"]["metrics"] if run["parent"]["metrics"][m]}
                print(f"{wl} seed {seed}: " + " ".join(f"{m}={r:.3f}" for m, r in ratios.items()),
                      file=sys.stderr)
            result["workloads"][wl] = {"runs": runs, **summarize(runs)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
