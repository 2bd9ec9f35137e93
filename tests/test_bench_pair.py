"""``tools/bench_pair``: ``summarize`` on runs whose quartiles are known, and
the environment each run of a pair gets."""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pair  # noqa: E402


def side(**metrics):
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}


def test_summary_resolves_a_gap_only_beyond_the_parent_iqr():
    # the parent reads 8..12 on every metric: quartiles 8.5, 10, 11.5
    runs = [{"seed": s, "parent": side(wall_s=x, setup_s=x, calls=0),
             "change": side(wall_s=x - 4, setup_s=x + 3, calls=0)}
            for s, x in zip(range(101, 106), (8, 9, 10, 11, 12))]
    summary = bench_pair.summarize(runs)
    assert summary["parent"]["wall_s"] == {"q1": 8.5, "median": 10, "q3": 11.5}
    assert summary["parent_spread"] == {"wall_s": 0.3, "setup_s": 0.3, "calls": None}
    # a gap of 4 exceeds the IQR of 3; a gap of exactly 3 does not
    assert summary["resolved"] == {"wall_s": True, "setup_s": False, "calls": False}
    assert summary["ratio"] == {"wall_s": 0.6, "setup_s": 1.3, "calls": None}
    assert summary["change_wins"] == {"wall_s": 5, "setup_s": 0, "calls": 0}
    assert summary["pairs"] == 5


def test_summary_checks_each_end_to_end_bound():
    # parent medians 10; wall_s and setup_s have the bound 0.25, so 12.5 is
    # the largest change median within it; calls has no bound
    runs = [{"seed": s, "parent": side(wall_s=x, setup_s=x, calls=0),
             "change": side(wall_s=x + 2.5, setup_s=x + 2.6, calls=1)}
            for s, x in zip(range(101, 106), (8, 9, 10, 11, 12))]
    assert bench_pair.BOUNDS["wall_s"] == bench_pair.BOUNDS["setup_s"] == 0.25
    summary = bench_pair.summarize(runs)
    assert summary["within_bound"] == {"wall_s": True, "setup_s": False, "calls": None}


def test_pair_ratio_tells_a_bimodal_metric_from_a_gap():
    # the host runs fast (1) or slow (2); in four pairs both sides meet the
    # same speed, in the third only the change meets the slow host, so the
    # medians read 1 against 2 while four of five pairs are even
    runs = [{"seed": s, "parent": side(setup_s=x, calls=0), "change": side(setup_s=y, calls=1)}
            for s, x, y in zip(range(101, 106), (1, 1, 1, 2, 2), (1, 1, 2, 2, 2))]
    summary = bench_pair.summarize(runs)
    assert summary["ratio"]["setup_s"] == 2.0
    assert summary["pair_ratio"] == {"setup_s": 1.0, "calls": None}


def test_claim_needs_nine_tenths_of_the_pairs_a_resolved_gap_and_a_lower_median():
    # the parent reads 10..19 (quartiles 11.75, 14.5, 17.25: IQR 5.5); the
    # change reads 10 lower where it wins a pair and 1 higher where it loses
    runs = [{"seed": s, "parent": side(won_9=x, won_8=x, near=x, worse=x),
             "change": side(won_9=x - 10 if i else x + 1,  # loses the first pair
                            won_8=x - 10 if i > 1 else x + 1,  # loses two
                            near=x - 5,  # wins all ten, a gap inside the IQR
                            worse=x + 10)}
            for i, (s, x) in enumerate(zip(range(101, 111), range(10, 20)))]
    summary = bench_pair.summarize(runs)
    assert summary["change_wins"] == {"won_9": 9, "won_8": 8, "near": 10, "worse": 0}
    assert summary["resolved"] == {"won_9": True, "won_8": True, "near": False, "worse": True}
    assert summary["claim_met"] == {"won_9": True, "won_8": False, "near": False, "worse": False}


def test_attempted_jobs_sit_beside_peak_rss_and_flag_a_gap_they_explain():
    # the peak RSS rises with the jobs a run fits: about 41.3 MB at 9,700 jobs
    # and 40.6 MB at 9,500, whichever side ran
    def runs(parent_jobs, change_jobs):
        return [{"seed": s,
                 "parent": dict(side(peak_rss_mb=40.6 + (p - 9500) / 285, wall_s=1.0), attempted=p),
                 "change": dict(side(peak_rss_mb=40.6 + (c - 9500) / 285, wall_s=1.0), attempted=c)}
                for s, p, c in zip(range(101, 106), parent_jobs, change_jobs)]

    parent_jobs = (9500, 9510, 9520, 9530, 9540)  # quartiles 9505, 9520, 9535: IQR 30
    faster = bench_pair.summarize(runs(parent_jobs, (9690, 9700, 9710, 9720, 9730)))
    assert faster["parent"]["attempted"] == {"q1": 9505, "median": 9520, "q3": 9535}
    assert faster["change"]["attempted"]["median"] == 9710
    assert faster["resolved"]["peak_rss_mb"] is True
    assert faster["rss_follows_jobs"] is True
    # a gap in jobs of exactly the parent's IQR is not flagged
    even = bench_pair.summarize(runs(parent_jobs, (9530, 9540, 9550, 9560, 9570)))
    assert even["rss_follows_jobs"] is False
    # no flag where no run reads its peak RSS
    assert bench_pair.summarize([{"seed": 101, "parent": side(wall_s=1.0),
                                  "change": side(wall_s=1.0)}])["rss_follows_jobs"] is None


def test_both_sides_of_a_pair_run_in_one_padded_environment(tmp_path, monkeypatch):
    # no git and no perfbench: the checkouts are empty directories and each
    # run returns a fixed result line, after recording its environment
    calls = []

    def run(cmd, **kwargs):
        calls.append((Path(cmd[1]).parents[1].name, kwargs["env"]))
        line = {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"wall_s": {"value": 1.0}}}
        return bench_pair.subprocess.CompletedProcess(cmd, 0, json.dumps(line) + "\n", "")

    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pair, "git", lambda *args: b"0123abc\n")
    monkeypatch.setattr(bench_pair, "unpack", lambda rev, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(bench_pair, "copy_tree", lambda dest: dest.mkdir(parents=True))
    monkeypatch.setattr(bench_pair.subprocess, "run", run)
    seeds = ["101", "102", "103", "104"]
    assert bench_pair.main(["--tag", "t", "--workloads", "cost_replan", "--seeds", *seeds,
                            "--tmpdir", str(tmp_path / "tmp")]) == 0
    runs = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["cost_replan"]["runs"]
    assert len(calls) == 2 * len(runs) == 8
    for run, (first, env), (second, env2) in zip(runs, calls[::2], calls[1::2]):
        assert {first, second} == {"parent", "change"}
        assert env == env2
        assert len(env["BENCH_PAIR_PAD"]) == run["env_len"]
        assert {k: v for k, v in env.items() if k != "BENCH_PAIR_PAD"} == dict(os.environ)
    # the padding differs from pair to pair, in its length mod 16 too
    assert len({run["env_len"] % 16 for run in runs}) == len(runs)
