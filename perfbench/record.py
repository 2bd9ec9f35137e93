"""Record the reference outputs that run.py checks every job against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every job of every pool entry of the named workloads (all by default)
once and writes ``perfbench/reference/<workload>.json``: a digest of each
job's output, or, for a known-bad job, how it ended.  The references in the
repository were recorded at the commit that introduced the benchmark; a
change that keeps outputs identical leaves them valid, so do not re-record
them to make a check pass.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def record_workload(wl) -> dict:
    workdir = ROOT / ".perfbench_work" / f"record-{wl.name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = wl.setup(wl.pool(), workdir)
        reference = {}
        for job in wl.jobs(inputs, workdir / "out"):
            try:
                result = job.run()
            except Exception as exc:  # recorded for known-bad jobs, fatal otherwise
                result = workloads.JobError(type(exc).__name__, str(exc))
            reference[job.key] = workloads.record(job, result)
        return reference
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(names) -> int:
    for name in names or list(workloads.WORKLOADS):
        reference = record_workload(workloads.WORKLOADS[name])
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(reference)} reference outputs -> {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
