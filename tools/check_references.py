"""Check that every perfbench job still gives its reference output.

    python3 tools/check_references.py [WORKLOAD ...]

Runs every job of every pool entry of the named workloads (all by default)
through ``perfbench/record.record_workload``, as ``perfbench/record.py``
does, and compares the result with ``perfbench/reference/<workload>.json``
instead of writing it.  One difference is accepted: a known-bad ``bad/*``
job whose reference reads ``raise:*`` (it raised when the references were
recorded) and that now exits 2, as every malformed input should.  Every
other differing key is printed, and the script then exits 1.  It writes
only under ``.perfbench_work/``, which ``record_workload`` empties again.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import record  # noqa: E402
import workloads  # noqa: E402


def differences(reference: dict, got: dict) -> list[str]:
    """One line per key whose entry in ``got`` is not the one in
    ``reference`` (a key missing on one side reads None there), in key
    order, apart from a ``bad/*`` entry that moved from ``raise:*`` to
    ``exit:2``."""
    out = []
    for key in sorted(reference.keys() | got.keys()):
        want, have = reference.get(key), got.get(key)
        if want == have or (key.startswith("bad/") and str(want).startswith("raise:")
                            and have == "exit:2"):
            continue
        out.append(f"{key}: reference {want!r}, now {have!r}")
    return out


def main(names) -> int:
    failed = False
    for name in names or list(workloads.WORKLOADS):
        reference = json.loads((ROOT / "perfbench" / "reference" / f"{name}.json").read_text())
        diffs = differences(reference, record.record_workload(workloads.WORKLOADS[name]))
        print(f"{name}: {len(reference)} reference outputs, {len(diffs)} differ")
        for line in diffs:
            print(f"  {line}")
        failed = failed or bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
