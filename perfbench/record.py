"""Re-record ``reference.json`` from the program as it is now.

    python3 perfbench/record.py [workload ...]

Runs one pass of each named workload (all by default) at seed 0 and
stores its outputs as the reference the benchmark checks every run
against.  Only re-record when a change is meant to alter the outputs,
and review the diff of ``reference.json``: the benchmark is only as
right as this file.  The checks that do not depend on it (catalog
ground truth, closed forms) must already pass, or nothing is written.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402


def main(names: list[str]) -> int:
    reference = json.loads(harness.REFERENCE.read_text()) if harness.REFERENCE.exists() else {}
    iso = harness.Isolation()
    try:
        for name in names or list(workloads.WORKLOADS):
            cls = workloads.WORKLOADS[name]
            # Check against the outputs themselves: only what does not
            # depend on the reference can fail.
            workload = cls(0, {})
            harness.begin_setup(iso)
            workload.setup()
            done = harness.Pass(workload, iso)
            entry = workload.record(done.outputs)
            workload.reference = entry
            problems = done.problems(workload)
            if problems:
                print(f"{name}: not recorded, {problems}", file=sys.stderr)
                return 1
            reference[name] = dict(sorted(entry.items()))
            print(f"{name}: {len(entry)} cells recorded in {done.wall:.2f} s", file=sys.stderr)
    finally:
        iso.close()
    harness.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
