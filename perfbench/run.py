"""Benchmark entry point: run one workload and print one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zoo-infer --seed 0 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s,
ops_per_s, peak_rss_mb) of untraced passes; ``--trace 1`` reports the
per-layer metrics of traced passes interleaved with untraced ones.  The
last line of standard output is the result object; progress and failed
cells go to standard error.  See perfbench/README.md.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKLOADS = ("hw-reverse", "zoo-infer", "trace-eval", "predictability")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = CHECKOUT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"no program source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import harness  # imports the program

    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        print(f"imported repro from {repro.__file__}, not {source}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
