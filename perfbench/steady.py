"""Steadiness check: two sets of runs per workload, spread and drift.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --held-out

Each of two sets runs every workload RUNS times, each time with another
seed (set 1 uses seeds 0..9, set 2 seeds 10..19, the sets interleaved),
one process per run as ``run.py`` is invoked.  For every end-to-end metric it
prints each set's median, quartiles and spread (interquartile range as
a share of the median, ``statistics.quantiles(values, n=4)``), and the
second set's median relative to the first's, against the bounds in
BENCHMARK.json.  A JSON summary is the last line of standard output.

``--held-out`` runs every workload once on HELD_OUT_SEED and checks its
outputs; that seed confirms claims and is never used to tune anything.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
#: Used only to confirm claims (outputs and medians), never for tuning.
HELD_OUT_SEED = 7919
#: Runs per set; there are two sets.
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=CHECKOUT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--held-out", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    if args.held_out:
        results = {name: run_once(name, HELD_OUT_SEED, seconds) for name in names}
        for name, result in results.items():
            print(f"{name:16s} seed {HELD_OUT_SEED}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1

    runs: dict[tuple[str, int], list[dict]] = {}
    for index in range(RUNS):
        for set_index in (0, 1):
            for name in names:
                seed = set_index * RUNS + index
                result = run_once(name, seed, seconds)
                values = " ".join(f"{metric}={entry['value']:.6g}"
                                  for metric, entry in result["metrics"].items())
                print(f"{name:16s} seed {seed:3d}: {values}", file=sys.stderr, flush=True)
                if not result["correct"]:
                    print(f"{name}: incorrect result {result}", file=sys.stderr)
                    return 1
                runs.setdefault((name, set_index), []).append(result)

    report: dict = {}
    for name in names:
        for metric in bench["end_to_end"]:
            sets = [
                summary([r["metrics"][metric["name"]]["value"] for r in runs[(name, s)]])
                for s in (0, 1)
            ]
            sign = 1 if metric["better"] == "lower" else -1
            drift = sign * (sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
            report[f"{name}/{metric['name']}"] = {
                "bound": metric["bound"], "sets": sets, "drift": drift,
            }
            spreads = " ".join(f"{s['spread']:.4f}" for s in sets)
            medians = " ".join(f"{s['median']:.6g}" for s in sets)
            print(f"{name:16s} {metric['name']:12s} median {medians:24s} "
                  f"spread {spreads:16s} drift {drift:+.4f}  bound {metric['bound']}",
                  file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
