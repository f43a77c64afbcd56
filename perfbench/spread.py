"""Runs the benchmark on several seeds and prints each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median), per workload,
next to a third of the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py [--runs N] [--first-seed S]
                                [--save FILE] [--against FILE] [workload ...]

--save writes the medians to FILE; --against compares them with the medians
an earlier --save wrote, and flags a metric whose median got worse by more
than its bound. Exits 1 when a run is incorrect, a spread is over a third
of its bound, or a median moved by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--against")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    medians = {}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            start = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            elapsed = time.monotonic() - start
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect {result}", file=sys.stderr)
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s, "
                  f"{result['attempted']} operations", flush=True)
        for name, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            limit = bounds[name] / 3
            flag = "" if spread < limit else "  <-- over a third of the bound"
            medians.setdefault(workload, {})[name] = med
            before = earlier.get(workload, {}).get(name)
            if before:
                worse = (med - before) / before if lower[name] else (before - med) / before
                if worse > bounds[name]:
                    flag += f"  <-- median {worse:+.1%} worse than {before:.6g}"
                else:
                    flag += f"  (median {worse:+.1%} vs earlier)"
            ok &= "<--" not in flag
            print(f"{workload:12} {name:16} median {med:.6g} "
                  f"spread {spread:.4f} (limit {limit:.4f}){flag}  "
                  f"[{', '.join(f'{x:.4g}' for x in xs)}]", flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
