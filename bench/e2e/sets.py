"""Run two interleaved sets of the end-to-end benchmark and report its noise.

    python3 bench/e2e/sets.py [--runs 10] [--workload W ...]

From the repository root.  For every workload, run i of set A and run i
of set B use seed i and follow each other, so drift of the host's speed
lands in both sets alike.  For each end-to-end metric the report gives
each set's median, its spread (the distance between the first and third
quartile over the median), and the change of median from A to B, each
checked against the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    opts = parser.parse_args()
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        sets = {"A": [], "B": []}
        for seed in range(1, opts.runs + 1):
            for name in sets:
                sets[name].append(run(bench["command"], workload, seed, bench["run_seconds"]))
        print(f"{workload}: {opts.runs} runs per set")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r[name] for r in sets["A"]]
            b = [r[name] for r in sets["B"]]
            shift = statistics.median(b) / statistics.median(a) - 1
            if metric["better"] == "higher":
                shift = -shift
            worst = max(spread(a), spread(b))
            # set-up time is checked on its median only
            noisy = worst > bound and name != "setup_s"
            flag = "  OUT OF BOUND" if noisy or shift > bound else ""
            print(f"  {name:14s} A {statistics.median(a):14.4f} B {statistics.median(b):14.4f}"
                  f"  spread {spread(a):.4f}/{spread(b):.4f}  worse by {shift:+.4f}"
                  f"  bound {bound}{flag}")


if __name__ == "__main__":
    main()
