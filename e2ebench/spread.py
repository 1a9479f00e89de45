#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's median, quartiles and spread (quartile distance over median)
against its bound in BENCHMARK.json.

Run from the repository root:

    python3 e2ebench/spread.py --workloads study,serve --seeds 5
    python3 e2ebench/spread.py --seeds 10 --first-seed 101 --out runs.jsonl

A spread must stay within the metric's bound (setup_s excepted); aim for
a third of it. Each run's last stdout line is the benchmark's result.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="append every result line to this file")
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.time() - start
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            line = proc.stdout.strip().splitlines()[-1]
            result = json.loads(line)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: output check FAILED ({result['failed']} of {result['attempted']})")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: {took:.1f} s", file=sys.stderr)
        print(f"\n{workload} ({args.seeds} seeds)")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "ok"
            if m["name"] != "setup_s" and spread > m["bound"]:
                flag, ok = "OVER BOUND", False
            elif spread > m["bound"] / 3:
                flag = "above a third of bound"
            print(f"  {m['name']:<12} median {med:12.5g} {m['unit']:<5} q1 {q1:12.5g} q3 {q3:12.5g} "
                  f"spread {spread:6.3f} bound {m['bound']:.2f}  {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
