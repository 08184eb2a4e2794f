#!/usr/bin/env python3
"""Runs the benchmark N times per workload, each with another --seed, and
prints for every end-to-end metric the median and the interquartile spread
as a share of the median (statistics.quantiles, n=4) beside its bound.

    python3 bench/spread.py [runs=10] [first_seed=1] [workload ...]

Run from the root of the checkout. Exits 1 when a run is incorrect or a
spread (setup_s excepted) exceeds its bound."""
import json
import statistics
import subprocess
import sys

manifest = json.load(open("BENCHMARK.json"))
runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
first = int(sys.argv[2]) if len(sys.argv) > 2 else 1
names = sys.argv[3:] or [w["name"] for w in manifest["workloads"]]
bad = False
for name in names:
    values = {m["name"]: [] for m in manifest["end_to_end"]}
    for seed in range(first, first + runs):
        cmd = manifest["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            print(f"{name} seed {seed}: incorrect: {result}")
            bad = True
        for metric, v in result["metrics"].items():
            values[metric].append(v["value"])
    for m in manifest["end_to_end"]:
        vs = values[m["name"]]
        q = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q[2] - q[0]) / med
        flag = ""
        if spread > m["bound"] and m["name"] != "setup_s":
            flag, bad = "  OVER BOUND", True
        elif spread > m["bound"] / 3:
            flag = "  over a third of the bound"
        print(f"{name:16s} {m['name']:16s} median {med:12.6g} {m['unit']:4s} spread {spread:7.4f} bound {m['bound']}{flag}", flush=True)
sys.exit(1 if bad else 0)
