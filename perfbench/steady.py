#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports its
run-to-run spread against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1] [--sets 1] [workload ...]

Run from the repository root. For every metric a run prints (the result
line's end-to-end metrics, and the workload's own latencies and rates
printed before it) it prints the median over the seeds and the distance
between their first and third quartiles (statistics.quantiles(values,
n=4)) as a share of the median. It names every end-to-end metric whose
spread exceeds its bound; setup_s is exempt, as its spread is not
bounded. With --sets 2 it runs every workload's seeds twice and names
every end-to-end metric whose second median is worse than the first by
more than its bound. It also prints how far the serve workload's
generator ran behind its schedule, and each workload's set-up wall time
against its timed wall time.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def run(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    took = time.time() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = {"took": took, "printed": {}}
    for line in lines:
        m = re.match(r"metric (\S+) (\S+) (\S+)$", line)
        if m:
            info["printed"][m.group(1)] = float(m.group(2))
        m = re.match(r"wall: set-up ([\d.]+) s .* timed ([\d.]+) s", line)
        if m:
            info["setup_wall"], info["timed_wall"] = float(m.group(1)), float(m.group(2))
        m = re.match(r"generator lateness behind schedule: p50 ([\d.]+) ms, p99 ([\d.]+) ms, max ([\d.]+) ms", line)
        if m:
            info["late"] = tuple(float(x) for x in m.groups())
    return result, info


def spread(vs):
    med = statistics.median(vs)
    q = statistics.quantiles(vs, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def worse(first, second, better):
    """How much worse second is than first, as a share of first."""
    if not first:
        return 0.0
    return (second - first) / first if better == "lower" else (first - second) / first


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    opts = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    gated = {m["name"]: m for m in bench["end_to_end"]}
    names = opts.workloads or [w["name"] for w in bench["workloads"]]
    over, drifted = [], []
    for w in names:
        medians = []
        for k in range(opts.sets):
            values, infos = {}, []
            first = opts.first_seed + k * opts.seeds
            for seed in range(first, first + opts.seeds):
                result, info = run(bench["command"], w, seed, bench["run_seconds"])
                if not result["correct"] or result["failed"]:
                    sys.exit(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}")
                infos.append(info)
                for name, v in info["printed"].items():
                    values.setdefault(name, []).append(v)
                shown = " ".join(f"{n}={m['value']:.4g}" for n, m in sorted(result["metrics"].items()))
                print(f"{w} seed {seed}: {info['took']:.1f} s, attempted {result['attempted']}: {shown}", flush=True)
            print(f"== {w}, set {k + 1}: seeds {first} to {first + opts.seeds - 1}")
            meds = {}
            for name in sorted(values, key=lambda n: (n not in gated, n)):
                med, s = spread(values[name])
                meds[name] = med
                if name not in gated:
                    print(f"  {name:18s} median {med:14.6g}  IQR/median {s:7.4f}  (printed, not in the result line)")
                    continue
                bound, flag = gated[name]["bound"], ""
                if name != "setup_s":
                    if s > bound:
                        flag = "EXCEEDS BOUND"
                        over.append(f"{w}.{name}")
                    elif s > bound / 3:
                        flag = "above a third of the bound"
                print(f"  {name:18s} median {med:14.6g}  IQR/median {s:7.4f}  bound {bound}  {flag}")
            medians.append(meds)
            sw = [i["setup_wall"] for i in infos if "setup_wall" in i]
            tw = [i["timed_wall"] for i in infos if "timed_wall" in i]
            if sw:
                print(f"  wall per run: set-up median {statistics.median(sw):.2f} s, timed median {statistics.median(tw):.2f} s, "
                      f"whole run median {statistics.median([i['took'] for i in infos]):.2f} s")
            late = [i["late"] for i in infos if "late" in i]
            if late:
                print(f"  generator lateness: p50 median {statistics.median(l[0] for l in late):.3f} ms, "
                      f"p99 median {statistics.median(l[1] for l in late):.3f} ms, worst max {max(l[2] for l in late):.3f} ms")
        for k in range(1, len(medians)):
            print(f"== {w}: set {k + 1} against set 1")
            for name, m in gated.items():
                d = worse(medians[0][name], medians[k][name], m["better"])
                flag = ""
                if d > m["bound"]:
                    flag = "WORSE BY MORE THAN THE BOUND"
                    drifted.append(f"{w}.{name}")
                print(f"  {name:18s} median {medians[0][name]:14.6g} then {medians[k][name]:14.6g}  worse by {d:+.4f}  bound {m['bound']}  {flag}")
    print("metrics whose spread exceeds the bound:", ", ".join(over) if over else "none")
    if opts.sets > 1:
        print("metrics whose later median is worse by more than the bound:", ", ".join(drifted) if drifted else "none")


if __name__ == "__main__":
    main()
