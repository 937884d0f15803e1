#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs every workload of BENCHMARK.json once per seed, for BENCHMARK.json's
run_seconds, collects the end-to-end metrics of each run, and reports for
each metric the median and the spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median.

Run from the repository root:

    python3 _benchmark/steady.py --sets 1-10 11-20 \\
        --out _benchmark/results/steady-a.json _benchmark/results/steady-b.json
    python3 _benchmark/steady.py --compare _benchmark/results/steady-a.json _benchmark/results/steady-b.json

With two seed sets the runs alternate between the sets (seed 1, seed 11,
seed 2, seed 12, ...; every workload at each step), so a change in host
speed during the session falls on both sets alike.

--compare checks a second set against a first: both sets measured with
the same run_seconds and workloads as BENCHMARK.json, every spread within
the metric's bound, and no median worse than the first set's by more than
the bound. setup_s's spread is printed but not judged: the benchmark's
acceptance rule bounds the spread of every end-to-end metric except the
set-up time, whose median alone must not get worse; setup_s carries the
largest bound there is for that reason.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

BENCH = "BENCHMARK.json"


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    args = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    took = time.time() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{proc.stderr}")
    return res, took


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def measure(args):
    bench = json.load(open(BENCH))
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = [parse_seeds(s) for s in args.sets]
    if len(args.out) not in (0, len(sets)):
        sys.exit("--out needs one file per seed set")
    if len({len(s) for s in sets}) != 1:
        sys.exit("seed sets must have the same size")
    values = [{w: {m: [] for m in bounds} for w in workloads} for _ in sets]
    walls = [{w: [] for w in workloads} for _ in sets]
    for i in range(len(sets[0])):
        for k, seeds in enumerate(sets):
            for w in workloads:
                res, took = run_once(bench, w, seeds[i])
                walls[k][w].append(took)
                for m in bounds:
                    values[k][w][m].append(res["metrics"][m]["value"])
                print(f"{w} seed {seeds[i]}: " + " ".join(
                    f"{m}={res['metrics'][m]['value']:.4g}" for m in bounds) + f" ({took:.1f}s)", flush=True)
    for k, spec in enumerate(args.sets):
        doc = {"seeds": spec, "run_seconds": bench["run_seconds"],
               "interleaved_with": [s for s in args.sets if s != spec], "workloads": {}}
        for w in workloads:
            doc["workloads"][w] = {m: summarize(v) for m, v in values[k][w].items()}
            doc["workloads"][w]["process_s"] = summarize(walls[k][w])
        print(f"seeds {spec}")
        report(doc, bounds)
        if args.out:
            with open(args.out[k], "w") as f:
                json.dump(doc, f, indent=1)
                f.write("\n")


def report(doc, bounds):
    print(f"{'workload':12} {'metric':12} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for w, ms in doc["workloads"].items():
        for m, s in ms.items():
            b = bounds.get(m)
            flag = "" if b is None or s["spread"] < b / 3 else "  <-- above a third of the bound"
            print(f"{w:12} {m:12} {s['median']:12.5g} {s['spread']:8.4f} "
                  f"{(b / 3 if b else 0):8.4f}{flag}")


def compare(args):
    bench = json.load(open(BENCH))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    a, b = (json.load(open(p)) for p in args.compare)
    for path, doc in zip(args.compare, (a, b)):
        if doc["run_seconds"] != bench["run_seconds"] or list(doc["workloads"]) != workloads:
            sys.exit(f"{path}: measured with run_seconds={doc['run_seconds']} and workloads "
                     f"{list(doc['workloads'])}, BENCHMARK.json has {bench['run_seconds']} and {workloads}")
    ok = True
    for w in workloads:
        for name, m in metrics.items():
            first, second = a["workloads"][w][name], b["workloads"][w][name]
            for label, s in (("first", first), ("second", second)):
                if s["spread"] > m["bound"]:
                    judged = name != "setup_s"
                    ok = ok and not judged
                    print(f"{w} {name}: {label} set's spread {s['spread']:.4f} above bound {m['bound']}"
                          + ("" if judged else " (not judged, see --help)"))
            if m["better"] == "lower":
                worse = second["median"] / first["median"] - 1
            else:
                worse = 1 - second["median"] / first["median"]
            status = "ok" if worse <= m["bound"] else "WORSE"
            ok = ok and worse <= m["bound"]
            print(f"{w:12} {name:12} first {first['median']:11.5g} (spread {first['spread']:.3f}) "
                  f"second {second['median']:11.5g} (spread {second['spread']:.3f}) "
                  f"worse by {worse:+.4f} (bound {m['bound']}) {status}")
    print("agree" if ok else "DISAGREE")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--sets", nargs="+", default=["1-10"], metavar="SEEDS",
                   help="one or more seed ranges of equal size, e.g. 1-10 11-20; runs alternate between them")
    p.add_argument("--out", nargs="*", default=[], metavar="FILE",
                   help="write each set's medians and spreads here, one file per set")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), help="compare two saved sets")
    args = p.parse_args()
    if args.compare:
        compare(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
