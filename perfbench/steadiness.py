#!/usr/bin/env python3
"""Runs the benchmark as the acceptance check does and summarizes its spread.

Run from the repository root:

    python3 perfbench/steadiness.py run --runs 10 --first-seed 100 --label set-a
    python3 perfbench/steadiness.py compare set-a set-b
    python3 perfbench/steadiness.py split --seed 100
    python3 perfbench/steadiness.py report --pairs set-a:set-b

`run` makes `--runs` rounds; each round runs every workload once, in its
own process, with the round's seed (first seed + round number), and the
workload order alternates between rounds. Every result is kept under
perfbench/steadiness/<label>.json. For each workload and end-to-end
metric it prints the median, quartiles (statistics.quantiles, n=4),
min/max and the spread (q3 - q1) / median against the metric's bound
from BENCHMARK.json. With `--runs 1` it is the one command that prints
every end-to-end metric, with unit and better direction, for every
workload.

`compare` checks that a second set's medians are no worse than a first
set's by more than each metric's bound. `split` runs each workload once
traced and checks the per-layer split against the predicted shape.
`report` renders every saved set, comparison and split as Markdown;
perfbench/STEADINESS.md is a written summary followed by that output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = os.path.join(HERE, "steadiness")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def invoke(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    for line in lines:
        if line.startswith("# run_s per repetition:"):
            result["rep_run_s"] = [float(v) for v in line.split(":")[1].split()]
        if line.startswith("# setup_s per repetition:"):
            result["rep_setup_s"] = [float(v) for v in line.split(":")[1].split()]
    result["seed"] = seed
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / median if median else float("nan"),
    }


def table(bench, results):
    rows = []
    for w in [w["name"] for w in bench["workloads"]]:
        runs = results.get(w, [])
        if len(runs) < 2:
            continue
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = summarize(values)
            ok = s["spread"] < m["bound"] / 3
            rows.append((w, m, s, ok, len(values)))
    return rows


def print_table(bench, results, out=sys.stdout):
    print("| workload | metric | unit | better | n | median | q1 | q3 | min | max | spread | bound | spread < bound/3 |", file=out)
    print("|---|---|---|---|---|---|---|---|---|---|---|---|---|", file=out)
    for w, m, s, ok, n in table(bench, results):
        print(
            f"| {w} | {m['name']} | {m['unit']} | {m['better']} | {n} | {s['median']:.6g} | {s['q1']:.6g} | "
            f"{s['q3']:.6g} | {s['min']:.6g} | {s['max']:.6g} | {s['spread']:.4f} | {m['bound']} | "
            f"{'yes' if ok else 'NO'} |",
            file=out,
        )


def cmd_run(args):
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    results = {n: [] for n in names}
    order = []
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in names if i % 2 == 0 else list(reversed(names)):
            r = invoke(bench, w, seed, 0)
            if not r["correct"]:
                sys.exit(f"{w} seed {seed}: output checks failed")
            results[w].append(r)
            order.append(w)
            print(f"# {w} seed {seed}: {r['wall_s']:.1f} s", file=sys.stderr)
    os.makedirs(SETS, exist_ok=True)
    record = {
        "label": args.label,
        "first_seed": args.first_seed,
        "runs": args.runs,
        "seconds": bench["run_seconds"],
        "order": order,
        "finished": time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime()),
        "results": results,
    }
    with open(os.path.join(SETS, f"{args.label}.json"), "w") as f:
        json.dump(record, f, indent=1)
    if args.runs >= 2:
        print_table(bench, results)
    else:
        for w in names:
            r = results[w][0]
            for m in bench["end_to_end"]:
                v = r["metrics"][m["name"]]
                print(f"{w}\t{m['name']}\t{v['value']}\t{v['unit']}\t{m['better']} is better")


def load(label):
    with open(os.path.join(SETS, f"{label}.json")) as f:
        return json.load(f)


def comparison(bench, first, second):
    rows = []
    for w in first["results"]:
        for m in bench["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in first["results"][w])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in second["results"][w])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            rows.append((w, m, a, b, worse, worse <= m["bound"]))
    return rows


def print_comparison(bench, first, second, out=sys.stdout):
    print(f"Second set `{second['label']}` against first set `{first['label']}`; "
          "`worse` is how much worse the second median is (negative = better).\n", file=out)
    print("| workload | metric | first median | second median | worse | bound | within |", file=out)
    print("|---|---|---|---|---|---|---|", file=out)
    for w, m, a, b, worse, ok in comparison(bench, first, second):
        print(f"| {w} | {m['name']} | {a:.6g} | {b:.6g} | {worse:+.4f} | {m['bound']} | "
              f"{'yes' if ok else 'NO'} |", file=out)


def cmd_compare(args):
    print_comparison(spec(), load(args.first), load(args.second))


# The predicted shape of the traced split.
def split_checks(w, m):
    run = m["router.busy_s"] + m["load.busy_s"] + m["rubik.decide_busy_s"] + \
        m["rubik.tick_busy_s"] + m["fleet.busy_s"] + m["migrate.busy_s"] + m["engine.self_s"]
    if w == "fleet_poweraware_1k":
        share = m["router.busy_s"] / run
        return [(f"router share of the traced run {share:.3f} >= 0.5", share >= 0.5)]
    if w == "fleet_faults_diurnal":
        timed = {k: m[k] for k in ["router.busy_s", "load.busy_s", "rubik.decide_busy_s",
                                   "rubik.tick_busy_s", "fleet.busy_s", "migrate.busy_s"]}
        top = max(timed, key=timed.get)
        return [(f"largest timed layer is {top}", top == "rubik.tick_busy_s")]
    return [(f"router.calls is {m['router.calls']}", m["router.calls"] == 0)]


def cmd_split(args):
    bench = spec()
    record = {}
    for w in [w["name"] for w in bench["workloads"]]:
        r = invoke(bench, w, args.seed, 1)
        m = {k: v["value"] for k, v in r["metrics"].items()}
        checks = split_checks(w, m)
        record[w] = {"correct": r["correct"], "metrics": m, "checks": checks}
        print(f"{w}: correct={r['correct']}")
        for text, ok in checks:
            print(f"  {'ok' if ok else 'FAILED'}: {text}")
    os.makedirs(SETS, exist_ok=True)
    with open(os.path.join(SETS, f"split-seed{args.seed}.json"), "w") as f:
        json.dump(record, f, indent=1)


def cmd_report(args):
    bench = spec()
    labels = sorted(f[:-5] for f in os.listdir(SETS) if f.endswith(".json") and "split" not in f)
    sets = {l: load(l) for l in labels}
    for l in labels:
        s = sets[l]
        print(f"### Set `{l}`\n")
        print(f"{s['runs']} rounds, seeds {s['first_seed']}..{s['first_seed'] + s['runs'] - 1}, "
              f"{s['seconds']} s per run, finished {s['finished']}; workloads interleaved, order "
              "alternating between rounds.\n")
        if "note" in s:
            print(f"Note: {s['note']}.\n")
        print_table(bench, s["results"])
        print()
    for pair in args.pairs or []:
        a, b = pair.split(":")
        print(f"### Medians of `{b}` against `{a}`\n")
        print_comparison(bench, sets[a], sets[b])
        print()
    for f in sorted(f for f in os.listdir(SETS) if "split" in f):
        with open(os.path.join(SETS, f)) as fh:
            split = json.load(fh)
        print(f"### Traced split `{f[:-5]}`\n")
        names = [m["name"] for m in bench["per_layer"]]
        print("| metric | " + " | ".join(split) + " |")
        print("|---|" + "---|" * len(split))
        for n in names:
            print(f"| {n} | " + " | ".join(f"{split[w]['metrics'][n]:.6g}" for w in split) + " |")
        print()
        for w, r in split.items():
            for text, ok in r["checks"]:
                print(f"- {w}: {'ok' if ok else 'FAILED'}: {text}; traced outputs bit-identical to measured: {r['correct']}")
        print()


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=100)
    r.add_argument("--label", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    s = sub.add_parser("split")
    s.add_argument("--seed", type=int, default=100)
    rep = sub.add_parser("report")
    rep.add_argument("--pairs", nargs="*", help="first:second labels to compare")
    args = p.parse_args()
    {"run": cmd_run, "compare": cmd_compare, "split": cmd_split, "report": cmd_report}[args.cmd](args)


if __name__ == "__main__":
    main()
