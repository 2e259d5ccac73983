#!/usr/bin/env python3
"""Measured-number ledger: runs hostbench on two checkouts and records medians.

    python3 scripts/host_ledger.py --base ../parent --change . \\
        --workload scan_short --workload get_hot --seeds 101-110 \\
        --seconds 8 --out BENCH_host.json

For each workload and seed it runs `hostbench/run.py --trace 0` once in
each checkout, as one pair; the side that runs first alternates from pair
to pair, so a slow spell on a shared host hits both sides alike. Every
run must exit 0 with `"correct": true`; the first one that does not stops
the script with exit status 1 and leaves the ledger untouched.

The ledger (BENCH_host.json) holds one row per (workload, end-to-end
metric, commit): the unit, the median and quartiles over the runs, the
per-seed values in seed order (so pair i is `runs[i]` of the two commits'
rows), the pair count, the seeds, the run length, the toolchain and
`nproc`. Rows of the two measured commits replace earlier rows for the
same (workload, metric, commit); every other row is kept. Quartiles are
`statistics.quantiles(..., n=4, method="inclusive")`. A checkout with
uncommitted changes to tracked files is recorded as `<HEAD>-dirty`.

Stdout gets one line per workload and metric: both medians with their
quartiles, the change/base ratio, and how many pairs the change won under
the metric's `better` direction in BENCHMARK.json (ties count for
neither side).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(spec):
    """'101-110' or '1,2,5' (or a mix) -> list of ints, in order."""
    seeds = []
    for part in spec.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError(f"bad seed list {spec!r}")
    return seeds


def quartiles(values):
    """(q1, median, q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def git_commit(checkout):
    """HEAD of a checkout, with '-dirty' if tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args],
                              capture_output=True, text=True, check=True
                              ).stdout.strip()
    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


def toolchain():
    try:
        cxx = subprocess.run(["c++", "--version"], capture_output=True,
                             text=True, check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        cxx = "unknown c++"
    libc, version = platform.libc_ver()
    return f"{cxx} / {libc or 'libc'} {version or '?'}"


def run_once(checkout, workload, seed, seconds):
    """One hostbench run; returns its metrics dict or raises RuntimeError."""
    cmd = [sys.executable, os.path.join("hostbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    where = f"{checkout}: {workload} seed {seed}"
    if proc.returncode != 0:
        raise RuntimeError(f"{where}: exit status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{where}: last stdout line is not JSON")
    if result.get("correct") is not True:
        raise RuntimeError(f"{where}: result not correct")
    return result["metrics"]


def measure(base, change, workloads, seeds, seconds):
    """{side: {workload: [metrics per seed]}} over alternating pairs."""
    sides = {"base": base, "change": change}
    runs = {side: {w: [] for w in workloads} for side in sides}
    for w in workloads:
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                metrics = run_once(sides[side], w, seed, seconds)
                runs[side][w].append(metrics)
                print(f"# {w} seed {seed} {side}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in metrics.items()),
                      flush=True)
    return runs


def ledger_rows(runs, commits, seeds, seconds, tool, nproc, metric_names):
    rows = []
    for side, per_workload in runs.items():
        for w, per_seed in per_workload.items():
            for m in metric_names:
                values = [r[m]["value"] for r in per_seed]
                q1, med, q3 = quartiles(values)
                rows.append({
                    "workload": w, "metric": m,
                    "unit": per_seed[0][m]["unit"],
                    "commit": commits[side],
                    "median": med, "q1": q1, "q3": q3,
                    "pairs": len(values), "seeds": seeds,
                    "seconds": seconds, "runs": values,
                    "toolchain": tool, "nproc": nproc,
                })
    return rows


def merge(old_rows, new_rows):
    """New rows replace old ones with the same (workload, metric, commit)."""
    def key(r):
        return r["workload"], r["metric"], r["commit"]
    fresh = {key(r) for r in new_rows}
    return [r for r in old_rows if key(r) not in fresh] + new_rows


def write_ledger(path, rows):
    """One row per line, so a diff of the ledger shows rows, not values."""
    with open(path, "w") as f:
        f.write('{"rows": [\n')
        f.write(",\n".join(json.dumps(r, sort_keys=True) for r in rows))
        f.write("\n]}\n")


def summary_lines(rows, commits, metrics):
    by_key = {(r["workload"], r["metric"], r["commit"]): r for r in rows}
    out = []
    workloads = sorted({r["workload"] for r in rows
                        if r["commit"] == commits["change"]})
    for w in workloads:
        for m, better in metrics:
            b = by_key.get((w, m, commits["base"]))
            c = by_key.get((w, m, commits["change"]))
            if b is None or c is None:
                continue
            sign = 1 if better == "higher" else -1
            wins = sum(1 for bv, cv in zip(b["runs"], c["runs"])
                       if sign * (cv - bv) > 0)
            ratio = c["median"] / b["median"] if b["median"] else float("nan")
            out.append(
                f"{w:<11} {m:<20} {b['median']:.6g} [{b['q1']:.6g}, "
                f"{b['q3']:.6g}] -> {c['median']:.6g} [{c['q1']:.6g}, "
                f"{c['q3']:.6g}]  x{ratio:.3f}  change won "
                f"{wins}/{len(c['runs'])}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--change", required=True,
                    help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,3,5")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--out", default=os.path.join(REPO_ROOT,
                                                  "BENCH_host.json"))
    ap.add_argument("--benchmark", default=os.path.join(REPO_ROOT,
                                                        "BENCHMARK.json"),
                    help="declares the end-to-end metrics and directions")
    args = ap.parse_args(argv)

    with open(args.benchmark) as f:
        declared = [(m["name"], m["better"])
                    for m in json.load(f)["end_to_end"]]
    seeds = parse_seeds(args.seeds)
    commits = {"base": git_commit(args.base),
               "change": git_commit(args.change)}
    if commits["base"] == commits["change"]:
        print(f"error: both checkouts are at {commits['base']}",
              file=sys.stderr)
        return 2

    try:
        runs = measure(args.base, args.change, args.workload, seeds,
                       args.seconds)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    names = [m for m, _ in declared]
    rows = ledger_rows(runs, commits, seeds, args.seconds, toolchain(),
                       os.cpu_count(), names)
    old = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            old = json.load(f)["rows"]
    write_ledger(args.out, merge(old, rows))
    for line in summary_lines(rows, commits, declared):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
