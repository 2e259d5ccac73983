#!/usr/bin/env python3
"""Fixture tests for the measured-number ledger (scripts/host_ledger.py).

Each test builds two throwaway git checkouts whose `hostbench/run.py` is a
stand-in: it logs which side ran which seed and prints a fixed result
computed from the seed, so the order of runs, the rows and the quartiles
can be checked exactly, without building or timing anything.

Run directly (`python3 tests/host_ledger_test.py`) or via ctest
(registered in tests/CMakeLists.txt as HostLedgerTest.Fixtures).
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO_ROOT, "scripts", "host_ledger.py")
spec = importlib.util.spec_from_file_location("host_ledger", SCRIPT)
host_ledger = importlib.util.module_from_spec(spec)
spec.loader.exec_module(host_ledger)

# Stand-in for hostbench/run.py. `side` and `mode` sit next to it; every
# run appends "<side> <workload> <seed>" to order.log in the common parent
# of both checkouts. cpu_us_per_op is 10 * seed, 5 less on the change;
# pipelined_ops_per_s is 1000 * seed on both sides.
FAKE_RUN = r'''
import json, os, sys
here = os.path.dirname(os.path.abspath(__file__))
def read(name):
    with open(os.path.join(here, name)) as f:
        return f.read().strip()
side, mode = read("side"), read("mode")
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open(os.path.join(here, "..", "..", "order.log"), "a") as f:
    f.write(f"{side} {args['--workload']} {seed}\n")
if mode == "exit3":
    sys.exit(3)
cpu = 10.0 * seed - (5.0 if side == "change" else 0.0)
print("# build and run chatter")
print(json.dumps({"correct": mode != "wrong", "attempted": 10, "failed": 0,
                  "metrics": {
                      "cpu_us_per_op": {"value": cpu, "unit": "us"},
                      "pipelined_ops_per_s": {"value": 1000.0 * seed,
                                              "unit": "op/s"}}}))
'''

BENCHMARK = {"end_to_end": [
    {"name": "cpu_us_per_op", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "pipelined_ops_per_s", "unit": "op/s", "better": "higher",
     "bound": 0.25}]}


def git(cwd, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t",
         "-c", "commit.gpgsign=false", *args],
        cwd=cwd, capture_output=True, text=True, check=True).stdout.strip()


class HostLedgerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = self.tmp.name
        self.heads = {}
        for side in ("base", "change"):
            d = os.path.join(self.root, side)
            os.makedirs(os.path.join(d, "hostbench"))
            self.write(side, "hostbench/run.py", FAKE_RUN)
            self.write(side, "hostbench/side", side)
            self.write(side, "hostbench/mode", "ok")
            git(d, "init", "-q")
            git(d, "add", "-A")
            git(d, "commit", "-qm", side)
            self.heads[side] = git(d, "rev-parse", "HEAD")
        self.bench = os.path.join(self.root, "BENCHMARK.json")
        with open(self.bench, "w") as f:
            json.dump(BENCHMARK, f)
        self.out = os.path.join(self.root, "BENCH_host.json")

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, side, rel, text):
        with open(os.path.join(self.root, side, rel), "w") as f:
            f.write(text)

    def run_ledger(self, *extra):
        cmd = [sys.executable, SCRIPT,
               "--base", os.path.join(self.root, "base"),
               "--change", os.path.join(self.root, "change"),
               "--seconds", "1", "--benchmark", self.bench,
               "--out", self.out, *extra]
        return subprocess.run(cmd, capture_output=True, text=True)

    def rows(self):
        with open(self.out) as f:
            return json.load(f)["rows"]

    def order(self):
        with open(os.path.join(self.root, "order.log")) as f:
            return [line.split() for line in f.read().splitlines()]

    def test_pairs_alternate_which_side_runs_first(self):
        proc = self.run_ledger("--workload", "get_hot", "--workload",
                               "scan_short", "--seeds", "1-4")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        expected = []
        for w in ("get_hot", "scan_short"):
            for i, seed in enumerate((1, 2, 3, 4)):
                first, second = (("base", "change") if i % 2 == 0
                                 else ("change", "base"))
                expected += [[first, w, str(seed)], [second, w, str(seed)]]
        self.assertEqual(self.order(), expected)

    def test_rows_hold_quartiles_runs_and_provenance(self):
        proc = self.run_ledger("--workload", "get_hot", "--seeds", "1-4")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        rows = {(r["metric"], r["commit"]): r for r in self.rows()}
        self.assertEqual(len(rows), 4)  # 2 metrics x 2 commits
        base = rows[("cpu_us_per_op", self.heads["base"])]
        self.assertEqual(base["runs"], [10.0, 20.0, 30.0, 40.0])
        self.assertEqual((base["q1"], base["median"], base["q3"]),
                         (17.5, 25.0, 32.5))
        change = rows[("cpu_us_per_op", self.heads["change"])]
        self.assertEqual(change["median"], 20.0)
        for r in rows.values():
            self.assertEqual(r["workload"], "get_hot")
            self.assertEqual(r["pairs"], 4)
            self.assertEqual(r["seeds"], [1, 2, 3, 4])
            self.assertEqual(r["seconds"], 1)
            self.assertEqual(r["nproc"], os.cpu_count())
            self.assertTrue(r["toolchain"])
        self.assertEqual(rows[("pipelined_ops_per_s", self.heads["base"])]
                         ["unit"], "op/s")
        # The change is 5 us cheaper in every pair; throughput ties.
        self.assertIn("change won 4/4", proc.stdout)
        self.assertIn("change won 0/4", proc.stdout)

    def test_rows_of_other_commits_are_kept_and_same_commit_replaced(self):
        stale = {"workload": "get_hot", "metric": "cpu_us_per_op",
                 "commit": self.heads["base"], "median": -1.0}
        other = {"workload": "get_hot", "metric": "cpu_us_per_op",
                 "commit": "0" * 40, "median": 7.0}
        host_ledger.write_ledger(self.out, [other, stale])
        proc = self.run_ledger("--workload", "get_hot", "--seeds", "1,2")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        rows = self.rows()
        self.assertIn(other, rows)
        self.assertNotIn(stale, rows)
        self.assertEqual(len(rows), 5)

    def test_a_failed_or_wrong_run_leaves_the_ledger_untouched(self):
        for mode in ("exit3", "wrong"):
            host_ledger.write_ledger(self.out, [])
            with open(self.out) as f:
                before = f.read()
            self.write("change", "hostbench/mode", mode)
            git(os.path.join(self.root, "change"), "commit", "-qam", mode)
            proc = self.run_ledger("--workload", "get_hot", "--seeds", "1-2")
            self.assertEqual(proc.returncode, 1, mode)
            self.assertIn("error:", proc.stderr)
            with open(self.out) as f:
                self.assertEqual(f.read(), before)

    def test_uncommitted_tracked_changes_mark_the_commit_dirty(self):
        change = os.path.join(self.root, "change")
        self.assertEqual(host_ledger.git_commit(change), self.heads["change"])
        self.write("change", "hostbench/mode", "ok\n")
        self.assertEqual(host_ledger.git_commit(change),
                         self.heads["change"] + "-dirty")

    def test_seed_lists(self):
        self.assertEqual(host_ledger.parse_seeds("3-5,9"), [3, 4, 5, 9])
        with self.assertRaises(ValueError):
            host_ledger.parse_seeds("1-3,2")


if __name__ == "__main__":
    unittest.main()
