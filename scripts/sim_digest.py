#!/usr/bin/env python3
"""Print one sha256 digest per bench --json_out report.

The digest covers the report's `config` and `results` only, serialized
with sorted keys, so two runs of a seeded virtual-time bench compare equal
exactly when their modeled outputs are byte-identical. Excluded, because
they depend on host timing rather than on the seed:
  * the `metrics` snapshot (ycsb_e_scans and pipelined_client publish
    counters from real-thread sections into it);
  * pipelined_client's `doorbell_dual_counter` results row.

Usage:
  scripts/sim_digest.py REPORT.json [REPORT.json ...]
  scripts/sim_digest.py --compare A.json B.json   # exit 1 if they differ
  scripts/sim_digest.py --check BENCH_sim.json REPORT.json ...

--check compares each --quick report of a bench the ledger lists against
its recorded digest and exits 1 on any difference; other reports are
skipped. BENCH_sim.json at the repo root is that ledger: a change that
moves a seeded sim's output must record the new digest there.
"""

import hashlib
import json
import sys

# (bench name, results-row "section") pairs left out of the digest.
EXCLUDED_ROWS = {("pipelined_client", "doorbell_dual_counter")}


def load(path):
    with open(path) as f:
        return json.load(f)


def digest(report):
    bench = report.get("bench", "")
    rows = [
        row
        for row in report.get("results", [])
        if (bench, row.get("section")) not in EXCLUDED_ROWS
    ]
    body = {"config": report.get("config", {}), "results": rows}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check(ledger_path, reports):
    ledger = load(ledger_path)["digests"]
    ok = True
    for path in reports:
        report = load(path)
        bench = report.get("bench")
        if bench not in ledger or not report.get("quick"):
            print(f"skip: {path} ({bench} --quick is not in the ledger)")
            continue
        got = digest(report)
        if got == ledger[bench]:
            print(f"ok: {path}: {got[:12]} matches the ledger")
        else:
            ok = False
            print(f"FAIL: {path}: {bench} digest {got[:12]} != ledger "
                  f"{ledger[bench][:12]}; record the new digest in "
                  f"{ledger_path} if the change is intended", file=sys.stderr)
    return 0 if ok else 1


def main(argv):
    if len(argv) == 4 and argv[1] == "--compare":
        a, b = digest(load(argv[2])), digest(load(argv[3]))
        print(f"{a}  {argv[2]}\n{b}  {argv[3]}")
        if a != b:
            print("digests differ", file=sys.stderr)
            return 1
        return 0
    if len(argv) >= 3 and argv[1] == "--check":
        return check(argv[2], argv[3:])
    if len(argv) < 2 or argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        print(f"{digest(load(path))}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
