#!/usr/bin/env python3
"""Validate bench --json_out reports and evaluate the gates they declare.

Usage: check_bench_json.py report.json [--trace=trace.json ...]

Every report is schema-checked (dinomo-bench-v1), and a micro_* report
must carry its results rows. Then every entry of the report's "gates"
list is evaluated. A bench declares its gates with BenchReporter::Gate
(bench/bench_json.h); BenchReporter::Finish adds the shared ones. A gate
is {"metric", "cmp", "bound", "why"}:

  metric  a path into the report. Dotted keys walk objects, and a metric
          name may itself hold dots: "metrics.counters.fault.hung_requests".
          "results[k=v,...]" picks the one results row whose fields match
          every k=v. A "*" in the last key sums every matching number:
          "metrics.counters.fabric.*.round_trips".
  cmp     one of <, <=, >, >=, ==.
  bound   a number, bool or string, or {"metric": path, "scale": x} for x
          times the value at another path.

A path that is missing, or a row selector that does not match exactly
one row, fails the gate. Ordered comparisons need numbers; == needs both
sides of one type.

--trace=<path> arguments name chrome://tracing trace-event files written
by --trace_out; each is validated structurally (non-empty traceEvents,
complete "X" events).
"""

import fnmatch
import json
import operator
import re
import sys

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "==": operator.eq}

# One path step: a key, an optional [k=v,...] row selector, then "." or end.
STEP = re.compile(r"([^.\[\]]+)(?:\[([^\]]*)\])?(?:\.|$)")


def fail(msg):
    print(f"FAIL: {msg}")
    return False


def check_schema(path, doc):
    ok = True
    if doc.get("schema") != "dinomo-bench-v1":
        ok = fail(f"{path}: schema is {doc.get('schema')!r}, "
                  "expected 'dinomo-bench-v1'")
    for key, typ in (("bench", str), ("quick", bool), ("git_sha", str),
                     ("config", dict), ("results", list), ("gates", list),
                     ("metrics", dict)):
        if not isinstance(doc.get(key), typ):
            ok = fail(f"{path}: missing or mistyped field {key!r}")
    if isinstance(doc.get("metrics"), dict):
        for section in ("counters", "gauges", "histograms"):
            if not isinstance(doc["metrics"].get(section), dict):
                ok = fail(f"{path}: metrics.{section} missing")
    for i, gate in enumerate(doc.get("gates") or []):
        if not (isinstance(gate, dict) and isinstance(gate.get("metric"), str)
                and gate.get("cmp") in OPS and "bound" in gate
                and isinstance(gate.get("why"), str)):
            ok = fail(f"{path}: gates[{i}] is malformed: {gate!r}")
    return ok


def check_micro_results(path, doc):
    """Every micro_* report must carry results rows. The google-benchmark
    micros (config.runner) write one row per run (bench/gbench_main.h),
    each with its per-iteration timings; an empty list means the timings
    were lost."""
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench.startswith("micro_"):
        return True
    results = doc.get("results")
    if not results:
        return fail(f"{path}: {bench} reported no results rows — the "
                    "google-benchmark timings did not reach --json_out")
    if doc.get("config", {}).get("runner") != "google-benchmark":
        return True
    ok = True
    for row in results:
        name = row.get("name") if isinstance(row, dict) else None
        for field in ("real_ns_per_iter", "cpu_ns_per_iter", "iterations"):
            value = row.get(field) if isinstance(row, dict) else None
            if not isinstance(value, (int, float)) or value < 0:
                ok = fail(f"{path}: {bench} row {name!r} has no valid "
                          f"{field} ({value!r})")
    return ok


def scalar(text):
    """A selector value: a JSON literal (4, 0.5, true) or a bare string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def resolve(doc, path):
    """The value at `path` in `doc`; raises LookupError if there is none."""
    node, rest = doc, path
    while rest:
        if isinstance(node, dict):
            if rest in node:  # a metric name with dots in it
                return node[rest]
            if "*" in rest:
                hits = [v for k, v in node.items()
                        if fnmatch.fnmatchcase(k, rest)]
                if hits and all(is_number(v) for v in hits):
                    return sum(hits)
        step = STEP.match(rest)
        if step is None or not isinstance(node, dict) or \
                step.group(1) not in node:
            raise LookupError(f"no {rest!r}")
        node, rest = node[step.group(1)], rest[step.end():]
        if step.group(2) is not None:
            match = dict(kv.split("=", 1) for kv in step.group(2).split(","))
            rows = [r for r in node if isinstance(r, dict) and all(
                k in r and r[k] == scalar(v) for k, v in match.items())] \
                if isinstance(node, list) else []
            if len(rows) != 1:
                raise LookupError(f"[{step.group(2)}] matches {len(rows)} "
                                  "rows, expected exactly one")
            node = rows[0]
    return node


def kind(v):
    return "number" if is_number(v) else type(v).__name__


def check_gate(path, doc, gate):
    metric, cmp, bound = gate["metric"], gate["cmp"], gate["bound"]
    try:
        value = resolve(doc, metric)
        if isinstance(bound, dict):
            ref = resolve(doc, bound["metric"])
            if not is_number(ref):
                raise LookupError(f"bound {bound['metric']} is {ref!r}")
            shown = f"{bound['scale']} x {bound['metric']} ({ref!r})"
            bound = bound["scale"] * ref
        else:
            shown = repr(bound)
    except (LookupError, TypeError, ValueError) as e:
        return fail(f"{path}: {metric} {cmp} {gate['bound']!r}: {e} "
                    f"— {gate['why']}")
    comparable = kind(value) == kind(bound) and \
        (cmp == "==" or kind(value) == "number")
    if not comparable or not OPS[cmp](value, bound):
        return fail(f"{path}: {metric} = {value!r}, gate {cmp} {shown} "
                    f"— {gate['why']}")
    print(f"ok: {path}: {metric} = {value!r} {cmp} {shown}")
    return True


def check_gates(path, doc):
    ok = True
    for gate in doc.get("gates", []):
        ok = check_gate(path, doc, gate) and ok
    return ok


def check_trace_file(path):
    """Structural validation of a chrome://tracing trace-event JSON file:
    loadable, non-empty traceEvents, and every complete ("X") event has
    the fields chrome://tracing needs to render it."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{path}: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail(f"{path}: traceEvents missing or empty")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            return fail(f"{path}: traceEvents[{i}] is not an object")
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                return fail(f"{path}: traceEvents[{i}] missing {key!r}")
        if ev["ph"] == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                return fail(f"{path}: traceEvents[{i}] 'X' event has bad "
                            f"dur {dur!r}")
    print(f"ok: {path}: valid chrome trace ({len(events)} events)")
    return True


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    ok = True
    for path in argv[1:]:
        if path.startswith("--trace="):
            ok = check_trace_file(path[len("--trace="):]) and ok
            continue
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            ok = fail(f"{path}: {e}")
            continue
        if not check_schema(path, doc):
            ok = False
            continue
        report_ok = check_micro_results(path, doc)
        report_ok = check_gates(path, doc) and report_ok
        if report_ok:
            print(f"ok: {path}: schema + {len(doc['gates'])} gates "
                  f"(bench={doc['bench']}, quick={doc['quick']}, "
                  f"git_sha={doc['git_sha']})")
        ok = ok and report_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
