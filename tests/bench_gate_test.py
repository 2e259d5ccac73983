#!/usr/bin/env python3
"""Fixture tests for the bench gate evaluator (scripts/check_bench_json.py).

tests/bench_gate_fixtures.json holds one passing report per bench, cut
down from real --quick runs to the metrics their gates read (table5 also
as a DINOMO_PM_CHECK build). Each failing fixture below breaks one check
of such a report the way a regression would, and the evaluator must
reject it; each passing report must be accepted as is.

Run directly (`python3 tests/bench_gate_test.py`) or via ctest
(registered in tests/CMakeLists.txt as BenchGateTest.*).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO_ROOT, "scripts", "check_bench_json.py")
SIM_DIGEST = os.path.join(REPO_ROOT, "scripts", "sim_digest.py")
with open(os.path.join(REPO_ROOT, "tests", "bench_gate_fixtures.json")) as f:
    REPORTS = json.load(f)

GOOD_TRACE = {"traceEvents": [
    {"name": "get", "ph": "X", "ts": 0, "dur": 3, "pid": 1, "tid": 1}]}


def rows(doc, **match):
    return [r for r in doc["results"]
            if all(r.get(k) == v for k, v in match.items())]


def row(doc, **match):
    (only,) = rows(doc, **match)
    return only


def drop_rows(doc, **match):
    doc["results"] = [r for r in doc["results"] if r not in rows(doc, **match)]


def counters(doc):
    return doc["metrics"]["counters"]


def set_counters(doc, prefix, suffix, value):
    for name in counters(doc):
        if name.startswith(prefix) and name.endswith(suffix):
            counters(doc)[name] = value


def table5_band_breach(policy, mix, pct, value):
    return ("table5_rts_per_op",
            lambda d: row(d, policy=policy, mix=mix,
                          cache_pct=pct).update(rts_per_op=value))


def table5_above_baseline_ceiling(d):
    # The deleted one-sided ceiling was 1.15 * b + 0.05 on the four DAC
    # rows; the band's upper edge b + max(0.05, 0.15 * b) is never above
    # it, so a report just over the ceiling already fails the band.
    for mix, pct, b in (("read", 4, 0.31), ("read", 16, 0.03),
                        ("write", 4, 0.21), ("write", 16, 0.10)):
        row(d, policy="DAC", mix=mix,
            cache_pct=pct).update(rts_per_op=1.15 * b + 0.05 + 1e-3)


def contention_collapse(d):
    single = row(d, threads=1)["mops"]
    for r in d["results"]:
        if r["threads"] > 1:
            r["mops"] = 0.5 * single


def trace_rts_disagree(d):
    c = counters(d)
    c["trace.round_trips"] = int(c["trace.opcost_round_trips"] * 1.02) + 1


def dual_disagree(d):
    r = row(d, section="doorbell_dual_counter")
    r["trace_round_trips"] = int(r["opcost_round_trips"] * 1.05) + 1


def pm_violation(name):
    return lambda d: counters(d).update({name: 1})


def scan_flag(flag):
    return lambda d: row(d, section="ordered_invariant").update({flag: False})


def storm_summary(**fields):
    return lambda d: row(d, section="summary").update(fields)


def storm_peak_at_base(d):
    row(d, section="summary")["peak_kns"] = d["config"]["base_kns"]


def storm_final_at_peak(d):
    s = row(d, section="summary")
    s["final_kns"] = s["peak_kns"]


# name -> (base report, mutation). One per check the evaluator (and the
# per-bench checker it replaced) makes; the comment names the check.
FAILING = {
    # schema
    "schema_name": ("table5_rts_per_op",
                    lambda d: d.update(schema="dinomo-bench-v0")),
    "schema_missing_config": ("table5_rts_per_op", lambda d: d.pop("config")),
    "schema_missing_counters": ("table5_rts_per_op",
                                lambda d: d["metrics"].pop("counters")),
    # micro_* results rows
    "micro_no_rows": ("micro_cache", lambda d: d.update(results=[])),
    "micro_row_bad_timing": (
        "micro_cache", lambda d: d["results"][0].update(real_ns_per_iter=-1)),
    # seeded sims carry fabric traffic
    "sim_no_fabric_counters": ("ablation_batching", lambda d: [
        counters(d).pop(k) for k in list(counters(d))
        if k.startswith("fabric.")]),
    "sim_zero_fabric_rts": (
        "fig5_scalability",
        lambda d: set_counters(d, "fabric.", ".round_trips", 0)),
    # fig6: M-node epochs must not wipe the KN cache counters
    "fig6_cache_counters_zeroed": (
        "fig6_autoscaling", lambda d: set_counters(d, "cache.", "", 0)),
    # PM checker violations
    "pm_violations": ("table5_pmcheck", pm_violation("pm.check.violations")),
    "pm_dirty_at_publication": (
        "table5_pmcheck", pm_violation("pm.check.dirty_at_publication")),
    "pm_redundant_flush": ("table5_pmcheck",
                           pm_violation("pm.check.redundant_flush")),
    "pm_persist_before_write": (
        "table5_pmcheck", pm_violation("pm.check.persist_before_write")),
    # fault family
    "fault_hung_requests": (
        "fig8_fault_tolerance",
        lambda d: counters(d).update({"fault.hung_requests": 2})),
    "fault_no_injections": (
        "fig8_fault_tolerance",
        lambda d: set_counters(d, "fault.injected.", "", 0)),
    # micro_contention
    "contention_stalls": (
        "micro_contention",
        lambda d: counters(d).update({"dpm.merge.queue.stalls": 1})),
    "contention_stalls_missing": (
        "micro_contention",
        lambda d: counters(d).pop("dpm.merge.queue.stalls")),
    "contention_no_single_row": ("micro_contention",
                                 lambda d: drop_rows(d, threads=1)),
    "contention_collapse": ("micro_contention", contention_collapse),
    # fig8 DPM-kill replication
    "repl_lost_acked_writes": (
        "fig8_fault_tolerance",
        lambda d: row(d, system="DINOMO+dpmkill").update(lost_acked_writes=1)),
    "repl_unmirrored_keys": (
        "fig8_fault_tolerance",
        lambda d: row(d, system="DINOMO+dpmkill").update(unmirrored_keys=3)),
    "repl_window_unset": (
        "fig8_fault_tolerance",
        lambda d: row(d, system="DINOMO+dpmkill").update(
            recovery_window_us=0)),
    "repl_window_over_budget": (
        "fig8_fault_tolerance",
        lambda d: row(d, system="DINOMO+dpmkill").update(
            recovery_window_us=600e3)),
    "repl_no_failstop": (
        "fig8_fault_tolerance",
        lambda d: counters(d).update({"fault.dpm_failstops": 0})),
    "repl_no_promotion": (
        "fig8_fault_tolerance",
        lambda d: counters(d).update({"dpm.pool.promotions": 0})),
    # trace family
    "micro_index_overhead_missing": (
        "micro_index",
        lambda d: d["metrics"]["gauges"].pop("trace.overhead.disabled_pct")),
    "micro_index_overhead_high": (
        "micro_index", lambda d: d["metrics"]["gauges"].update(
            {"trace.overhead.disabled_pct": 2.5})),
    "trace_dropped_spans_missing": (
        "table5_rts_per_op", lambda d: counters(d).pop("trace.dropped_spans")),
    "trace_rts_missing": ("table5_rts_per_op",
                          lambda d: counters(d).pop("trace.round_trips")),
    "trace_rts_disagree": ("table5_rts_per_op", trace_rts_disagree),
    # table5 RTs/op band
    "table5_shortcut_4_high": table5_band_breach("shortcut-only", "read", 4,
                                                 1.2),
    "table5_shortcut_16_low": table5_band_breach("shortcut-only", "read", 16,
                                                 0.8),
    "table5_dac_read_4_high": table5_band_breach("DAC", "read", 4, 0.37),
    "table5_dac_read_16_high": table5_band_breach("DAC", "read", 16, 0.09),
    "table5_dac_write_4_low": table5_band_breach("DAC", "write", 4, 0.15),
    "table5_dac_write_16_high": table5_band_breach("DAC", "write", 16, 0.16),
    "table5_row_missing": (
        "table5_rts_per_op",
        lambda d: drop_rows(d, policy="DAC", mix="read", cache_pct=16)),
    "table5_above_baseline_ceiling": ("table5_rts_per_op",
                                      table5_above_baseline_ceiling),
    # pipelined_client
    "pipeline_no_speedup": (
        "pipelined_client",
        lambda d: row(d, section="pipeline_throughput", depth=8).update(
            mops=1.5 * row(d, section="pipeline_throughput",
                           depth=1)["mops"])),
    "pipeline_depth1_missing": (
        "pipelined_client",
        lambda d: drop_rows(d, section="pipeline_throughput", depth=1)),
    "pipeline_dual_row_missing": (
        "pipelined_client",
        lambda d: drop_rows(d, section="doorbell_dual_counter")),
    "pipeline_dual_disagree": ("pipelined_client", dual_disagree),
    "pipeline_dual_zero": (
        "pipelined_client",
        lambda d: row(d, section="doorbell_dual_counter").update(
            trace_round_trips=0, opcost_round_trips=0)),
    "pipeline_no_fusion": (
        "pipelined_client",
        lambda d: row(d, section="doorbell_dual_counter").update(
            doorbell_batches=0)),
    # ycsb_e_scans
    "scan_none_served": (
        "ycsb_e_scans", lambda d: row(d, section="scan_mix").update(scans=0)),
    "scan_rts_over_bound": (
        "ycsb_e_scans",
        lambda d: row(d, section="scan_mix").update(
            rts_per_op=row(d, section="scan_mix")["rts_bound"] + 0.5)),
    "scan_mix_missing": ("ycsb_e_scans",
                         lambda d: drop_rows(d, section="scan_mix")),
    "scan_invariant_missing": (
        "ycsb_e_scans", lambda d: drop_rows(d, section="ordered_invariant")),
    "scan_invariant_no_rows": (
        "ycsb_e_scans",
        lambda d: row(d, section="ordered_invariant").update(rows=0)),
    "scan_unordered": ("ycsb_e_scans", scan_flag("ordered")),
    "scan_window_inexact": ("ycsb_e_scans", scan_flag("window_exact")),
    "scan_past_end_nonempty": ("ycsb_e_scans", scan_flag("past_end_empty")),
    # storm_autoscaling
    "storm_small_cluster": ("storm_autoscaling",
                            lambda d: d["config"].update(base_kns=50)),
    "storm_few_dpm_nodes": ("storm_autoscaling",
                            lambda d: d["config"].update(dpm_nodes=4)),
    "storm_service_latency": (
        "storm_autoscaling",
        lambda d: d["config"].update(latency_basis="service")),
    "storm_summary_missing": ("storm_autoscaling",
                              lambda d: drop_rows(d, section="summary")),
    "storm_slo_before_spike": ("storm_autoscaling",
                               storm_summary(slo_violation_s_before_spike=1.0)),
    "storm_no_scale_up": ("storm_autoscaling", storm_summary(scale_ups=0)),
    "storm_no_scale_down": ("storm_autoscaling", storm_summary(scale_downs=0)),
    "storm_peak_at_base": ("storm_autoscaling", storm_peak_at_base),
    "storm_final_at_peak": ("storm_autoscaling", storm_final_at_peak),
    "storm_undelivered": ("storm_autoscaling",
                          storm_summary(delivered_ratio=0.9)),
    "storm_no_segment_reclaimed": (
        "storm_autoscaling",
        lambda d: counters(d).update({"dpm.segments_gced": 0})),
}
# Failing chrome traces: name -> trace document (or raw text).
FAILING_TRACES = {
    "trace_file_unreadable": "{",
    "trace_file_empty": {"traceEvents": []},
    "trace_file_missing_key": {"traceEvents": [
        {"name": "get", "ph": "X", "ts": 0, "dur": 3, "pid": 1}]},
    "trace_file_bad_dur": {"traceEvents": [
        {"name": "get", "ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 1}]},
}


def failing_report(name):
    base, mutate = FAILING[name]
    doc = copy.deepcopy(REPORTS[base])
    mutate(doc)
    return doc


def run_checker(checker, reports=(), traces=()):
    """reports/traces: documents (or raw text). Returns (exit, output)."""
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for i, (doc, flag) in enumerate([(d, "") for d in reports] +
                                        [(t, "--trace=") for t in traces]):
            path = os.path.join(tmp, f"{i}.json")
            with open(path, "w") as f:
                f.write(doc if isinstance(doc, str) else json.dumps(doc))
            args.append(flag + path)
        proc = subprocess.run([sys.executable, checker] + args,
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


class BenchGateTest(unittest.TestCase):
    def test_every_bench_report_passes(self):
        for name, doc in REPORTS.items():
            with self.subTest(report=name):
                code, out = run_checker(CHECKER, [doc], [GOOD_TRACE])
                self.assertEqual(code, 0, out)
                self.assertNotIn("FAIL", out)

    def test_every_bench_declares_gates(self):
        for name, doc in REPORTS.items():
            if doc["bench"] not in ("micro_cache", "micro_log"):
                with self.subTest(report=name):
                    self.assertTrue(doc["gates"], name)

    def test_every_failing_fixture_fails(self):
        for name in FAILING:
            with self.subTest(fixture=name):
                code, out = run_checker(CHECKER, [failing_report(name)])
                self.assertEqual(code, 1, out)
                self.assertIn("FAIL", out)

    def test_every_failing_trace_fails(self):
        for name, trace in FAILING_TRACES.items():
            with self.subTest(fixture=name):
                code, out = run_checker(CHECKER, traces=[trace])
                self.assertEqual(code, 1, out)

    def test_baseline_ceiling_breach_fails_the_band(self):
        code, out = run_checker(
            CHECKER, [failing_report("table5_above_baseline_ceiling")])
        self.assertEqual(code, 1, out)
        for row_sel in ("policy=DAC,mix=read,cache_pct=4",
                        "policy=DAC,mix=read,cache_pct=16",
                        "policy=DAC,mix=write,cache_pct=4",
                        "policy=DAC,mix=write,cache_pct=16"):
            self.assertRegex(out, rf"FAIL: .*results\[{row_sel}\]"
                                  r"\.rts_per_op = \S+, gate <=")

    def test_gates_are_required_and_well_formed(self):
        for mutate in (lambda d: d.pop("gates"),
                       lambda d: d["gates"].append(
                           {"metric": "config.seed", "cmp": "~",
                            "bound": 1, "why": "bad comparison"}),
                       lambda d: d["gates"].append(
                           {"metric": "config.no_such_key", "cmp": ">=",
                            "bound": 0, "why": "missing path"}),
                       lambda d: d["gates"].append(
                           {"metric": "results[policy=DAC].rts_per_op",
                            "cmp": ">=", "bound": 0,
                            "why": "selector matches many rows"}),
                       lambda d: d["gates"].append(
                           {"metric": "config.icache", "cmp": "==",
                            "bound": 1, "why": "bool is not a number"})):
            doc = copy.deepcopy(REPORTS["table5_rts_per_op"])
            mutate(doc)
            with self.subTest(gates=doc.get("gates", [])[-1:]):
                code, out = run_checker(CHECKER, [doc])
                self.assertEqual(code, 1, out)


    def test_ledger_check_catches_a_moved_digest(self):
        moved = copy.deepcopy(REPORTS["table5_rts_per_op"])
        moved["results"][0]["rts_per_op"] += 0.01
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, doc in enumerate((REPORTS["table5_rts_per_op"], moved)):
                paths.append(os.path.join(tmp, f"{i}.json"))
                with open(paths[-1], "w") as f:
                    json.dump(doc, f)
            digest = subprocess.run(
                [sys.executable, SIM_DIGEST, paths[0]], capture_output=True,
                text=True, check=True).stdout.split()[0]
            ledger = os.path.join(tmp, "ledger.json")
            with open(ledger, "w") as f:
                json.dump({"digests": {"table5_rts_per_op": digest}}, f)
            for path, want in ((paths[0], 0), (paths[1], 1)):
                proc = subprocess.run(
                    [sys.executable, SIM_DIGEST, "--check", ledger, path],
                    capture_output=True, text=True)
                self.assertEqual(proc.returncode, want,
                                 proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
