#!/usr/bin/env python3
"""Validate bench --json_out reports and gate CI on performance drift.

Usage: check_bench_json.py report.json [--trace=trace.json ...]

Every report is schema-checked (dinomo-bench-v1). For benches with
checked-in expectations (currently table5_rts_per_op in --quick mode),
key steady-state figures are compared against EXPECTATIONS below with a
tolerance band; a value outside the band fails the run.

--trace=<path> arguments name chrome://tracing trace-event files written
by --trace_out; each is validated structurally (non-empty traceEvents,
complete "X" events). Reports that ran with tracing armed additionally
gate the trace.* metric family: trace-derived round trips must agree
with the OpCost aggregate within 1%, trace.dropped_spans must be
reported (nonzero is fine — the ring overwrites by design — absent is
not), and for micro_index the tracing-disabled overhead gauge
trace.overhead.disabled_pct must stay <= 2.

The simulations are seeded and run in virtual time, so these figures are
deterministic up to floating-point ordering across toolchains — the band
is deliberately generous (15% relative + 0.05 absolute). If a change
intentionally moves round-trips-per-op (e.g. a cache-policy fix), update
EXPECTATIONS in the same PR and say why in the commit message.
"""

import json
import sys

REL_TOL = 0.15
ABS_TOL = 0.05

# Virtual-time ceiling for the DPM fail-stop recovery window (detection +
# quiesce + re-replication) gated by check_replication. Measured ~150 ms
# at --quick with 4 nodes / rf=2; the budget leaves ~3x headroom.
REPLICATION_RECOVERY_BUDGET_US = 500e3

# (bench, quick) -> list of (match, field, expected)
# `match` is a dict of result-row fields that identify the row.
#
# table5 history: the index-metadata cache dropped DAC reads from
# 0.47/0.14 to 0.31/0.03 (repeat misses now resolve the value home
# without re-walking the index), and fixing the warmup-window bug (cold
# first-touch traversals used to be averaged into the measured window)
# pinned shortcut-only reads at exactly 1 RT/op.
EXPECTATIONS = {
    ("table5_rts_per_op", True): [
        ({"policy": "shortcut-only", "mix": "read", "cache_pct": 4},
         "rts_per_op", 1.00),
        ({"policy": "shortcut-only", "mix": "read", "cache_pct": 16},
         "rts_per_op", 1.00),
        ({"policy": "DAC", "mix": "read", "cache_pct": 4},
         "rts_per_op", 0.31),
        ({"policy": "DAC", "mix": "read", "cache_pct": 16},
         "rts_per_op", 0.03),
        ({"policy": "DAC", "mix": "write", "cache_pct": 4},
         "rts_per_op", 0.21),
        ({"policy": "DAC", "mix": "write", "cache_pct": 16},
         "rts_per_op", 0.10),
    ],
}

# One-sided ceilings for the DINOMO (DAC) request path, independent of
# the two-sided EXPECTATIONS band above: these are the committed
# baseline RTs/op, and a report may come in *below* them (improvements
# land freely) but never above baseline * (1 + TABLE5_REGRESSION_TOL).
# Raising a ceiling requires editing this table in the same PR and
# justifying the communication regression in the commit message.
TABLE5_REGRESSION_TOL = 0.15
TABLE5_BASELINE = [
    ({"policy": "DAC", "mix": "read", "cache_pct": 4}, 0.31),
    ({"policy": "DAC", "mix": "read", "cache_pct": 16}, 0.03),
    ({"policy": "DAC", "mix": "write", "cache_pct": 4}, 0.21),
    ({"policy": "DAC", "mix": "write", "cache_pct": 16}, 0.10),
]

# pipelined_client gate: closed-loop throughput at depth 8 must be at
# least this multiple of depth 1 (measured 5.4x at --quick; the bound
# is the ISSUE's acceptance criterion with headroom for scheduler noise
# in the virtual-time model across toolchains).
PIPELINE_MIN_SPEEDUP = 2.0

# PM crash-consistency checker violation counters (src/pm/pm_checker.*).
# When a bench runs with the checker attached (DINOMO_PM_CHECK build or
# env var) these flow into the metrics snapshot automatically; any
# non-zero value is a persist-ordering bug in the bench workload path.
PM_VIOLATION_COUNTERS = (
    "pm.check.violations",
    "pm.check.dirty_at_publication",
    "pm.check.redundant_flush",
    "pm.check.persist_before_write",
)

# Benches that drive the simulators; their metrics section must carry
# fabric traffic (proof that the registry wiring stayed intact).
SIM_BENCHES = {
    "table5_rts_per_op", "table6_profiling", "fig3_cache_policies",
    "fig4_dpm_compute", "fig5_scalability", "fig6_autoscaling",
    "fig7_load_balancing", "fig8_fault_tolerance", "ablation_batching",
    "ablation_cache_size", "pipelined_client", "ycsb_e_scans",
    "storm_autoscaling",
}

# storm_autoscaling gate: the open-loop engine delivers essentially all
# offered traffic across the run (the spike backlog must drain before the
# end), despite latencies being measured from intended send.
STORM_MIN_DELIVERED_RATIO = 0.95


def fail(msg):
    print(f"FAIL: {msg}")
    return False


def check_schema(path, doc):
    ok = True
    if doc.get("schema") != "dinomo-bench-v1":
        ok = fail(f"{path}: schema is {doc.get('schema')!r}, "
                  "expected 'dinomo-bench-v1'")
    for key, typ in (("bench", str), ("quick", bool), ("git_sha", str),
                     ("config", dict), ("results", list), ("metrics", dict)):
        if not isinstance(doc.get(key), typ):
            ok = fail(f"{path}: missing or mistyped field {key!r}")
    if isinstance(doc.get("metrics"), dict):
        for section in ("counters", "gauges", "histograms"):
            if not isinstance(doc["metrics"].get(section), dict):
                ok = fail(f"{path}: metrics.{section} missing")
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


def check_metrics(path, doc):
    bench = doc.get("bench")
    if bench not in SIM_BENCHES:
        return True
    counters = doc.get("metrics", {}).get("counters", {})
    fabric = [k for k in counters if k.startswith("fabric.")]
    if not fabric:
        return fail(f"{path}: no fabric.* counters in metrics — "
                    "registry instrumentation broken?")
    rts = sum(v for k, v in counters.items() if k.endswith(".round_trips"))
    if rts <= 0:
        return fail(f"{path}: fabric round_trips total is {rts}")
    return True


def check_pm_checker(path, doc):
    counters = doc.get("metrics", {}).get("counters", {})
    if not isinstance(counters, dict):
        return True  # schema check already failed this report
    tracked = counters.get("pm.check.tracked_stores")
    ok = True
    for name in PM_VIOLATION_COUNTERS:
        value = counters.get(name, 0)
        if isinstance(value, (int, float)) and value > 0:
            ok = fail(
                f"{path}: PM checker counter {name} = {value} — "
                "persist-ordering violation on the bench workload path; "
                "reproduce with DINOMO_PM_CHECK=1 and read the "
                "PmChecker::Report() output")
    if ok and tracked is not None:
        print(f"ok: {path}: PM checker clean "
              f"({int(tracked)} tracked stores, 0 violations)")
    return ok


def check_faults(path, doc):
    """Gate the fault.* family (src/net/fault.*): a bench that ran with a
    fault injector must leak nothing — every client request completes or
    returns DeadlineExceeded, and no KN is torn down with requests still
    counted in flight."""
    counters = doc.get("metrics", {}).get("counters", {})
    if not isinstance(counters, dict):
        return True  # schema check already failed this report
    fault = {k: v for k, v in counters.items() if k.startswith("fault.")}
    if not fault:
        return True  # fault-free run
    ok = True
    hung = fault.get("fault.hung_requests", 0)
    if isinstance(hung, (int, float)) and hung > 0:
        ok = fail(f"{path}: fault.hung_requests = {hung} — a client future "
                  "was left pending when its KN stopped; the KvsNode drain "
                  "guarantee is broken")
    injected = sum(v for k, v in fault.items()
                   if k.startswith("fault.injected.")
                   and isinstance(v, (int, float)))
    if doc.get("bench") == "fig8_fault_tolerance" and injected <= 0:
        ok = fail(f"{path}: fault.* counters present but zero injections — "
                  "the injector is installed but not wired into the "
                  "fabric/RPC path")
    if ok:
        print(f"ok: {path}: fault injection clean "
              f"({int(injected)} injected, 0 hung requests)")
    return ok


def check_contention(path, doc):
    """Gates for micro_contention (the DPM shard/merge-queue hammer):
    the merge scheduler's lost-wakeup audit must never fire, and on a
    multicore host concurrent throughput must at least hold the
    single-thread line (0.9 factor absorbs scheduler noise on small CI
    runners; the refactor's point was that it used to collapse)."""
    if doc.get("bench") != "micro_contention":
        return True
    ok = True
    counters = doc.get("metrics", {}).get("counters", {})
    stalls = counters.get("dpm.merge.queue.stalls")
    if not isinstance(stalls, (int, float)):
        ok = fail(f"{path}: dpm.merge.queue.stalls missing from metrics")
    elif stalls > 0:
        ok = fail(f"{path}: dpm.merge.queue.stalls = {stalls} — the merge "
                  "scheduler lost runnable work and the audit had to "
                  "repair it; the runnable_ bookkeeping is broken")
    rows = {r.get("threads"): r for r in doc.get("results", [])
            if isinstance(r, dict)}
    single = rows.get(1, {}).get("mops")
    multi = [r.get("mops") for t, r in rows.items()
             if isinstance(t, int) and t > 1]
    if not isinstance(single, (int, float)) or not multi:
        return fail(f"{path}: need a threads=1 row and at least one "
                    "threads>1 row")
    hw = doc.get("config", {}).get("hw_threads", 0)
    if isinstance(hw, (int, float)) and hw >= 2:
        best = max(v for v in multi if isinstance(v, (int, float)))
        if best < 0.9 * single:
            ok = fail(
                f"{path}: best multi-thread throughput {best:.3f} Mops < "
                f"0.9x single-thread {single:.3f} Mops on a {int(hw)}-way "
                "host — concurrent flush/merge is serializing again")
        else:
            print(f"ok: {path}: multi-thread {best:.3f} Mops vs "
                  f"single-thread {single:.3f} Mops (hw_threads={int(hw)})")
    else:
        print(f"ok: {path}: single-core host (hw_threads={hw}) — "
              "skipping the scaling gate, stalls gate applied")
    return ok


def check_replication(path, doc):
    """Gates for the replicated-DPM kill pass of fig8_fault_tolerance
    (the row carrying lost_acked_writes): a DPM fail-stop must actually
    have been enacted and survived — zero acknowledged writes lost, at
    least one mirror promotion, and a measured recovery window that is
    positive and below the virtual-time budget."""
    rows = [r for r in doc.get("results", [])
            if isinstance(r, dict) and "lost_acked_writes" in r]
    if not rows:
        return True
    ok = True
    counters = doc.get("metrics", {}).get("counters", {})
    if not isinstance(counters, dict):
        return True  # schema check already failed this report
    for row in rows:
        lost = row.get("lost_acked_writes")
        if lost != 0:
            ok = fail(f"{path}: lost_acked_writes = {lost!r} — an "
                      "acknowledged write did not survive the DPM "
                      "fail-stop; replicate-before-ack or the repair "
                      "path is broken")
        unmirrored = row.get("unmirrored_keys")
        if unmirrored != 0:
            ok = fail(f"{path}: unmirrored_keys = {unmirrored!r} — "
                      "re-replication left keys without a current mirror "
                      "copy; a second fail-stop would lose them")
        window = row.get("recovery_window_us")
        if not isinstance(window, (int, float)) or window <= 0:
            ok = fail(f"{path}: recovery_window_us = {window!r} — the "
                      "recovery window gauge was never set; promotion "
                      "did not run")
        elif window > REPLICATION_RECOVERY_BUDGET_US:
            ok = fail(
                f"{path}: recovery window {window:.0f} us exceeds the "
                f"{REPLICATION_RECOVERY_BUDGET_US:.0f} us budget — "
                "detection + drain + re-replication regressed")
    failstops = counters.get("fault.dpm_failstops", 0)
    if not isinstance(failstops, (int, float)) or failstops < 1:
        ok = fail(f"{path}: fault.dpm_failstops = {failstops!r} — the "
                  "DPM kill was scheduled but never enacted through the "
                  "injector")
    promotions = counters.get("dpm.pool.promotions", 0)
    if not isinstance(promotions, (int, float)) or promotions < 1:
        ok = fail(f"{path}: dpm.pool.promotions = {promotions!r} — no "
                  "mirror was promoted after the kill")
    if ok:
        row = rows[0]
        print(f"ok: {path}: replication gates clean "
              f"(verified_keys={row.get('verified_keys')}, 0 lost, "
              f"0 unmirrored, recovery window "
              f"{row.get('recovery_window_us'):.0f} us, "
              f"{int(promotions)} promotion(s))")
    return ok


def check_trace_metrics(path, doc):
    """Gates on the trace.* family published by --trace_out runs (see
    src/obs/trace.*): the dual round-trip counters must agree and the
    drop counter must be present, and micro_index's measured cost of the
    tracing-disabled fast path must stay within the 2% budget."""
    counters = doc.get("metrics", {}).get("counters", {})
    gauges = doc.get("metrics", {}).get("gauges", {})
    if not isinstance(counters, dict) or not isinstance(gauges, dict):
        return True  # schema check already failed this report
    ok = True
    if doc.get("bench") == "micro_index":
        pct = gauges.get("trace.overhead.disabled_pct")
        if not isinstance(pct, (int, float)):
            ok = fail(f"{path}: trace.overhead.disabled_pct missing — "
                      "BM_TraceOverhead did not run or publish")
        elif pct > 2.0:
            ok = fail(
                f"{path}: tracing-disabled overhead {pct:.3f}% of a remote "
                "lookup > 2% budget — the CurrentTraceContext() fast path "
                "got more expensive")
        else:
            print(f"ok: {path}: tracing-disabled overhead {pct:.4f}% "
                  "(budget 2%)")
    if counters.get("trace.spans", 0) <= 0:
        return ok  # this report did not run with tracing armed
    if "trace.dropped_spans" not in counters:
        ok = fail(f"{path}: trace.spans present but trace.dropped_spans "
                  "missing — ring overwrites are not being counted")
    trace_rts = counters.get("trace.round_trips")
    opcost_rts = counters.get("trace.opcost_round_trips")
    if not isinstance(trace_rts, (int, float)) or \
            not isinstance(opcost_rts, (int, float)):
        return fail(f"{path}: trace.round_trips / trace.opcost_round_trips "
                    "missing from a traced run")
    if opcost_rts > 0:
        rel = abs(trace_rts - opcost_rts) / opcost_rts
        if rel > 0.01:
            ok = fail(
                f"{path}: trace-derived round trips {int(trace_rts)} vs "
                f"OpCost aggregate {int(opcost_rts)} differ by "
                f"{100 * rel:.2f}% (> 1%) — a fabric op is traced without "
                "being charged, or vice versa")
        else:
            print(f"ok: {path}: trace RTs {int(trace_rts)} vs OpCost RTs "
                  f"{int(opcost_rts)} agree ({100 * rel:.3f}% <= 1%), "
                  f"dropped_spans={int(counters['trace.dropped_spans'])}")
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


def row_matches(row, match):
    return all(row.get(k) == v for k, v in match.items())


def check_table5_regression(path, doc):
    """Non-regression ceiling for DINOMO (DAC) round trips per op: the
    drift band in EXPECTATIONS is two-sided and gets updated when RTs/op
    intentionally move, but this gate is one-sided against the committed
    TABLE5_BASELINE — a report above baseline * (1 + tol) means the
    request path started paying communication it didn't before."""
    if doc.get("bench") != "table5_rts_per_op" or not doc.get("quick"):
        return True
    if doc.get("config", {}).get("icache") is False:
        return True  # ablation run; check_expectations already noted it
    ok = True
    results = doc.get("results", [])
    for match, baseline in TABLE5_BASELINE:
        rows = [r for r in results if row_matches(r, match)]
        if len(rows) != 1:
            ok = fail(f"{path}: expected exactly one row matching {match}, "
                      f"found {len(rows)}")
            continue
        actual = rows[0].get("rts_per_op")
        if not isinstance(actual, (int, float)):
            ok = fail(f"{path}: row {match} rts_per_op is {actual!r}")
            continue
        ceiling = baseline * (1 + TABLE5_REGRESSION_TOL) + ABS_TOL
        if actual > ceiling:
            ok = fail(
                f"{path}: {match} rts_per_op = {actual:.4f} exceeds the "
                f"committed baseline {baseline:.4f} (ceiling {ceiling:.4f})"
                " — round trips per op regressed; if the extra "
                "communication is intentional, raise TABLE5_BASELINE in "
                "the same PR and say why")
        else:
            print(f"ok: {path}: {match} rts_per_op = {actual:.4f} <= "
                  f"baseline ceiling {ceiling:.4f}")
    return ok


def check_pipelined_client(path, doc):
    """Gates for the pipelined_client bench: depth-8 closed-loop
    throughput must be >= PIPELINE_MIN_SPEEDUP x the depth-1 run of the
    same report, the doorbell dual round-trip counters (leaf trace spans
    vs per-request OpCost) must agree within 1% with fusion enabled, and
    fusion must actually have fired."""
    if doc.get("bench") != "pipelined_client":
        return True
    ok = True
    results = [r for r in doc.get("results", []) if isinstance(r, dict)]
    by_depth = {r.get("depth"): r for r in results
                if r.get("section") == "pipeline_throughput"}
    d1 = by_depth.get(1, {}).get("mops")
    d8 = by_depth.get(8, {}).get("mops")
    if not isinstance(d1, (int, float)) or not isinstance(d8, (int, float)):
        ok = fail(f"{path}: need pipeline_throughput rows for depth 1 "
                  f"and depth 8, got depths {sorted(by_depth)}")
    elif d1 <= 0 or d8 < PIPELINE_MIN_SPEEDUP * d1:
        ok = fail(
            f"{path}: depth-8 throughput {d8:.3f} Mops is "
            f"{d8 / d1 if d1 > 0 else 0:.2f}x depth-1 ({d1:.3f} Mops), "
            f"below the {PIPELINE_MIN_SPEEDUP:.1f}x gate — the pipelined "
            "client is no longer overlapping round trips")
    else:
        print(f"ok: {path}: depth-8 {d8:.3f} Mops = {d8 / d1:.2f}x "
              f"depth-1 {d1:.3f} Mops (gate {PIPELINE_MIN_SPEEDUP:.1f}x)")
    dual = [r for r in results if r.get("section") == "doorbell_dual_counter"]
    if len(dual) != 1:
        return fail(f"{path}: expected exactly one doorbell_dual_counter "
                    f"row, found {len(dual)}")
    row = dual[0]
    trace_rts = row.get("trace_round_trips")
    opcost_rts = row.get("opcost_round_trips")
    batches = row.get("doorbell_batches")
    if not isinstance(trace_rts, (int, float)) or trace_rts <= 0 or \
            not isinstance(opcost_rts, (int, float)) or opcost_rts <= 0:
        ok = fail(f"{path}: doorbell dual counters missing or zero "
                  f"(trace={trace_rts!r}, opcost={opcost_rts!r})")
    elif abs(trace_rts - opcost_rts) / opcost_rts > 0.01:
        ok = fail(
            f"{path}: trace round trips {int(trace_rts)} vs OpCost "
            f"{int(opcost_rts)} differ by more than 1% with doorbell "
            "fusion enabled — a fused op is traced without being "
            "charged, or vice versa")
    else:
        print(f"ok: {path}: doorbell dual counters agree "
              f"({int(trace_rts)} vs {int(opcost_rts)})")
    if not isinstance(batches, (int, float)) or batches < 1:
        ok = fail(f"{path}: doorbell_batches = {batches!r} — the pipelined "
                  "GET load never fused a batch; KvsNode run assembly or "
                  "Fabric::OpBatch is broken")
    elif ok:
        print(f"ok: {path}: {int(batches)} doorbell batches fused "
              f"{int(row.get('doorbell_fused_ops', 0))} ops, saved "
              f"{int(row.get('doorbell_saved_rts', 0))} round trips")
    return ok


def check_ycsb_e_scans(path, doc):
    """Gates for the YCSB-E scan bench over the ordered DPM index: every
    scan_mix row must have actually served scans and hold its committed
    round-trip bound (the measured cost plus 25%: warm scans prefetch
    their leaf run from the KN's learned links in one round and fuse the
    value reads into one more; the bench emits the bound per row as
    rts_bound), and the real-thread
    section must prove the end-to-end ordered-iteration invariant —
    ascending keys, exact window, empty past-the-end scan."""
    if doc.get("bench") != "ycsb_e_scans":
        return True
    ok = True
    results = [r for r in doc.get("results", []) if isinstance(r, dict)]
    mix_rows = [r for r in results if r.get("section") == "scan_mix"]
    if not mix_rows:
        ok = fail(f"{path}: no scan_mix rows — the ShortScans sim section "
                  "did not run")
    for row in mix_rows:
        length = row.get("scan_len_max")
        scans = row.get("scans")
        if not isinstance(scans, (int, float)) or scans <= 0:
            ok = fail(f"{path}: scan_mix len={length!r} served scans = "
                      f"{scans!r} — the workload generator or the kScan "
                      "dispatch path dropped the scan class")
            continue
        rts = row.get("rts_per_op")
        bound = row.get("rts_bound")
        if not isinstance(rts, (int, float)) or \
                not isinstance(bound, (int, float)):
            ok = fail(f"{path}: scan_mix len={length!r} missing rts_per_op "
                      f"or rts_bound ({rts!r}, {bound!r})")
        elif rts > bound:
            ok = fail(
                f"{path}: scan_mix len={length!r} rts_per_op = {rts:.2f} "
                f"exceeds the {bound:.2f} bound — scans fell back to "
                "dependent leaf walks (learned links not used?) or pay "
                "per-row value reads")
        else:
            print(f"ok: {path}: scan_mix len={length} rts_per_op = "
                  f"{rts:.2f} <= {bound:.2f}, {int(scans)} scans served")
    inv = [r for r in results if r.get("section") == "ordered_invariant"]
    if len(inv) != 1:
        return fail(f"{path}: expected exactly one ordered_invariant row, "
                    f"found {len(inv)}")
    row = inv[0]
    rows_returned = row.get("rows")
    if not isinstance(rows_returned, (int, float)) or rows_returned < 1:
        ok = fail(f"{path}: ordered_invariant rows = {rows_returned!r} — "
                  "the wall-clock Client::Scan returned nothing")
    for flag in ("ordered", "window_exact", "past_end_empty"):
        if row.get(flag) is not True:
            ok = fail(f"{path}: ordered_invariant {flag} = "
                      f"{row.get(flag)!r} — the real-thread scan path "
                      "broke the ordered-iteration contract")
    if ok and inv:
        print(f"ok: {path}: ordered-iteration invariant held over "
              f"{int(rows_returned)} rows (real threads)")
    return ok


def check_storm_autoscaling(path, doc):
    """Gates for the open-loop storm bench (bench/storm_autoscaling): the
    rack-scale diurnal base load must run SLO-clean before the flash
    spike (coordinated-omission-free p99 < SLO in every pre-spike
    window), the SLO autoscaler must both scale up under the spike and
    decay back down after the backlog drains, and the offered-vs-
    delivered gap over the whole run must stay bounded."""
    if doc.get("bench") != "storm_autoscaling":
        return True
    ok = True
    config = doc.get("config", {})
    base_kns = config.get("base_kns")
    dpm_nodes = config.get("dpm_nodes")
    if not isinstance(base_kns, (int, float)) or base_kns < 100:
        ok = fail(f"{path}: base_kns = {base_kns!r} — the storm must run "
                  "at rack scale (>= 100 KNs)")
    if not isinstance(dpm_nodes, (int, float)) or dpm_nodes < 10:
        ok = fail(f"{path}: dpm_nodes = {dpm_nodes!r} — the storm must "
                  "run against >= 10 DPM nodes")
    if config.get("latency_basis") != "intended-send":
        ok = fail(f"{path}: latency_basis = "
                  f"{config.get('latency_basis')!r} — storm latencies "
                  "must be measured from intended arrival time")
    rows = [r for r in doc.get("results", [])
            if isinstance(r, dict) and r.get("section") == "summary"]
    if len(rows) != 1:
        return fail(f"{path}: expected exactly one summary row, "
                    f"found {len(rows)}")
    row = rows[0]
    pre = row.get("slo_violation_s_before_spike")
    if not isinstance(pre, (int, float)) or pre > 0:
        ok = fail(f"{path}: slo_violation_s_before_spike = {pre!r} — the "
                  "diurnal base load alone breached the p99 SLO; either "
                  "capacity regressed or the intended-send accounting is "
                  "charging phantom queueing delay")
    ups = row.get("scale_ups")
    downs = row.get("scale_downs")
    if not isinstance(ups, (int, float)) or ups < 1:
        ok = fail(f"{path}: scale_ups = {ups!r} — the autoscaler never "
                  "reacted to a spike ~1.4x over capacity")
    if not isinstance(downs, (int, float)) or downs < 1:
        ok = fail(f"{path}: scale_downs = {downs!r} — the autoscaler "
                  "scaled up but never decayed after the spike passed; "
                  "the clear/hysteresis path is broken")
    peak = row.get("peak_kns")
    final = row.get("final_kns")
    if not isinstance(peak, (int, float)) or peak <= base_kns:
        ok = fail(f"{path}: peak_kns = {peak!r} vs base {base_kns!r} — "
                  "no KN was actually added under the spike")
    elif not isinstance(final, (int, float)) or final >= peak:
        ok = fail(f"{path}: final_kns = {final!r} did not come back down "
                  f"from peak {peak!r}")
    delivered = row.get("delivered_ratio")
    if not isinstance(delivered, (int, float)) or \
            delivered < STORM_MIN_DELIVERED_RATIO:
        ok = fail(
            f"{path}: delivered_ratio = {delivered!r} < "
            f"{STORM_MIN_DELIVERED_RATIO} — the open-loop backlog never "
            "drained; offered traffic is being dropped or stranded")
    if ok:
        print(f"ok: {path}: storm gates clean (pre-spike violations 0 s, "
              f"KNs {int(base_kns)} -> {int(peak)} -> {int(final)}, "
              f"{int(ups)} up / {int(downs)} down, "
              f"delivered {delivered:.4f})")
    return ok


def check_expectations(path, doc):
    key = (doc.get("bench"), bool(doc.get("quick")))
    expectations = EXPECTATIONS.get(key)
    if expectations is None:
        return True
    if doc.get("config", {}).get("icache") is False:
        print(f"ok: {path}: icache-ablation run (--icache=0) — "
              "skipping drift expectations")
        return True
    ok = True
    results = doc.get("results", [])
    for match, field, expected in expectations:
        rows = [r for r in results if row_matches(r, match)]
        if len(rows) != 1:
            ok = fail(f"{path}: expected exactly one row matching {match}, "
                      f"found {len(rows)}")
            continue
        actual = rows[0].get(field)
        if not isinstance(actual, (int, float)):
            ok = fail(f"{path}: row {match} field {field!r} is {actual!r}")
            continue
        band = max(ABS_TOL, REL_TOL * abs(expected))
        if abs(actual - expected) > band:
            ok = fail(
                f"{path}: {match} {field} = {actual:.4f}, expected "
                f"{expected:.4f} +/- {band:.4f} — performance drift; if "
                "intentional, update scripts/check_bench_json.py")
        else:
            print(f"ok: {path}: {match} {field} = {actual:.4f} "
                  f"(expected {expected:.4f} +/- {band:.4f})")
    return ok


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    ok = True
    for path in argv[1:]:
        if path.startswith("--trace="):
            if not check_trace_file(path[len("--trace="):]):
                ok = False
            continue
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            ok = fail(f"{path}: {e}")
            continue
        for checker in (check_schema, check_micro_results, check_metrics,
                        check_pm_checker, check_faults, check_contention,
                        check_replication, check_trace_metrics, check_expectations,
                        check_table5_regression, check_pipelined_client,
                        check_ycsb_e_scans, check_storm_autoscaling):
            if not checker(path, doc):
                ok = False
        if ok:
            print(f"ok: {path}: schema + metrics valid "
                  f"(bench={doc.get('bench')}, quick={doc.get('quick')}, "
                  f"git_sha={doc.get('git_sha')})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
