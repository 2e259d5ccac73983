#ifndef DINOMO_BENCH_BENCH_JSON_H_
#define DINOMO_BENCH_BENCH_JSON_H_

// Machine-readable run reports for the bench binaries.
//
// Every bench constructs a BenchReporter from (name, argc, argv) and gains
// three flags:
//   --json_out=<path>   write a "dinomo-bench-v1" JSON report on Finish():
//                       run config, per-point results, and a full snapshot
//                       of the process metrics registry (src/obs/).
//   --quick             CI smoke mode; benches consult quick() and shrink
//                       durations / sweep points so the binary finishes in
//                       seconds. Results keep the same schema.
//   --trace_out=<path>  arm the global request tracer (sample_every=1) and
//                       write a chrome://tracing trace-event JSON file on
//                       Finish(); the trace.* attribution summary is also
//                       published so it lands in the --json_out metrics.
//
// A bench states what its run must show with Gate(): each gate lands in
// the report's top-level "gates" list, outside config and results (so it
// never moves a sim digest), and scripts/check_bench_json.py evaluates
// every gate of every report in CI. Finish() adds the gates all benches
// share: PM-checker violations and hung requests stay zero, a traced run
// keeps its dual round-trip counters in step, and a seeded sim (a "seed"
// config entry) shows fabric traffic.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dinomo {
namespace bench {

/// Commit the binary was built from: CI env (GITHUB_SHA) or an explicit
/// DINOMO_GIT_SHA env override win over the compile-time stamp, so cached
/// build trees cannot report a stale SHA in CI.
inline std::string GitSha() {
  if (const char* env = std::getenv("DINOMO_GIT_SHA")) return env;
  if (const char* env = std::getenv("GITHUB_SHA")) return env;
#ifdef DINOMO_BUILD_GIT_SHA
  return DINOMO_BUILD_GIT_SHA;
#else
  return "unknown";
#endif
}

/// A gate bound that is `scale` times the value at another report path.
inline obs::Json Times(double scale, const std::string& metric) {
  return obs::Json::Object().Set("metric", metric).Set("scale", scale);
}

class BenchReporter {
 public:
  BenchReporter(const std::string& bench_name, int argc, char** argv)
      : name_(bench_name),
        config_(obs::Json::Object()),
        results_(obs::Json::Array()),
        gates_(obs::Json::Array()) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--json_out=", 11) == 0) {
        json_out_ = arg + 11;
      } else if (std::strncmp(arg, "--trace_out=", 12) == 0) {
        trace_out_ = arg + 12;
      } else if (std::strcmp(arg, "--quick") == 0) {
        quick_ = true;
      } else {
        std::fprintf(stderr,
                     "%s: unknown flag '%s' (supported: --json_out=<path>, "
                     "--trace_out=<path>, --quick)\n",
                     bench_name.c_str(), arg);
        std::exit(2);
      }
    }
    if (!trace_out_.empty()) {
      // Sample everything: bench runs are short and the ring overwrites
      // (counted in trace.dropped_spans) rather than growing.
      obs::TraceOptions topts;
      topts.sample_every = 1;
      obs::Tracer::Global().Enable(topts);
    }
  }

  ~BenchReporter() {
    if (!finished_) Finish();
  }

  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;

  bool quick() const { return quick_; }
  const std::string& json_out() const { return json_out_; }
  const std::string& trace_out() const { return trace_out_; }

  /// Scales a duration/count down in --quick mode.
  double Scaled(double full, double quick) const {
    return quick_ ? quick : full;
  }
  uint64_t Scaled(uint64_t full, uint64_t quick) const {
    return quick_ ? quick : full;
  }

  /// Records one run-configuration entry (workload, node counts, seed...).
  BenchReporter& Config(const std::string& key, obs::Json value) {
    config_.Set(key, std::move(value));
    return *this;
  }

  /// Appends one result row (an object built by the bench).
  BenchReporter& Add(obs::Json row) {
    results_.Append(std::move(row));
    return *this;
  }

  /// Declares a CI gate: the value at `metric` must compare `cmp` ("<",
  /// "<=", ">", ">=" or "==") against `bound`, a constant or Times(...).
  /// A metric is a path into the report: "config.base_kns",
  /// "metrics.counters.fault.hung_requests", or a results row picked by
  /// its fields, "results[section=summary].scale_ups". A "*" in a metric
  /// name sums every matching metric. `why` says what a failure means.
  BenchReporter& Gate(const std::string& metric, const std::string& cmp,
                      obs::Json bound, const std::string& why) {
    gates_.Append(obs::Json::Object()
                      .Set("metric", metric)
                      .Set("cmp", cmp)
                      .Set("bound", std::move(bound))
                      .Set("why", why));
    return *this;
  }

  /// Writes the report (if --json_out was given). Called automatically on
  /// destruction; call explicitly to check for write errors.
  bool Finish(const obs::MetricsRegistry& registry =
                  obs::MetricsRegistry::Global()) {
    finished_ = true;
    bool ok = true;
    if (!trace_out_.empty()) {
      // Publish the trace.* summary first so it is part of the metrics
      // snapshot below, then write the chrome trace file.
      obs::Tracer& tracer = obs::Tracer::Global();
      tracer.PublishSummary();
      std::string err;
      if (!tracer.WriteChromeTrace(trace_out_, &err)) {
        std::fprintf(stderr, "%s: failed to write %s: %s\n", name_.c_str(),
                     trace_out_.c_str(), err.c_str());
        ok = false;
      } else {
        std::printf("\n[trace_out] %s\n", trace_out_.c_str());
      }
    }
    if (json_out_.empty()) return ok;
    const obs::MetricsSnapshot snap = registry.Snapshot();
    SharedGates(snap);
    obs::Json root = obs::Json::Object();
    root.Set("schema", "dinomo-bench-v1");
    root.Set("bench", name_);
    root.Set("quick", quick_);
    root.Set("git_sha", GitSha());
    root.Set("config", config_);
    root.Set("results", results_);
    root.Set("gates", gates_);
    root.Set("metrics", snap.ToJson());
    std::ofstream out(json_out_, std::ios::trunc);
    out << root.Dump(2) << "\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "%s: failed to write %s\n", name_.c_str(),
                   json_out_.c_str());
      return false;
    }
    std::printf("\n[json_out] %s\n", json_out_.c_str());
    return ok;
  }

 private:
  // The gates every bench shares, emitted from the final metrics.
  void SharedGates(const obs::MetricsSnapshot& snap) {
    for (const char* name :
         {"pm.check.violations", "pm.check.dirty_at_publication",
          "pm.check.redundant_flush", "pm.check.persist_before_write"}) {
      if (snap.counters.count(name) == 0) continue;  // checker not attached
      Gate(std::string("metrics.counters.") + name, "==", 0,
           "persist-ordering violation on the bench workload path; "
           "reproduce with DINOMO_PM_CHECK=1 and read PmChecker::Report()");
    }
    if (snap.counters.count("fault.hung_requests") != 0) {
      Gate("metrics.counters.fault.hung_requests", "==", 0,
           "a client future was left pending when its KN stopped; the "
           "KvsNode drain guarantee is broken");
    }
    if (!trace_out_.empty()) {
      const std::string why =
          "trace-derived round trips differ from the OpCost aggregate by "
          "more than 1%: a fabric op is traced without being charged, or "
          "vice versa";
      const char* opcost = "metrics.counters.trace.opcost_round_trips";
      Gate("metrics.counters.trace.round_trips", ">=", Times(0.99, opcost),
           why);
      Gate("metrics.counters.trace.round_trips", "<=", Times(1.01, opcost),
           why);
      Gate("metrics.counters.trace.dropped_spans", ">=", 0,
           "ring overwrites are not being counted");
    }
    if (config_.Find("seed") != nullptr) {
      Gate("metrics.counters.fabric.*.round_trips", ">", 0,
           "a seeded sim moved no fabric traffic through the registry; "
           "the metrics wiring is broken");
    }
  }

  std::string name_;
  std::string json_out_;
  std::string trace_out_;
  bool quick_ = false;
  bool finished_ = false;
  obs::Json config_;
  obs::Json results_;
  obs::Json gates_;
};

}  // namespace bench
}  // namespace dinomo

#endif  // DINOMO_BENCH_BENCH_JSON_H_
