#ifndef DINOMO_BENCH_GBENCH_MAIN_H_
#define DINOMO_BENCH_GBENCH_MAIN_H_

// Replacement for BENCHMARK_MAIN() in the google-benchmark micros, adding
// the shared --json_out / --trace_out / --quick flags (see bench_json.h).
// The flags the
// reporter owns are stripped before benchmark::Initialize sees the
// command line; --quick is translated into a tiny --benchmark_min_time so
// the CI smoke job finishes in seconds.
//
// The JSON report carries the metrics-registry snapshot (cache counters
// etc. accumulated by the benchmark bodies) and one `results` row per
// google-benchmark run (GbenchJsonReporter below); the console output is
// google-benchmark's usual table. DINOMO_GBENCH_MAIN_WITH_GATES also
// hands the reporter to `declare_gates` after the runs, so a micro can
// gate what its benchmarks published (BenchReporter::Gate).

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"

namespace dinomo {
namespace bench {

/// Console reporter that also appends every run to a BenchReporter as a
/// `results` row: name, real and CPU ns per iteration, iterations,
/// items/s (when the benchmark set items processed) and its user
/// counters. Errored runs are reported on the console only.
class GbenchJsonReporter : public benchmark::ConsoleReporter {
 public:
  explicit GbenchJsonReporter(BenchReporter* out)
      : benchmark::ConsoleReporter(OO_None), out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const double to_ns = 1e9 / benchmark::GetTimeUnitMultiplier(
                                     run.time_unit);
      obs::Json row = obs::Json::Object();
      row.Set("name", run.benchmark_name())
          .Set("real_ns_per_iter", run.GetAdjustedRealTime() * to_ns)
          .Set("cpu_ns_per_iter", run.GetAdjustedCPUTime() * to_ns)
          .Set("iterations", static_cast<uint64_t>(run.iterations));
      obs::Json counters = obs::Json::Object();
      for (const auto& [name, counter] : run.counters) {
        if (name == "items_per_second") {
          row.Set("items_per_second", counter.value);
        } else {
          counters.Set(name, counter.value);
        }
      }
      row.Set("counters", std::move(counters));
      out_->Add(std::move(row));
    }
  }

 private:
  BenchReporter* out_;
};

}  // namespace bench
}  // namespace dinomo

#define DINOMO_GBENCH_MAIN(bench_name)                                       \
  DINOMO_GBENCH_MAIN_WITH_GATES(bench_name,                                  \
                                [](dinomo::bench::BenchReporter&) {})

#define DINOMO_GBENCH_MAIN_WITH_GATES(bench_name, declare_gates)             \
  int main(int argc, char** argv) {                                          \
    std::vector<char*> own;                                                  \
    std::vector<char*> rest;                                                 \
    own.push_back(argv[0]);                                                  \
    rest.push_back(argv[0]);                                                 \
    for (int i = 1; i < argc; ++i) {                                         \
      if (std::strncmp(argv[i], "--json_out=", 11) == 0 ||                   \
          std::strncmp(argv[i], "--trace_out=", 12) == 0 ||                  \
          std::strcmp(argv[i], "--quick") == 0) {                            \
        own.push_back(argv[i]);                                              \
      } else {                                                               \
        rest.push_back(argv[i]);                                             \
      }                                                                      \
    }                                                                        \
    dinomo::bench::BenchReporter reporter(                                   \
        bench_name, static_cast<int>(own.size()), own.data());               \
    static std::string quick_min_time = "--benchmark_min_time=0.01";         \
    if (reporter.quick()) rest.push_back(quick_min_time.data());             \
    int rest_argc = static_cast<int>(rest.size());                           \
    benchmark::Initialize(&rest_argc, rest.data());                          \
    if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) {    \
      return 1;                                                              \
    }                                                                        \
    dinomo::bench::GbenchJsonReporter display(&reporter);                    \
    benchmark::RunSpecifiedBenchmarks(&display);                             \
    benchmark::Shutdown();                                                   \
    reporter.Config("runner", "google-benchmark");                           \
    declare_gates(reporter);                                                 \
    return reporter.Finish() ? 0 : 1;                                        \
  }

#endif  // DINOMO_BENCH_GBENCH_MAIN_H_
