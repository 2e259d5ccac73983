// Microbenchmarks of the P-CLHT metadata index: local upserts/lookups
// (the DPM-processor merge path) and remote traversal cost in round trips
// (the KN miss path).

#include <benchmark/benchmark.h>

#include "gbench_main.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/random.h"
#include "index/clht.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pm/pm_allocator.h"
#include "pm/pm_pool.h"

namespace {

using namespace dinomo;

constexpr size_t kMiB = 1024 * 1024;

struct IndexFixture {
  IndexFixture()
      : pool(512 * kMiB), alloc(&pool, 64, 512 * kMiB - 64), fabric(&pool) {
    auto created = index::Clht::Create(&pool, &alloc, 12);
    table.reset(created.value());
  }

  pm::PmPool pool;
  pm::PmAllocator alloc;
  net::Fabric fabric;
  std::unique_ptr<index::Clht> table;
};

void BM_ClhtUpsert(benchmark::State& state) {
  IndexFixture fx;
  uint64_t key = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.table->Upsert(key, 1024 + key * 8));
    key++;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClhtUpsert);

void BM_ClhtUpdateExisting(benchmark::State& state) {
  IndexFixture fx;
  for (uint64_t k = 1; k <= 100000; ++k) {
    (void)fx.table->Upsert(k, 1024 + k * 8);
  }
  Random rng(1);
  for (auto _ : state) {
    const uint64_t k = 1 + rng.Uniform(100000);
    benchmark::DoNotOptimize(fx.table->Upsert(k, 2048));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClhtUpdateExisting);

void BM_ClhtLookupHit(benchmark::State& state) {
  IndexFixture fx;
  for (uint64_t k = 1; k <= 100000; ++k) {
    (void)fx.table->Upsert(k, 1024 + k * 8);
  }
  Random rng(2);
  for (auto _ : state) {
    const uint64_t k = 1 + rng.Uniform(100000);
    benchmark::DoNotOptimize(fx.table->Lookup(k));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClhtLookupHit);

void BM_ClhtLookupMiss(benchmark::State& state) {
  IndexFixture fx;
  for (uint64_t k = 1; k <= 100000; ++k) {
    (void)fx.table->Upsert(k, 1024 + k * 8);
  }
  Random rng(3);
  for (auto _ : state) {
    const uint64_t k = 200000 + rng.Uniform(100000);
    benchmark::DoNotOptimize(fx.table->Lookup(k));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClhtLookupMiss);

void BM_ClhtRemoteLookup(benchmark::State& state) {
  IndexFixture fx;
  for (uint64_t k = 1; k <= 100000; ++k) {
    (void)fx.table->Upsert(k, 1024 + k * 8);
  }
  const auto handle = *fx.table->FetchRemoteHandle(&fx.fabric, 0);
  Random rng(4);
  uint64_t hops = 0;
  uint64_t lookups = 0;
  for (auto _ : state) {
    const uint64_t k = 1 + rng.Uniform(100000);
    auto r = fx.table->RemoteLookup(&fx.fabric, 0, handle, k);
    benchmark::DoNotOptimize(r);
    hops += r->hops;
    lookups++;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rts_per_lookup"] =
      lookups > 0 ? static_cast<double>(hops) / lookups : 0;
}
BENCHMARK(BM_ClhtRemoteLookup);

// Cost of the tracing-disabled fast path: every fabric op performs one
// CurrentTraceContext() thread-local load + branch. This measures that
// check against the remote-lookup it would piggyback on and publishes
//   trace.overhead.check_ns      ns per disabled-path check
//   trace.overhead.lookup_ns     ns per remote index lookup
//   trace.overhead.disabled_pct  100 * check_ns * rts_per_lookup / lookup_ns
// The bench gates disabled_pct <= 2 (the tracing-off overhead budget).
void BM_TraceOverhead(benchmark::State& state) {
  IndexFixture fx;
  for (uint64_t k = 1; k <= 100000; ++k) {
    (void)fx.table->Upsert(k, 1024 + k * 8);
  }
  const auto handle = *fx.table->FetchRemoteHandle(&fx.fabric, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::CurrentTraceContext());
  }
  state.SetItemsProcessed(state.iterations());

  // Best-of-repeats wall timings de-noise the gauges published below
  // (google-benchmark's own numbers stay per-iteration in its report).
  auto best_ns_per_iter = [](int reps, int iters, auto&& body) {
    double best = 1e18;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      body(iters);
      const auto t1 = std::chrono::steady_clock::now();
      const double ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
      best = std::min(best, ns);
    }
    return best;
  };
  // Subtract the bare loop scaffolding so check_ns is the *marginal*
  // cost of the thread-local load, which is what a fabric op pays.
  const double loop_ns = best_ns_per_iter(7, 2'000'000, [](int iters) {
    const void* dummy = nullptr;
    for (int i = 0; i < iters; ++i) {
      benchmark::DoNotOptimize(dummy);
    }
  });
  const double check_loop_ns = best_ns_per_iter(7, 2'000'000, [](int iters) {
    for (int i = 0; i < iters; ++i) {
      benchmark::DoNotOptimize(obs::CurrentTraceContext());
    }
  });
  const double check_ns = std::max(0.0, check_loop_ns - loop_ns);
  Random rng(5);
  uint64_t hops = 0;
  uint64_t lookups = 0;
  const double lookup_ns = best_ns_per_iter(5, 20'000, [&](int iters) {
    for (int i = 0; i < iters; ++i) {
      const uint64_t k = 1 + rng.Uniform(100000);
      auto r = fx.table->RemoteLookup(&fx.fabric, 0, handle, k);
      benchmark::DoNotOptimize(r);
      hops += r->hops;
      lookups++;
    }
  });
  const double rts_per_lookup =
      lookups > 0 ? static_cast<double>(hops) / lookups : 0.0;
  const double disabled_pct =
      lookup_ns > 0 ? 100.0 * check_ns * rts_per_lookup / lookup_ns : 0.0;
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("trace.overhead.check_ns").Set(check_ns);
  reg.GetGauge("trace.overhead.lookup_ns").Set(lookup_ns);
  reg.GetGauge("trace.overhead.disabled_pct").Set(disabled_pct);
  state.counters["check_ns"] = check_ns;
  state.counters["disabled_pct"] = disabled_pct;
}
BENCHMARK(BM_TraceOverhead);

void DeclareGates(bench::BenchReporter& reporter) {
  reporter.Gate("metrics.gauges.trace.overhead.disabled_pct", "<=", 2.0,
                "the tracing-disabled CurrentTraceContext() fast path got "
                "more expensive than 2% of a remote lookup");
}

}  // namespace

DINOMO_GBENCH_MAIN_WITH_GATES("micro_index", DeclareGates)
