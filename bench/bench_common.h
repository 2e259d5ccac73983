#ifndef DINOMO_BENCH_BENCH_COMMON_H_
#define DINOMO_BENCH_BENCH_COMMON_H_

// Shared scaled-down experiment configuration for the paper-reproduction
// harnesses. The paper's testbed loads 32 GB over 16 IB-connected servers;
// these harnesses run the same systems in virtual time with the dataset,
// cache and segment sizes scaled by a common factor so every ratio the
// results depend on is preserved:
//   * KN cache : dataset  = 1/32 per KN (16 KNs cache 50%, as in §5);
//   * value size 1 KB, 8 B keys (unscaled);
//   * link 56 Gbps FDR (~7 GB/s), RT latency ~2 us (unscaled);
//   * DPM: 4 processor threads by default (unscaled).
// EXPERIMENTS.md records the mapping from each figure/table to its bench.

#include <cstdio>

#include "bench_json.h"
#include "sim/clover_sim.h"
#include "sim/dinomo_sim.h"
#include "workload/ycsb.h"

namespace dinomo {
namespace bench {

inline constexpr uint64_t kRecords = 160000;
inline constexpr size_t kValueSize = 1024;
inline constexpr int kWorkersPerKn = 4;
inline constexpr size_t kMiB = 1024 * 1024;

/// Approximate bytes of the loaded dataset (values dominate).
inline size_t DatasetBytes() {
  return kRecords * (kValueSize + cache::kValueEntryOverhead);
}

/// Per-KN cache so that 16 KNs cache ~50% of the dataset (§5 setup).
inline size_t CachePerKn() { return DatasetBytes() / 32; }

inline sim::DinomoSimOptions BaseDinomo(SystemVariant variant, int kns,
                                        const workload::WorkloadSpec& spec) {
  sim::DinomoSimOptions opt;
  opt.variant = variant;
  opt.num_kns = kns;
  opt.dpm.pool_size = 2048 * kMiB;
  opt.dpm.index_log2_buckets = 13;
  opt.dpm.segment_size = 1 * kMiB;
  opt.dpm_threads = 4;
  opt.kn.num_workers = kWorkersPerKn;
  opt.kn.cache_bytes = CachePerKn();
  opt.spec = spec;
  // Enough closed-loop streams to saturate the worker pool.
  opt.client_threads = std::max(64, kns * kWorkersPerKn * 3);
  return opt;
}

inline sim::CloverSimOptions BaseClover(int kns,
                                        const workload::WorkloadSpec& spec) {
  sim::CloverSimOptions opt;
  opt.num_kns = kns;
  opt.workers_per_kn = kWorkersPerKn;
  opt.clover.pool_size = 2048 * kMiB;
  opt.cache_bytes_per_kn = CachePerKn();
  opt.spec = spec;
  opt.client_threads = std::max(64, kns * kWorkersPerKn * 3);
  return opt;
}

/// The paper's five request mixes at a given skew.
inline std::vector<workload::WorkloadSpec> PaperMixes(double theta) {
  using workload::WorkloadSpec;
  std::vector<WorkloadSpec> mixes = {
      WorkloadSpec::WriteHeavyUpdate(kRecords, theta),
      WorkloadSpec::WriteHeavyInsert(kRecords, theta),
      WorkloadSpec::ReadMostlyUpdate(kRecords, theta),
      WorkloadSpec::ReadMostlyInsert(kRecords, theta),
      WorkloadSpec::ReadOnly(kRecords, theta),
  };
  for (auto& m : mixes) m.value_size = kValueSize;
  return mixes;
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

}  // namespace bench
}  // namespace dinomo

#endif  // DINOMO_BENCH_BENCH_COMMON_H_
