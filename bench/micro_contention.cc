// Microbenchmark of DPM-side concurrency: N KN worker threads hammer one
// DpmNode (real threads, wall-clock time — not the virtual-time engine),
// each flushing batches into its own owner stripe while two merge threads
// drain the per-owner queues. Before the shard refactor every SubmitBatch/
// SealSegment/CompleteBatch serialized on one global mutex; the sweep over
// thread counts shows how far the striped layout lets throughput scale.
//
// Rows: {threads, ops, seconds, mops}. Gates: merge.queue.stalls == 0,
// and on a multicore host the best multi-thread throughput must hold 0.9x
// the single-thread line (the factor absorbs scheduler noise on small CI
// runners; the refactor's point was that it used to collapse).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "dpm/dpm_node.h"
#include "dpm/dpm_pool.h"
#include "kn/kn_worker.h"
#include "obs/metrics.h"

namespace {

using namespace dinomo;

constexpr size_t kMiB = 1024 * 1024;
constexpr int kKeysPerThread = 1024;

struct PointResult {
  int threads = 0;
  uint64_t ops = 0;
  double seconds = 0.0;
};

PointResult RunPoint(int threads, uint64_t ops_per_thread) {
  dpm::DpmOptions dopt;
  dopt.pool_size = 512 * kMiB;
  dopt.index_log2_buckets = 10;
  dopt.segment_size = 256 * 1024;
  // The sweep measures shard/queue contention, not the §4 log-write
  // block: keep the threshold far above what the merge threads let
  // accumulate (Busy is still handled below, it just should not happen).
  dopt.unmerged_segment_threshold = 1 << 16;
  dpm::DpmNode dpm(dopt);
  dpm::DpmPool dpm_pool(&dpm);

  std::vector<std::unique_ptr<kn::KnWorker>> workers;
  for (int i = 0; i < threads; ++i) {
    kn::KnOptions kno;
    kno.kn_id = static_cast<uint64_t>(i + 1);
    kno.fabric_node = (i + 1) % net::Fabric::kMaxNodes;
    kno.num_workers = 1;
    kno.cache_bytes = 2 * kMiB;
    kno.batch_max_ops = 8;
    workers.push_back(std::make_unique<kn::KnWorker>(kno, 0, &dpm_pool));
  }
  dpm.merge()->SetMergeCallback([&](const dpm::MergeAck& ack) {
    const uint64_t kn_id = ack.owner >> 8;
    if (kn_id >= 1 && kn_id <= static_cast<uint64_t>(threads)) {
      workers[kn_id - 1]->OnOwnerBatchMerged(ack.node, ack.base);
    }
  });
  dpm.merge()->StartThreads(2);

  const std::string value(128, 'v');
  std::atomic<bool> failed{false};
  auto worker_fn = [&](int w) {
    kn::KnWorker* worker = workers[w].get();
    for (uint64_t op = 0; op < ops_per_thread; ++op) {
      const std::string key = "t" + std::to_string(w) + "-k" +
                              std::to_string(op % kKeysPerThread);
      for (;;) {
        auto r = (op % 8 == 7) ? worker->Get(key)
                               : worker->Put(key, value);
        if (r.status.ok() || r.status.IsNotFound()) break;
        if (!r.status.IsBusy()) {
          std::fprintf(stderr, "op failed on %s: %s\n", key.c_str(),
                       r.status.ToString().c_str());
          failed = true;
          return;
        }
        std::this_thread::yield();
      }
    }
  };

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w) pool.emplace_back(worker_fn, w);
  for (auto& t : pool) t.join();
  const auto end = std::chrono::steady_clock::now();

  for (auto& worker : workers) {
    for (;;) {
      auto flush = worker->FlushWrites();
      if (!flush.status.IsBusy()) break;
      std::this_thread::yield();
    }
  }
  if (!dpm.merge()->DrainAll().ok()) failed = true;
  dpm.merge()->StopThreads();

  PointResult res;
  res.threads = threads;
  res.ops = failed ? 0 : ops_per_thread * static_cast<uint64_t>(threads);
  res.seconds = std::chrono::duration<double>(end - start).count();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter("micro_contention", argc, argv);
  const uint64_t ops_per_thread = reporter.Scaled(uint64_t{200000},
                                                  uint64_t{20000});
  const std::vector<int> sweep = {1, 2, 4, 8};

  reporter.Config("ops_per_thread", obs::Json(ops_per_thread))
      .Config("value_size", obs::Json(128))
      .Config("merge_threads", obs::Json(2))
      .Config("hw_threads",
              obs::Json(static_cast<uint64_t>(
                  std::thread::hardware_concurrency())));

  std::printf("%8s %12s %10s %10s\n", "threads", "ops", "seconds", "mops");
  int best_threads = 0;
  double best_mops = -1.0;
  for (int threads : sweep) {
    PointResult res = RunPoint(threads, ops_per_thread);
    const double mops =
        res.seconds > 0 ? static_cast<double>(res.ops) / res.seconds / 1e6
                        : 0.0;
    std::printf("%8d %12llu %10.3f %10.3f\n", res.threads,
                static_cast<unsigned long long>(res.ops), res.seconds, mops);
    obs::Json row = obs::Json::Object();
    row.Set("threads", obs::Json(res.threads));
    row.Set("ops", obs::Json(res.ops));
    row.Set("seconds", obs::Json(res.seconds));
    row.Set("mops", obs::Json(mops));
    reporter.Add(std::move(row));
    if (threads > 1 && mops > best_mops) {
      best_mops = mops;
      best_threads = threads;
    }
  }
  reporter.Gate("metrics.counters.dpm.merge.queue.stalls", "==", 0,
                "the merge scheduler lost runnable work and the audit had "
                "to repair it; the runnable_ bookkeeping is broken");
  if (std::thread::hardware_concurrency() >= 2) {
    reporter.Gate("results[threads=" + std::to_string(best_threads) +
                      "].mops",
                  ">=", bench::Times(0.9, "results[threads=1].mops"),
                  "concurrent flush/merge is serializing again");
  }
  return reporter.Finish() ? 0 : 1;
}
