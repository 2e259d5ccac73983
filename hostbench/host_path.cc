// Host-path benchmark: drives the real-thread Cluster (src/core) from one
// process with inject_latency=false and reports measured host numbers
// (wall latency, throughput, CPU) beside the modeled OpCost latency, for
// one workload per run. See README.md in this directory for the workloads,
// the metrics and how to read the traced run.
//
//   host_path --workload get_hot --seed 1 --seconds 8 --trace 0
//
// Every reply is verified against a shadow of acknowledged versions. The
// last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit codes: 0 ok, 1 wrong answer (correct=false), 2 usage, 3 a workload
// self-check or tracer check failed, 4 PM headroom exhausted or a non-OK
// reply during load or warm-up.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/ycsb.h"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dinomo;
using Clock = std::chrono::steady_clock;
using workload::OpType;

constexpr size_t kMiB = 1024 * 1024;
constexpr size_t kValueSize = 1024;
/// Pipelined-phase window (ClusterOptions::pipeline_depth).
constexpr size_t kWindow = 8;
/// Setups per end-to-end run; setup_s reports their median.
constexpr int kSetupReps = 5;
/// Sync/pipelined alternations per timed run (see RunTimedPhases).
constexpr int kRounds = 16;
/// The allocator must end the run with at least this share of the PM
/// region free, or the run fails loudly.
constexpr double kMaxPmUse = 0.75;
/// Traced run: sample every Nth request into a ring that must not wrap
/// (dropped_spans = 0); a traced phase stops early at kRingStop spans.
constexpr uint64_t kSampleEvery = 4;
constexpr size_t kRingCapacity = 1 << 19;
constexpr uint64_t kRingStop = kRingCapacity * 3 / 4;
/// Requests replayed straight into KvsNode::Submit and into a manual-mode
/// KnWorker, and keys probed directly in each index.
constexpr int kReplayOps = 4000;
constexpr int kProbeKeys = 20000;
constexpr int kProbePasses = 5;
/// Log-owner id of the manual-mode replay KN (never a cluster member).
constexpr uint64_t kReplayKnId = 200;

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile (0..100); reorders `v`.
double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const size_t k = std::min(
      v.size() - 1,
      static_cast<size_t>(p / 100.0 * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double Median(std::vector<double> v) { return Percentile(v, 50); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ----- Output ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Ends the process without running destructors: the verdict is decided
/// and cluster threads may be mid-request.
[[noreturn]] void Exit(int code) {
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(code);
}

[[noreturn]] void FailIncorrect(const std::string& why) {
  std::fprintf(stderr, "INCORRECT: %s\n", why.c_str());
  PrintResult(false, 1, 0, {});
  Exit(1);
}

[[noreturn]] void FailCheck(const std::string& why, int code) {
  std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  Exit(code);
}

// ----- Workloads ----------------------------------------------------------

struct Workload {
  std::string name;
  workload::WorkloadSpec spec;
  size_t cache_bytes = 0;  // total KN cache, split across its workers
  size_t pool_bytes = 0;   // PM pool of the single DPM node
  uint64_t warmup_ops = 0;
};

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "get_hot") {
    w.spec = workload::WorkloadSpec::ReadOnly(20000, 0.99);
    w.cache_bytes = 64 * kMiB;
    w.pool_bytes = 512 * kMiB;
    w.warmup_ops = 20000;
  } else if (name == "get_miss") {
    w.spec = workload::WorkloadSpec::ReadOnly(200000, 0.0);  // uniform
    w.cache_bytes = 512 * 1024;
    w.pool_bytes = 512 * kMiB;
    w.warmup_ops = 20000;
  } else if (name == "update_mix") {
    w.spec = workload::WorkloadSpec::WriteHeavyUpdate(200000, 0.99);
    w.cache_bytes = 8 * kMiB;
    // Updates append ~65 MiB/s of log on a 4-core host and only fully
    // dead segments are reclaimed, so the pool is sized for the run.
    w.pool_bytes = 1536 * kMiB;
    w.warmup_ops = 20000;
  } else if (name == "scan_short") {
    w.spec = workload::WorkloadSpec::ShortScans(100000, 0.99);
    w.spec.scan_len_max = 16;
    w.cache_bytes = 8 * kMiB;
    w.pool_bytes = 512 * kMiB;
    w.warmup_ops = 5000;
  } else {
    return std::nullopt;
  }
  w.spec.value_size = kValueSize;
  w.spec.seed = seed;
  return w;
}

/// One KN (2 workers), one DPM node with one merge thread, no M-node and
/// no fault thread: with the client, 4 busy threads.
ClusterOptions MakeClusterOptions(const Workload& w, obs::Tracer* tracer) {
  ClusterOptions opt;
  opt.variant = SystemVariant::kDinomo;
  opt.dpm.pool_size = w.pool_bytes;
  opt.dpm_nodes = 1;
  opt.replication_factor = 1;
  opt.dpm_merge_threads = 1;
  opt.kn.num_workers = 2;
  opt.kn.cache_bytes = w.cache_bytes;
  opt.initial_kns = 1;
  opt.start_mnode = false;
  opt.inject_latency = false;
  opt.pipeline_depth = static_cast<int>(kWindow);
  opt.tracer = tracer;
  return opt;
}

// ----- Values and the shadow -----------------------------------------------

/// A value is [record id][write version][filler derived from both], so a
/// reply proves which write of which record it returns.
class ValueCodec {
 public:
  ValueCodec() {
    for (size_t i = 0; i < sizeof(filler_); ++i) {
      filler_[i] = static_cast<char>('!' + (i * 131 + i / 7) % 90);
    }
  }

  void Encode(uint64_t record, uint64_t version, std::string* out) const {
    out->resize(kValueSize);
    std::memcpy(out->data(), &record, 8);
    std::memcpy(out->data() + 8, &version, 8);
    std::memcpy(out->data() + 16, filler_ + Offset(record, version),
                kValueSize - 16);
  }

  bool Decode(std::string_view v, uint64_t* record, uint64_t* version) const {
    if (v.size() != kValueSize) return false;
    std::memcpy(record, v.data(), 8);
    std::memcpy(version, v.data() + 8, 8);
    return std::memcmp(v.data() + 16, filler_ + Offset(*record, *version),
                       kValueSize - 16) == 0;
  }

 private:
  static size_t Offset(uint64_t record, uint64_t version) {
    return static_cast<size_t>((record * 31 + version * 17) % kValueSize);
  }

  char filler_[2 * kValueSize];
};

/// Versions of one record: the last one issued and the highest one the
/// cluster acknowledged. A read may return any version in between.
struct Versions {
  uint64_t issued = 0;
  uint64_t acked = 0;
};

class Shadow {
 public:
  explicit Shadow(uint64_t loaded) : loaded_(loaded), preloaded_(loaded) {}

  uint64_t loaded() const { return loaded_; }
  Versions& At(uint64_t record) {
    return record < loaded_ ? preloaded_[record] : inserted_[record];
  }
  uint64_t inserts_acked() const { return inserts_acked_; }
  void NoteInsertAcked() { ++inserts_acked_; }

 private:
  uint64_t loaded_;
  std::vector<Versions> preloaded_;
  std::unordered_map<uint64_t, Versions> inserted_;
  uint64_t inserts_acked_ = 0;
};

/// Preloaded record r is stored under key id 2r+1, and a scan of r starts
/// at id 2r just below it, so no scan starts exactly on a stored key: a
/// scan whose start key equals a KN search-layer node currently skips that
/// row (SearchLayerCache::Seek may return the equal node and
/// KnWorker::ScanNode walks from its successor). Inserted ids lie above
/// every preloaded key and are stored as they are.
std::string StoredKey(uint64_t record, uint64_t loaded) {
  return workload::KeyForRecord(record < loaded ? 2 * record + 1 : record);
}

std::string ScanStartKey(uint64_t record) {
  return workload::KeyForRecord(2 * record);
}

/// Inverse of StoredKey; nullopt for a key no record is stored under.
std::optional<uint64_t> RecordOf(const std::string& key, uint64_t loaded) {
  if (key.size() != 8) return std::nullopt;
  const uint64_t id = workload::RecordForKey(key);
  if (id >= 2 * loaded) return id;
  if (id % 2 == 0) return std::nullopt;
  return id / 2;
}

/// One generated request. Writes carry the version they write; reads carry
/// the range of versions a correct reply may hold.
struct Op {
  OpType type = OpType::kRead;
  std::string key;
  uint64_t record = 0;
  uint32_t scan_len = 0;
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool is_write() const {
    return type == OpType::kUpdate || type == OpType::kInsert;
  }
};

// ----- Driver --------------------------------------------------------------

/// The single closed-loop client: generates the seeded op stream, issues it
/// through Client (sync, or with a window of kWindow), and verifies every
/// reply against the shadow.
class Driver {
 public:
  Driver(const Workload& w, Cluster* cluster)
      : client_(cluster->NewClient()),
        gen_(w.spec, /*generator_id=*/0),
        shadow_(w.spec.record_count) {}

  ~Driver() { DrainWindow(); }

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  Client* client() { return client_.get(); }
  const Shadow& shadow() const { return shadow_; }
  const ValueCodec& codec() const { return codec_; }
  uint64_t failed() const { return failed_; }
  uint64_t writes_acked() const { return writes_acked_; }

  Op Next() {
    const workload::WorkloadOp w = gen_.Next();
    Op op;
    op.type = w.type;
    op.record = workload::RecordForKey(w.key);
    op.key = op.type == OpType::kScan
                 ? ScanStartKey(op.record)
                 : StoredKey(op.record, shadow_.loaded());
    op.scan_len = w.scan_len;
    if (op.is_write()) {
      op.lo = op.hi = ++shadow_.At(op.record).issued;
    } else if (op.type == OpType::kRead) {
      const Versions& v = shadow_.At(op.record);
      op.lo = v.acked;
      op.hi = v.issued;
    }
    return op;
  }

  /// Writes every record at version 1 through the pipelined path.
  void Load() {
    for (uint64_t id = 0; id < shadow_.loaded(); ++id) {
      Op op;
      op.type = OpType::kInsert;
      op.key = StoredKey(id, shadow_.loaded());
      op.record = id;
      op.lo = op.hi = ++shadow_.At(id).issued;
      Submit(std::move(op));
    }
    DrainWindow();
  }

  /// Issues `op` with one request in flight; returns the call's wall time
  /// in microseconds.
  double RunSync(const Op& op) {
    if (op.is_write()) codec_.Encode(op.record, op.lo, &value_);
    const Clock::time_point t0 = Clock::now();
    switch (op.type) {
      case OpType::kRead: {
        Result<std::string> r = client_->Get(op.key);
        const double us = UsBetween(t0, Clock::now());
        Complete(op, r.status(), r.ok() ? &r.value() : nullptr, nullptr);
        return us;
      }
      case OpType::kUpdate:
      case OpType::kInsert: {
        const Status st = client_->Put(op.key, value_);
        const double us = UsBetween(t0, Clock::now());
        Complete(op, st, nullptr, nullptr);
        return us;
      }
      case OpType::kScan: {
        Result<std::vector<kn::ScanRow>> r =
            client_->Scan(op.key, op.scan_len);
        const double us = UsBetween(t0, Clock::now());
        Complete(op, r.status(), nullptr, r.ok() ? &r.value() : nullptr);
        return us;
      }
    }
    return 0.0;
  }

  /// Pipelined issue: keeps up to kWindow point requests in flight. Client
  /// has no async scan, so a scan drains the window and runs sync.
  void Submit(Op op) {
    if (op.type == OpType::kScan) {
      DrainWindow();
      RunSync(op);
      return;
    }
    if (window_.size() >= kWindow) HarvestFront();
    Client::OpFuture f;
    if (op.is_write()) {
      codec_.Encode(op.record, op.lo, &value_);
      f = client_->PutAsync(op.key, value_);
    } else {
      f = client_->GetAsync(op.key);
    }
    window_.push_back(InFlight{std::move(op), f});
  }

  void DrainWindow() {
    while (!window_.empty()) HarvestFront();
  }

  /// Accounts one reply: a non-OK status counts as failed; a wrong answer
  /// aborts the run.
  void Complete(const Op& op, const Status& st, const std::string* value,
                const std::vector<kn::ScanRow>* rows) {
    if (op.type == OpType::kRead && st.IsNotFound()) {
      if (op.lo != 0) {
        FailIncorrect("GET of record " + std::to_string(op.record) +
                      " returned NotFound after version " +
                      std::to_string(op.lo) + " was acknowledged");
      }
      return;
    }
    if (!st.ok()) {
      if (failed_ < 5) {
        std::fprintf(stderr, "non-OK reply: %s\n", st.ToString().c_str());
      }
      ++failed_;
      return;
    }
    switch (op.type) {
      case OpType::kRead:
        CheckValue(op.record, *value, op.lo, op.hi);
        break;
      case OpType::kUpdate:
      case OpType::kInsert: {
        Versions& v = shadow_.At(op.record);
        if (op.record >= shadow_.loaded() && v.acked == 0) {
          shadow_.NoteInsertAcked();
        }
        v.acked = std::max(v.acked, op.lo);
        ++writes_acked_;
        break;
      }
      case OpType::kScan:
        CheckScan(op, *rows);
        break;
    }
  }

 private:
  struct InFlight {
    Op op;
    Client::OpFuture future;
  };

  void HarvestFront() {
    InFlight in = std::move(window_.front());
    window_.pop_front();
    Result<std::string> r = in.future.Get();
    Complete(in.op, r.status(), r.ok() ? &r.value() : nullptr, nullptr);
  }

  void CheckValue(uint64_t record, const std::string& value, uint64_t lo,
                  uint64_t hi) const {
    uint64_t got_record = 0;
    uint64_t got_version = 0;
    if (!codec_.Decode(value, &got_record, &got_version)) {
      FailIncorrect("record " + std::to_string(record) +
                    ": value bytes do not decode (size " +
                    std::to_string(value.size()) + ")");
    }
    if (got_record != record || got_version < lo || got_version > hi) {
      FailIncorrect("record " + std::to_string(record) + ": got record " +
                    std::to_string(got_record) + " version " +
                    std::to_string(got_version) + ", expected version in [" +
                    std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
  }

  /// Rows must ascend; every preloaded record from the start key on must
  /// appear (they are merged and never deleted); rows past the preloaded
  /// range must be acknowledged inserts (a scan may miss another worker's
  /// un-merged insert, so those are a subset); each value is current.
  void CheckScan(const Op& op, const std::vector<kn::ScanRow>& rows) {
    const uint64_t n = shadow_.loaded();
    const uint64_t must = std::min<uint64_t>(
        op.scan_len, op.record < n ? n - op.record : 0);
    const std::string what = "scan from record " + std::to_string(op.record);
    if (rows.size() > op.scan_len || rows.size() < must) {
      FailIncorrect(what + " returned " + std::to_string(rows.size()) +
                    " rows for scan_len " + std::to_string(op.scan_len));
    }
    uint64_t prev = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      const std::optional<uint64_t> rec = RecordOf(rows[i].key, n);
      if (!rec.has_value()) FailIncorrect(what + ": key of no record");
      const uint64_t id = *rec;
      if (i > 0 && id <= prev) FailIncorrect(what + ": keys not ascending");
      if (i < must && id != op.record + i) {
        FailIncorrect(what + ": row " + std::to_string(i) + " is record " +
                      std::to_string(id));
      }
      const Versions& v = shadow_.At(id);
      if (i >= must && (id < n || v.acked == 0)) {
        FailIncorrect(what + ": unexpected record " + std::to_string(id));
      }
      CheckValue(id, rows[i].value, v.acked, v.issued);
      prev = id;
    }
  }

  std::unique_ptr<Client> client_;
  workload::WorkloadGenerator gen_;
  Shadow shadow_;
  ValueCodec codec_;
  std::string value_;
  std::deque<InFlight> window_;
  uint64_t failed_ = 0;
  uint64_t writes_acked_ = 0;
};

// ----- Cluster helpers -----------------------------------------------------

/// Group-commits every buffered write, then merges every queued batch.
/// Returns the milliseconds spent in MergeService::DrainAll.
double FlushAndDrain(Cluster* cluster) {
  for (uint64_t id : cluster->ActiveKns()) {
    cluster->kn(id)->RunOnAllWorkers(
        [](kn::KnWorker* w) { (void)w->FlushWrites(); });
  }
  const Clock::time_point t0 = Clock::now();
  for (int n = 0; n < cluster->dpm_pool()->num_nodes(); ++n) {
    const Status st = cluster->dpm_pool()->node(n)->merge()->DrainAll();
    if (!st.ok()) FailCheck("merge drain failed: " + st.ToString(), 3);
  }
  return UsBetween(t0, Clock::now()) / 1e3;
}

struct PmUse {
  double allocated_bytes = 0.0;
  double region_bytes = 0.0;
};

PmUse MeasurePm(Cluster* cluster) {
  PmUse use;
  for (int n = 0; n < cluster->dpm_pool()->num_nodes(); ++n) {
    pm::PmAllocator* alloc = cluster->dpm_pool()->node(n)->allocator();
    use.allocated_bytes += static_cast<double>(alloc->allocated_bytes());
    use.region_bytes += static_cast<double>(alloc->region_size());
  }
  return use;
}

void CheckPmHeadroom(const PmUse& use) {
  std::printf("pm: %.1f MiB allocated of %.1f MiB\n",
              use.allocated_bytes / kMiB, use.region_bytes / kMiB);
  if (use.allocated_bytes > kMaxPmUse * use.region_bytes) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "PM headroom: %.0f MiB of %.0f MiB allocated (limit %.0f%%)",
                  use.allocated_bytes / kMiB, use.region_bytes / kMiB,
                  kMaxPmUse * 100);
    FailCheck(buf, 4);
  }
}

// ----- Setup ---------------------------------------------------------------

struct Bench {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Driver> driver;  // destroyed before the cluster

  void Reset() {
    driver.reset();
    cluster.reset();
  }
};

/// Restricts the calling thread, and the threads it creates from now on,
/// to CPUs [first, last]. No-op on hosts with too few CPUs.
void PinCurrentThread(int first, int last) {
  if (last < first || last >= CPU_SETSIZE) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c <= last; ++c) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

/// Pool creation, load, drain and one untimed warm-up pass of the
/// workload's own op stream into an empty `bench`. Returns seconds since
/// `start`.
double SetUp(const Workload& w, obs::Tracer* tracer, Clock::time_point start,
             Bench* bench) {
  // One thread per CPU, the same way every run: the merge thread inherits
  // the last CPU from Start(), each KN worker then moves to a CPU of its
  // own, and the client keeps CPU 0.
  const int ncpu = static_cast<int>(std::thread::hardware_concurrency());
  if (ncpu >= 4) PinCurrentThread(ncpu - 1, ncpu - 1);
  if (tracer != nullptr) {
    // Armed before Start() so the merge service records its spans; no
    // request is sampled until the traced phases re-arm it.
    obs::TraceOptions idle;
    idle.sample_every = 0;
    idle.ring_capacity = kRingCapacity;
    tracer->Enable(idle);
  }
  bench->cluster = std::make_unique<Cluster>(MakeClusterOptions(w, tracer));
  const Status st = bench->cluster->Start();
  if (!st.ok()) FailCheck("cluster start: " + st.ToString(), 3);
  if (ncpu >= 4) {
    std::atomic<int> next_cpu{1};
    for (uint64_t id : bench->cluster->ActiveKns()) {
      bench->cluster->kn(id)->RunOnAllWorkers([&next_cpu](kn::KnWorker*) {
        const int cpu = next_cpu.fetch_add(1);
        PinCurrentThread(cpu, cpu);
      });
    }
    PinCurrentThread(0, 0);
  }
  bench->driver = std::make_unique<Driver>(w, bench->cluster.get());
  Driver& d = *bench->driver;
  d.Load();
  if (d.failed() > 0) FailCheck("load: non-OK replies", 4);
  FlushAndDrain(bench->cluster.get());
  for (uint64_t i = 0; i < w.warmup_ops; ++i) d.Submit(d.Next());
  d.DrainWindow();
  if (d.failed() > 0) FailCheck("warm-up: non-OK replies", 4);
  return SecondsSince(start);
}

// ----- Timed phases --------------------------------------------------------

struct Phase {
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t gets = 0;
  uint64_t scans = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  double modeled_us = 0.0;     // sync: sum of Client::last_latency_us()
  std::vector<double> lat_us;  // sync: wall time of each call
};

/// Runs ops until `seconds` pass or `more` turns false: one in flight when
/// `pipelined` is false, else a window of kWindow.
template <typename More>
Phase RunPhase(Driver& d, bool pipelined, double seconds, More more) {
  Phase p;
  const uint64_t failed0 = d.failed();
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  do {
    Op op = d.Next();
    p.gets += op.type == OpType::kRead;
    p.scans += op.type == OpType::kScan;
    if (pipelined) {
      d.Submit(std::move(op));
    } else {
      p.lat_us.push_back(d.RunSync(op));
      p.modeled_us += d.client()->last_latency_us();
    }
    ++p.ops;
  } while (Clock::now() < end && more());
  d.DrainWindow();
  p.seconds = SecondsSince(t0);
  p.cpu_seconds = CpuSeconds() - cpu0;
  p.failed = d.failed() - failed0;
  return p;
}

/// End-to-end numbers of one sync + pipelined pair of phases.
struct E2e {
  double sync_p50_us = 0.0;
  double sync_p90_us = 0.0;
  double pipelined_ops_per_s = 0.0;
  double cpu_us_per_op = 0.0;
  double modeled_us_per_op = 0.0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t gets = 0;
  uint64_t scans = 0;
};

/// kRounds alternations of a sync phase and a pipelined phase, half of
/// `seconds` each in total. Timings are medians over the rounds, so a
/// burst of interference from outside the process moves one round, not
/// the result; modeled latency is the mean over every sync op.
template <typename More>
E2e RunTimedPhases(Driver& d, double seconds, More more) {
  const double slice = seconds / (2 * kRounds);
  std::vector<double> p50, p90, rate, cpu;
  double modeled_us = 0.0;
  uint64_t sync_ops = 0;
  E2e e;
  for (int r = 0; r < kRounds && more(); ++r) {
    Phase sync = RunPhase(d, /*pipelined=*/false, slice, more);
    const Phase pipe = RunPhase(d, /*pipelined=*/true, slice, more);
    p50.push_back(Percentile(sync.lat_us, 50));
    p90.push_back(Percentile(sync.lat_us, 90));
    rate.push_back(Ratio(static_cast<double>(pipe.ops), pipe.seconds));
    cpu.push_back(Ratio((sync.cpu_seconds + pipe.cpu_seconds) * 1e6,
                        static_cast<double>(sync.ops + pipe.ops)));
    modeled_us += sync.modeled_us;
    sync_ops += sync.ops;
    e.ops += sync.ops + pipe.ops;
    e.failed += sync.failed + pipe.failed;
    e.gets += sync.gets + pipe.gets;
    e.scans += sync.scans + pipe.scans;
  }
  std::printf("rounds: sync p50 us / pipelined kop/s:");
  for (size_t r = 0; r < p50.size(); ++r) {
    std::printf(" %.1f/%.0f", p50[r], rate[r] / 1e3);
  }
  std::printf("\n");
  e.sync_p50_us = Median(p50);
  e.sync_p90_us = Median(p90);
  e.pipelined_ops_per_s = Median(rate);
  e.cpu_us_per_op = Median(cpu);
  e.modeled_us_per_op = Ratio(modeled_us, static_cast<double>(sync_ops));
  return e;
}

// ----- Counters ------------------------------------------------------------

/// Sum of the counter deltas whose names start with `prefix` and end with
/// `suffix` (per-node / per-worker families such as cache.kn1.w0.misses).
uint64_t Sum(const obs::MetricsSnapshot& delta, std::string_view prefix,
             std::string_view suffix = "") {
  uint64_t total = 0;
  for (const auto& [name, value] : delta.counters) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += value;
    }
  }
  return total;
}

/// Counter-derived layer numbers over one set of timed phases.
struct Layers {
  double value_hit_ratio = 0.0;
  double shortcut_hit_ratio = 0.0;
  double miss_ratio = 0.0;
  uint64_t cache_lookups = 0;
  double evictions_per_read = 0.0;
  double icache_hit_ratio = 0.0;
  double rts_per_op = 0.0;
  double rts_per_scan = 0.0;
  double wire_bytes_per_op = 0.0;
  double rpcs_per_op = 0.0;
  double doorbell_fused_frac = 0.0;
  double puts_per_batch = 0.0;
  double log_bytes_per_user_byte = 0.0;
  double merge_cpu_us_per_entry = 0.0;
  uint64_t merge_entries = 0;
  double segments_gced_frac = 0.0;
  double persist_calls_per_op = 0.0;
  double persist_bytes_per_user_byte = 0.0;
};

/// Registry counters (and the merge service's modeled CPU) between
/// construction and Finish().
class CounterWindow {
 public:
  CounterWindow(Cluster* cluster, const Driver& d)
      : cluster_(cluster),
        base_(obs::MetricsRegistry::Global().Snapshot()),
        merge_cpu0_(MergeCpuUs()),
        writes0_(d.writes_acked()) {}

  Layers Finish(const E2e& e, const Driver& d) const {
    const obs::MetricsSnapshot delta =
        obs::MetricsRegistry::Global().Snapshot().DeltaSince(base_);
    auto sum = [&delta](std::string_view prefix,
                        std::string_view suffix = "") {
      return static_cast<double>(Sum(delta, prefix, suffix));
    };
    Layers l;
    const double ops = static_cast<double>(e.ops);
    const double vh = sum("cache.kn", ".value_hits");
    const double sh = sum("cache.kn", ".shortcut_hits");
    const double ms = sum("cache.kn", ".misses");
    l.cache_lookups = static_cast<uint64_t>(vh + sh + ms);
    l.value_hit_ratio = Ratio(vh, vh + sh + ms);
    l.shortcut_hit_ratio = Ratio(sh, vh + sh + ms);
    l.miss_ratio = Ratio(ms, vh + sh + ms);
    l.evictions_per_read = Ratio(
        sum("cache.kn", ".demotions") + sum("cache.kn", ".shortcut_evictions"),
        static_cast<double>(e.gets));
    const double ih = sum("kn.icache.hits");
    l.icache_hit_ratio = Ratio(ih, ih + sum("kn.icache.misses"));
    const double rts = sum("fabric.node", ".round_trips");
    l.rts_per_op = Ratio(rts, ops);
    l.rts_per_scan = Ratio(rts, static_cast<double>(e.scans));
    l.wire_bytes_per_op = Ratio(sum("fabric.node", ".wire_bytes"), ops);
    l.rpcs_per_op = Ratio(sum("fabric.node", ".rpcs"), ops);
    l.doorbell_fused_frac = Ratio(sum("fabric.doorbell.fused_ops"),
                                  sum("fabric.node", ".one_sided_reads"));
    const double user_bytes =
        static_cast<double>(d.writes_acked() - writes0_) * (8.0 + kValueSize);
    l.puts_per_batch = Ratio(sum("dpm.log.puts"), sum("dpm.log.batches"));
    l.log_bytes_per_user_byte = Ratio(sum("dpm.log.bytes"), user_bytes);
    l.merge_entries = Sum(delta, "dpm.merge.entries");
    l.merge_cpu_us_per_entry = Ratio(MergeCpuUs() - merge_cpu0_,
                                     static_cast<double>(l.merge_entries));
    l.segments_gced_frac =
        Ratio(sum("dpm.segments_gced"), sum("dpm.segments_allocated"));
    l.persist_calls_per_op = Ratio(sum("pm.persist_calls"), ops);
    l.persist_bytes_per_user_byte =
        Ratio(sum("pm.persist_bytes"), user_bytes);
    return l;
  }

 private:
  double MergeCpuUs() const {
    double total = 0.0;
    for (int n = 0; n < cluster_->dpm_pool()->num_nodes(); ++n) {
      total += cluster_->dpm_pool()->node(n)->merge()->merged_cpu_us();
    }
    return total;
  }

  Cluster* cluster_;
  obs::MetricsSnapshot base_;
  double merge_cpu0_;
  uint64_t writes0_;
};

/// Fails the run if the workload no longer exercises the layer it exists
/// for, instead of silently measuring something else.
void SelfCheck(const std::string& workload, const Layers& l, const E2e& e) {
  char buf[200] = "";
  if (workload == "get_hot") {
    if (l.value_hit_ratio < 0.99) {
      std::snprintf(buf, sizeof(buf), "cache.value_hit_ratio %.4f < 0.99",
                    l.value_hit_ratio);
    } else if (l.rts_per_op > 0.01) {
      std::snprintf(buf, sizeof(buf), "net.rts_per_op %.4f is not ~0",
                    l.rts_per_op);
    }
  } else if (workload == "get_miss") {
    if (l.miss_ratio < 0.8) {
      std::snprintf(buf, sizeof(buf), "cache.miss_ratio %.4f < 0.8",
                    l.miss_ratio);
    }
  } else if (workload == "update_mix") {
    if (l.merge_entries == 0) {
      std::snprintf(buf, sizeof(buf), "no dpm.merge.entries");
    }
  } else if (workload == "scan_short") {
    if (e.scans == 0 || l.rts_per_scan <= 0.0) {
      std::snprintf(buf, sizeof(buf), "net.rts_per_scan %.4f is not > 0",
                    l.rts_per_scan);
    } else if (l.cache_lookups != 0) {
      std::snprintf(buf, sizeof(buf), "%" PRIu64 " cache lookups, want 0",
                    l.cache_lookups);
    }
  }
  if (buf[0] != '\0') FailCheck("self-check " + workload + ": " + buf, 3);
}

// ----- Per-layer probes ----------------------------------------------------

kn::Request::Type RequestType(OpType t) {
  switch (t) {
    case OpType::kRead:
      return kn::Request::Type::kGet;
    case OpType::kScan:
      return kn::Request::Type::kScan;
    case OpType::kUpdate:
    case OpType::kInsert:
      break;
  }
  return kn::Request::Type::kPut;
}

/// Median wall time from KvsNode::Submit to the done callback, one request
/// at a time, bypassing Client.
double ReplayThroughNode(Driver& d, Cluster* cluster, int n_ops) {
  const auto table = cluster->routing()->Snapshot();
  kn::KvsNode* node = cluster->kn(cluster->ActiveKns().front());
  std::vector<double> us;
  us.reserve(static_cast<size_t>(n_ops));
  std::atomic<bool> done{false};
  kn::OpResult result;
  for (int i = 0; i < n_ops; ++i) {
    const Op op = d.Next();
    kn::Request req;
    req.type = RequestType(op.type);
    req.key = op.key;
    if (op.is_write()) d.codec().Encode(op.record, op.lo, &req.value);
    req.scan_count = op.scan_len;
    req.done = [&done, &result](kn::OpResult r) {
      result = std::move(r);
      done.store(true, std::memory_order_release);
    };
    done.store(false, std::memory_order_relaxed);
    const Clock::time_point t0 = Clock::now();
    node->Submit(*table, std::move(req));
    while (!done.load(std::memory_order_acquire)) {
    }
    us.push_back(UsBetween(t0, Clock::now()));
    d.Complete(op, result.status, &result.value, &result.rows);
  }
  return Median(std::move(us));
}

/// A manual-mode (never started) KN over the cluster's pool, under its own
/// log-owner id; merge acks for its batches are routed to it.
std::unique_ptr<kn::KvsNode> MakeReplayKn(Cluster* cluster) {
  kn::KnOptions ko = cluster->options().kn;
  ko.kn_id = kReplayKnId;
  ko.fabric_node = static_cast<int>(kReplayKnId % net::Fabric::kMaxNodes);
  auto manual = std::make_unique<kn::KvsNode>(ko, cluster->dpm_pool());
  kn::KvsNode* extra = manual.get();
  // Same routing as Cluster::Start installs, plus the replay KN.
  for (int n = 0; n < cluster->dpm_pool()->num_nodes(); ++n) {
    cluster->dpm_pool()->node(n)->merge()->SetMergeCallback(
        [cluster, extra](const dpm::MergeAck& ack) {
          const uint64_t kn_id = ack.owner >> 8;
          if (kn_id == extra->kn_id()) {
            extra->OnBatchMerged(ack);
          } else if (kn::KvsNode* target = cluster->kn(kn_id)) {
            target->OnBatchMerged(ack);
          }
        });
  }
  return manual;
}

/// Median wall time of KnWorker::Get/Put/Scan on `manual`, after an untimed
/// warm-up of its caches. Each write is group-committed right after its
/// call, untimed, as the node's worker loop does when its queue drains.
double ReplayThroughWorker(Driver& d, Cluster* cluster, kn::KvsNode* manual,
                           uint64_t warmup_ops, int n_ops) {
  const auto table = cluster->routing()->Snapshot();
  const uint64_t serving_kn = cluster->ActiveKns().front();
  std::vector<double> us;
  us.reserve(static_cast<size_t>(n_ops));
  std::vector<kn::ScanRow> rows;
  std::string value;
  const uint64_t total = warmup_ops + static_cast<uint64_t>(n_ops);
  for (uint64_t i = 0; i < total; ++i) {
    const Op op = d.Next();
    kn::KnWorker* w =
        manual->worker(table->ThreadFor(kn::KeyHash(op.key), serving_kn));
    if (op.is_write()) d.codec().Encode(op.record, op.lo, &value);
    rows.clear();
    kn::OpResult r;
    const Clock::time_point t0 = Clock::now();
    switch (op.type) {
      case OpType::kRead:
        r = w->Get(op.key);
        break;
      case OpType::kUpdate:
      case OpType::kInsert:
        r = w->Put(op.key, value);
        break;
      case OpType::kScan:
        r = w->Scan(op.key, op.scan_len, &rows);
        break;
    }
    if (i >= warmup_ops) us.push_back(UsBetween(t0, Clock::now()));
    if (op.is_write()) (void)w->FlushWrites();
    d.Complete(op, r.status, &r.value, &rows);
  }
  return Median(std::move(us));
}

/// ns per direct index call for keys of the workload's own stream: CLHT
/// point lookups and skiplist seeks (median of kProbePasses passes).
struct IndexProbe {
  double clht_lookup_ns = 0.0;
  double skiplist_seek_ns = 0.0;
};

IndexProbe ProbeIndexes(const Workload& w, Cluster* cluster) {
  workload::WorkloadGenerator gen(w.spec, /*generator_id=*/1);
  std::vector<uint64_t> hashes;
  std::vector<uint64_t> okeys;
  for (int i = 0; i < kProbeKeys; ++i) {
    const workload::WorkloadOp op = gen.Next();
    const uint64_t record = workload::RecordForKey(op.key);
    const std::string key = StoredKey(record, w.spec.record_count);
    hashes.push_back(kn::KeyHash(key));
    okeys.push_back(index::PmSkipList::OrderedKey(
        op.type == OpType::kScan ? ScanStartKey(record) : key));
  }
  dpm::DpmNode* node = cluster->dpm();
  uint64_t sink = 0;
  const std::function<bool(uint64_t, pm::PmPtr)> first =
      [&sink](uint64_t, pm::PmPtr v) {
        sink += v;
        return false;
      };
  std::vector<double> clht_ns;
  std::vector<double> seek_ns;
  for (int pass = 0; pass < kProbePasses; ++pass) {
    Clock::time_point t0 = Clock::now();
    for (uint64_t h : hashes) sink += node->index()->Lookup(h);
    clht_ns.push_back(UsBetween(t0, Clock::now()) * 1e3 / kProbeKeys);
    t0 = Clock::now();
    for (uint64_t k : okeys) node->ordered()->ForEachFrom(k, first);
    seek_ns.push_back(UsBetween(t0, Clock::now()) * 1e3 / kProbeKeys);
  }
  if (sink == 0) FailCheck("index probes found no entries", 3);
  return IndexProbe{Median(clht_ns), Median(seek_ns)};
}

// ----- Runs ----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 8;
  bool trace = false;
  std::string commit = "unknown";
};

double SpaceAmp(const PmUse& pm, const Driver& d, const Workload& w) {
  const double live =
      static_cast<double>(w.spec.record_count + d.shadow().inserts_acked());
  return Ratio(pm.allocated_bytes, live * (8.0 + kValueSize));
}

void PrintE2e(const char* label, const E2e& e) {
  std::printf("%-9s ops=%-8" PRIu64 " sync p50=%.2fus p90=%.2fus  "
              "pipelined=%.0f op/s  cpu=%.2fus/op  modeled=%.2fus/op\n",
              label, e.ops, e.sync_p50_us, e.sync_p90_us,
              e.pipelined_ops_per_s, e.cpu_us_per_op, e.modeled_us_per_op);
}

int RunEndToEnd(const Workload& w, const Args& args,
                Clock::time_point process_start) {
  Bench bench;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    bench.Reset();  // tear-down of the previous set-up is not timed
    const Clock::time_point start = rep == 0 ? process_start : Clock::now();
    setup_s.push_back(SetUp(w, nullptr, start, &bench));
    std::printf("setup %d: %.3f s\n", rep, setup_s.back());
  }
  Driver& d = *bench.driver;
  Cluster* cluster = bench.cluster.get();

  const CounterWindow counters(cluster, d);
  const E2e e = RunTimedPhases(d, args.seconds, [] { return true; });
  const Layers layers = counters.Finish(e, d);
  FlushAndDrain(cluster);
  const PmUse pm = MeasurePm(cluster);
  PrintE2e("timed", e);
  CheckPmHeadroom(pm);
  SelfCheck(w.name, layers, e);

  PrintResult(
      true, e.ops, e.failed,
      {{"setup_s", Median(setup_s), "s"},
       {"sync_p50_us", e.sync_p50_us, "us"},
       {"sync_p90_us", e.sync_p90_us, "us"},
       {"pipelined_ops_per_s", e.pipelined_ops_per_s, "op/s"},
       {"cpu_us_per_op", e.cpu_us_per_op, "us"},
       {"modeled_us_per_op", e.modeled_us_per_op, "us"},
       {"space_amp", SpaceAmp(pm, d, w), "ratio"},
       {"rss_mb", PeakRssMiB(), "MiB"},
       {"ok_frac",
        1.0 - Ratio(static_cast<double>(e.failed), static_cast<double>(e.ops)),
        "ratio"}});
  bench.Reset();
  return 0;
}

int RunTraced(const Workload& w, const Args& args,
              Clock::time_point process_start) {
  obs::Tracer tracer;  // outlives every cluster that records into it
  Bench bench;
  SetUp(w, &tracer, process_start, &bench);
  Driver& d = *bench.driver;
  Cluster* cluster = bench.cluster.get();

  // First half untraced: the counter-derived layer numbers and the
  // baseline for the tracing overhead.
  const CounterWindow counters(cluster, d);
  const E2e plain = RunTimedPhases(d, args.seconds / 2, [] { return true; });
  const Layers l = counters.Finish(plain, d);
  SelfCheck(w.name, l, plain);
  const double drain_ms = FlushAndDrain(cluster);
  const double merge_max_depth =
      obs::MetricsRegistry::Global().GaugeValue("dpm.merge.queue.max_depth");

  // Second half traced, every kSampleEvery-th request sampled.
  obs::TraceOptions on;
  on.sample_every = kSampleEvery;
  on.ring_capacity = kRingCapacity;
  tracer.Enable(on);
  const E2e traced = RunTimedPhases(d, args.seconds / 2, [&tracer] {
    return tracer.spans_recorded() < kRingStop;
  });
  FlushAndDrain(cluster);
  const uint64_t dropped = tracer.dropped_spans();
  const uint64_t sampled = tracer.sampled_requests();
  if (dropped != 0) {
    FailCheck("tracer dropped " + std::to_string(dropped) + " spans", 3);
  }
  tracer.PublishSummary();
  double queue_wait_us = 0.0;
  uint64_t queue_waits = 0;
  for (const obs::SpanRecord& rec : tracer.Snapshot()) {
    if (rec.kind == obs::SpanKind::kQueueWait) {
      queue_wait_us += rec.dur_us;
      ++queue_waits;
    }
  }
  std::vector<Metric> shares;
  for (size_t k = 1; k < static_cast<size_t>(obs::SpanKind::kNumKinds); ++k) {
    const std::string name =
        std::string("trace.phase.") +
        obs::SpanKindName(static_cast<obs::SpanKind>(k)) + ".share";
    shares.push_back(
        {name, obs::MetricsRegistry::Global().GaugeValue(name), "ratio"});
  }
  obs::TraceOptions idle;
  idle.sample_every = 0;
  idle.ring_capacity = kRingCapacity;
  tracer.Enable(idle);

  // Layer timings from outside, on the same continuing op stream: Client
  // call vs KvsNode::Submit vs a bare KnWorker call.
  const double node_us = ReplayThroughNode(d, cluster, kReplayOps);
  std::unique_ptr<kn::KvsNode> manual = MakeReplayKn(cluster);
  const double worker_us = ReplayThroughWorker(d, cluster, manual.get(),
                                               w.warmup_ops, kReplayOps);
  for (int i = 0; i < manual->num_workers(); ++i) {
    (void)manual->worker(i)->FlushWrites();
  }
  FlushAndDrain(cluster);
  const IndexProbe probe = ProbeIndexes(w, cluster);
  const PmUse pm = MeasurePm(cluster);

  PrintE2e("untraced", plain);
  PrintE2e("traced", traced);
  std::printf("sampled requests=%" PRIu64 " dropped spans=%" PRIu64 "\n",
              sampled, dropped);
  CheckPmHeadroom(pm);
  const double client_us = plain.sync_p50_us;
  std::vector<Metric> m = {
      {"core.client_us", client_us, "us"},
      {"kn.node_us", node_us, "us"},
      {"kn.worker_us", worker_us, "us"},
      {"core.pump_us", client_us - node_us, "us"},
      {"kn.handoff_us", node_us - worker_us, "us"},
      {"kn.queue_wait_us",
       Ratio(queue_wait_us, static_cast<double>(queue_waits)), "us"},
      {"cache.value_hit_ratio", l.value_hit_ratio, "ratio"},
      {"cache.shortcut_hit_ratio", l.shortcut_hit_ratio, "ratio"},
      {"cache.miss_ratio", l.miss_ratio, "ratio"},
      {"cache.evictions_per_read", l.evictions_per_read, "ratio"},
      {"kn.icache_hit_ratio", l.icache_hit_ratio, "ratio"},
      {"index.clht_lookup_ns", probe.clht_lookup_ns, "ns"},
      {"index.skiplist_seek_ns", probe.skiplist_seek_ns, "ns"},
      {"net.rts_per_op", l.rts_per_op, "rt/op"},
      {"net.rts_per_scan", l.rts_per_scan, "rt/op"},
      {"net.wire_bytes_per_op", l.wire_bytes_per_op, "B/op"},
      {"net.rpcs_per_op", l.rpcs_per_op, "rpc/op"},
      {"net.doorbell_fused_frac", l.doorbell_fused_frac, "ratio"},
      {"kn.puts_per_batch", l.puts_per_batch, "put/batch"},
      {"dpm.log_bytes_per_user_byte", l.log_bytes_per_user_byte, "B/B"},
      {"dpm.merge_cpu_us_per_entry", l.merge_cpu_us_per_entry, "us"},
      {"dpm.merge_queue_max_depth", merge_max_depth, "count"},
      {"dpm.segments_gced_frac", l.segments_gced_frac, "ratio"},
      {"dpm.drain_ms", drain_ms, "ms"},
      {"pm.persist_calls_per_op", l.persist_calls_per_op, "call/op"},
      {"pm.persist_bytes_per_user_byte", l.persist_bytes_per_user_byte,
       "B/B"},
      {"pm.allocated_mb", pm.allocated_bytes / kMiB, "MiB"},
  };
  m.insert(m.end(), shares.begin(), shares.end());
  m.push_back({"trace.overhead_pct",
               100.0 * Ratio(traced.sync_p50_us - plain.sync_p50_us,
                             plain.sync_p50_us),
               "%"});
  m.push_back({"trace.dropped_spans", static_cast<double>(dropped), "count"});
  const uint64_t attempted =
      plain.ops + traced.ops + 2 * static_cast<uint64_t>(kReplayOps);
  PrintResult(true, attempted, d.failed(), m);

  // The replay KN receives merge acks until the cluster's merge threads
  // stop, so it must outlive Stop() and die before the pool.
  bench.driver.reset();
  bench.cluster->Stop();
  manual.reset();
  bench.Reset();
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--commit") {
      args->commit = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--commit SHA]\n",
                 argv[0]);
    return 2;
  }
  const std::optional<Workload> w = MakeWorkload(args.workload, args.seed);
  if (!w.has_value()) {
    std::fprintf(stderr,
                 "unknown workload '%s' (get_hot, get_miss, update_mix, "
                 "scan_short)\n",
                 args.workload.c_str());
    return 2;
  }
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  std::printf("# host=%s compiler=\"%s\" build_type=%s nproc=%u commit=%s\n",
              host, __VERSION__, HOSTBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency(), args.commit.c_str());
  std::printf("# workload=%s seed=%" PRIu64 " seconds=%g trace=%d records=%"
              PRIu64 " cache=%zuKiB pool=%zuMiB\n",
              w->name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
              w->spec.record_count, w->cache_bytes / 1024,
              w->pool_bytes / kMiB);
  std::fflush(stdout);
  return args.trace ? RunTraced(*w, args, process_start)
                    : RunEndToEnd(*w, args, process_start);
}
