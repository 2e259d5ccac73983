#ifndef DINOMO_OBS_TRACE_H_
#define DINOMO_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace dinomo {
namespace obs {

/// Sampled, span-based request tracing (the `trace.*` metric family).
///
/// A `Tracer` owns a fixed-size lock-free ring of `SpanRecord`s. A sampled
/// request carries a `TraceContext` from the client submit path through the
/// KN worker, every fabric one-sided op / two-sided RPC, and the merge
/// path. Span *durations* come from the same cost model the runtimes use
/// for latency accounting (round trips x link latency + wire time + modeled
/// CPU), laid out sequentially on a per-request cursor; *wait* spans (queue
/// wait, merge wait, client backoff) are measured against the tracer clock.
/// The clock is wall time in `core::Cluster` and virtual time in
/// `sim::Engine`, so sim traces are deterministic and seed-reproducible.
///
/// Exports: chrome://tracing JSON (`--trace_out` on the bench binaries) and
/// a per-phase latency-attribution summary published into the metrics
/// registry (`trace.phase.<name>.dur_us` histograms, `trace.phase.<name>.
/// share` gauges, `trace.rts_per_op`, ...).
///
/// Overhead when disabled: producers check one thread-local pointer
/// (`CurrentTraceContext()`) per fabric op and one atomic flag per request;
/// no allocation, no locking.

/// Phases a span can attribute time to. Names are static strings so
/// SpanRecord stays POD and ring writes never allocate.
enum class SpanKind : uint8_t {
  kRequest = 0,      // root: one client operation end to end
  kQueueWait,        // KN worker queue wait (submit -> pop)
  kCacheProbe,       // KN cache lookup (hit CPU cost)
  kBatchScan,        // bloom-positive scan of a cached batch
  kIndexLookup,      // DPM-side index traversal on the miss path
  kOneSidedRead,     // fabric Read / AtomicRead64
  kOneSidedWrite,    // fabric Write / AtomicWrite64
  kCas,              // fabric CompareAndSwap64
  kRpc,              // two-sided op serviced by a DPM processor
  kFlush,            // KN batch flush (group commit)
  kMergeWait,        // request blocked on merge progress (§4 backpressure)
  kMergeExec,        // DPM-side merge of one batch into the index
  kBackoff,          // client retry backoff sleep
  kNumKinds,
};

const char* SpanKindName(SpanKind kind);

/// One completed span. POD: records are copied into the ring by value and
/// may be overwritten concurrently; `name` must have static lifetime.
struct SpanRecord {
  uint64_t trace_id = 0;   // groups spans of one request; chrome tid
  uint32_t span_id = 0;    // unique within the trace; 0 = none
  uint32_t parent_id = 0;  // 0 for roots and standalone spans
  uint32_t pid = 0;        // runtime/sim instance lane in chrome
  SpanKind kind = SpanKind::kRequest;
  const char* name = nullptr;  // static-lifetime label; kind name if null
  double start_us = 0.0;
  double dur_us = 0.0;
  uint32_t round_trips = 0;  // fabric cost annotations (leaf spans)
  uint64_t wire_bytes = 0;

  const char* Label() const {
    return name != nullptr ? name : SpanKindName(kind);
  }
};

struct TraceOptions {
  /// Sample every Nth request (1 = every request, 0 = never). Counter
  /// based, so sampling is deterministic in the single-threaded sim.
  uint64_t sample_every = 64;
  /// Ring capacity in records. Old records are overwritten (and counted
  /// as dropped) when the ring wraps; attribution histograms accumulate
  /// at record time and survive overwrites.
  size_t ring_capacity = 1 << 15;
  /// Where the trace.* summary publishes (nullptr = the global registry).
  MetricsRegistry* metrics = nullptr;
};

class TraceContext;

class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(const TraceOptions& options) { Enable(options); }
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer the runtimes default to; disabled until a
  /// harness calls Enable() (e.g. bench `--trace_out`).
  static Tracer& Global();

  /// (Re)configures and arms the tracer. Not thread-safe against
  /// concurrent recording: call before traffic starts.
  void Enable(const TraceOptions& options);
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Clock override: the sim installs its virtual clock here so traces
  /// are deterministic; nullptr restores the default wall clock
  /// (microseconds since process start).
  void SetClock(std::function<double()> clock);
  double NowUs() const;

  /// Deterministic counter-based sampling decision (false when disabled).
  bool ShouldSample();

  uint64_t NextTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Distinct chrome `pid` lane per runtime instance (sims in one bench
  /// binary get separate lanes). Lane 0 is reserved for the DPM side
  /// (standalone merge spans).
  uint32_t NextProcessId() {
    return next_pid_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends one completed span: lock-free ring insert (overwrites the
  /// oldest record when full, counted in dropped_spans) plus phase
  /// attribution into the trace.* histograms.
  void Record(const SpanRecord& rec);

  /// Standalone span outside any request (e.g. a DPM merge executed on a
  /// processor thread). `lane` becomes the chrome tid.
  void RecordStandalone(SpanKind kind, const char* name, uint64_t lane,
                        double start_us, double dur_us, uint32_t round_trips,
                        uint64_t wire_bytes);

  /// Called once per finished sampled request with the request's
  /// OpCost-accumulated round trips; feeds the trace-vs-OpCost agreement
  /// gate (`trace.round_trips` vs `trace.opcost_round_trips`).
  void AccountRequest(uint32_t opcost_round_trips);

  /// Clears the ring, counters and attribution (keeps configuration). The
  /// registry's trace.* metrics are not reset: the phase histograms keep
  /// every recorded span, and the next PublishSummary adds what this
  /// measurement accumulates.
  void ResetForMeasurement();

  uint64_t spans_recorded() const {
    return ring_next_.load(std::memory_order_relaxed);
  }
  uint64_t dropped_spans() const;
  uint64_t sampled_requests() const {
    return sampled_requests_.load(std::memory_order_relaxed);
  }
  uint64_t trace_round_trips() const {
    return trace_rts_.load(std::memory_order_relaxed);
  }
  uint64_t opcost_round_trips() const {
    return opcost_rts_.load(std::memory_order_relaxed);
  }

  /// Retained records, oldest first. Quiescent use only (end of run).
  std::vector<SpanRecord> Snapshot() const;

  /// chrome://tracing trace-event JSON: {"traceEvents": [{name, cat,
  /// ph:"X", ts, dur, pid, tid, args}, ...]}.
  Json ExportChromeTrace() const;
  bool WriteChromeTrace(const std::string& path, std::string* err = nullptr);

  /// Publishes the attribution summary into the configured registry:
  /// trace.sampled_requests / spans / dropped_spans / round_trips /
  /// opcost_round_trips / wire_bytes counters (each call adds the growth
  /// since the previous one), trace.rts_per_op and
  /// per-phase trace.phase.<name>.share gauges. The per-phase duration
  /// histograms stream in at Record() time.
  void PublishSummary();

 private:
  MetricsRegistry& reg() const {
    return options_.metrics != nullptr ? *options_.metrics
                                       : MetricsRegistry::Global();
  }

  std::atomic<bool> enabled_{false};
  TraceOptions options_;

  mutable Mutex clock_mu_;
  // Empty = default wall clock.
  std::function<double()> clock_ GUARDED_BY(clock_mu_);

  std::atomic<uint64_t> sample_counter_{0};
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint32_t> next_pid_{1};

  std::vector<SpanRecord> ring_;
  std::atomic<uint64_t> ring_next_{0};  // spans ever recorded

  std::atomic<uint64_t> sampled_requests_{0};
  std::atomic<uint64_t> trace_rts_{0};    // sum of leaf-span round trips
  std::atomic<uint64_t> opcost_rts_{0};   // sum of per-request OpCost RTs
  std::atomic<uint64_t> trace_bytes_{0};

  // Phase attribution. Totals guarded by attr_mu_ (sampled spans only);
  // duration histograms are registry-owned and internally locked.
  mutable Mutex attr_mu_;
  double phase_total_us_[static_cast<size_t>(SpanKind::kNumKinds)] GUARDED_BY(
      attr_mu_) = {};
  uint64_t phase_count_[static_cast<size_t>(SpanKind::kNumKinds)] GUARDED_BY(
      attr_mu_) = {};
  HistogramMetric* phase_hist_[static_cast<size_t>(SpanKind::kNumKinds)] = {};
  // Summary counter values at the last PublishSummary.
  static constexpr size_t kSummaryCounters = 6;
  uint64_t published_[kSummaryCounters] GUARDED_BY(attr_mu_) = {};
};

/// Per-request trace state, carried by pointer through the request path
/// (kn::Request::trace, thread-local install around worker execution).
/// Not thread-safe by itself: ownership hands off between the client and
/// worker threads through the request queue / completion future, which
/// already order the accesses.
///
/// Span layout: leaf spans are placed at a cursor that starts at the
/// request's start time and advances by each span's modeled duration, so
/// a trace reads as a flamegraph of the cost model. Wait spans carry
/// measured clock intervals and re-sync the cursor past their end.
class TraceContext {
 public:
  static constexpr int kMaxDepth = 8;

  TraceContext(Tracer* tracer, const char* root_name);
  ~TraceContext();

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  Tracer* tracer() const { return tracer_; }
  uint64_t trace_id() const { return trace_id_; }
  double cursor_us() const { return cursor_us_; }
  /// Chrome pid lane (default 1); sims set their NextProcessId() lane so
  /// several runs in one binary stay visually separate.
  void set_pid(uint32_t pid) { pid_ = pid; }

  /// Opens a nested phase span at the current cursor; children recorded
  /// before CloseSpan become its logical children. Returns a token for
  /// CloseSpan (0 when the depth cap is hit; such spans are not recorded).
  uint32_t OpenSpan(SpanKind kind, const char* name = nullptr);
  void CloseSpan(uint32_t token);

  /// Records a leaf span of `dur_us` modeled duration at the cursor and
  /// advances the cursor past it.
  void RecordLeaf(SpanKind kind, const char* name, double dur_us,
                  uint32_t round_trips = 0, uint64_t wire_bytes = 0);

  /// Records a measured wait [start_us, start_us + dur_us) against the
  /// tracer clock and moves the cursor past its end.
  void RecordWait(SpanKind kind, double start_us, double dur_us);

  /// Deferred wait: mark where a wait begins (queue push, merge park,
  /// routing backoff); the matching FlushWait() on resume records the
  /// span. A pending wait not flushed by EndRequest is flushed there.
  void MarkWait(SpanKind kind, double start_us);
  void FlushWait(double now_us);

  /// Accumulates OpCost round trips observed for one execution attempt
  /// (summed across retries; reported at EndRequest).
  void AddOpCostRoundTrips(uint32_t rts) { opcost_rts_ += rts; }

  /// Closes the root span (flushing any pending wait), records it, and
  /// publishes the request's OpCost round trips for the agreement gate.
  void EndRequest();

 private:
  struct OpenSpanState {
    SpanKind kind;
    const char* name;
    uint32_t span_id;
    double start_us;
  };

  uint32_t CurrentParent() const {
    return depth_ > 0 ? stack_[depth_ - 1].span_id : 0;
  }

  Tracer* tracer_;
  uint64_t trace_id_;
  uint32_t pid_;
  uint32_t next_span_id_ = 1;
  double cursor_us_;
  OpenSpanState stack_[kMaxDepth];
  int depth_ = 0;
  int overflow_ = 0;  // OpenSpan calls beyond kMaxDepth (not recorded)
  uint64_t opcost_rts_ = 0;
  bool ended_ = false;
  // Pending deferred wait (MarkWait/FlushWait).
  bool wait_pending_ = false;
  SpanKind wait_kind_ = SpanKind::kQueueWait;
  double wait_start_us_ = 0.0;
};

/// Thread-local current context, consulted by the fabric on every op.
/// Inline on purpose: this load is the entire tracing-disabled cost of a
/// fabric op, and CI gates it at <= 2% of a remote index lookup
/// (trace.overhead.disabled_pct in micro_index).
namespace internal {
// constinit: a constant-initialized TLS variable is read directly, with
// no TLS wrapper call.
extern constinit thread_local TraceContext* t_trace_ctx;
}  // namespace internal

inline TraceContext* CurrentTraceContext() { return internal::t_trace_ctx; }
inline void SetCurrentTraceContext(TraceContext* ctx) {
  internal::t_trace_ctx = ctx;
}

/// RAII install/restore of the current thread's context (worker loops).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext* ctx)
      : prev_(CurrentTraceContext()) {
    SetCurrentTraceContext(ctx);
  }
  ~ScopedTraceContext() { SetCurrentTraceContext(prev_); }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext* prev_;
};

/// RAII phase span on the current thread's context; no-op when no request
/// is being traced.
class TraceSpan {
 public:
  explicit TraceSpan(SpanKind kind, const char* name = nullptr)
      : ctx_(CurrentTraceContext()) {
    if (ctx_ != nullptr) token_ = ctx_->OpenSpan(kind, name);
  }
  ~TraceSpan() {
    if (ctx_ != nullptr) ctx_->CloseSpan(token_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceContext* ctx_;
  uint32_t token_ = 0;
};

}  // namespace obs
}  // namespace dinomo

#endif  // DINOMO_OBS_TRACE_H_
