#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

namespace dinomo {
namespace obs {

namespace internal {
constinit thread_local TraceContext* t_trace_ctx = nullptr;
}  // namespace internal

namespace {

double DefaultNowUs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kQueueWait:
      return "queue_wait";
    case SpanKind::kCacheProbe:
      return "cache_probe";
    case SpanKind::kBatchScan:
      return "batch_scan";
    case SpanKind::kIndexLookup:
      return "index_lookup";
    case SpanKind::kOneSidedRead:
      return "one_sided_read";
    case SpanKind::kOneSidedWrite:
      return "one_sided_write";
    case SpanKind::kCas:
      return "cas";
    case SpanKind::kRpc:
      return "rpc";
    case SpanKind::kFlush:
      return "flush";
    case SpanKind::kMergeWait:
      return "merge_wait";
    case SpanKind::kMergeExec:
      return "merge_exec";
    case SpanKind::kBackoff:
      return "backoff";
    case SpanKind::kNumKinds:
      break;
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::~Tracer() = default;

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // leaked: outlive worker threads
  return *tracer;
}

void Tracer::Enable(const TraceOptions& options) {
  options_ = options;
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  ring_.assign(options_.ring_capacity, SpanRecord{});
  for (size_t k = 0; k < static_cast<size_t>(SpanKind::kNumKinds); ++k) {
    phase_hist_[k] = &reg().GetHistogram(
        std::string("trace.phase.") +
        SpanKindName(static_cast<SpanKind>(k)) + ".dur_us");
  }
  ResetForMeasurement();
  enabled_.store(true, std::memory_order_release);
}

void Tracer::SetClock(std::function<double()> clock) {
  MutexLock lock(clock_mu_);
  clock_ = std::move(clock);
}

double Tracer::NowUs() const {
  MutexLock lock(clock_mu_);
  return clock_ ? clock_() : DefaultNowUs();
}

bool Tracer::ShouldSample() {
  if (!enabled()) return false;
  const uint64_t every = options_.sample_every;
  if (every == 0) return false;
  return sample_counter_.fetch_add(1, std::memory_order_relaxed) % every == 0;
}

void Tracer::Record(const SpanRecord& rec) {
  if (!enabled() || ring_.empty()) return;
  const uint64_t idx = ring_next_.fetch_add(1, std::memory_order_relaxed);
  ring_[idx % ring_.size()] = rec;
  const size_t k = static_cast<size_t>(rec.kind);
  if (k < static_cast<size_t>(SpanKind::kNumKinds)) {
    {
      MutexLock lock(attr_mu_);
      phase_total_us_[k] += rec.dur_us;
      phase_count_[k] += 1;
    }
    if (phase_hist_[k] != nullptr) phase_hist_[k]->Record(rec.dur_us);
  }
  if (rec.kind != SpanKind::kRequest) {
    trace_rts_.fetch_add(rec.round_trips, std::memory_order_relaxed);
    trace_bytes_.fetch_add(rec.wire_bytes, std::memory_order_relaxed);
  }
}

void Tracer::RecordStandalone(SpanKind kind, const char* name, uint64_t lane,
                              double start_us, double dur_us,
                              uint32_t round_trips, uint64_t wire_bytes) {
  SpanRecord rec;
  rec.trace_id = lane;
  rec.pid = 0;  // DPM-side lane
  rec.kind = kind;
  rec.name = name;
  rec.start_us = start_us;
  rec.dur_us = dur_us;
  rec.round_trips = round_trips;
  rec.wire_bytes = wire_bytes;
  Record(rec);
}

void Tracer::AccountRequest(uint32_t opcost_round_trips) {
  sampled_requests_.fetch_add(1, std::memory_order_relaxed);
  opcost_rts_.fetch_add(opcost_round_trips, std::memory_order_relaxed);
}

void Tracer::ResetForMeasurement() {
  std::fill(ring_.begin(), ring_.end(), SpanRecord{});
  ring_next_.store(0, std::memory_order_relaxed);
  sample_counter_.store(0, std::memory_order_relaxed);
  next_trace_id_.store(1, std::memory_order_relaxed);
  sampled_requests_.store(0, std::memory_order_relaxed);
  trace_rts_.store(0, std::memory_order_relaxed);
  opcost_rts_.store(0, std::memory_order_relaxed);
  trace_bytes_.store(0, std::memory_order_relaxed);
  MutexLock lock(attr_mu_);
  for (size_t k = 0; k < static_cast<size_t>(SpanKind::kNumKinds); ++k) {
    phase_total_us_[k] = 0.0;
    phase_count_[k] = 0;
  }
  std::fill(std::begin(published_), std::end(published_), 0);
}

uint64_t Tracer::dropped_spans() const {
  const uint64_t total = ring_next_.load(std::memory_order_relaxed);
  const uint64_t cap = ring_.size();
  return total > cap ? total - cap : 0;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::vector<SpanRecord> out;
  const uint64_t total = ring_next_.load(std::memory_order_relaxed);
  if (ring_.empty() || total == 0) return out;
  const uint64_t cap = ring_.size();
  const uint64_t n = std::min(total, cap);
  out.reserve(n);
  const uint64_t first = total > cap ? total % cap : 0;
  for (uint64_t i = 0; i < n; ++i) {
    out.push_back(ring_[(first + i) % cap]);
  }
  return out;
}

Json Tracer::ExportChromeTrace() const {
  Json events = Json::Array();
  for (const SpanRecord& rec : Snapshot()) {
    Json args = Json::Object();
    args.Set("span_id", rec.span_id);
    args.Set("parent_id", rec.parent_id);
    args.Set("round_trips", rec.round_trips);
    args.Set("wire_bytes", rec.wire_bytes);
    Json ev = Json::Object();
    ev.Set("name", rec.Label());
    ev.Set("cat", SpanKindName(rec.kind));
    ev.Set("ph", "X");
    ev.Set("ts", rec.start_us);
    ev.Set("dur", rec.dur_us);
    ev.Set("pid", rec.pid);
    ev.Set("tid", rec.trace_id);
    ev.Set("args", std::move(args));
    events.Append(std::move(ev));
  }
  Json doc = Json::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  return doc;
}

bool Tracer::WriteChromeTrace(const std::string& path, std::string* err) {
  const std::string text = ExportChromeTrace().Dump(1);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open " + path;
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok && err != nullptr) *err = "short write to " + path;
  return ok;
}

void Tracer::PublishSummary() {
  MetricsRegistry& registry = reg();
  static constexpr const char* kNames[kSummaryCounters] = {
      "trace.sampled_requests", "trace.spans",
      "trace.dropped_spans",    "trace.round_trips",
      "trace.opcost_round_trips", "trace.wire_bytes"};
  const uint64_t totals[kSummaryCounters] = {
      sampled_requests(),   spans_recorded(),     dropped_spans(),
      trace_round_trips(), opcost_round_trips(),
      trace_bytes_.load(std::memory_order_relaxed)};
  {
    // Registry counters never decrease: add what accumulated since the
    // previous publish.
    MutexLock lock(attr_mu_);
    for (size_t i = 0; i < kSummaryCounters; ++i) {
      registry.GetCounter(kNames[i]).Inc(totals[i] - published_[i]);
      published_[i] = totals[i];
    }
  }
  const uint64_t sampled = sampled_requests();
  registry.GetGauge("trace.rts_per_op")
      .Set(sampled > 0
               ? static_cast<double>(trace_round_trips()) / sampled
               : 0.0);
  MutexLock lock(attr_mu_);
  const double request_total =
      phase_total_us_[static_cast<size_t>(SpanKind::kRequest)];
  for (size_t k = 0; k < static_cast<size_t>(SpanKind::kNumKinds); ++k) {
    if (phase_count_[k] == 0 || k == static_cast<size_t>(SpanKind::kRequest))
      continue;
    const double share =
        request_total > 0.0 ? phase_total_us_[k] / request_total : 0.0;
    registry
        .GetGauge(std::string("trace.phase.") +
                  SpanKindName(static_cast<SpanKind>(k)) + ".share")
        .Set(share);
  }
}

// ---------------------------------------------------------------------------
// TraceContext

TraceContext::TraceContext(Tracer* tracer, const char* root_name)
    : tracer_(tracer), trace_id_(tracer->NextTraceId()), pid_(1) {
  cursor_us_ = tracer_->NowUs();
  stack_[0] =
      OpenSpanState{SpanKind::kRequest, root_name, next_span_id_++, cursor_us_};
  depth_ = 1;
}

TraceContext::~TraceContext() {
  if (!ended_) EndRequest();
}

uint32_t TraceContext::OpenSpan(SpanKind kind, const char* name) {
  if (depth_ >= kMaxDepth) {
    ++overflow_;
    return 0;
  }
  const uint32_t id = next_span_id_++;
  stack_[depth_++] = OpenSpanState{kind, name, id, cursor_us_};
  return id;
}

void TraceContext::CloseSpan(uint32_t token) {
  if (token == 0) {
    if (overflow_ > 0) --overflow_;
    return;
  }
  if (depth_ <= 1 || stack_[depth_ - 1].span_id != token) return;
  const OpenSpanState& top = stack_[depth_ - 1];
  SpanRecord rec;
  rec.trace_id = trace_id_;
  rec.span_id = top.span_id;
  rec.parent_id = stack_[depth_ - 2].span_id;
  rec.pid = pid_;
  rec.kind = top.kind;
  rec.name = top.name;
  rec.start_us = top.start_us;
  rec.dur_us = std::max(0.0, cursor_us_ - top.start_us);
  --depth_;
  tracer_->Record(rec);
}

void TraceContext::RecordLeaf(SpanKind kind, const char* name, double dur_us,
                              uint32_t round_trips, uint64_t wire_bytes) {
  SpanRecord rec;
  rec.trace_id = trace_id_;
  rec.span_id = next_span_id_++;
  rec.parent_id = CurrentParent();
  rec.pid = pid_;
  rec.kind = kind;
  rec.name = name;
  rec.start_us = cursor_us_;
  rec.dur_us = dur_us;
  rec.round_trips = round_trips;
  rec.wire_bytes = wire_bytes;
  cursor_us_ += dur_us;
  tracer_->Record(rec);
}

void TraceContext::RecordWait(SpanKind kind, double start_us, double dur_us) {
  SpanRecord rec;
  rec.trace_id = trace_id_;
  rec.span_id = next_span_id_++;
  rec.parent_id = CurrentParent();
  rec.pid = pid_;
  rec.kind = kind;
  rec.name = nullptr;
  rec.start_us = start_us;
  rec.dur_us = std::max(0.0, dur_us);
  cursor_us_ = std::max(cursor_us_, start_us + rec.dur_us);
  tracer_->Record(rec);
}

void TraceContext::MarkWait(SpanKind kind, double start_us) {
  wait_pending_ = true;
  wait_kind_ = kind;
  wait_start_us_ = start_us;
}

void TraceContext::FlushWait(double now_us) {
  if (!wait_pending_) return;
  wait_pending_ = false;
  RecordWait(wait_kind_, wait_start_us_, now_us - wait_start_us_);
}

void TraceContext::EndRequest() {
  if (ended_) return;
  ended_ = true;
  FlushWait(tracer_->NowUs());
  // Close any phase spans left open by an early-exit path.
  while (depth_ > 1) CloseSpan(stack_[depth_ - 1].span_id);
  const OpenSpanState& root = stack_[0];
  SpanRecord rec;
  rec.trace_id = trace_id_;
  rec.span_id = root.span_id;
  rec.parent_id = 0;
  rec.pid = pid_;
  rec.kind = SpanKind::kRequest;
  rec.name = root.name;
  rec.start_us = root.start_us;
  const double end_us = std::max(cursor_us_, tracer_->NowUs());
  rec.dur_us = std::max(0.0, end_us - root.start_us);
  rec.round_trips = static_cast<uint32_t>(opcost_rts_);
  tracer_->Record(rec);
  tracer_->AccountRequest(static_cast<uint32_t>(opcost_rts_));
}

}  // namespace obs
}  // namespace dinomo
