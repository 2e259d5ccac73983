#include "net/fabric.h"

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.h"
#include "obs/trace.h"

namespace dinomo {
namespace net {

namespace {
thread_local OpCost* t_op_cost = nullptr;

// Extra latency of a two-sided operation (RPC handled by a DPM processor)
// beyond a one-sided round trip, in us.
constexpr double kRpcExtraUs = 2.0;

// Leaf trace span for one fabric op on the current thread's sampled
// request (no-op otherwise). Duration is the cost model's view of the op
// — round trips x link latency plus wire time plus any synchronous extra
// (RPC overhead, DPM CPU) — so traces line up with LatencyUs accounting.
void TraceFabricOp(const LinkProfile& profile, obs::SpanKind kind,
                   const char* name, uint32_t rts, uint64_t bytes,
                   double extra_us = 0.0) {
  obs::TraceContext* ctx = obs::CurrentTraceContext();
  if (ctx == nullptr) return;
  ctx->RecordLeaf(kind, name,
                  rts * profile.rt_latency_us + profile.TransferUs(bytes) +
                      extra_us,
                  rts, bytes);
}

uint32_t WireOps(const FaultDecision& d) {
  return d.action == FaultDecision::Action::kDuplicate ? 2 : 1;
}
}  // namespace

Fabric::Fabric(pm::PmPool* pool, LinkProfile profile,
               obs::MetricsRegistry* registry)
    : pool_(pool),
      profile_(profile),
      registry_(registry != nullptr ? registry
                                    : &obs::MetricsRegistry::Global()),
      counters_(kMaxNodes) {
  DINOMO_CHECK(pool != nullptr);
  registry_->RegisterCounter("fabric.doorbell.batches", &doorbell_batches_);
  registry_->RegisterCounter("fabric.doorbell.fused_ops",
                             &doorbell_fused_ops_);
  registry_->RegisterCounter("fabric.doorbell.saved_rts",
                             &doorbell_saved_rts_);
}

Fabric::~Fabric() {
  registry_->Unregister(&doorbell_batches_);
  registry_->Unregister(&doorbell_fused_ops_);
  registry_->Unregister(&doorbell_saved_rts_);
  for (NodeMetrics& m : counters_) {
    if (!m.registered.load(std::memory_order_acquire)) continue;
    registry_->Unregister(&m.round_trips);
    registry_->Unregister(&m.wire_bytes);
    registry_->Unregister(&m.one_sided_reads);
    registry_->Unregister(&m.one_sided_writes);
    registry_->Unregister(&m.cas_ops);
    registry_->Unregister(&m.rpcs);
  }
}

void Fabric::SetThreadOpCost(OpCost* cost) { t_op_cost = cost; }
OpCost* Fabric::ThreadOpCost() { return t_op_cost; }

FaultDecision Fabric::ConsultInjector(int node, bool allow_drop) {
  FaultInjector* injector = injector_.load(std::memory_order_acquire);
  if (injector == nullptr) return FaultDecision{};
  FaultDecision d = injector->OnOneSided(node, allow_drop);
  if (d.delay_us > 0.0) {
    if (t_op_cost != nullptr) t_op_cost->extra_latency_us += d.delay_us;
    if (injector->sleep_on_delay()) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(d.delay_us));
    }
  }
  return d;
}

void Fabric::EnsureRegistered(int node) {
  NodeMetrics& m = counters_[node];
  if (m.registered.load(std::memory_order_acquire)) return;
  MutexLock lock(register_mu_);
  if (m.registered.load(std::memory_order_relaxed)) return;
  const std::string prefix = "fabric.node" + std::to_string(node) + ".";
  registry_->RegisterCounter(prefix + "round_trips", &m.round_trips);
  registry_->RegisterCounter(prefix + "wire_bytes", &m.wire_bytes);
  registry_->RegisterCounter(prefix + "one_sided_reads", &m.one_sided_reads);
  registry_->RegisterCounter(prefix + "one_sided_writes",
                             &m.one_sided_writes);
  registry_->RegisterCounter(prefix + "cas_ops", &m.cas_ops);
  registry_->RegisterCounter(prefix + "rpcs", &m.rpcs);
  m.registered.store(true, std::memory_order_release);
}

void Fabric::Charge(int node, uint32_t rts, uint64_t bytes) {
  DINOMO_CHECK(node >= 0 && node < kMaxNodes);
  EnsureRegistered(node);
  counters_[node].round_trips.Inc(rts);
  counters_[node].wire_bytes.Inc(bytes);
  if (t_op_cost != nullptr) {
    t_op_cost->round_trips += rts;
    t_op_cost->wire_bytes += bytes;
  }
}

Status Fabric::LandRead(const FaultDecision& d, pm::PmPtr src, void* dst,
                        size_t len) {
  Status s;
  if (d.action == FaultDecision::Action::kDrop) {
    // The round trip happened but the payload was lost.
    s = Status::Unavailable("injected drop: one-sided read");
  } else if (!pool_->Contains(src, len)) {
    // The remote NIC rejects an address outside the registered region.
    s = Status::Corruption("one-sided read outside the pool");
  } else {
    // Const overload: a read must not demote the line for the PM checker.
    const pm::PmPool& ro = *pool_;
    std::memcpy(dst, ro.Translate(src), len);
    return s;
  }
  std::memset(dst, 0, len);
  return s;
}

Status Fabric::LandWrite(const FaultDecision& d, const void* src,
                         pm::PmPtr dst, size_t len, const pm::SourceLoc& loc,
                         bool publish) {
  // Lost on the wire: no remote bytes change, and the initiator must not
  // publish anything that assumes this write landed.
  if (d.action == FaultDecision::Action::kDrop) {
    return Status::Unavailable("injected drop: one-sided write");
  }
  pool_->StoreBytes(dst, src, len, loc);
  // Modeled as a *durable* RDMA write (the IETF durable-write commit the
  // paper anticipates, §4 "DPM persistence"): the payload is flushed as
  // part of the single round trip, so committed log batches survive the
  // crash simulator. A publication point (WritePublish) makes recovery
  // follow what this store makes reachable, so the checker verifies
  // everything it depends on is already durable.
  if (publish) {
    pool_->PersistPublish(dst, len, loc);
  } else {
    pool_->Persist(dst, len, loc);
  }
  return Status::Ok();
}

Status Fabric::Read(int node, pm::PmPtr src, void* dst, size_t len) {
  const FaultDecision d = ConsultInjector(node, /*allow_drop=*/true);
  Status s = LandRead(d, src, dst, len);
  const uint32_t wire_ops = WireOps(d);
  Charge(node, wire_ops, static_cast<uint64_t>(len) * wire_ops);
  counters_[node].one_sided_reads.Inc(wire_ops);
  TraceFabricOp(profile_, obs::SpanKind::kOneSidedRead, nullptr, wire_ops,
                static_cast<uint64_t>(len) * wire_ops);
  return s;
}

Status Fabric::WriteImpl(int node, const void* src, pm::PmPtr dst,
                         size_t len, const pm::SourceLoc& loc, bool publish) {
  DINOMO_CHECK(pool_->Contains(dst, len));
  const FaultDecision d = ConsultInjector(node, /*allow_drop=*/true);
  Status s = LandWrite(d, src, dst, len, loc, publish);
  const uint32_t wire_ops = WireOps(d);
  Charge(node, wire_ops, static_cast<uint64_t>(len) * wire_ops);
  counters_[node].one_sided_writes.Inc(wire_ops);
  TraceFabricOp(profile_, obs::SpanKind::kOneSidedWrite, nullptr, wire_ops,
                static_cast<uint64_t>(len) * wire_ops);
  return s;
}

Status Fabric::Write(int node, const void* src, pm::PmPtr dst, size_t len,
                     const pm::SourceLoc& loc) {
  return WriteImpl(node, src, dst, len, loc, /*publish=*/false);
}

Status Fabric::WritePublish(int node, const void* src, pm::PmPtr dst,
                            size_t len, const pm::SourceLoc& loc) {
  return WriteImpl(node, src, dst, len, loc, /*publish=*/true);
}

Result<bool> Fabric::CompareAndSwap64(int node, pm::PmPtr addr,
                                      uint64_t expected, uint64_t desired,
                                      const pm::SourceLoc& loc) {
  const FaultDecision d = ConsultInjector(node, /*allow_drop=*/true);
  // A duplicated CAS replays with the same expected value; the second
  // execution fails benignly, so one real execution models it.
  const uint32_t wire_ops = WireOps(d);
  Charge(node, wire_ops, sizeof(uint64_t) * wire_ops);
  counters_[node].cas_ops.Inc(wire_ops);
  TraceFabricOp(profile_, obs::SpanKind::kCas, nullptr, wire_ops,
                sizeof(uint64_t) * wire_ops);
  if (d.action == FaultDecision::Action::kDrop) {
    return Status::Unavailable("injected drop: one-sided CAS");
  }
  const bool swapped = pool_->CompareExchange64(addr, expected, desired, loc);
  // A successful remote CAS installs a pointer/marker other nodes (and
  // recovery) will follow — a publication point for the checker.
  if (swapped) pool_->PersistPublish(addr, sizeof(uint64_t), loc);
  return swapped;
}

Result<uint64_t> Fabric::AtomicRead64(int node, pm::PmPtr addr) {
  const FaultDecision d = ConsultInjector(node, /*allow_drop=*/true);
  const uint32_t wire_ops = WireOps(d);
  Charge(node, wire_ops, sizeof(uint64_t) * wire_ops);
  TraceFabricOp(profile_, obs::SpanKind::kOneSidedRead, "atomic_read",
                wire_ops, sizeof(uint64_t) * wire_ops);
  if (d.action == FaultDecision::Action::kDrop) {
    return Status::Unavailable("injected drop: atomic read");
  }
  if (!pool_->Contains(addr, sizeof(uint64_t)) ||
      addr % sizeof(uint64_t) != 0) {
    return Status::Corruption("atomic read outside the pool or unaligned");
  }
  const pm::PmPool& ro = *pool_;
  auto* target = reinterpret_cast<uint64_t*>(
      const_cast<char*>(ro.Translate(addr)));
  return std::atomic_ref<uint64_t>(*target).load(std::memory_order_acquire);
}

Status Fabric::AtomicWrite64(int node, pm::PmPtr addr, uint64_t value,
                             const pm::SourceLoc& loc) {
  const FaultDecision d = ConsultInjector(node, /*allow_drop=*/true);
  const uint32_t wire_ops = WireOps(d);
  Charge(node, wire_ops, sizeof(uint64_t) * wire_ops);
  counters_[node].one_sided_writes.Inc(wire_ops);
  TraceFabricOp(profile_, obs::SpanKind::kOneSidedWrite, "atomic_write",
                wire_ops, sizeof(uint64_t) * wire_ops);
  if (d.action == FaultDecision::Action::kDrop) {
    return Status::Unavailable("injected drop: atomic write");
  }
  pool_->StoreRelease64(addr, value, loc);
  pool_->Persist(addr, sizeof(uint64_t), loc);
  return Status::Ok();
}

void Fabric::ChargeRpc(int node, uint64_t req_bytes, uint64_t resp_bytes,
                       double dpm_cpu_us, const char* what) {
  // The RPC has already executed on the DPM by the time its cost is
  // charged, so a lost op can no longer be a clean rejection — rejection
  // faults are injected at the DpmNode entry instead (OnRpc). Delay and
  // duplicate (retransmitted request, executed once) still apply here.
  const FaultDecision d = ConsultInjector(node, /*allow_drop=*/false);
  uint32_t wire_ops;
  uint64_t wire_bytes;
  if (d.action == FaultDecision::Action::kDuplicate) {
    wire_ops = 2;
    wire_bytes = 2 * req_bytes + resp_bytes;
    Charge(node, wire_ops, wire_bytes);
    counters_[node].rpcs.Inc(2);
  } else {
    wire_ops = 1;
    wire_bytes = req_bytes + resp_bytes;
    Charge(node, wire_ops, wire_bytes);
    counters_[node].rpcs.Inc();
  }
  if (t_op_cost != nullptr) {
    t_op_cost->dpm_cpu_us += dpm_cpu_us;
    t_op_cost->extra_latency_us += kRpcExtraUs;
  }
  // A two-sided op is synchronous for the caller: round trip + wire time
  // + RPC overhead + the DPM processor servicing it.
  TraceFabricOp(profile_, obs::SpanKind::kRpc, what, wire_ops, wire_bytes,
                kRpcExtraUs + dpm_cpu_us);
}

void Fabric::OpBatch::AddRead(pm::PmPtr src, void* dst, size_t len,
                              Status* fate) {
  ops_.push_back(Pending{true, src, dst, nullptr, len, fate, {}});
}

void Fabric::OpBatch::AddWrite(const void* src, pm::PmPtr dst, size_t len,
                               Status* fate, const pm::SourceLoc& loc) {
  ops_.push_back(Pending{false, dst, nullptr, src, len, fate, loc});
}

Status Fabric::OpBatch::Execute() {
  Fabric* f = fabric_;
  Status first_failure;
  if (ops_.empty()) return first_failure;
  auto complete = [&](const Pending& p, Status s) {
    if (!s.ok() && first_failure.ok()) first_failure = s;
    if (p.fate != nullptr) *p.fate = std::move(s);
  };
  if (ops_.size() == 1) {
    // No fusion to be had: fall back to the plain op so singleton batches
    // cost (and trace) exactly what an unbatched op does.
    const Pending& p = ops_.front();
    complete(p, p.is_read ? f->Read(node_, p.remote, p.dst, p.len)
                          : f->Write(node_, p.src, p.remote, p.len, p.loc));
    ops_.clear();
    return first_failure;
  }
  uint64_t total_bytes = 0;
  bool first = true;
  for (const Pending& p : ops_) {
    if (!p.is_read) DINOMO_CHECK(f->pool_->Contains(p.remote, p.len));
    // Each fused op keeps its own fault fate: the doorbell posts N work
    // requests, and the injector decides per request.
    const FaultDecision d = f->ConsultInjector(node_, /*allow_drop=*/true);
    complete(p, p.is_read ? f->LandRead(d, p.remote, p.dst, p.len)
                          : f->LandWrite(d, p.src, p.remote, p.len, p.loc,
                                         /*publish=*/false));
    const uint32_t wire_ops = WireOps(d);
    const uint64_t bytes = static_cast<uint64_t>(p.len) * wire_ops;
    total_bytes += bytes;
    if (p.is_read) {
      f->counters_[node_].one_sided_reads.Inc(wire_ops);
    } else {
      f->counters_[node_].one_sided_writes.Inc(wire_ops);
    }
    // The fused round trip is attributed to the first op's span; the rest
    // carry only their wire bytes, keeping the trace-derived RT total in
    // lockstep with the single Charge() below.
    TraceFabricOp(f->profile_,
                  p.is_read ? obs::SpanKind::kOneSidedRead
                            : obs::SpanKind::kOneSidedWrite,
                  "doorbell", first ? 1 : 0, bytes);
    first = false;
  }
  f->Charge(node_, 1, total_bytes);
  f->doorbell_batches_.Inc();
  f->doorbell_fused_ops_.Inc(ops_.size());
  f->doorbell_saved_rts_.Inc(ops_.size() - 1);
  ops_.clear();
  return first_failure;
}

Fabric::NodeCounters Fabric::counters(int node) const {
  DINOMO_CHECK(node >= 0 && node < kMaxNodes);
  const NodeMetrics& m = counters_[node];
  NodeCounters c;
  c.round_trips = m.round_trips.value();
  c.wire_bytes = m.wire_bytes.value();
  c.one_sided_reads = m.one_sided_reads.value();
  c.one_sided_writes = m.one_sided_writes.value();
  c.cas_ops = m.cas_ops.value();
  c.rpcs = m.rpcs.value();
  return c;
}

uint64_t Fabric::TotalRoundTrips() const {
  uint64_t total = 0;
  for (const NodeMetrics& m : counters_) total += m.round_trips.value();
  return total;
}

}  // namespace net
}  // namespace dinomo
