#include "dpm/dpm_pool.h"

#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "dpm/log.h"

namespace dinomo {
namespace dpm {

namespace {

DpmPoolOptions Sanitize(DpmPoolOptions o) {
  if (o.nodes < 1) o.nodes = 1;
  if (o.dpm.partitioned_metadata && o.nodes > 1) {
    // DINOMO-N partitions data/metadata by KN inside one node; layering a
    // key-hash partition across nodes on top would double-partition.
    DINOMO_LOG_STREAM(Warn) << "partitioned_metadata forces dpm nodes 1 (got "
                     << o.nodes << ")";
    o.nodes = 1;
  }
  const int max_rf = o.nodes >= 2 ? 2 : 1;
  if (o.replication_factor < 1) o.replication_factor = 1;
  if (o.replication_factor > max_rf) {
    if (o.replication_factor > 2) {
      DINOMO_LOG_STREAM(Warn) << "replication_factor " << o.replication_factor
                       << " clamped to " << max_rf
                       << " (primary + one mirror is the supported scheme)";
    }
    o.replication_factor = max_rf;
  }
  return o;
}

// Copies the entry `vp` names out of `node`'s pool and decodes it. The log
// cleaner may have moved the entry, and freed and reused its old segment,
// since `vp` was read: while the copy does not decode as `key_hash`'s,
// follow the index to the entry's new home. NotFound once the key has no
// direct entry (deleted, or shared).
Status ReadLiveEntry(DpmNode* node, uint64_t key_hash, ValuePtr vp,
                     std::string* buf, LogRecord* rec) {
  constexpr int kAttempts = 4;
  const pm::PmPool& ro = *node->pool();
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    if (vp.null() || vp.indirect()) return Status::NotFound("no entry");
    if (!ro.Contains(vp.offset(), vp.entry_size())) {
      return Status::Corruption("value pointer outside the pool");
    }
    buf->assign(ro.Translate(vp.offset()), vp.entry_size());
    size_t consumed = 0;
    if (DecodeEntry(buf->data(), buf->size(), rec, &consumed).ok() &&
        rec->key_hash == key_hash) {
      return Status::Ok();
    }
    vp = ValuePtr(static_cast<uint64_t>(node->index()->Lookup(key_hash)));
  }
  return Status::Corruption("entry kept moving");
}

}  // namespace

DpmPool::DpmPool(const DpmPoolOptions& options_in)
    : metrics_(obs::Scope("dpm.pool", Sanitize(options_in).dpm.metrics)),
      promotions_(metrics_.counter("promotions")),
      stale_rpcs_(metrics_.counter("stale_rpcs")),
      repaired_entries_(metrics_.counter("repaired_entries")),
      repaired_bytes_(metrics_.counter("repaired_bytes")),
      recovery_window_us_(metrics_.gauge("recovery_window_us")) {
  const DpmPoolOptions options = Sanitize(options_in);
  replication_factor_ = options.replication_factor;
  for (int i = 0; i < options.nodes; ++i) {
    DpmOptions per_node = options.dpm;
    per_node.node_id = i;
    owned_.push_back(std::make_unique<DpmNode>(per_node));
    nodes_.push_back(owned_.back().get());
    ring_.AddNode(static_cast<uint64_t>(i));
    alive_.push_back(1);
  }
}

DpmPool::DpmPool(DpmNode* node)
    : metrics_(obs::Scope("dpm.pool", node->options().metrics)),
      promotions_(metrics_.counter("promotions")),
      stale_rpcs_(metrics_.counter("stale_rpcs")),
      repaired_entries_(metrics_.counter("repaired_entries")),
      repaired_bytes_(metrics_.counter("repaired_bytes")),
      recovery_window_us_(metrics_.gauge("recovery_window_us")) {
  replication_factor_ = 1;
  nodes_.push_back(node);
  ring_.AddNode(0);
  alive_.push_back(1);
}

DpmPool::~DpmPool() = default;

bool DpmPool::alive(int i) const {
  MutexLock lock(mu_);
  return i >= 0 && i < static_cast<int>(alive_.size()) &&
         alive_[static_cast<size_t>(i)] != 0;
}

int DpmPool::num_alive() const {
  MutexLock lock(mu_);
  int n = 0;
  for (char a : alive_) n += a != 0 ? 1 : 0;
  return n;
}

DpmPlacement DpmPool::PlacementOf(uint64_t key_hash) const {
  DpmPlacement p;
  // Generation first: a concurrent KillNode bumps the generation *after*
  // mutating the ring, so a placement computed from the new ring with the
  // old generation stamp is simply retried by its user (stale-gen reject),
  // never trusted with mixed state.
  p.generation = generation_.load(std::memory_order_acquire);
  MutexLock lock(mu_);
  const std::vector<uint64_t> owners =
      ring_.OwnersOf(key_hash, static_cast<size_t>(replication_factor_));
  if (!owners.empty()) p.primary = static_cast<int>(owners[0]);
  if (owners.size() > 1) p.mirror = static_cast<int>(owners[1]);
  return p;
}

Status DpmPool::CheckRoute(int node, uint64_t gen) const {
  {
    MutexLock lock(mu_);
    if (node < 0 || node >= static_cast<int>(nodes_.size())) {
      return Status::InvalidArgument("no such dpm node");
    }
    if (alive_[static_cast<size_t>(node)] == 0) {
      return Status::Unavailable("dpm node failed");
    }
  }
  if (gen != generation_.load(std::memory_order_acquire)) {
    stale_rpcs_.Inc();
    return Status::Unavailable("stale placement generation");
  }
  return Status::Ok();
}

Result<pm::PmPtr> DpmPool::AllocateSegment(int node, uint64_t gen,
                                           int kn_node, uint64_t owner) {
  Status route = CheckRoute(node, gen);
  if (!route.ok()) return route;
  return nodes_[static_cast<size_t>(node)]->AllocateSegment(kn_node, owner);
}

Result<DpmNode::SubmitResult> DpmPool::SubmitBatch(int node, uint64_t gen,
                                                   int kn_node, uint64_t owner,
                                                   pm::PmPtr segment,
                                                   pm::PmPtr data, size_t bytes,
                                                   uint64_t puts) {
  Status route = CheckRoute(node, gen);
  if (!route.ok()) return route;
  return nodes_[static_cast<size_t>(node)]->SubmitBatch(kn_node, owner,
                                                        segment, data, bytes,
                                                        puts);
}

Status DpmPool::SealSegment(int node, uint64_t gen, int kn_node,
                            uint64_t owner, pm::PmPtr segment) {
  Status route = CheckRoute(node, gen);
  if (!route.ok()) return route;
  return nodes_[static_cast<size_t>(node)]->SealSegment(kn_node, owner,
                                                        segment);
}

Status DpmPool::KillNode(int node) {
  {
    MutexLock lock(mu_);
    if (node < 0 || node >= static_cast<int>(nodes_.size())) {
      return Status::InvalidArgument("no such dpm node");
    }
    if (alive_[static_cast<size_t>(node)] == 0) {
      return Status::InvalidArgument("dpm node already dead");
    }
    int survivors = 0;
    for (char a : alive_) survivors += a != 0 ? 1 : 0;
    if (survivors <= 1) {
      return Status::InvalidArgument("cannot kill the last dpm node");
    }
    alive_[static_cast<size_t>(node)] = 0;
    // Removing the node *is* the promotion: each of its ranges falls to
    // its clockwise successor, which is exactly the range's mirror.
    ring_.RemoveNode(static_cast<uint64_t>(node));
  }
  // A promoted mirror must serve nothing stale: its copy of every batch
  // arrived before the primary's ack (replicate-before-ack), so draining
  // its merge queues brings its index to at-least-acked state.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!alive(static_cast<int>(i))) continue;
    Status s = nodes_[i]->merge()->DrainAll();
    if (!s.ok()) return s;
  }
  generation_.fetch_add(1, std::memory_order_acq_rel);
  promotions_.Inc();
  return Status::Ok();
}

Result<DpmPool::RepairStats> DpmPool::ReReplicate() {
  RepairStats stats;
  if (replication_factor_ < 2 || num_alive() < 2) return stats;

  // Open repair segment per destination mirror.
  struct MirrorBatch {
    LogBuilder batch;
    pm::PmPtr segment = pm::kNullPmPtr;
    size_t segment_used = 0;  // bytes of prior batches in the segment
  };
  std::unordered_map<int, MirrorBatch> pending;

  auto flush = [&](int m, MirrorBatch& mb) -> Status {
    if (mb.batch.bytes() == 0) return Status::Ok();
    DpmNode* dst = nodes_[static_cast<size_t>(m)];
    if (mb.segment == pm::kNullPmPtr) {
      Result<pm::PmPtr> seg = dst->AllocateSegment(0, kRepairOwner);
      if (!seg.ok()) return seg.status();
      mb.segment = *seg;
      mb.segment_used = 0;
    }
    const pm::PmPtr dst_ptr =
        mb.segment + pm::kCacheLineSize + mb.segment_used;
    // DPM-to-DPM copy: same two-phase persist discipline as a KN flush
    // (payload, then the final commit marker as the publication point).
    Status s = AppendBatchPm(dst->pool(), dst_ptr, mb.batch.data(),
                             mb.batch.bytes());
    if (!s.ok()) return s;
    Result<DpmNode::SubmitResult> r =
        dst->SubmitBatch(0, kRepairOwner, mb.segment, dst_ptr,
                         mb.batch.bytes(), mb.batch.puts());
    if (!r.ok()) return r.status();
    stats.entries_copied += mb.batch.entries();
    stats.bytes_copied += mb.batch.bytes();
    repaired_entries_.Inc(mb.batch.entries());
    repaired_bytes_.Inc(mb.batch.bytes());
    mb.segment_used += mb.batch.bytes();
    mb.batch.Clear();
    return Status::Ok();
  };

  for (int s_idx = 0; s_idx < num_nodes(); ++s_idx) {
    if (!alive(s_idx)) continue;
    DpmNode* src = nodes_[static_cast<size_t>(s_idx)];
    // ForEach is quiescent-only: first finish the repair batches already
    // sent to this node (by an earlier source, or by a failed attempt the
    // caller is retrying) and the cleaner passes their merges asked for.
    Status quiet = src->DrainOwner(kRepairOwner);
    if (quiet.ok()) quiet = src->DrainOwner(kCleanerOwner);
    if (!quiet.ok()) return quiet;
    // Snapshot first: ForEach is quiescent-only and the repair appends
    // below mutate the destination indexes, not this one — but keeping
    // the walk free of RPCs keeps the contract obvious.
    std::vector<std::pair<uint64_t, uint64_t>> items;
    src->index()->ForEach([&](uint64_t kh, pm::PmPtr vp) {
      items.emplace_back(kh, static_cast<uint64_t>(vp));
    });
    for (const auto& [kh, raw] : items) {
      stats.keys_examined++;
      const ValuePtr vp(raw);
      if (vp.indirect()) continue;  // shared mode is dropped around a kill
      const DpmPlacement pl = PlacementOf(kh);
      if (pl.primary != s_idx || pl.mirror < 0) continue;
      DpmNode* dst = nodes_[static_cast<size_t>(pl.mirror)];

      std::string entry;
      LogRecord rec;
      Status dec = ReadLiveEntry(src, kh, vp, &entry, &rec);
      if (dec.IsNotFound()) continue;  // deleted or shared since the walk
      if (!dec.ok()) return dec;

      // Skip keys the mirror already carries at the same value (the
      // common case: only ranges whose mirror changed need copies).
      std::string mentry;
      LogRecord mrec;
      const ValuePtr mvp(static_cast<uint64_t>(dst->index()->Lookup(kh)));
      if (ReadLiveEntry(dst, kh, mvp, &mentry, &mrec).ok() &&
          mrec.op == rec.op && mrec.value == rec.value) {
        continue;
      }

      MirrorBatch& mb = pending[pl.mirror];
      const size_t need = EncodedEntrySize(rec.key.size(), rec.value.size());
      const size_t usable =
          dst->options().segment_size - pm::kCacheLineSize;
      // Invariant kept across AddPut calls: everything staged for this
      // mirror — segment bytes already flushed plus the open batch plus
      // this entry — fits one segment. When the entry would not fit,
      // flush the batch (which fits, by the same invariant), seal the
      // segment, and start a fresh one for this entry.
      const size_t used = mb.segment == pm::kNullPmPtr ? 0 : mb.segment_used;
      if (used + mb.batch.bytes() + need > usable) {
        Status fs = flush(pl.mirror, mb);
        if (!fs.ok()) return fs;
        if (mb.segment != pm::kNullPmPtr) {
          Status sealed = dst->SealSegment(0, kRepairOwner, mb.segment);
          if (!sealed.ok()) return sealed;
          mb.segment = pm::kNullPmPtr;
          mb.segment_used = 0;
        }
      }
      mb.batch.AddPut(rec.seq, kh, rec.key, rec.value);
    }
  }

  for (auto& [m, mb] : pending) {
    Status fs = flush(m, mb);
    if (!fs.ok()) return fs;
  }
  // Index the copies before traffic resumes.
  for (int i = 0; i < num_nodes(); ++i) {
    if (!alive(i)) continue;
    Status d = nodes_[static_cast<size_t>(i)]->DrainOwner(kRepairOwner);
    if (!d.ok()) return d;
  }
  return stats;
}

}  // namespace dpm
}  // namespace dinomo
