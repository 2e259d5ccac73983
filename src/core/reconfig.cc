#include "core/reconfig.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/backoff.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "dpm/log.h"
#include "net/fabric.h"

namespace dinomo {

namespace {

bool Contains(const std::vector<uint64_t>& ids, uint64_t id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

bool AnyOwner(uint64_t) { return true; }

}  // namespace

std::unique_ptr<dpm::DpmPool> MakeDpmPool(int nodes, int replication_factor,
                                          const dpm::DpmOptions& dpm) {
  dpm::DpmPoolOptions options;
  options.nodes = nodes;
  options.replication_factor = replication_factor;
  options.dpm = dpm;
  return std::make_unique<dpm::DpmPool>(options);
}

void SetFaultInjector(dpm::DpmPool* pool, net::FaultInjector* injector) {
  for (int i = 0; i < pool->num_nodes(); ++i) {
    pool->node(i)->fabric()->SetFaultInjector(injector);
    pool->node(i)->SetFaultInjector(injector);
  }
}

Status Runtime::AdminRpc(const std::function<Status()>& rpc) {
  Status st = rpc();
  for (int attempt = 1; attempt < kAdminRpcAttempts && IsTransient(st);
       ++attempt) {
    st = rpc();
  }
  return st;
}

ReconfigProtocol::ReconfigProtocol(Runtime* runtime, dpm::DpmPool* pool,
                                   SystemVariant variant, int workers_per_kn,
                                   const mnode::PolicyParams& policy)
    : rt_(runtime),
      pool_(pool),
      variant_(variant),
      workers_per_kn_(workers_per_kn),
      routing_(workers_per_kn),
      policy_(policy) {}

void ReconfigProtocol::PushRouting() {
  auto table = routing_.Snapshot();
  for (uint64_t id : rt_->ActiveKns()) {
    rt_->RunOnWorkers(id, [table, id](kn::KnWorker* w) {
      // Empty exactly the partitions this KN no longer owns (§3.4: "the
      // current owner empties its cache"). Same for the index-metadata
      // cache: a pointer for a range this KN no longer owns could
      // otherwise resurface stale when the range comes back.
      auto not_owned = [&table, id](uint64_t key_hash) {
        return !table->IsOwner(key_hash, id);
      };
      w->SetRouting(table);
      w->cache()->InvalidateIf(not_owned);
      if (w->icache() != nullptr) w->icache()->InvalidateIf(not_owned);
    });
  }
}

void ReconfigProtocol::InvalidateKey(uint64_t kn_id, uint64_t key_hash) {
  rt_->RunOnWorkers(kn_id, [key_hash](kn::KnWorker* w) {
    w->cache()->Invalidate(key_hash);
    if (w->icache() != nullptr) w->icache()->Invalidate(key_hash);
  });
}

Status ReconfigProtocol::Reorganize(const std::vector<uint64_t>& from,
                                    const std::vector<uint64_t>& stalled,
                                    double ready_us) {
  if (variant_ != SystemVariant::kDinomoN) return Status::Ok();
  // Every entry in a leaver's private index whose primary owner under the
  // new mapping is another KN is re-logged under that owner's partition
  // and removed from the source: the data copying shared-data DINOMO
  // avoids (§3.4/§5.3). DINOMO-N clamps the pool to one node.
  dpm::DpmNode* dpm = pool_->node(0);
  auto table = routing_.Snapshot();
  uint64_t bytes = 0;
  uint64_t keys = 0;
  for (uint64_t from_kn : from) {
    index::Clht* from_index = dpm->IndexFor(from_kn);
    struct Moved {
      uint64_t key_hash;
      pm::PmPtr value;
    };
    // Group the moved keys by their new owner so whole segments fill up.
    std::map<uint64_t, std::vector<Moved>> by_dest;
    from_index->ForEach([&](uint64_t key_hash, pm::PmPtr value) {
      const uint64_t owner = table->PrimaryOwner(key_hash);
      if (owner != from_kn && !dpm::ValuePtr(value).indirect()) {
        by_dest[owner].push_back({key_hash, value});
      }
    });

    const size_t header = pm::kCacheLineSize;
    const size_t seg_capacity = dpm->options().segment_size - header;
    for (const auto& [dest, moved] : by_dest) {
      const uint64_t dst_owner = dest << 8;  // worker 0's log
      const int dst_node = static_cast<int>(dest % net::Fabric::kMaxNodes);
      pm::PmPtr segment = pm::kNullPmPtr;
      size_t seg_used = 0;
      dpm::LogBuilder batch;
      rt_->SettleMerges([dst_owner](uint64_t o) { return o == dst_owner; });

      auto flush = [&]() -> Status {
        if (batch.entries() == 0) return Status::Ok();
        if (segment == pm::kNullPmPtr ||
            seg_used + batch.bytes() > seg_capacity) {
          if (segment != pm::kNullPmPtr) {
            DINOMO_RETURN_IF_ERROR(rt_->AdminRpc([&] {
              return dpm->SealSegment(dst_node, dst_owner, segment);
            }));
          }
          DINOMO_RETURN_IF_ERROR(rt_->AdminRpc([&] {
            auto seg = dpm->AllocateSegment(dst_node, dst_owner);
            if (seg.ok()) segment = seg.value();
            return seg.status();
          }));
          seg_used = 0;
        }
        const pm::PmPtr dst = segment + header + seg_used;
        // Two-phase append: payload persisted before the final commit
        // marker, so a crash mid-copy never exposes a torn batch tail.
        DINOMO_RETURN_IF_ERROR(
            dpm::AppendBatchPm(dpm->pool(), dst, batch.data(), batch.bytes()));
        DINOMO_RETURN_IF_ERROR(rt_->AdminRpc([&] {
          return dpm
              ->SubmitBatch(dst_node, dst_owner, segment, dst, batch.bytes(),
                            batch.puts())
              .status();
        }));
        seg_used += batch.bytes();
        bytes += batch.bytes();
        batch.Clear();
        // Keep the unmerged backlog bounded (reorganization is synchronous
        // anyway — that is exactly why it is expensive).
        return dpm->DrainOwner(dst_owner);
      };

      for (const Moved& m : moved) {
        dpm::ValuePtr vp(m.value);
        const char* entry = dpm->pool()->Translate(vp.offset());
        dpm::LogRecord rec;
        size_t consumed = 0;
        DINOMO_RETURN_IF_ERROR(
            dpm::DecodeEntry(entry, vp.entry_size(), &rec, &consumed));
        const size_t need =
            dpm::EncodedEntrySize(rec.key.size(), rec.value.size());
        if (batch.bytes() + need > seg_capacity ||
            batch.bytes() >= 256 * 1024) {
          DINOMO_RETURN_IF_ERROR(flush());
        }
        batch.AddPut(0, rec.key_hash, rec.key, rec.value);
        keys++;
      }
      DINOMO_RETURN_IF_ERROR(flush());

      // Remove the moved keys from the source partition only after the
      // destination has them merged (no window where neither index serves
      // the key).
      for (const Moved& m : moved) {
        DINOMO_RETURN_IF_ERROR(from_index->Remove(m.key_hash).status());
      }
    }
  }
  rt_->Resume(stalled, std::max(ready_us, rt_->ChargeMigration(bytes, keys)));
  return Status::Ok();
}

void ReconfigProtocol::Bootstrap(int kns) {
  std::vector<uint64_t> ids;
  for (int i = 0; i < kns; ++i) {
    ids.push_back(rt_->StartKn());
    routing_.AddKn(ids.back());
  }
  PushRouting();
  rt_->Resume(ids, rt_->NowUs());
}

Result<uint64_t> ReconfigProtocol::AddKn() {
  // Steps 1-3: every KN that loses a range participates.
  std::vector<uint64_t> kns = rt_->ActiveKns();
  const double ready = rt_->Quiesce(kns);
  // Step 4: the new KN joins and the new mapping is published.
  const uint64_t id = rt_->StartKn();
  routing_.AddKn(id);
  PushRouting();
  const std::vector<uint64_t> losers = kns;
  kns.push_back(id);
  // DINOMO-N moves the data while everyone is still quiesced (the stall
  // the paper shows in Fig 6). Steps 5-7: everyone resumes.
  Status st = Reorganize(losers, kns, ready);
  rt_->Resume(kns, ready);
  if (!st.ok()) return st;
  return id;
}

Status ReconfigProtocol::RemoveKn(uint64_t kn_id) {
  const std::vector<uint64_t> active = rt_->ActiveKns();
  if (!Contains(active, kn_id)) return Status::NotFound("unknown KN");
  if (active.size() == 1) {
    return Status::InvalidArgument("cannot remove the last KN");
  }
  return Depart(kn_id, rt_->Quiesce({kn_id}));
}

Status ReconfigProtocol::Depart(uint64_t kn_id, double ready_us) {
  routing_.RemoveKn(kn_id);
  rt_->StopKn(kn_id);
  // DINOMO-N: the gainers stall while the departed partition moves; the
  // mapping is pushed only once the data is where it says.
  Status st = Reorganize({kn_id}, rt_->ActiveKns(), ready_us);
  PushRouting();
  return st;
}

Status ReconfigProtocol::KillKn(uint64_t kn_id) {
  if (!Contains(rt_->ActiveKns(), kn_id)) return Status::NotFound("unknown KN");
  rt_->FailKn(kn_id);
  return rt_->OnFailureDetected([this, kn_id] { return RecoverKn(kn_id); });
}

Result<double> ReconfigProtocol::DrainLogs(const std::vector<uint64_t>& kns,
                                           bool release) {
  const double ready = rt_->SettleMerges(
      [&kns](uint64_t owner) { return Contains(kns, owner >> 8); });
  for (uint64_t kn_id : kns) {
    for (int w = 0; w < workers_per_kn_; ++w) {
      const uint64_t owner = (kn_id << 8) | static_cast<uint64_t>(w);
      for (int n = 0; n < pool_->num_nodes(); ++n) {
        if (!pool_->alive(n)) continue;
        DINOMO_RETURN_IF_ERROR(pool_->node(n)->DrainOwner(owner));
        if (release) pool_->node(n)->ReleaseOwnerSegments(owner);
      }
    }
  }
  return ready;
}

Status ReconfigProtocol::RecoverKn(uint64_t kn_id) {
  // Failure handling (§3.5): merge the failed KN's pending log segments,
  // then repartition its ownership among the survivors.
  auto drained = DrainLogs({kn_id}, /*release=*/true);
  if (!drained.ok()) return drained.status();
  Status st = Depart(kn_id, drained.value());
  policy_.NoteMembershipChange(rt_->NowUs() / 1e6);
  return st;
}

Status ReconfigProtocol::KillDpm(int node) {
  const double killed_at = rt_->NowUs();
  // The pool drains every survivor's merge queues while promoting.
  rt_->SettleMerges(AnyOwner);
  DINOMO_RETURN_IF_ERROR(pool_->KillNode(node));
  return rt_->OnFailureDetected(
      [this, killed_at] { return RecoverDpm(killed_at); });
}

Status ReconfigProtocol::RecoverDpm(double killed_at_us) {
  // Quiesce every KN. A flush re-resolves placement first (the generation
  // moved), so buffered entries re-bin to the promoted owners. The KNs
  // resume even if a step below fails: a wedged quiesce would turn one
  // dead DPM node into a whole-cluster outage.
  const std::vector<uint64_t> participants = rt_->ActiveKns();
  double ready = rt_->Quiesce(participants);
  dpm::DpmPool::RepairStats repair;
  Status st = [&]() -> Status {
    // ReReplicate copies from the primaries' indexes: every flushed batch
    // must be merged into them first.
    ready = std::max(ready, rt_->SettleMerges(AnyOwner));
    for (int n = 0; n < pool_->num_nodes(); ++n) {
      if (pool_->alive(n)) {
        DINOMO_RETURN_IF_ERROR(pool_->node(n)->merge()->DrainAll());
      }
    }
    // Shared (selectively replicated) keys are collapsed conservatively:
    // their indirect slots lived in a single node's pool and their shared
    // writes were primary-only, so a membership change invalidates the
    // scheme wholesale. The M-node re-replicates hot keys afterwards.
    for (const auto& [key_hash, owners] : routing_.Snapshot()->replicated) {
      const dpm::DpmPlacement pl = pool_->PlacementOf(key_hash);
      if (pl.primary >= 0 && pool_->alive(pl.primary)) {
        dpm::DpmNode* home = pool_->node(pl.primary);
        Status removed = rt_->AdminRpc(
            [home, key_hash] { return home->RemoveIndirect(0, key_hash); });
        if (!removed.ok() && !removed.IsNotFound()) {
          DINOMO_LOG_STREAM(Warn)
              << "collapse of replicated key failed: " << removed.ToString();
        }
      }
      routing_.ClearReplication(key_hash);
    }
    // Restore the mirror count while the KNs are quiescent. The repair is
    // idempotent, so transient faults inside it are waited out like any
    // admin RPC.
    DINOMO_RETURN_IF_ERROR(rt_->AdminRpc([this, &repair] {
      auto r = pool_->ReReplicate();
      if (r.ok()) repair = r.value();
      return r.status();
    }));
    ready = std::max(ready, rt_->ChargeRepair(repair));
    PushRouting();
    return Status::Ok();
  }();
  rt_->Resume(participants, ready);
  if (!st.ok()) return st;
  const double window_us = std::max(ready, rt_->NowUs()) - killed_at_us;
  pool_->NoteRecoveryWindow(window_us);
  DINOMO_LOG_STREAM(Info) << "dpm recovery: re-replicated "
                          << repair.entries_copied << " entries; window "
                          << window_us << " us";
  return Status::Ok();
}

Status ReconfigProtocol::Replicate(uint64_t key_hash, int replication) {
  if (variant_ == SystemVariant::kDinomoN) {
    return Status::NotSupported("DINOMO-N has no selective replication");
  }
  const std::vector<uint64_t> active = rt_->ActiveKns();
  const uint64_t primary = routing_.Snapshot()->PrimaryOwner(key_hash);
  if (!Contains(active, primary)) {
    return Status::Unavailable("primary owner is not serving");
  }
  // Owner set: the primary plus the next distinct KNs.
  std::vector<uint64_t> owners{primary};
  for (uint64_t id : active) {
    if (static_cast<int>(owners.size()) >= replication) break;
    if (id != primary) owners.push_back(id);
  }
  if (owners.size() <= 1) return Status::Ok();  // nothing to share with

  // The primary is the only node that may hold the value in cache: pause
  // it, land all its writes (the slot snapshots the merged value),
  // install the indirect slot on the key's primary DPM node, drop the
  // cached copy, then publish.
  double ready = rt_->Quiesce({primary});
  auto drained = DrainLogs({primary}, /*release=*/false);
  Status st = drained.status();
  dpm::DpmNode* home = pool_->node(pool_->PlacementOf(key_hash).primary);
  const int kn_node = static_cast<int>(primary % net::Fabric::kMaxNodes);
  if (st.ok()) {
    ready = std::max(ready, drained.value());
    st = rt_->AdminRpc([home, kn_node, key_hash] {
      return home->InstallIndirect(kn_node, key_hash).status();
    });
  }
  if (st.ok()) {
    InvalidateKey(primary, key_hash);
    routing_.SetReplication(key_hash, owners);
    PushRouting();
  }
  rt_->Resume({primary}, ready);
  return st;
}

Status ReconfigProtocol::Dereplicate(uint64_t key_hash) {
  const std::vector<uint64_t> owners =
      routing_.Snapshot()->OwnersOf(key_hash);
  if (owners.size() <= 1) return Status::Ok();
  // Stop all owners from racing the write-back and land their writes,
  // drop their cached shortcuts, collapse the slot, then publish the
  // single-owner mapping.
  double ready = rt_->Quiesce(owners);
  auto drained = DrainLogs(owners, /*release=*/false);
  Status st = drained.status();
  if (st.ok()) {
    ready = std::max(ready, drained.value());
    for (uint64_t id : owners) InvalidateKey(id, key_hash);
    dpm::DpmNode* home = pool_->node(pool_->PlacementOf(key_hash).primary);
    st = rt_->AdminRpc(
        [home, key_hash] { return home->RemoveIndirect(0, key_hash); });
  }
  if (st.ok() || st.IsNotFound()) {
    st = Status::Ok();
    routing_.ClearReplication(key_hash);
    PushRouting();
  }
  rt_->Resume(owners, ready);
  return st;
}

mnode::ClusterMetrics ReconfigProtocol::CollectMetrics(Histogram* latency,
                                                      double epoch_us) {
  mnode::ClusterMetrics metrics;
  metrics.avg_latency_us = latency->Average();
  metrics.p99_latency_us = latency->P99();
  latency->Reset();
  std::unordered_map<uint64_t, uint64_t> key_counts;
  double mean_sum = 0.0;
  double std_sum = 0.0;
  int workers = 0;
  for (uint64_t id : rt_->ActiveKns()) {
    Mutex mu;  // workers may report concurrently
    double busy_us = 0.0;
    rt_->RunOnWorkers(id, [&](kn::KnWorker* w) {
      const kn::EpochLoad load = w->DrainEpochLoad();
      MutexLock lock(mu);
      busy_us += load.busy_us;
      for (const auto& [key, count] : load.hot_keys) {
        key_counts[key] += count;
      }
      mean_sum += load.key_freq_mean;
      std_sum += load.key_freq_stddev;
      workers++;
    });
    // The fraction of the epoch the KN's workers were busy, in [0, 1].
    const double busy = rt_->EpochBusyUs(id, busy_us);
    const double per_worker_us = epoch_us * workers_per_kn_;
    metrics.occupancy[id] =
        per_worker_us > 0 ? std::min(1.0, busy / per_worker_us) : 0.0;
  }
  if (workers > 0) {
    metrics.key_freq_mean = mean_sum / workers;
    metrics.key_freq_stddev = std_sum / workers;
  }
  for (const auto& [key, count] : key_counts) {
    metrics.hot_keys.emplace_back(key, count);
  }
  std::sort(metrics.hot_keys.begin(), metrics.hot_keys.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (metrics.hot_keys.size() > 32) metrics.hot_keys.resize(32);
  for (const auto& [key, owners] : routing_.Snapshot()->replicated) {
    metrics.replicated_keys[key] = static_cast<int>(owners.size());
  }
  return metrics;
}

mnode::PolicyAction ReconfigProtocol::RunPolicy(
    const mnode::ClusterMetrics& metrics, double now_s) {
  using Kind = mnode::PolicyAction::Kind;
  const mnode::PolicyAction action = policy_.Evaluate(metrics, now_s);
  Status st = Status::Ok();
  switch (action.kind) {
    case Kind::kAddKn:
      st = AddKn().status();
      break;
    case Kind::kRemoveKn:
      st = RemoveKn(action.kn_id);
      break;
    case Kind::kReplicateKey:
      st = Replicate(action.key_hash, action.replication_factor);
      break;
    case Kind::kDereplicateKey:
      st = Dereplicate(action.key_hash);
      break;
    case Kind::kNone:
      break;
  }
  if (!st.ok()) {
    DINOMO_LOG_STREAM(Warn) << "policy action failed: " << st.ToString();
  } else if (action.kind == Kind::kAddKn || action.kind == Kind::kRemoveKn) {
    policy_.NoteMembershipChange(now_s);  // starts the grace period
  }
  return action;
}

}  // namespace dinomo
