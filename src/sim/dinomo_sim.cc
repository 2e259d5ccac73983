#include "sim/dinomo_sim.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace dinomo {
namespace sim {

namespace {
// Fixed protocol overhead of a reconfiguration round (hash-ring updates,
// membership broadcast), us.
constexpr double kReconfigOverheadUs = 200.0;
// Failure-detection delay before the M-node reacts to a dead KN, us
// (the paper's full recovery takes ~109 ms on a 2-minute timeline; the
// experiment timelines here are ~50x shorter).
constexpr double kFailureDetectUs = 5e3;
// Extra DPM CPU per migrated key in DINOMO-N reorganization, us.
constexpr double kMigratePerKeyUs = 12.0;
// DINOMO-N reorganization is a serial copy + index-rebuild pipeline; the
// paper measures it at roughly 180 MB/s (11 s for a ~2 GB partition).
constexpr double kMigrateUsPerByte = 1.0 / 180.0;
// DPM processor time per entry re-encoded + merged during the
// re-replication repair pass after a DPM fail-stop.
constexpr double kRepairPerEntryUs = 2.0;
// Delay for a client to refresh routing after a rejection, us.
constexpr double kRoutingRefreshUs = 300.0;

DinomoSimOptions Normalized(DinomoSimOptions opt) {
  if (opt.metrics != nullptr) {
    opt.dpm.metrics = opt.metrics;
    opt.kn.metrics = opt.metrics;
  }
  return WithVariant(opt);
}

}  // namespace

DinomoSim::DinomoSim(const DinomoSimOptions& options)
    : Driver(options, "sim.dinomo", "dpm_pool.utilization",
             options.dpm.link_profile, options.dpm_threads,
             options.pipeline_depth,
             options.tracer != nullptr ? options.tracer
                                       : &obs::Tracer::Global()),
      options_(Normalized(options)),
      pool_(MakeDpmPool(options_.dpm_nodes, options_.replication_factor,
                        options_.dpm)),
      protocol_(this, pool_.get(), options_.variant, options_.kn.num_workers,
                options_.policy) {
  for (int i = 0; i < pool_->num_nodes(); ++i) {
    pool_->node(i)->merge()->SetMergeCallback(
        [this](const dpm::MergeAck& ack) { OnMergeFinished(ack); });
    pool_->node(i)->merge()->SetRelocationCallback(
        [this](int node, const std::vector<dpm::Relocation>& moves) {
          kn::DeliverRelocations(
              *protocol_.routing()->Snapshot(), node, moves,
              [this](uint64_t kn_id, int thread) -> kn::KnWorker* {
                KnSim* k = FindKn(kn_id);
                if (k == nullptr || k->failed ||
                    thread >= static_cast<int>(k->workers.size())) {
                  return nullptr;
                }
                return k->workers[thread]->worker.get();
              });
        });
    if (tracer_->enabled()) pool_->node(i)->merge()->SetTracer(tracer_);
  }

  if (!options_.faults.empty()) {
    injector_ = std::make_unique<net::FaultInjector>(options_.faults,
                                                     options_.metrics);
    // Virtual time drives the fault windows, so a schedule replays
    // identically across runs; delays must never block the sim thread.
    injector_->SetClock([this] { return engine_.now_us(); });
    injector_->set_sleep_on_delay(false);
    SetFaultInjector(pool_.get(), injector_.get());
    for (const net::FaultEvent& ev : options_.faults.events) {
      if (ev.kind == net::FaultEvent::Kind::kFailStop) {
        engine_.ScheduleAt(ev.start_us, [this] {
          const int victim = injector_->ClaimFailStop();
          if (victim >= 0) {
            DoKill(victim);
            injector_->NoteFailStopEnacted();
          }
        });
      } else if (ev.kind == net::FaultEvent::Kind::kDpmFailStop) {
        engine_.ScheduleAt(ev.start_us, [this] {
          const int victim = injector_->ClaimDpmFailStop();
          if (victim < 0) return;
          // Every worker re-resolves segment homes (FailoverRecover) at
          // its next op; RPCs stamped with the old generation bounce as
          // Unavailable, which the drivers retry.
          Status killed = protocol_.KillDpm(victim);
          if (!killed.ok()) {
            DINOMO_LOG_STREAM(Warn)
                << "dpm kill skipped: " << killed.ToString();
            return;
          }
          injector_->NoteDpmFailStopEnacted();
        });
      }
    }
  }

  protocol_.Bootstrap(options_.num_kns);
}

DinomoSim::KnSim* DinomoSim::FindKn(uint64_t kn_id) {
  for (auto& k : kns_) {
    if (k->kn_id == kn_id) return k.get();
  }
  return nullptr;
}

std::vector<uint64_t> DinomoSim::ActiveKns() const {
  std::vector<uint64_t> out;
  for (const auto& k : kns_) {
    if (!k->failed) out.push_back(k->kn_id);
  }
  return out;
}

void DinomoSim::Preload() {
  // Load-phase traffic is not part of any experiment; suspend injection
  // so the strict load-loop invariants (only Busy rejections) hold.
  SetFaultInjector(pool_.get(), nullptr);
  SettleMerges([](uint64_t) { return true; });  // the loop drains owners
  auto table = protocol_.routing()->Snapshot();
  const std::string value(options_.spec.value_size, 'p');
  for (uint64_t rec = 0; rec < options_.spec.record_count; ++rec) {
    const std::string key = workload::KeyForRecord(rec);
    const uint64_t kh = kn::KeyHash(key);
    KnSim* k = FindKn(table->PrimaryOwner(kh));
    DINOMO_CHECK(k != nullptr);
    kn::KnWorker* w =
        k->workers[table->ThreadFor(kh, k->kn_id)]->worker.get();
    kn::OpResult r;
    for (int tries = 0; tries < 100; ++tries) {
      r = w->Put(key, value);
      if (r.status.ok()) break;
      if (!r.status.IsBusy()) {
        DINOMO_LOG_STREAM(Error)
            << "preload put rejected: " << r.status.ToString();
      }
      DINOMO_CHECK(r.status.IsBusy());
      // Busy = some node hit the unmerged-segment threshold. The shared
      // FIFO merge queue can be arbitrarily deep, so nibbling at it one
      // batch at a time may never reach this owner's backlog within any
      // fixed retry budget; merge it synchronously everywhere instead
      // (with a pool the blocking node may be the key's primary *or* its
      // mirror).
      for (int n = 0; n < pool_->num_nodes(); ++n) {
        DINOMO_CHECK(pool_->node(n)->DrainOwner(w->log_owner()).ok());
      }
    }
    // A silently skipped record would surface much later as a phantom
    // lost write; the load loop must either ack every record or die.
    DINOMO_CHECK(r.status.ok());
  }
  for (auto& k : kns_) {
    for (auto& ws : k->workers) {
      kn::OpResult r = ws->worker->FlushWrites();
      DINOMO_CHECK(r.status.ok());
    }
  }
  for (int i = 0; i < pool_->num_nodes(); ++i) {
    DINOMO_CHECK(pool_->node(i)->merge()->DrainAll().ok());
  }
  // Measurement starts here: the load phase is neither in the profile
  // window nor in the M-node's first epoch.
  for (auto& k : kns_) {
    for (auto& ws : k->workers) ws->worker->DrainEpochLoad();
  }
  StartProfileWindow();
  SetFaultInjector(pool_.get(), injector_.get());
}

void DinomoSim::DrainLogs() {
  SettleMerges([](uint64_t) { return true; });
  for (auto& k : kns_) {
    if (k->failed) continue;
    for (auto& ws : k->workers) {
      Status st = ws->worker->DrainLog();
      if (!st.ok() && !st.IsBusy()) {
        DINOMO_LOG_STREAM(Warn) << "log drain failed: " << st.ToString();
      }
    }
  }
}

double DinomoSim::TryServe(const workload::WorkloadOp& op,
                           const std::string& put_value,
                           obs::TraceContext* trace, bool async_worker,
                           const std::function<void()>& retry,
                           double* start_us) {
  const double now = engine_.now_us();
  auto table = protocol_.routing()->Snapshot();
  if (table->global_ring.empty()) {
    return RetryAt(now + kRoutingRefreshUs, trace, retry);
  }
  const uint64_t kh = kn::KeyHash(op.key);
  const uint64_t kn_id = table->RouteFor(kh, salt_++);
  KnSim* k = FindKn(kn_id);
  if (k == nullptr || k->failed) {
    // Dead node: the request times out, then the client refreshes.
    return RetryAt(now + (k == nullptr ? kRoutingRefreshUs
                                       : options_.request_timeout_us),
                   trace, retry);
  }
  if (k->unavailable_until > now) {
    return RetryAt(
        std::max(now + kRoutingRefreshUs, k->unavailable_until),
        trace, retry);
  }
  const int widx = table->ThreadFor(kh, kn_id);
  WorkerSim* ws = k->workers[widx].get();

  if (trace != nullptr && ws->free_until > now) {
    // The worker is modeled busy until free_until: queue wait.
    trace->RecordWait(obs::SpanKind::kQueueWait, now, ws->free_until - now);
  }
  kn::OpResult r;
  {
    obs::ScopedTraceContext trace_scope(trace);
    switch (op.type) {
      case workload::OpType::kRead:
        r = ws->worker->Get(op.key);
        break;
      case workload::OpType::kUpdate:
      case workload::OpType::kInsert:
        r = ws->worker->Put(op.key, put_value);
        break;
      case workload::OpType::kScan: {
        std::vector<kn::ScanRow> rows;
        r = ws->worker->Scan(op.key, op.scan_len, &rows);
        break;
      }
    }
  }
  if (trace != nullptr) trace->AddOpCostRoundTrips(r.cost.round_trips);
  PumpMerges();

  if (r.status.IsBusy()) {
    // Blocked on the unmerged-segment threshold: wait for merge progress
    // on this worker's log (the log-write blocking of §4). Under fault
    // injection Busy can also be a bounced RPC with no merge ever coming,
    // so arm a timeout alongside the parked wakeup; the once-guard keeps
    // whichever fires second from re-executing the op.
    if (trace != nullptr) trace->MarkWait(obs::SpanKind::kMergeWait, now);
    auto fired = std::make_shared<bool>(false);
    auto once = [fired, retry] {
      if (*fired) return;
      *fired = true;
      retry();
    };
    ws->parked.push_back(once);
    if (injector_ != nullptr) {
      engine_.ScheduleAt(now + options_.request_timeout_us, once);
    }
    return -1.0;
  }
  if (r.status.IsWrongOwner() || r.status.IsUnavailable()) {
    return RetryAt(now + kRoutingRefreshUs, trace, retry);
  }

  // Two-sided DPM work shares the server pool with the merges. An
  // asynchronously-served op (pipelined closed-loop client, or any
  // open-loop op) holds the worker core for its CPU portion only; the
  // classic submit-and-wait client holds it until its network time ends.
  const double finish =
      Serve(r, async_worker, &ws->free_until, start_us);
  k->busy_us_epoch += ws->free_until - *start_us;
  return finish;
}

void DinomoSim::PumpMerges() {
  // All DPM nodes' processors share one modeled CPU pool (dpm_pool_),
  // matching the single merge-thread budget of the real runtime.
  for (int n = 0; n < pool_->num_nodes(); ++n) {
    dpm::DpmNode* node = pool_->node(n);
    dpm::MergeTask task;
    while (node->merge()->TryDequeue(&task)) {
      const double cpu = node->merge()->Execute(task);
      const double done = servers_.Reserve(engine_.now_us(), cpu);
      const uint64_t id = next_merge_id_++;
      merging_.emplace(id, InflightMerge{node, task, done});
      engine_.ScheduleAt(done, [this, id] {
        auto it = merging_.find(id);
        if (it == merging_.end()) return;  // settled early
        const InflightMerge m = it->second;
        merging_.erase(it);
        m.node->merge()->Finish(m.task);
        PumpMerges();
      });
    }
  }
}

void DinomoSim::OnMergeFinished(const dpm::MergeAck& ack) {
  KnSim* k = FindKn(ack.owner >> 8);
  if (k == nullptr) return;
  const int widx = static_cast<int>(ack.owner & 0xff);
  if (widx >= static_cast<int>(k->workers.size())) return;
  WorkerSim* ws = k->workers[widx].get();
  ws->worker->OnOwnerBatchMerged(ack.node, ack.base);
  // Wake writers blocked on the threshold.
  std::deque<std::function<void()>> parked;
  parked.swap(ws->parked);
  for (auto& retry : parked) {
    engine_.ScheduleAfter(0.0, std::move(retry));
  }
}

// ----- Open-loop engine -----

void DinomoSim::RunOpenLoop(const OpenLoopOptions& opts, double duration_us,
                            double warmup_us) {
  DINOMO_CHECK(opts.source != nullptr);
  // The autoscaler and the M-node's metrics collection both consume, and
  // restart, the sim's per-epoch accumulators (KnSim::busy_us_epoch and
  // interval_latency_); running both would corrupt both.
  DINOMO_CHECK(!opts.autoscale || !mnode_enabled_);
  const double now = engine_.now_us();
  open_source_ = opts.source;
  open_stats_ = std::make_unique<OpenLoopStats>(options_.stats_window_us);
  open_value_.assign(opts.value_size, 'o');
  run_until_ = now + duration_us;
  warmup_until_ = now + warmup_us;
  open_exhausted_ = false;
  interval_latency_.Reset();
  open_interval_offered_ = 0;
  if (opts.autoscale) {
    autoscaler_ = std::make_unique<mnode::SloAutoscaler>(opts.autoscaler);
    autoscaler_interval_us_ = opts.autoscaler_interval_us;
    engine_.ScheduleAfter(autoscaler_interval_us_,
                          [this] { AutoscalerEval(); });
  }
  ScheduleNextArrival();
  engine_.RunUntil(run_until_);
  open_stats_->in_flight_at_end = open_stats_->offered -
                                  open_stats_->completed -
                                  open_stats_->abandoned;
  if (autoscaler_ != nullptr) {
    open_stats_->scale_ups = autoscaler_->scale_ups();
    open_stats_->scale_downs = autoscaler_->scale_downs();
  }
  PublishRunGauges(*open_stats_);
}

void DinomoSim::ScheduleNextArrival() {
  if (open_exhausted_) return;
  load::TimedOp timed;
  if (!open_source_->Next(&timed) || timed.intended_us >= run_until_) {
    open_exhausted_ = true;
    return;
  }
  // Arrivals are injected at their intended instant — never earlier, and
  // never held back by completions (that is the whole point). An arrival
  // stamped in the past (e.g. a replayed trace older than now) goes in
  // immediately; its lateness is charged to intended latency.
  const double at = std::max(timed.intended_us, engine_.now_us());
  engine_.ScheduleAt(at, [this, timed] {
    OpenLoopStats& stats = *open_stats_;
    stats.offered++;
    stats.windows.RecordArrival(timed.intended_us);
    open_interval_offered_++;
    auto op = std::make_shared<InflightOp>();
    op->op = timed.op;
    op->intended_us = timed.intended_us;
    Dispatch(op);
    ScheduleNextArrival();
  });
}

void DinomoSim::AutoscalerEval() {
  const double now = engine_.now_us();
  mnode::SloSample sample;
  sample.p99_us = interval_latency_.P99();
  sample.completed = interval_latency_.count();
  sample.offered = open_interval_offered_;
  sample.active_kns = NumActiveKns();
  interval_latency_.Reset();
  open_interval_offered_ = 0;
  const mnode::SloAutoscaler::Decision decision =
      autoscaler_->Observe(sample, now / 1e6);
  if (decision.delta_kns > 0) {
    for (int i = 0; i < decision.delta_kns; ++i) (void)protocol_.AddKn();
  } else {
    for (int i = 0; i < -decision.delta_kns; ++i) {
      // Retire the KN that did the least work since the last eval (the
      // first such one); its keys rehash onto the survivors.
      const KnSim* victim = nullptr;
      for (const auto& k : kns_) {
        if (!k->failed && (victim == nullptr ||
                           k->busy_us_epoch < victim->busy_us_epoch)) {
          victim = k.get();
        }
      }
      if (victim != nullptr) (void)protocol_.RemoveKn(victim->kn_id);
    }
  }
  // Occupancy counters only feed victim choice here; restart them so the
  // next decision reflects post-change traffic.
  for (const auto& k : kns_) k->busy_us_epoch = 0.0;
  open_stats_->kn_trajectory.emplace_back(now, NumActiveKns());
  if (now < run_until_) {
    engine_.ScheduleAfter(autoscaler_interval_us_,
                          [this] { AutoscalerEval(); });
  }
}

void DinomoSim::StartProfileWindow() { profile_base_ = CountProfile(); }

DinomoSim::ProfileCounts DinomoSim::CountProfile() const {
  ProfileCounts c;
  for (const auto& k : kns_) {
    for (const auto& ws : k->workers) {
      const kn::WorkerStats stats = ws->worker->SnapshotStats();
      c.value_hits += stats.value_hits;
      c.hits += stats.value_hits + stats.shortcut_hits;
      c.lookups += stats.value_hits + stats.shortcut_hits + stats.misses;
      // Round trips per *request*: reads, writes and scans all count.
      c.requests += stats.reads + stats.writes + stats.scans;
      c.scans += stats.scans;
    }
  }
  for (int n = 0; n < pool_->num_nodes(); ++n) {
    c.rts += pool_->node(n)->fabric()->TotalRoundTrips();
  }
  return c;
}

DinomoSim::Profile DinomoSim::CollectProfile() const {
  // Every count is monotonic and no worker or DPM node is ever destroyed,
  // so the window is the difference of the sums.
  const ProfileCounts now = CountProfile();
  const ProfileCounts& base = profile_base_;
  const uint64_t value_hits = now.value_hits - base.value_hits;
  const uint64_t hits = now.hits - base.hits;
  Profile p;
  p.ops = now.lookups - base.lookups;
  p.scans = now.scans - base.scans;
  p.requests = now.requests - base.requests;
  p.round_trips = now.rts - base.rts;
  if (p.ops > 0) p.cache_hit_ratio = static_cast<double>(hits) / p.ops;
  if (hits > 0) p.value_hit_share = static_cast<double>(value_hits) / hits;
  if (p.requests > 0) {
    p.rts_per_op = static_cast<double>(p.round_trips) / p.requests;
  }
  return p;
}

// ----- Elasticity hooks -----

void DinomoSim::ScheduleKill(double at_us, int kn_index) {
  engine_.ScheduleAt(at_us, [this, kn_index] { DoKill(kn_index); });
}

void DinomoSim::EnableMnode() {
  if (mnode_enabled_) return;
  mnode_enabled_ = true;
  epoch_started_ = engine_.now_us();
  engine_.ScheduleAfter(options_.mnode_epoch_us, [this] { MnodeEpoch(); });
}

void DinomoSim::MnodeEpoch() {
  const double now = engine_.now_us();
  mnode::ClusterMetrics metrics =
      protocol_.CollectMetrics(&interval_latency_, now - epoch_started_);
  epoch_started_ = now;
  protocol_.RunPolicy(metrics, now / 1e6);
  if (now < run_until_) {
    engine_.ScheduleAfter(options_.mnode_epoch_us, [this] { MnodeEpoch(); });
  }
}

void DinomoSim::DoKill(int kn_index) {
  const std::vector<uint64_t> active = ActiveKns();
  if (kn_index < 0 || kn_index >= static_cast<int>(active.size())) return;
  DINOMO_CHECK(protocol_.KillKn(active[kn_index]).ok());
}

// ----- Runtime -----

uint64_t DinomoSim::StartKn() {
  auto kn_sim = std::make_unique<KnSim>();
  kn_sim->kn_id = next_kn_id_++;
  kn::KnOptions kno = options_.kn;
  kno.kn_id = kn_sim->kn_id;
  kno.fabric_node = static_cast<int>(kn_sim->kn_id % net::Fabric::kMaxNodes);
  for (int w = 0; w < options_.kn.num_workers; ++w) {
    auto ws = std::make_unique<WorkerSim>();
    ws->worker = std::make_unique<kn::KnWorker>(kno, w, pool_.get());
    kn_sim->workers.push_back(std::move(ws));
  }
  kns_.push_back(std::move(kn_sim));
  return kns_.back()->kn_id;
}

Status DinomoSim::OnFailureDetected(std::function<Status()> recover) {
  engine_.ScheduleAfter(kFailureDetectUs, [recover = std::move(recover)] {
    Status st = recover();
    if (!st.ok()) {
      DINOMO_LOG_STREAM(Error) << "failure recovery: " << st.ToString();
    }
    DINOMO_CHECK(st.ok());
  });
  return Status::Ok();
}

void DinomoSim::StopKn(uint64_t kn_id) {
  KnSim* k = FindKn(kn_id);
  if (k != nullptr) k->failed = true;  // departed
}

double DinomoSim::EpochBusyUs(uint64_t kn_id, double) {
  // The timing model's core busy time, not the workers' CPU estimate.
  KnSim* k = FindKn(kn_id);
  DINOMO_CHECK(k != nullptr);
  return std::exchange(k->busy_us_epoch, 0.0);
}

void DinomoSim::RunOnWorkers(uint64_t kn_id,
                             const std::function<void(kn::KnWorker*)>& fn) {
  KnSim* k = FindKn(kn_id);
  if (k == nullptr || k->failed) return;
  for (auto& ws : k->workers) fn(ws->worker.get());
}

double DinomoSim::Quiesce(const std::vector<uint64_t>& kn_ids) {
  const double now = engine_.now_us();
  for (uint64_t id : kn_ids) {
    // Busy leaves a batch buffered; it flushes once the KN resumes.
    RunOnWorkers(id, [](kn::KnWorker* w) { (void)w->FlushWrites(); });
  }
  // Synchronous merge of every runnable batch, charged to the DPM
  // processors. A batch already executing finishes at its own event.
  double done = now + kReconfigOverheadUs;
  for (int n = 0; n < pool_->num_nodes(); ++n) {
    dpm::MergeService* merge = pool_->node(n)->merge();
    dpm::MergeTask task;
    while (merge->TryDequeue(&task)) {
      done = std::max(done, servers_.Reserve(now, merge->Execute(task)));
      merge->Finish(task);
    }
  }
  return done;
}

void DinomoSim::Resume(const std::vector<uint64_t>& kn_ids, double ready_us) {
  for (uint64_t id : kn_ids) {
    KnSim* k = FindKn(id);
    if (k == nullptr || k->failed) continue;
    k->unavailable_until = std::max(k->unavailable_until, ready_us);
  }
}

double DinomoSim::SettleMerges(const std::function<bool(uint64_t)>& which) {
  // A batch PumpMerges dequeued keeps its owner busy until its Finish
  // event; a synchronous drain on this thread would wait for that event
  // forever. Finish it now, charge its remaining time to the ready time,
  // and let the scheduled event find nothing to do.
  double ready = engine_.now_us();
  for (auto it = merging_.begin(); it != merging_.end();) {
    if (!which(it->second.task.owner)) {
      ++it;
      continue;
    }
    const InflightMerge m = it->second;
    it = merging_.erase(it);
    ready = std::max(ready, m.done_us);
    m.node->merge()->Finish(m.task);
  }
  return ready;
}

double DinomoSim::ChargeCopy(uint64_t bytes, double dpm_cpu_us) {
  const double now = engine_.now_us();
  const double done =
      std::max(now + kReconfigOverheadUs, link_.Reserve(now, bytes));
  return std::max(done, servers_.Reserve(now, dpm_cpu_us));
}

double DinomoSim::ChargeMigration(uint64_t bytes, uint64_t keys) {
  return std::max(ChargeCopy(bytes, keys * kMigratePerKeyUs),
                  engine_.now_us() + bytes * kMigrateUsPerByte);
}

double DinomoSim::ChargeRepair(const dpm::DpmPool::RepairStats& repair) {
  if (repair.bytes_copied == 0) return engine_.now_us() + kReconfigOverheadUs;
  return ChargeCopy(repair.bytes_copied,
                    repair.entries_copied * kRepairPerEntryUs);
}

}  // namespace sim
}  // namespace dinomo
