#include "sim/driver.h"

#include <algorithm>

namespace dinomo {
namespace sim {

Driver::Driver(const DriverOptions& options, const char* metrics_scope,
               const char* servers_gauge, const net::LinkProfile& link,
               int servers, int pipeline_depth, obs::Tracer* tracer)
    : tracer_(tracer),
      metrics_(obs::Scope(metrics_scope, options.metrics)),
      op_latency_us_(metrics_.histogram("op_latency_us")),
      throughput_mops_(metrics_.gauge("throughput_mops")),
      link_utilization_(metrics_.gauge("link.utilization")),
      servers_utilization_(metrics_.gauge(servers_gauge)),
      link_profile_(link),
      link_(link.bandwidth_gbps),
      servers_(servers),
      closed_stats_(options.stats_window_us),
      spec_(options.spec),
      seed_(options.seed),
      pipeline_depth_(std::max(1, pipeline_depth)) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    // Virtual-time tracing: timestamps come from the engine clock, so a
    // trace replays bit-identically for a given seed.
    trace_pid_ = tracer_->NextProcessId();
    tracer_->SetClock([this] { return engine_.now_us(); });
    trace_clock_installed_ = true;
  }
  streams_.resize(options.client_threads);
  for (int i = 0; i < options.client_threads; ++i) {
    streams_[i].gen =
        std::make_unique<workload::WorkloadGenerator>(spec_, seed_ + i);
  }
}

Driver::~Driver() {
  if (trace_clock_installed_) {
    // End in-flight traces while the virtual clock is still installed,
    // then restore the wall clock for whoever uses the tracer next.
    traces_.clear();
    tracer_->SetClock(nullptr);
  }
}

void Driver::Run(double duration_us, double warmup_us) {
  const double now = engine_.now_us();
  run_until_ = now + duration_us;
  warmup_until_ = now + warmup_us;
  for (int i = 0; i < static_cast<int>(streams_.size()); ++i) {
    // (Re)prime every stream, not just inactive ones. IssueNext is a
    // no-op while a stream's window is full, but a stream whose last
    // completion landed exactly on a previous run's end boundary has an
    // empty window and no pending event — skipping it here would leave it
    // silent for the rest of the run.
    streams_[i].active = true;
    IssueNext(i);
  }
  engine_.RunUntil(run_until_);
  PublishRunGauges(closed_stats_);
}

void Driver::PublishRunGauges(const RunStats& stats) {
  throughput_mops_.Set(Mops(stats));
  const double elapsed = engine_.now_us();
  link_utilization_.Set(link_.Utilization(elapsed));
  servers_utilization_.Set(servers_.Utilization(elapsed));
}

double Driver::Serve(const kn::OpResult& r, bool async_worker,
                     double* free_until, double* start_us) {
  const double start = std::max(engine_.now_us(), *free_until);
  *start_us = start;
  const double cpu_done = start + r.cpu_us;
  double after_link = cpu_done;
  if (r.cost.wire_bytes > 0) {
    after_link = link_.Reserve(cpu_done, r.cost.wire_bytes);
  }
  double finish = after_link +
                  r.cost.round_trips * link_profile_.rt_latency_us +
                  r.cost.extra_latency_us;
  if (r.cost.dpm_cpu_us > 0) {
    finish = std::max(finish, servers_.Reserve(cpu_done, r.cost.dpm_cpu_us) +
                                  link_profile_.rt_latency_us);
  }
  *free_until = async_worker ? cpu_done : finish;
  return finish;
}

void Driver::IssueNext(int stream_idx) {
  Stream& s = streams_[stream_idx];
  // Pipelined closed loop: top the stream's window back up to
  // pipeline_depth. Depth 1 degenerates to issue-one-await-one.
  while (s.active && engine_.now_us() < run_until_ &&
         s.in_flight < pipeline_depth_) {
    auto op = std::make_shared<InflightOp>();
    op->op = s.gen->Next();
    op->stream = stream_idx;
    op->intended_us = engine_.now_us();
    s.in_flight++;
    Dispatch(op);
  }
}

double Driver::RetryAt(double at_us, obs::TraceContext* trace,
                       const std::function<void()>& retry) {
  if (trace != nullptr) {
    trace->MarkWait(obs::SpanKind::kBackoff, engine_.now_us());
  }
  engine_.ScheduleAt(at_us, retry);
  return -1.0;
}

void Driver::Dispatch(const std::shared_ptr<InflightOp>& op) {
  if (op->attempt == 0 && tracer_ != nullptr && tracer_->ShouldSample()) {
    const workload::OpType type = op->op.type;
    traces_.push_back(std::make_unique<obs::TraceContext>(
        tracer_, type == workload::OpType::kRead   ? "get"
                 : type == workload::OpType::kScan ? "scan"
                                                   : "put"));
    traces_.back()->set_pid(trace_pid_);
    op->trace = traces_.back().get();
  }
  const bool closed = op->stream != kOpenLoop;
  if (closed && !streams_[op->stream].active) {
    // Deactivated (load change) with this op still rescheduling: drop it
    // and release its window slot so a later reactivation starts clean.
    streams_[op->stream].in_flight--;
    ReleaseTrace(op->trace);
    return;
  }
  const double now = engine_.now_us();
  if (op->trace != nullptr) op->trace->FlushWait(now);
  if (op->attempt > 100) {
    // Give up on this op (e.g. prolonged outage) so neither loop wedges.
    // A closed-loop stream counts it complete and issues its next op.
    if (closed) {
      closed_stats_.abandoned++;
      op->dispatch_us = op->start_us = now;  // never served
      Complete(*op, now);
    } else {
      open_stats_->abandoned++;
      ReleaseTrace(op->trace);
    }
    return;
  }
  // Queue wait measures from the dispatch that got served; every earlier
  // rejected attempt's wait lands only in intended latency.
  op->dispatch_us = now;
  auto retry = [this, op] {
    op->attempt++;
    Dispatch(op);
  };
  const double finish = TryServe(
      op->op, closed ? streams_[op->stream].gen->Value() : open_value_,
      op->trace, /*async_worker=*/!closed || pipeline_depth_ > 1,
      retry, &op->start_us);
  if (finish < 0) return;
  engine_.ScheduleAt(finish, [this, op, finish] { Complete(*op, finish); });
}

void Driver::ReleaseTrace(obs::TraceContext* trace) {
  auto it = std::find_if(traces_.begin(), traces_.end(),
                         [trace](const auto& t) { return t.get() == trace; });
  if (it != traces_.end()) traces_.erase(it);  // ~TraceContext ends it
}

void Driver::Complete(const InflightOp& op, double finish) {
  ReleaseTrace(op.trace);
  const bool closed = op.stream != kOpenLoop;
  RunStats& stats = closed ? closed_stats_ : *open_stats_;
  stats.completed++;
  const double latency = finish - op.intended_us;
  stats.windows.Record(finish, latency);
  interval_latency_.Add(latency);
  if (finish >= warmup_until_) {
    stats.intended_latency.Add(latency);
    stats.service_latency.Add(finish - op.start_us);
    stats.queue_wait.Add(op.start_us - op.dispatch_us);
    stats.completed_after_warmup++;
    op_latency_us_.Record(latency);
  }
  if (closed) {
    streams_[op.stream].in_flight--;
    IssueNext(op.stream);
  }
}


void Driver::ScheduleLoadChange(double at_us, int client_threads) {
  engine_.ScheduleAt(at_us, [this, client_threads] {
    const int current = static_cast<int>(streams_.size());
    // Reactivate parked streams first: a load drop deactivates streams
    // without removing them (they still count in streams_.size()), so a
    // later rise back to (or below) the old count must wake them.
    for (int i = 0; i < std::min(client_threads, current); ++i) {
      if (!streams_[i].active) {
        streams_[i].active = true;
        IssueNext(i);
      }
    }
    if (client_threads > current) {
      for (int i = current; i < client_threads; ++i) {
        Stream s;
        s.gen = std::make_unique<workload::WorkloadGenerator>(
            spec_, seed_ + 7000 + i);
        s.active = true;
        streams_.push_back(std::move(s));
        IssueNext(static_cast<int>(streams_.size()) - 1);
      }
    } else {
      for (int i = client_threads; i < current; ++i) {
        streams_[i].active = false;  // dies after its in-flight op
      }
    }
  });
}

void Driver::ScheduleWorkloadChange(double at_us,
                                    const workload::WorkloadSpec& spec) {
  engine_.ScheduleAt(at_us, [this, spec] {
    spec_ = spec;
    for (size_t i = 0; i < streams_.size(); ++i) {
      streams_[i].gen = std::make_unique<workload::WorkloadGenerator>(
          spec, seed_ + 5000 + i);
    }
  });
}

}  // namespace sim
}  // namespace dinomo
