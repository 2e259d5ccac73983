#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace dinomo {
namespace obs {

// ----- HistogramStats -----

HistogramStats HistogramStats::From(const Histogram& h) {
  HistogramStats s;
  s.count = h.count();
  if (s.count == 0) return s;
  s.sum = h.sum();
  s.min = h.min();
  s.max = h.max();
  s.avg = h.Average();
  s.p50 = h.Percentile(50.0);
  s.p90 = h.Percentile(90.0);
  s.p99 = h.Percentile(99.0);
  s.p999 = h.Percentile(99.9);
  return s;
}

// ----- MetricsSnapshot -----

MetricsSnapshot MetricsSnapshot::DeltaSince(const MetricsSnapshot& base) const {
  MetricsSnapshot d;
  for (const auto& [name, value] : counters) {
    auto it = base.counters.find(name);
    d.counters[name] = value - (it == base.counters.end() ? 0 : it->second);
  }
  d.gauges = gauges;
  d.histograms = histograms;
  return d;
}

Json MetricsSnapshot::ToJson() const {
  Json root = Json::Object();
  Json jc = Json::Object();
  for (const auto& [name, value] : counters) jc.Set(name, Json(value));
  root.Set("counters", std::move(jc));

  Json jg = Json::Object();
  for (const auto& [name, value] : gauges) jg.Set(name, Json(value));
  root.Set("gauges", std::move(jg));

  Json jh = Json::Object();
  for (const auto& [name, hs] : histograms) {
    Json one = Json::Object();
    one.Set("count", Json(hs.count));
    one.Set("sum", Json(hs.sum));
    one.Set("min", Json(hs.min));
    one.Set("max", Json(hs.max));
    one.Set("avg", Json(hs.avg));
    one.Set("p50", Json(hs.p50));
    one.Set("p90", Json(hs.p90));
    one.Set("p99", Json(hs.p99));
    one.Set("p999", Json(hs.p999));
    jh.Set(name, std::move(one));
  }
  root.Set("histograms", std::move(jh));
  return root;
}

std::string MetricsSnapshot::ToCsv() const {
  std::string out = "kind,name,value\n";
  char buf[64];
  auto add_num = [&](const char* kind, const std::string& name, double v) {
    out += kind;
    out.push_back(',');
    out += name;
    out.push_back(',');
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
    out.push_back('\n');
  };
  for (const auto& [name, value] : counters) {
    out += "counter,";
    out += name;
    out.push_back(',');
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    out += buf;
    out.push_back('\n');
  }
  for (const auto& [name, value] : gauges) {
    add_num("gauge", name, value);
  }
  for (const auto& [name, hs] : histograms) {
    add_num("histogram", name + ".count", static_cast<double>(hs.count));
    add_num("histogram", name + ".sum", hs.sum);
    add_num("histogram", name + ".min", hs.min);
    add_num("histogram", name + ".max", hs.max);
    add_num("histogram", name + ".avg", hs.avg);
    add_num("histogram", name + ".p50", hs.p50);
    add_num("histogram", name + ".p90", hs.p90);
    add_num("histogram", name + ".p99", hs.p99);
    add_num("histogram", name + ".p999", hs.p999);
  }
  return out;
}

bool MetricsSnapshot::FromJson(const Json& json, MetricsSnapshot* out) {
  if (!json.is_object()) return false;
  *out = MetricsSnapshot();
  if (const Json* jc = json.Find("counters")) {
    if (!jc->is_object()) return false;
    for (const auto& [name, v] : jc->members()) {
      if (!v.is_number()) return false;
      out->counters[name] = v.AsUint64();
    }
  }
  if (const Json* jg = json.Find("gauges")) {
    if (!jg->is_object()) return false;
    for (const auto& [name, v] : jg->members()) {
      if (!v.is_number()) return false;
      out->gauges[name] = v.AsDouble();
    }
  }
  if (const Json* jh = json.Find("histograms")) {
    if (!jh->is_object()) return false;
    for (const auto& [name, v] : jh->members()) {
      if (!v.is_object()) return false;
      HistogramStats hs;
      auto num = [&](const char* key, double fallback = 0.0) {
        const Json* f = v.Find(key);
        return f != nullptr ? f->AsDouble(fallback) : fallback;
      };
      hs.count = static_cast<uint64_t>(num("count"));
      hs.sum = num("sum");
      hs.min = num("min");
      hs.max = num("max");
      hs.avg = num("avg");
      hs.p50 = num("p50");
      hs.p90 = num("p90");
      hs.p99 = num("p99");
      hs.p999 = num("p999");
      out->histograms[name] = hs;
    }
  }
  return true;
}

bool MetricsSnapshot::FromJsonString(const std::string& text,
                                     MetricsSnapshot* out) {
  Json json;
  if (!Json::Parse(text, &json)) return false;
  return FromJson(json, out);
}

// ----- MetricsRegistry -----

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* g = new MetricsRegistry();  // never destroyed
  return *g;
}

Counter& MetricsRegistry::GetCounterLocked(const std::string& name) {
  auto it = owned_counter_names_.find(name);
  if (it != owned_counter_names_.end()) return *it->second;
  owned_counters_.emplace_back();
  Counter* c = &owned_counters_.back();
  owned_counter_names_.emplace(name, c);
  entries_.push_back({name, Kind::kCounter, c});
  return *c;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  return GetCounterLocked(name);
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto it = owned_gauge_names_.find(name);
  if (it != owned_gauge_names_.end()) return *it->second;
  owned_gauges_.emplace_back();
  Gauge* g = &owned_gauges_.back();
  owned_gauge_names_.emplace(name, g);
  entries_.push_back({name, Kind::kGauge, g});
  return *g;
}

HistogramMetric& MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  auto it = owned_histogram_names_.find(name);
  if (it != owned_histogram_names_.end()) return *it->second;
  owned_histograms_.emplace_back();
  HistogramMetric* h = &owned_histograms_.back();
  owned_histogram_names_.emplace(name, h);
  entries_.push_back({name, Kind::kHistogram, h});
  return *h;
}

void MetricsRegistry::RegisterCounter(const std::string& name, Counter* c) {
  MutexLock lock(mu_);
  entries_.push_back({name, Kind::kCounter, c});
}

void MetricsRegistry::RegisterGauge(const std::string& name, Gauge* g) {
  MutexLock lock(mu_);
  entries_.push_back({name, Kind::kGauge, g});
}

void MetricsRegistry::RegisterHistogram(const std::string& name,
                                        HistogramMetric* h) {
  MutexLock lock(mu_);
  entries_.push_back({name, Kind::kHistogram, h});
}

void MetricsRegistry::Unregister(const void* metric) {
  MutexLock lock(mu_);
  auto dead = std::stable_partition(
      entries_.begin(), entries_.end(),
      [metric](const Entry& e) { return e.metric != metric; });
  for (auto it = dead; it != entries_.end(); ++it) {
    switch (it->kind) {
      case Kind::kCounter:
        retired_counters_[it->name] +=
            static_cast<const Counter*>(it->metric)->value();
        break;
      case Kind::kGauge:
        retired_gauges_[it->name] =
            static_cast<const Gauge*>(it->metric)->value();
        break;
      case Kind::kHistogram:
        retired_histograms_[it->name].Merge(
            static_cast<const HistogramMetric*>(it->metric)->snapshot());
        break;
    }
  }
  entries_.erase(dead, entries_.end());
}

uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  MutexLock lock(mu_);
  uint64_t total = 0;
  auto it = retired_counters_.find(name);
  if (it != retired_counters_.end()) total = it->second;
  for (const Entry& e : entries_) {
    if (e.kind == Kind::kCounter && e.name == name) {
      total += static_cast<const Counter*>(e.metric)->value();
    }
  }
  return total;
}

double MetricsRegistry::GaugeValue(std::string_view name) const {
  MutexLock lock(mu_);
  double value = 0.0;
  auto it = retired_gauges_.find(name);
  if (it != retired_gauges_.end()) value = it->second;
  for (const Entry& e : entries_) {
    if (e.kind == Kind::kGauge && e.name == name) {
      value = static_cast<const Gauge*>(e.metric)->value();
    }
  }
  return value;
}

bool MetricsRegistry::Has(std::string_view name) const {
  MutexLock lock(mu_);
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  snap.counters.insert(retired_counters_.begin(), retired_counters_.end());
  snap.gauges.insert(retired_gauges_.begin(), retired_gauges_.end());
  std::map<std::string, Histogram> merged(retired_histograms_.begin(),
                                          retired_histograms_.end());
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        snap.counters[e.name] +=
            static_cast<const Counter*>(e.metric)->value();
        break;
      case Kind::kGauge:
        snap.gauges[e.name] = static_cast<const Gauge*>(e.metric)->value();
        break;
      case Kind::kHistogram:
        merged[e.name].Merge(
            static_cast<const HistogramMetric*>(e.metric)->snapshot());
        break;
    }
  }
  for (const auto& [name, hist] : merged) {
    snap.histograms[name] = HistogramStats::From(hist);
  }
  return snap;
}

// ----- Scope / MetricGroup -----

std::string Scope::Name(std::string_view leaf) const {
  if (prefix.empty()) return std::string(leaf);
  std::string full = prefix;
  full.push_back('.');
  full.append(leaf);
  return full;
}

MetricGroup::MetricGroup(Scope scope) : scope_(std::move(scope)) {}

MetricGroup::~MetricGroup() {
  MetricsRegistry& reg = scope_.reg();
  for (Counter& c : counters_) reg.Unregister(&c);
  for (Gauge& g : gauges_) reg.Unregister(&g);
  for (HistogramMetric& h : histograms_) reg.Unregister(&h);
}

Counter& MetricGroup::counter(std::string_view leaf) {
  MutexLock lock(mu_);
  auto it = counter_names_.find(leaf);
  if (it != counter_names_.end()) return *it->second;
  counters_.emplace_back();
  Counter* c = &counters_.back();
  counter_names_.emplace(std::string(leaf), c);
  scope_.reg().RegisterCounter(scope_.Name(leaf), c);
  return *c;
}

Gauge& MetricGroup::gauge(std::string_view leaf) {
  MutexLock lock(mu_);
  auto it = gauge_names_.find(leaf);
  if (it != gauge_names_.end()) return *it->second;
  gauges_.emplace_back();
  Gauge* g = &gauges_.back();
  gauge_names_.emplace(std::string(leaf), g);
  scope_.reg().RegisterGauge(scope_.Name(leaf), g);
  return *g;
}

HistogramMetric& MetricGroup::histogram(std::string_view leaf) {
  MutexLock lock(mu_);
  auto it = histogram_names_.find(leaf);
  if (it != histogram_names_.end()) return *it->second;
  histograms_.emplace_back();
  HistogramMetric* h = &histograms_.back();
  histogram_names_.emplace(std::string(leaf), h);
  scope_.reg().RegisterHistogram(scope_.Name(leaf), h);
  return *h;
}

}  // namespace obs
}  // namespace dinomo
