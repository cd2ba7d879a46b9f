#include "obs/metrics.h"

#include <algorithm>
#include <atomic>

namespace robotune::obs {

namespace {

MetricsSnapshot filter_snapshot(const MetricsSnapshot& in, bool runtime) {
  MetricsSnapshot out;
  for (const auto& [name, v] : in.counters) {
    if (is_runtime_metric(name) == runtime) out.counters.emplace(name, v);
  }
  for (const auto& [name, v] : in.gauges) {
    if (is_runtime_metric(name) == runtime) out.gauges.emplace(name, v);
  }
  for (const auto& [name, v] : in.histograms) {
    if (is_runtime_metric(name) == runtime) out.histograms.emplace(name, v);
  }
  return out;
}

}  // namespace

MetricsSnapshot MetricsSnapshot::logical() const {
  return filter_snapshot(*this, /*runtime=*/false);
}

MetricsSnapshot MetricsSnapshot::runtime() const {
  return filter_snapshot(*this, /*runtime=*/true);
}

std::string session_prefix(std::uint64_t session_id) {
  return std::string(kSessionPrefix) + std::to_string(session_id) + "/";
}

MetricsSnapshot MetricsSnapshot::session(std::uint64_t session_id) const {
  const std::string prefix = session_prefix(session_id);
  MetricsSnapshot out;
  const auto strip = [&prefix](const std::string& name) {
    return name.substr(prefix.size());
  };
  for (const auto& [name, v] : counters) {
    if (name.starts_with(prefix)) out.counters.emplace(strip(name), v);
  }
  for (const auto& [name, v] : gauges) {
    if (name.starts_with(prefix)) out.gauges.emplace(strip(name), v);
  }
  for (const auto& [name, v] : histograms) {
    if (name.starts_with(prefix)) out.histograms.emplace(strip(name), v);
  }
  return out;
}

const std::vector<double>& seconds_buckets() {
  static const std::vector<double> bounds = {0.5, 1.0,   2.0,   5.0,  10.0,
                                             20.0, 50.0, 100.0, 200.0, 480.0,
                                             600.0, 1200.0};
  return bounds;
}

struct MetricsRegistry::Shard {
  /// Taken only by the owning thread (per write) and by snapshot()/
  /// reset() (per merge), so writes never contend with each other —
  /// the lock exists purely to make live snapshots coherent per shard.
  std::mutex mutex;
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, HistogramData, std::less<>> histograms;

  void clear() {
    std::scoped_lock lock(mutex);
    counters.clear();
    histograms.clear();
  }
};

namespace {

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// One thread-local entry per (thread, registry) pair.  Keyed by the
/// registry's process-unique id — never its address — so a registry
/// destroyed and another allocated at the same address can never pick up
/// a stale shard.  The registry owns the shard (shared_ptr), so a thread
/// exiting never invalidates data a later snapshot() needs.
struct TlsEntry {
  std::uint64_t registry_id = 0;
  MetricsRegistry::Shard* shard = nullptr;
};
thread_local std::vector<TlsEntry> tls_shards;

/// Session id attached to the calling thread (0 = none).  A plain
/// thread_local — ScopedSession saves/restores it, ThreadPool::submit
/// forwards it to worker threads.
thread_local std::uint64_t tls_session_id = 0;

void bucket_observe(HistogramData& h, double value,
                    const std::vector<double>& bounds) {
  if (h.bounds.empty()) {
    h.bounds = bounds;
    h.counts.assign(bounds.size() + 1, 0);
  }
  const auto it =
      std::lower_bound(h.bounds.begin(), h.bounds.end(), value);
  h.counts[static_cast<std::size_t>(it - h.bounds.begin())] += 1;
  h.total += 1;
}

}  // namespace

MetricsRegistry::MetricsRegistry() : id_(next_registry_id()) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  for (const auto& entry : tls_shards) {
    if (entry.registry_id == id_) return *entry.shard;
  }
  auto shard = std::make_shared<Shard>();
  {
    std::scoped_lock lock(mutex_);
    shards_.push_back(shard);
  }
  tls_shards.push_back({id_, shard.get()});
  return *shard;
}

namespace {

void add_to(std::map<std::string, std::uint64_t, std::less<>>& counters,
            std::string_view name, std::uint64_t delta) {
  const auto it = counters.find(name);
  if (it != counters.end()) {
    it->second += delta;
  } else {
    counters.emplace(std::string(name), delta);
  }
}

void observe_into(std::map<std::string, HistogramData, std::less<>>& hists,
                  std::string_view name, double value,
                  const std::vector<double>& bounds) {
  const auto it = hists.find(name);
  if (it != hists.end()) {
    bucket_observe(it->second, value, bounds);
  } else {
    bucket_observe(
        hists.emplace(std::string(name), HistogramData{}).first->second,
        value, bounds);
  }
}

}  // namespace

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  Shard& shard = local_shard();
  std::scoped_lock lock(shard.mutex);
  auto& counters = shard.counters;
  add_to(counters, name, delta);
  // Duplicate logical events into the active session scope, if any, so a
  // multi-session process can attribute them (see ScopedSession).
  if (tls_session_id != 0 && !is_runtime_metric(name)) {
    add_to(counters, session_prefix(tls_session_id).append(name), delta);
  }
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  std::scoped_lock lock(mutex_);
  const auto set = [this](std::string_view key, double v) {
    const auto it = gauges_.find(key);
    if (it != gauges_.end()) {
      it->second = v;
    } else {
      gauges_.emplace(std::string(key), v);
    }
  };
  set(name, value);
  if (tls_session_id != 0 && !is_runtime_metric(name)) {
    set(session_prefix(tls_session_id).append(name), value);
  }
}

void MetricsRegistry::observe(std::string_view name, double value) {
  observe(name, value, seconds_buckets());
}

void MetricsRegistry::observe(std::string_view name, double value,
                              const std::vector<double>& bounds) {
  Shard& shard = local_shard();
  std::scoped_lock lock(shard.mutex);
  auto& histograms = shard.histograms;
  observe_into(histograms, name, value, bounds);
  if (tls_session_id != 0 && !is_runtime_metric(name)) {
    observe_into(histograms, session_prefix(tls_session_id).append(name),
                 value, bounds);
  }
}

ScopedSession::ScopedSession(std::uint64_t id) noexcept
    : prev_(tls_session_id) {
  if (id != 0) tls_session_id = id;
}

ScopedSession::~ScopedSession() { tls_session_id = prev_; }

std::uint64_t ScopedSession::current() noexcept { return tls_session_id; }

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::scoped_lock lock(mutex_);
  for (const auto& shard : shards_) {
    std::scoped_lock shard_lock(shard->mutex);
    for (const auto& [name, v] : shard->counters) out.counters[name] += v;
    for (const auto& [name, h] : shard->histograms) {
      auto& merged = out.histograms[name];
      if (merged.bounds.empty()) {
        merged.bounds = h.bounds;
        merged.counts.assign(h.counts.size(), 0);
      }
      // Every call site uses one fixed bound set per name, so shard
      // layouts agree; integer bucket sums make the merge canonical.
      for (std::size_t i = 0;
           i < std::min(merged.counts.size(), h.counts.size()); ++i) {
        merged.counts[i] += h.counts[i];
      }
      merged.total += h.total;
    }
  }
  for (const auto& [name, v] : gauges_) out.gauges.emplace(name, v);
  return out;
}

void MetricsRegistry::reset() {
  std::scoped_lock lock(mutex_);
  for (const auto& shard : shards_) shard->clear();
  gauges_.clear();
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace robotune::obs
