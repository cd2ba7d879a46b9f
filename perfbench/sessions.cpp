// Session benchmark: runs one workload of the ROBOTune session
// benchmark and prints its metrics (perfbench/README.md has the why).
//
//   perfbench_sessions --workload paper_b60|external_fleet
//                    --seed N --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0: tracing off.  Runs the workload's fixed session set, keeps
// starting sessions while the next one fits in --seconds, and prints the
// end-to-end metrics.
// --trace 1: runs every session untraced and again with the span tracer
// on, checks that both give the same tuning results, and prints the
// per-layer metrics of the traced sessions, the tracing overhead and the
// span coverage.
//
// Every metric is printed as "metric <name> <value> <unit>"; the last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
// The exit code is non-zero when any output check failed.
//
// Layers are measured from outside: the benchmark times the public calls
// it makes (RoboTune::tune_report, the SessionLog flush hook it supplies,
// LocalClient::call, the service codec) and reads the spans the program
// already emits through obs::Tracer.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/persistence.h"
#include "core/robotune.h"
#include "core/session.h"
#include "exec/eval_scheduler.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "sparksim/objective.h"
#include "stats.h"

using namespace robotune;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t k) {
  // splitmix64 finalizer over (seed, k): distinct session seeds per run.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + k + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) % 1000000007ULL;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ---- checks ---------------------------------------------------------------

/// Operations attempted and failed (sessions, journal flushes, tells),
/// plus output checks that are not operations of their own.
struct Ledger {
  std::mutex mutex;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void operation(bool ok, const std::string& what) {
    std::scoped_lock lock(mutex);
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      std::printf("FAILED %s\n", what.c_str());
    }
  }
  void check(bool ok, const std::string& what) {
    if (ok) return;
    std::scoped_lock lock(mutex);
    correct = false;
    std::printf("CHECK FAILED %s\n", what.c_str());
  }
};

// ---- workloads ------------------------------------------------------------

struct Case {
  sparksim::WorkloadKind kind;
  int dataset;
};

std::string label(const Case& c) {
  return sparksim::short_name(c.kind) + "-D" + std::to_string(c.dataset);
}

sparksim::SparkObjective make_objective(const Case& c, std::uint64_t seed) {
  return sparksim::SparkObjective(sparksim::ClusterSpec::paper_testbed(),
                                  sparksim::make_workload(c.kind, c.dataset),
                                  sparksim::spark24_config_space(), seed);
}

/// The default configuration's simulated time (§5.2), evaluated without
/// the cap on a fresh objective so it does not depend on the session.  A
/// default that fails counts at the simulator's failure penalty.
double default_time_s(const Case& c, std::uint64_t seed) {
  auto objective = make_objective(c, seed);
  return objective
      .evaluate_decoded(objective.space().defaults(), 0.0,
                        /*apply_cap=*/false)
      .value_s;
}

struct InternalWorkload {
  std::vector<Case> cases;  ///< sessions cycle through these
  int budget = 60;
  std::size_t fixed_sessions = 2;
};

const Case kPrD1{sparksim::WorkloadKind::kPageRank, 1};
const Case kKmD2{sparksim::WorkloadKind::kKMeans, 2};

/// What one session yielded.
struct SessionResult {
  std::string label;
  double wall_s = 0.0;
  std::size_t evals = 0;
  double best_s = 0.0;
  double default_s = 0.0;
  double search_cost_s = 0.0;
  std::vector<double> flush_ms;  ///< per journal flush, in call order
  double journal_bytes = 0.0;
};

/// Everything one internal session owns; constructing it is the
/// session's set-up (up to its first evaluation).
struct InternalSession {
  sparksim::SparkObjective objective;
  core::RoboTune tuner;
  exec::EvalScheduler scheduler;
  core::SessionLog log;
  std::string journal;

  InternalSession(const Case& c, std::uint64_t seed, std::string journal_path)
      : objective(make_objective(c, seed)),
        // One scheduler worker: evaluations run inline, one per round, in
        // index order (robotune_cli --parallel 1), so the exec layer is
        // measured without changing the sequential protocol.
        scheduler(exec::SchedulerOptions{.parallelism = 1}),
        journal(std::move(journal_path)) {
    std::error_code ec;
    fs::remove(journal, ec);
  }
};

bool same_record(const core::EvalRecord& a, const core::EvalRecord& b) {
  return a.index == b.index && a.unit == b.unit && a.value_s == b.value_s &&
         a.cost_s == b.cost_s && a.status == b.status &&
         a.stopped_early == b.stopped_early && a.transient == b.transient &&
         a.attempts == b.attempts;
}

SessionResult run_internal_session(const InternalWorkload& w, const Case& c,
                                   std::uint64_t seed,
                                   const std::string& journal,
                                   Ledger& ledger) {
  SessionResult r;
  r.label = label(c) + " seed " + std::to_string(seed);
  const auto t0 = Clock::now();
  InternalSession s(c, seed, journal);

  std::mutex flush_mutex;
  s.log.flush = [&](const core::SessionCheckpoint& state) {
    const auto a = Clock::now();
    const bool ok = core::save_session_file(state, s.journal);
    const auto b = Clock::now();
    {
      std::scoped_lock lock(flush_mutex);
      r.flush_ms.push_back(ms_between(a, b));
    }
    ledger.operation(ok, "journal flush of " + r.label);
  };

  core::RoboTuneReport report;
  bool threw = false;
  try {
    report = s.tuner.tune_report(s.objective, w.budget, seed, nullptr, &s.log,
                                 &s.scheduler);
  } catch (const std::exception& e) {
    threw = true;
    std::printf("session %s threw: %s\n", r.label.c_str(), e.what());
  }
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  const auto& history = report.tuning.history;
  r.evals = history.size();
  bool ok = !threw && !report.bo.interrupted &&
            r.evals == static_cast<std::size_t>(w.budget) &&
            report.tuning.found_any();
  if (ok) {
    r.best_s = report.tuning.best_value_s();
    r.search_cost_s = report.tuning.search_cost_s;
    r.default_s = default_time_s(c, seed);
    // The journal must reload strictly and match the in-memory log, and
    // the log must match the evaluations the tuner reported.
    core::SessionCheckpoint loaded;
    try {
      ok = core::load_session_file(s.journal, loaded, core::LoadMode::kStrict);
    } catch (const std::exception& e) {
      std::printf("journal of %s does not reload: %s\n", r.label.c_str(),
                  e.what());
      ok = false;
    }
    const auto& logged = s.log.state.evaluations;
    ok = ok && loaded.evaluations.size() == logged.size() &&
         logged.size() == history.size();
    for (std::size_t i = 0; ok && i < logged.size(); ++i) {
      const auto& e = logged[i];
      ok = same_record(loaded.evaluations[i], e) && e.index < history.size() &&
           history[e.index].value_s == e.value_s &&
           history[e.index].status == e.status;
    }
    std::error_code ec;
    r.journal_bytes = static_cast<double>(fs::file_size(s.journal, ec));
  }
  ledger.operation(ok, "session " + r.label);
  return r;
}

// ---- external fleet ---------------------------------------------------------

struct ExternalWorkload {
  std::vector<Case> cases;
  int budget = 100;
  int batch = 4;
  int selection_samples = 20;
  std::size_t fixed_sessions = 12;
  std::size_t setup_repeats = 3;
};

core::SessionSpec external_spec(const ExternalWorkload& w, const Case& c,
                                std::uint64_t seed) {
  core::SessionSpec spec;
  spec.workload = sparksim::short_name(c.kind);
  spec.dataset = c.dataset;
  spec.tuner = "robotune";
  spec.mode = "external";
  spec.budget = w.budget;
  spec.seed = seed;
  spec.batch = w.batch;
  spec.selection_samples = w.selection_samples;
  return spec;
}

bool terminal(const std::string& state) {
  return state == "done" || state == "cancelled" || state == "failed";
}

/// Times the wire codec on the same messages a call exchanged.
double codec_us(const service::Request& request,
                const service::Response& response) {
  const auto a = Clock::now();
  service::Request req;
  service::Response res;
  std::string why;
  const bool ok = service::decode_request(service::encode_request(request),
                                          req, why) &&
                  service::decode_response(service::encode_response(response),
                                           res, why);
  const auto b = Clock::now();
  return ok ? us_between(a, b) : 0.0;
}

/// What the single executor thread saw while driving a fleet.
struct FleetResult {
  std::vector<SessionResult> sessions;  ///< in start order
  std::vector<double> rt_us;            ///< granting suggest + its observe
  std::vector<double> suggest_us;       ///< every suggest call
  std::vector<double> observe_us;       ///< every tell
  std::vector<double> codec_us;         ///< every call's messages
  std::size_t suggest_calls = 0;
  std::size_t granting_calls = 0;
  std::size_t accepted = 0;
  std::size_t expected = 0;
  double wait_ms = 0.0;
  double wall_s = 0.0;
};

/// One ask/tell client session as the executor tracks it.
struct LiveSession {
  std::uint64_t id = 0;
  std::size_t slot = 0;  ///< index into FleetResult::sessions
  Case c;
  std::uint64_t seed = 0;
  Clock::time_point started;
  /// The executor's "cluster": the simulator, forked per eval index so
  /// every measurement is a pure function of (session seed, index).
  std::shared_ptr<sparksim::SparkObjective> cluster;
  std::map<std::uint64_t, core::ObserveAck> told;
  double cost_s = 0.0;
};

void finish_external(LiveSession& s, const service::Response& status,
                     const ExternalWorkload& w,
                     service::SessionManager& manager, FleetResult& fleet,
                     Ledger& ledger) {
  SessionResult& r = fleet.sessions[s.slot];
  r.wall_s = std::chrono::duration<double>(Clock::now() - s.started).count();
  const auto field = [&](const std::string& key) {
    const auto it = status.fields.find(key);
    return it == status.fields.end() ? std::string() : it->second;
  };
  r.evals = std::strtoull(field("evals").c_str(), nullptr, 10);
  r.best_s = std::strtod(field("best").c_str(), nullptr);
  bool ok = status.ok && field("state") == "done" &&
            r.evals == static_cast<std::size_t>(w.budget) &&
            s.told.size() == static_cast<std::size_t>(w.budget) &&
            std::isfinite(r.best_s) && r.best_s > 0.0;
  if (ok) {
    r.search_cost_s = s.cost_s;
    r.default_s = default_time_s(s.c, s.seed);
    // The journal reloads strictly, holds the whole budget, and its ack
    // ledger is exactly what the executor told.
    core::SessionCheckpoint loaded;
    const std::string path = manager.journal_path(s.id);
    try {
      ok = core::load_session_file(path, loaded, core::LoadMode::kStrict);
    } catch (const std::exception& e) {
      std::printf("journal of %s does not reload: %s\n", r.label.c_str(),
                  e.what());
      ok = false;
    }
    ok = ok && loaded.evaluations.size() == r.evals &&
         loaded.observe_acks.size() == s.told.size();
    for (std::size_t i = 0; ok && i < loaded.evaluations.size(); ++i) {
      ok = loaded.evaluations[i].index == i;
    }
    for (const auto& ack : loaded.observe_acks) {
      if (!ok) break;
      const auto it = s.told.find(ack.index);
      ok = it != s.told.end() && it->second.status == ack.status &&
           it->second.value_s == ack.value_s &&
           it->second.cost_s == ack.cost_s;
    }
    std::error_code ec;
    r.journal_bytes = static_cast<double>(fs::file_size(path, ec));
  }
  ledger.operation(ok, "external session " + r.label);
}

/// Runs external sessions through one SessionManager, `live` at a time,
/// from a single closed-loop executor thread over LocalClient.  Sessions
/// keep being started while `more()` says so (it is asked after the
/// first `min_sessions` have been started).
FleetResult run_fleet(const ExternalWorkload& w, std::uint64_t seed,
                      std::size_t live, std::size_t min_sessions,
                      const std::function<bool()>& more,
                      const std::string& root, Ledger& ledger) {
  FleetResult fleet;
  std::error_code ec;
  fs::remove_all(root, ec);
  service::ServiceOptions options;
  options.root = root;
  options.max_live = live;
  options.max_pending = live;
  options.seed = seed;
  // The executor never abandons a lease and never ticks the clock.
  options.lease_timeout_ticks = 1u << 30;
  service::SessionManager manager(options);
  service::LocalClient client(manager);

  const auto timed_call = [&](const service::Request& request,
                              std::vector<double>* latencies) {
    const auto a = Clock::now();
    service::Response response = client.call(request);
    const auto b = Clock::now();
    if (latencies != nullptr) latencies->push_back(us_between(a, b));
    fleet.codec_us.push_back(codec_us(request, response));
    return std::make_pair(response, us_between(a, b));
  };

  std::vector<LiveSession> running;
  std::size_t started = 0;
  const auto start_next = [&]() {
    const Case& c = w.cases[started % w.cases.size()];
    LiveSession s;
    s.c = c;
    s.seed = mix_seed(seed, started);
    s.cluster =
        std::make_shared<sparksim::SparkObjective>(make_objective(c, s.seed));
    s.slot = fleet.sessions.size();
    service::Request request;
    request.verb = "start";
    request.spec_body = core::encode_spec_body(external_spec(w, c, s.seed));
    s.started = Clock::now();
    const auto [response, us] = timed_call(request, nullptr);
    ++started;
    SessionResult r;
    r.label = label(c) + " seed " + std::to_string(s.seed);
    fleet.sessions.push_back(r);
    const auto id = response.fields.find("id");
    if (!response.ok || id == response.fields.end()) {
      ledger.operation(false, "start of external session " + r.label + ": " +
                                  response.error);
      return;
    }
    s.id = std::stoull(id->second);
    fleet.expected += static_cast<std::size_t>(w.budget);
    running.push_back(std::move(s));
  };
  const auto want_more = [&]() {
    return started < min_sessions || more();
  };

  const auto fleet_start = Clock::now();
  while (running.size() < live && want_more()) start_next();
  while (!running.empty()) {
    bool granted = false;
    const auto pass_start = Clock::now();
    for (std::size_t k = 0; k < running.size();) {
      LiveSession& s = running[k];
      service::Request status;
      status.verb = "status";
      status.session = s.id;
      service::Response st;
      {
        obs::Span span("status", "bench");
        st = timed_call(status, nullptr).first;
      }
      const auto state = st.fields.find("state");
      if (!st.ok || state == st.fields.end() || terminal(state->second)) {
        finish_external(s, st, w, manager, fleet, ledger);
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(k));
        if (want_more()) start_next();
        continue;
      }
      service::Request suggest;
      suggest.verb = "suggest";
      suggest.session = s.id;
      suggest.limit = 16;
      service::Response batch;
      double suggest_us = 0.0;
      {
        obs::Span span("suggest", "bench");
        std::tie(batch, suggest_us) = timed_call(suggest, &fleet.suggest_us);
      }
      ++fleet.suggest_calls;
      if (batch.ok && !batch.records.empty()) ++fleet.granting_calls;
      for (const auto& record : batch.records) {
        std::istringstream in(record);
        std::uint64_t index = 0, lease = 0, deadline = 0;
        std::vector<double> unit;
        in >> index >> lease >> deadline;
        for (double x = 0.0; in >> x;) unit.push_back(x);
        sparksim::EvalOutcome outcome;
        {
          obs::Span span("eval", "bench");
          auto run = s.cluster->fork_for_eval(index);
          outcome = run.evaluate(unit, 480.0);
        }
        service::Request tell;
        tell.verb = "observe";
        tell.session = s.id;
        tell.has_observation = true;
        tell.eval = index;
        tell.value_s = outcome.value_s;
        tell.cost_s = outcome.cost_s;
        tell.status = sparksim::to_string(outcome.status);
        service::Response ack;
        double tell_us = 0.0;
        {
          obs::Span span("observe", "bench");
          std::tie(ack, tell_us) = timed_call(tell, &fleet.observe_us);
        }
        const auto verdict = ack.fields.find("verdict");
        const bool accepted = ack.ok && verdict != ack.fields.end() &&
                              verdict->second == "accepted";
        ledger.operation(accepted, "tell of eval " + std::to_string(index) +
                                       " to " + fleet.sessions[s.slot].label);
        if (accepted) {
          ++fleet.accepted;
          s.told[index] = core::ObserveAck{index, outcome.status,
                                           outcome.value_s, outcome.cost_s};
          s.cost_s += outcome.cost_s;
        }
        fleet.rt_us.push_back(suggest_us + tell_us);
        granted = true;
      }
      ++k;
    }
    if (!granted && !running.empty()) {
      // Nothing to run: the sessions are fitting or proposing.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      fleet.wait_ms += ms_between(pass_start, Clock::now());
    }
  }
  fleet.wall_s =
      std::chrono::duration<double>(Clock::now() - fleet_start).count();
  manager.drain();
  fs::remove_all(root, ec);
  return fleet;
}

// ---- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Prints every metric, then the result line; returns the exit code.
  int finish(Ledger& ledger) {
    for (const auto& m : metrics_) {
      ledger.check(std::isfinite(m.value), "metric " + m.name + " is finite");
      std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("info failed_frac %.6g (%llu of %llu operations failed)\n",
                ledger.attempted == 0
                    ? 0.0
                    : static_cast<double>(ledger.failed) /
                          static_cast<double>(ledger.attempted),
                static_cast<unsigned long long>(ledger.failed),
                static_cast<unsigned long long>(ledger.attempted));
    std::string json = "{\"correct\": ";
    json += ledger.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(ledger.attempted);
    json += ", \"failed\": " + std::to_string(ledger.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return ledger.correct ? 0 : 1;
  }

 private:
  std::vector<Metric> metrics_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Geomeans over the run's sessions of the §5.2 quality ratio and of the
/// Fig. 4 search cost.
void add_quality(const std::vector<SessionResult>& sessions, Report& report) {
  std::vector<double> ratio, cost;
  for (const auto& s : sessions) {
    ratio.push_back(s.best_s / s.default_s);
    cost.push_back(s.search_cost_s);
  }
  report.add("best_over_default", perfbench::geomean(ratio), "ratio");
  report.add("search_cost_s", perfbench::geomean(cost), "s");
}

/// The tail is printed with the percentile and sample count the rule
/// gave; it is a per-layer metric, reported by the traced run.
void add_round_trip(const std::vector<double>& rt_us, Report& report) {
  const auto tail = perfbench::tail_percentile(rt_us);
  std::printf("info rt_p99_us %.6g (p%.4g of %zu round trips)\n", tail.value,
              tail.percentile, tail.samples);
  report.add("rt_p50_us", perfbench::median(rt_us), "us");
}

void print_sessions(const std::vector<SessionResult>& sessions) {
  for (const auto& s : sessions) {
    std::printf("info session %-24s %8.3f s  best %.2f s  default %.2f s  "
                "search cost %.0f s\n",
                s.label.c_str(), s.wall_s, s.best_s, s.default_s,
                s.search_cost_s);
  }
}

/// Tuning results must not depend on tracing.
void check_same_results(const std::vector<SessionResult>& untraced,
                        const std::vector<SessionResult>& traced,
                        Ledger& ledger) {
  bool same = untraced.size() == traced.size();
  for (std::size_t i = 0; same && i < untraced.size(); ++i) {
    same = untraced[i].evals == traced[i].evals &&
           untraced[i].best_s == traced[i].best_s &&
           untraced[i].search_cost_s == traced[i].search_cost_s;
  }
  ledger.check(same, "traced and untraced sessions give the same results");
}

// ---- span analysis (traced pass) -------------------------------------------

/// Spans of the named layers, with the layer (src/ module) each belongs
/// to; trace.coverage is their self time.  The service spans are the
/// benchmark's own, around its LocalClient calls.
const std::map<std::string, std::string> kLayerOfSpan = {
    {"selection", "core"},   {"journal", "core"},    {"gp_fit", "gp"},
    {"acq_opt", "gp"},       {"cl_purge", "gp"},     {"lbfgsb_start", "opt"},
    {"eval_batch", "exec"},  {"eval", "sparksim"},   {"status", "service"},
    {"suggest", "service"},  {"observe", "service"},
};

struct SpanTable {
  std::vector<obs::SpanRecord> spans;
  std::vector<std::int64_t> self_us;

  explicit SpanTable(std::vector<obs::SpanRecord> records)
      : spans(std::move(records)) {
    std::vector<perfbench::SpanTiming> timing;
    timing.reserve(spans.size());
    for (const auto& s : spans) {
      timing.push_back({s.start_us, s.dur_us, s.tid, s.depth});
    }
    self_us = perfbench::self_times(timing);
  }

  static std::string arg(const obs::SpanRecord& s, const std::string& key) {
    for (const auto& [k, v] : s.args) {
      if (k == key) return v;
    }
    return {};
  }
  /// Count and total milliseconds of the spans `pick` accepts.
  std::pair<double, double> count_ms(
      const std::function<bool(const obs::SpanRecord&)>& pick) const {
    double count = 0.0, ms = 0.0;
    for (const auto& s : spans) {
      if (!pick(s)) continue;
      count += 1.0;
      ms += static_cast<double>(s.dur_us) / 1000.0;
    }
    return {count, ms};
  }
  std::pair<double, double> count_ms(const std::string& name) const {
    return count_ms([&](const obs::SpanRecord& s) { return s.name == name; });
  }
  /// Adds the self time of the named-layer spans that thread `tid` started
  /// inside [from_us, to_us] to `out`, by span name.
  void add_self_ms(std::uint32_t tid, std::int64_t from_us, std::int64_t to_us,
                   std::map<std::string, double>& out) const {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      if (s.tid != tid || s.start_us < from_us || s.start_us > to_us ||
          kLayerOfSpan.count(s.name) == 0) {
        continue;
      }
      out[s.name] += static_cast<double>(self_us[i]) / 1000.0;
    }
  }
};

/// Mean flush time over the first and the last tenth of each session's
/// flushes, averaged over sessions: the O(n) growth of the journal.
std::pair<double, double> first_last_tenth(
    const std::vector<std::vector<double>>& per_session) {
  std::vector<double> first, last;
  for (const auto& f : per_session) {
    if (f.empty()) continue;
    const std::size_t tenth = std::max<std::size_t>(1, f.size() / 10);
    first.push_back(mean({f.begin(), f.begin() + tenth}));
    last.push_back(mean({f.end() - tenth, f.end()}));
  }
  return {mean(first), mean(last)};
}

/// What the per-layer metrics are computed from besides the spans.
struct LayerInputs {
  std::size_t sessions = 0;  ///< traced sessions; counts and times are per session
  std::vector<std::vector<double>> flush_ms;  ///< per session, in call order
  double journal_bytes = 0.0;                 ///< mean final journal size
  const FleetResult* fleet = nullptr;         ///< external_fleet only
  /// The wall time coverage is measured against, and the self time of
  /// the named-layer spans on the thread that spent it.
  double covered_wall_ms = 0.0;
  std::map<std::string, double> self_ms;
  double overhead_pct = 0.0;
  std::vector<double> rt_us;  ///< round trips, as rt_p50_us defines them
};

/// Every workload reports every per-layer metric; a layer the workload
/// does not exercise reads 0.
void add_layer_metrics(const SpanTable& t, const LayerInputs& in,
                       Report& report) {
  const double n = static_cast<double>(std::max<std::size_t>(1, in.sessions));
  const auto [fits, fit_ms] = t.count_ms([](const obs::SpanRecord& s) {
    return s.name == "gp_fit" && SpanTable::arg(s, "hyperfit") == "1";
  });
  report.add("gp.hyperfit.count", fits / n, "count");
  report.add("gp.hyperfit.ms", fit_ms / n, "ms");
  report.add("gp.hyperfit.mean_ms", fits > 0 ? fit_ms / fits : 0.0, "ms");
  const auto [acqs, acq_ms] = t.count_ms("acq_opt");
  report.add("gp.acq.count", acqs / n, "count");
  report.add("gp.acq.ms", acq_ms / n, "ms");
  report.add("gp.acq.mean_ms", acqs > 0 ? acq_ms / acqs : 0.0, "ms");
  report.add("opt.lbfgsb.starts", t.count_ms("lbfgsb_start").first / n,
             "count");
  report.add("core.selection.ms", t.count_ms("selection").second / n, "ms");

  std::vector<std::vector<double>> flushes = in.flush_ms;
  if (in.fleet != nullptr) {
    // Ask/tell journals are flushed inside the manager: read the engine's
    // round-resolution flush spans, one series per session thread.
    std::map<std::uint32_t, std::vector<double>> by_thread;
    for (const auto& s : t.spans) {
      if (s.name == "journal") {
        by_thread[s.tid].push_back(static_cast<double>(s.dur_us) / 1000.0);
      }
    }
    for (auto& entry : by_thread) flushes.push_back(entry.second);
  }
  double flush_count = 0.0, flush_total = 0.0;
  for (const auto& f : flushes) {
    flush_count += static_cast<double>(f.size());
    flush_total += sum(f);
  }
  const auto [first_ms, last_ms] = first_last_tenth(flushes);
  report.add("core.journal.flushes", flush_count / n, "count");
  report.add("core.journal.ms", flush_total / n, "ms");
  report.add("core.journal.first_ms", first_ms, "ms");
  report.add("core.journal.last_ms", last_ms, "ms");
  report.add("core.journal.bytes", in.journal_bytes, "B");

  const FleetResult* f = in.fleet;
  report.add("service.codec.us", f ? mean(f->codec_us) : 0.0, "us");
  report.add("service.suggest.calls",
             f ? static_cast<double>(f->suggest_calls) / n : 0.0, "count");
  report.add("service.suggest.grant_ratio",
             f && f->suggest_calls > 0
                 ? static_cast<double>(f->granting_calls) /
                       static_cast<double>(f->suggest_calls)
                 : 0.0,
             "ratio");
  report.add("service.suggest.p50_us",
             f ? perfbench::median(f->suggest_us) : 0.0, "us");
  report.add("service.observe.p50_us",
             f ? perfbench::median(f->observe_us) : 0.0, "us");
  report.add("service.observe.p99_us",
             f ? perfbench::tail_percentile(f->observe_us).value : 0.0, "us");
  report.add("service.wait_ms", f ? f->wait_ms / n : 0.0, "ms");

  report.add("gp.cl_purge.ms", t.count_ms("cl_purge").second / n, "ms");
  const auto [batches, batch_ms] = t.count_ms("eval_batch");
  report.add("exec.eval_batch.count", batches / n, "count");
  report.add("exec.eval_batch.ms", batch_ms / n, "ms");
  const auto [evals, eval_ms] = t.count_ms("eval");
  report.add("sparksim.eval.count", evals / n, "count");
  report.add("sparksim.eval.ms", eval_ms / n, "ms");
  std::vector<double> iteration_self;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    if (t.spans[i].name == "iteration") {
      iteration_self.push_back(static_cast<double>(t.self_us[i]) / 1000.0);
    }
  }
  report.add("core.iteration.mean_ms", mean(iteration_self), "ms");

  report.add("rt_p99_us", perfbench::tail_percentile(in.rt_us).value, "us");
  report.add("trace.overhead_pct", in.overhead_pct, "%");
  std::printf("info self time of the named layers, %% of %.1f ms covered wall:\n",
              in.covered_wall_ms);
  double covered = 0.0;
  for (const auto& [name, ms] : in.self_ms) {
    covered += ms;
    std::printf("info   %-14s %-9s %10.1f ms %6.1f%%\n", name.c_str(),
                kLayerOfSpan.at(name).c_str(), ms,
                100.0 * ms / in.covered_wall_ms);
  }
  const auto share = [&](const std::string& name) {
    const auto it = in.self_ms.find(name);
    return it == in.self_ms.end() ? 0.0
                                  : 100.0 * it->second / in.covered_wall_ms;
  };
  report.add("trace.coverage", 100.0 * covered / in.covered_wall_ms, "%");
  report.add("gp.hyperfit.self_pct", share("gp_fit"), "%");
  report.add("gp.acq.self_pct", share("acq_opt"), "%");
}

// ---- workload runners -------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

std::size_t nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Median wall time of building a session's parts, over many builds.
double internal_setup_s(const InternalWorkload& w, std::uint64_t seed,
                        const std::string& dir) {
  constexpr int kRepeats = 101;
  std::vector<double> samples;
  for (int i = 0; i < kRepeats; ++i) {
    const Case& c = w.cases[static_cast<std::size_t>(i) % w.cases.size()];
    const auto a = Clock::now();
    InternalSession s(c, mix_seed(seed, 1000 + i), dir + "/setup.journal");
    samples.push_back(elapsed_s(a));
  }
  return perfbench::median(samples);
}

/// Calls run(k) for k = 0, 1, ...: at least `min_runs` times, then in
/// whole cycles of `cycle` calls while one more cycle of the mean call
/// length still ends within `seconds` of the start.
void repeat_for(double seconds, std::size_t min_runs, std::size_t cycle,
                const std::function<void(std::size_t)>& run) {
  const auto start = Clock::now();
  std::size_t k = 0;
  for (; k < min_runs; ++k) run(k);
  for (;;) {
    const double cycle_s = elapsed_s(start) / static_cast<double>(k) *
                           static_cast<double>(cycle);
    if (elapsed_s(start) + cycle_s > seconds) break;
    for (const std::size_t end = k + cycle; k < end; ++k) run(k);
  }
}

void run_internal(const InternalWorkload& w, const Args& args, Report& report,
                  Ledger& ledger) {
  const auto session = [&](std::size_t k) {
    return run_internal_session(
        w, w.cases[k % w.cases.size()], mix_seed(args.seed, k),
        args.work_dir + "/session-" + std::to_string(k) + ".journal", ledger);
  };
  if (!args.trace) {
    std::vector<SessionResult> sessions;
    repeat_for(args.seconds, w.fixed_sessions, w.cases.size(),
               [&](std::size_t k) { sessions.push_back(session(k)); });
    print_sessions(sessions);
    std::vector<double> walls, rt_us;
    double evals = 0.0, wall = 0.0;
    for (const auto& s : sessions) {
      walls.push_back(s.wall_s);
      evals += static_cast<double>(s.evals);
      wall += s.wall_s;
      for (double ms : s.flush_ms) rt_us.push_back(1000.0 * ms);
    }
    report.add("session_wall_s", perfbench::median(walls), "s");
    report.add("evals_per_s", evals / wall, "1/s");
    add_round_trip(rt_us, report);
    add_quality(sessions, report);
    report.add("setup_s", internal_setup_s(w, args.seed, args.work_dir), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Each session runs untraced and then traced, back to back, so the
  // overhead compares like with like under the same machine conditions.
  std::vector<SessionResult> untraced, traced;
  obs::tracer().reset();
  repeat_for(args.seconds, w.fixed_sessions, w.cases.size(),
             [&](std::size_t k) {
               untraced.push_back(session(k));
               obs::tracer().set_enabled(true);
               traced.push_back(session(k));
               obs::tracer().set_enabled(false);
             });
  print_sessions(traced);
  check_same_results(untraced, traced, ledger);

  SpanTable table(obs::tracer().records());
  LayerInputs in;
  in.sessions = traced.size();
  double untraced_wall = 0.0, traced_wall = 0.0;
  for (const auto& s : untraced) untraced_wall += s.wall_s;
  for (const auto& s : traced) {
    in.flush_ms.push_back(s.flush_ms);
    for (double ms : s.flush_ms) in.rt_us.push_back(1000.0 * ms);
    in.journal_bytes += s.journal_bytes / static_cast<double>(traced.size());
    traced_wall += s.wall_s;
  }
  in.overhead_pct = 100.0 * (traced_wall / untraced_wall - 1.0);
  // Coverage of each session's own thread over its session span.
  for (const auto& s : table.spans) {
    if (s.name != "session" || s.category != "core") continue;
    in.covered_wall_ms += static_cast<double>(s.dur_us) / 1000.0;
    table.add_self_ms(s.tid, s.start_us, s.start_us + s.dur_us, in.self_ms);
  }
  add_layer_metrics(table, in, report);
}

/// Median time from building a manager to the first granted suggestion
/// of a freshly started external session, over a few repetitions.
double external_setup_s(const ExternalWorkload& w, std::uint64_t seed,
                        const std::string& dir, Ledger& ledger) {
  std::vector<double> samples;
  for (std::size_t i = 0; i < w.setup_repeats; ++i) {
    const std::string root = dir + "/setup-" + std::to_string(i);
    std::error_code ec;
    fs::remove_all(root, ec);
    const auto a = Clock::now();
    service::ServiceOptions options;
    options.root = root;
    options.max_live = 1;
    options.max_pending = 1;
    service::SessionManager manager(options);
    const Case& c = w.cases[i % w.cases.size()];
    const auto started =
        manager.start(external_spec(w, c, mix_seed(seed, 2000 + i)));
    bool granted = false;
    while (started.admitted && !granted) {
      const auto ask = manager.ask(started.id, 16);
      if (!ask.ok) break;
      granted = !ask.grants.empty();
      if (!granted) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    samples.push_back(elapsed_s(a));
    ledger.operation(granted, "external set-up session " + std::to_string(i));
    manager.shutdown(/*cancel_live=*/true);
    fs::remove_all(root, ec);
  }
  return perfbench::median(samples);
}

void run_external(const ExternalWorkload& w, const Args& args, Report& report,
                  Ledger& ledger) {
  const std::size_t live = std::max<std::size_t>(1, nproc() - 1);
  const std::string root = args.work_dir + "/fleet";
  const auto start = Clock::now();
  const double window = args.trace ? args.seconds / 2.0 : args.seconds;
  const FleetResult fleet = run_fleet(
      w, args.seed, live, w.fixed_sessions,
      [&]() { return elapsed_s(start) < window; }, root, ledger);
  ledger.check(fleet.accepted == fleet.expected,
               "accepted tells equal the expected count");
  std::printf("info fleet of %zu sessions, %zu live: %zu/%zu tells accepted "
              "in %.3f s\n",
              fleet.sessions.size(), live, fleet.accepted, fleet.expected,
              fleet.wall_s);

  if (!args.trace) {
    print_sessions(fleet.sessions);
    std::vector<double> walls;
    for (const auto& s : fleet.sessions) walls.push_back(s.wall_s);
    report.add("session_wall_s", perfbench::median(walls), "s");
    report.add("evals_per_s",
               static_cast<double>(fleet.accepted) / fleet.wall_s, "1/s");
    add_round_trip(fleet.rt_us, report);
    add_quality(fleet.sessions, report);
    report.add("setup_s",
               external_setup_s(w, args.seed, args.work_dir, ledger), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  obs::tracer().reset();
  obs::tracer().set_enabled(true);
  const FleetResult traced =
      run_fleet(w, args.seed, live, fleet.sessions.size(),
                []() { return false; }, root, ledger);
  obs::tracer().set_enabled(false);
  print_sessions(traced.sessions);
  ledger.check(traced.accepted == traced.expected,
               "accepted tells equal the expected count (traced)");
  check_same_results(fleet.sessions, traced.sessions, ledger);

  SpanTable table(obs::tracer().records());
  LayerInputs in;
  in.sessions = traced.sessions.size();
  in.fleet = &traced;
  in.rt_us = traced.rt_us;
  for (const auto& s : traced.sessions) {
    in.journal_bytes +=
        s.journal_bytes / static_cast<double>(traced.sessions.size());
  }
  in.overhead_pct = 100.0 * (traced.wall_s / fleet.wall_s - 1.0);
  // Coverage of the executor thread (the one that opened the benchmark's
  // own service-call spans) over the fleet's wall time.
  for (const auto& s : table.spans) {
    if (s.category != "bench") continue;
    in.covered_wall_ms = traced.wall_s * 1000.0;
    table.add_self_ms(s.tid, 0, std::numeric_limits<std::int64_t>::max(),
                      in.self_ms);
    break;
  }
  add_layer_metrics(table, in, report);
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.work_dir.empty() &&
         args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n",
                 argv[0]);
    return 2;
  }
  // Program threads stay within nproc.  An internal session's thread
  // blocks while the shared pool runs its parallel loops, so the pool gets
  // one worker per core.  The fleet keeps nproc - 1 session threads busy
  // beside the executor thread, so its parallel loops run inline instead.
  const std::size_t cores = nproc();
  ThreadPool::configure_global(args.workload == "external_fleet" ? 1 : cores);
  std::printf("info nproc %zu, global pool %zu workers, build %s\n", cores,
              ThreadPool::global().size(), PERFBENCH_BUILD_TYPE);
  std::error_code ec;
  fs::remove_all(args.work_dir, ec);
  fs::create_directories(args.work_dir, ec);

  Ledger ledger;
  Report report;
  if (args.workload == "paper_b60") {
    InternalWorkload w;
    w.cases = {kPrD1, kKmD2};
    w.budget = 60;
    run_internal(w, args, report, ledger);
  } else if (args.workload == "external_fleet") {
    ExternalWorkload w;
    w.cases = {kPrD1, kKmD2};
    run_external(w, args, report, ledger);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  fs::remove_all(args.work_dir, ec);
  return report.finish(ledger);
}
