#include "core/session.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/atomic_file.h"
#include "common/error.h"
#include "common/framed_line.h"
#include "core/external.h"
#include "obs/trace.h"
#include "tuners/bestconfig.h"
#include "tuners/gunther.h"
#include "tuners/random_search.h"

namespace robotune::core {

namespace {

constexpr std::string_view kSpecHeader = "robotune-spec v1";

bool workload_from_short_name(const std::string& name,
                              sparksim::WorkloadKind& out) {
  for (auto k : sparksim::all_workloads()) {
    if (sparksim::short_name(k) == name) {
      out = k;
      return true;
    }
  }
  return false;
}

bool known_tuner(const std::string& name) {
  return name == "robotune" || name == "bestconfig" || name == "gunther" ||
         name == "rs";
}

std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

// Strict numeric field parsers: the spec is the determinism contract,
// so a malformed value (`seed=abc` silently becoming 0) must fail the
// decode the same way an unknown key does — otherwise a restart could
// replay a different session than the one that was started.

bool parse_spec_int(const std::string& text, int& out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return false;
  }
  out = static_cast<int>(value);
  return true;
}

bool parse_spec_u64(const std::string& text, std::uint64_t& out) {
  // strtoull silently wraps negatives ("-1" → 2^64-1): reject them.
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  out = static_cast<std::uint64_t>(value);
  return true;
}

bool parse_spec_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  if (!std::isfinite(value)) return false;
  out = value;
  return true;
}

}  // namespace

bool parse_fault_profile(const std::string& text,
                         sparksim::FaultProfile& out) {
  if (sparksim::FaultProfile::from_preset(text, out)) return true;
  out = sparksim::FaultProfile{};
  std::size_t pos = 0;
  bool any = false;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string item =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = item.substr(0, eq);
    char* end = nullptr;
    const double value = std::strtod(item.c_str() + eq + 1, &end);
    if (end == item.c_str() + eq + 1) return false;
    if (key == "loss") {
      out.executor_loss_per_stage = value;
    } else if (key == "fetch") {
      out.fetch_failure_per_stage = value;
    } else if (key == "straggler") {
      out.straggler_per_stage = value;
    } else if (key == "slowdown") {
      out.straggler_max_slowdown = value;
    } else {
      return false;
    }
    any = true;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return any;
}

std::string SessionSpec::validate() const {
  sparksim::WorkloadKind kind;
  if (!workload_from_short_name(workload, kind)) {
    return "unknown workload '" + workload + "'";
  }
  if (dataset < 1 || dataset > 3) return "dataset must be 1..3";
  if (!known_tuner(tuner)) return "unknown tuner '" + tuner + "'";
  if (budget < 1) return "budget must be >= 1";
  if (metric != "time" && metric != "coreseconds") {
    return "metric must be time|coreseconds";
  }
  sparksim::FaultProfile faults;
  if (fault_profile.find(' ') != std::string::npos ||
      !parse_fault_profile(fault_profile, faults)) {
    return "bad fault profile '" + fault_profile + "'";
  }
  if (retries < 0) return "retries must be >= 0";
  if (preempt_rate < 0.0 || preempt_rate > 1.0) {
    return "preempt rate must be in [0, 1]";
  }
  if (parallel < 0) return "parallel must be >= 0";
  if (batch < 1) return "batch must be >= 1";
  exec::RacingMode racing_mode;
  if (!exec::racing_mode_from_string(racing, racing_mode)) {
    return "bad racing mode '" + racing + "' (off|median|halving)";
  }
  if (eval_deadline < 0.0) return "eval deadline must be >= 0";
  if (init < 0 || selection_samples < 0) {
    return "init/selection-samples must be >= 0";
  }
  if (tuner == "robotune") {
    const int effective_init = init > 0 ? init : 20;
    if (init > 0 && init < 2) return "init must be >= 2";
    if (budget < effective_init) {
      return "budget smaller than the BO initial sample count";
    }
  }
  if (!parse_surrogate_tier(surrogate)) {
    return "bad surrogate tier '" + surrogate + "' (exact|rff|auto)";
  }
  if (rff_features < 0) return "rff-features must be >= 0";
  if (!parse_refit_schedule(refit)) {
    return "bad refit schedule '" + refit + "' (fixed|doubling|auto)";
  }
  if (mode != "internal" && mode != "external") {
    return "bad session mode '" + mode + "' (internal|external)";
  }
  if (mode == "external") {
    // Ask/tell constraints: only the BO engine speaks the protocol, and
    // the batch scheduler / racing layer drive simulator runs an
    // external executor replaces outright.
    if (tuner != "robotune") return "external mode requires tuner=robotune";
    if (parallel > 1) {
      return "external mode is incompatible with parallel workers "
             "(evaluations run outside the daemon)";
    }
    if (racing != "off" || eval_deadline > 0.0) {
      return "external mode is incompatible with racing/eval-deadline "
             "(lease timeouts bound external evaluations instead)";
    }
  }
  return {};
}

std::string encode_spec_body(const SessionSpec& spec) {
  std::ostringstream payload;
  payload << "workload=" << spec.workload << " dataset=" << spec.dataset
          << " tuner=" << spec.tuner << " budget=" << spec.budget
          << " seed=" << spec.seed << " metric=" << spec.metric
          << " fault=" << spec.fault_profile << " retries=" << spec.retries
          << " preempt=" << format_double(spec.preempt_rate)
          << " parallel=" << spec.parallel << " batch=" << spec.batch
          << " racing=" << spec.racing
          << " deadline=" << format_double(spec.eval_deadline)
          << " init=" << spec.init
          << " selsamples=" << spec.selection_samples
          << " surrogate=" << spec.surrogate
          << " rff=" << spec.rff_features << " refit=" << spec.refit;
  // Emitted only when external, so internal spec files stay
  // byte-identical to pre-external releases (and pre-external daemons
  // reject external specs via the unknown-key hard error).
  if (spec.mode == "external") payload << " mode=" << spec.mode;
  return payload.str();
}

bool decode_spec_body(const std::string& body, SessionSpec& spec,
                      std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  SessionSpec parsed;
  std::istringstream tokens(body);
  std::string token;
  bool numeric_ok = true;
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return fail("bad spec token '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "workload") {
      parsed.workload = value;
    } else if (key == "dataset") {
      numeric_ok = parse_spec_int(value, parsed.dataset);
    } else if (key == "tuner") {
      parsed.tuner = value;
    } else if (key == "budget") {
      numeric_ok = parse_spec_int(value, parsed.budget);
    } else if (key == "seed") {
      numeric_ok = parse_spec_u64(value, parsed.seed);
    } else if (key == "metric") {
      parsed.metric = value;
    } else if (key == "fault") {
      parsed.fault_profile = value;
    } else if (key == "retries") {
      numeric_ok = parse_spec_int(value, parsed.retries);
    } else if (key == "preempt") {
      numeric_ok = parse_spec_double(value, parsed.preempt_rate);
    } else if (key == "parallel") {
      numeric_ok = parse_spec_int(value, parsed.parallel);
    } else if (key == "batch") {
      numeric_ok = parse_spec_int(value, parsed.batch);
    } else if (key == "racing") {
      parsed.racing = value;
    } else if (key == "deadline") {
      numeric_ok = parse_spec_double(value, parsed.eval_deadline);
    } else if (key == "init") {
      numeric_ok = parse_spec_int(value, parsed.init);
    } else if (key == "selsamples") {
      numeric_ok = parse_spec_int(value, parsed.selection_samples);
    } else if (key == "surrogate") {
      parsed.surrogate = value;
    } else if (key == "rff") {
      numeric_ok = parse_spec_int(value, parsed.rff_features);
    } else if (key == "refit") {
      parsed.refit = value;
    } else if (key == "mode") {
      parsed.mode = value;
    } else {
      // Unknown keys from a newer writer are a hard error: the spec is
      // the determinism contract, so silently dropping a knob could
      // replay a different session than the one that was started.
      return fail("unknown spec key '" + key + "'");
    }
    if (!numeric_ok) {
      return fail("bad spec value '" + value + "' for key '" + key + "'");
    }
  }
  if (const auto why = parsed.validate(); !why.empty()) return fail(why);
  // Keep the caller's durability wiring.
  parsed.checkpoint_path = spec.checkpoint_path;
  parsed.resume = spec.resume;
  parsed.recover = spec.recover;
  parsed.sync = spec.sync;
  spec = parsed;
  return true;
}

std::string encode_spec(const SessionSpec& spec) {
  std::string out(kSpecHeader);
  out.push_back('\n');
  append_frame(out, encode_spec_body(spec));
  return out;
}

bool decode_spec(const std::string& text, SessionSpec& spec,
                 std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  // The header line, then exactly one newline-terminated frame.
  std::string_view rest(text);
  if (!rest.starts_with(kSpecHeader) ||
      rest.substr(kSpecHeader.size(), 1) != "\n") {
    return fail("bad spec header");
  }
  rest.remove_prefix(kSpecHeader.size() + 1);
  if (rest.empty()) return fail("missing spec record");
  if (rest.find('\n') != rest.size() - 1) {
    return fail("spec record is not one newline-terminated line");
  }
  rest.remove_suffix(1);
  std::string_view body;
  std::string why;
  if (!parse_frame(rest, body, why)) return fail("spec " + why);
  return decode_spec_body(std::string(body), spec, error);
}

bool save_spec_file(const SessionSpec& spec, const std::string& path) {
  return write_file_atomically(
      path, [&](std::ostream& out) { out << encode_spec(spec); });
}

bool load_spec_file(const std::string& path, SessionSpec& spec,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return decode_spec(buffer.str(), spec, error);
}

Session::Session(SessionSpec spec) : spec_(std::move(spec)) {
  workload_from_short_name(spec_.workload, kind_);
  metric_ = spec_.metric == "coreseconds"
                ? sparksim::ObjectiveMetric::kCoreSeconds
                : sparksim::ObjectiveMetric::kExecutionTime;
  parse_fault_profile(spec_.fault_profile, faults_);
  faults_.preemption_per_stage = spec_.preempt_rate;
  exec::racing_mode_from_string(spec_.racing, racing_mode_);

  if (spec_.tuner == "robotune") {
    RoboTuneOptions options;
    options.bo.batch_size = spec_.batch;
    if (spec_.init > 0) options.bo.initial_samples = spec_.init;
    if (const auto tier = parse_surrogate_tier(spec_.surrogate)) {
      options.bo.surrogate = *tier;
    }
    if (spec_.rff_features > 0) options.bo.rff_features = spec_.rff_features;
    if (const auto schedule = parse_refit_schedule(spec_.refit)) {
      options.bo.refit_schedule = *schedule;
    }
    if (spec_.selection_samples > 0) {
      options.selection.generic_samples =
          static_cast<std::size_t>(spec_.selection_samples);
    }
    auto tuner = std::make_unique<RoboTune>(options);
    robotune_ = tuner.get();
    tuner_ = std::move(tuner);
  } else if (spec_.tuner == "bestconfig") {
    tuner_ = std::make_unique<tuners::BestConfig>();
  } else if (spec_.tuner == "gunther") {
    tuner_ = std::make_unique<tuners::Gunther>();
  } else {
    tuner_ = std::make_unique<tuners::RandomSearch>();
  }
}

bool Session::load_state(const std::string& path) {
  if (robotune_ == nullptr) return false;
  return load_state_file(path, robotune_->selection_cache(),
                         robotune_->memo_buffer());
}

bool Session::save_state(const std::string& path) {
  if (robotune_ == nullptr) return false;
  return save_state_file(robotune_->selection_cache(),
                         robotune_->memo_buffer(), path);
}

SessionProgress progress_of(const SessionCheckpoint& state) {
  // Successful observations only: failed/penalized values are not a
  // configuration anyone should be handed as "current best".
  SessionProgress p;
  p.evaluations = state.evaluations.size();
  p.best_value_s = std::numeric_limits<double>::infinity();
  for (const auto& e : state.evaluations) {
    if (e.status != sparksim::RunStatus::kOk) continue;
    if (e.value_s < p.best_value_s) {
      p.best_value_s = e.value_s;
      p.best_unit = e.unit;
    }
  }
  return p;
}

sparksim::SparkObjective Session::make_objective() const {
  sparksim::SparkObjective objective(
      sparksim::ClusterSpec::paper_testbed(),
      sparksim::make_workload(kind_, spec_.dataset),
      sparksim::spark24_config_space(), spec_.seed * 7919, 480.0, 0.04,
      metric_);
  objective.set_fault_profile(faults_);
  if (faults_.active()) {
    sparksim::RetryPolicy retry;
    retry.max_retries = std::max(0, spec_.retries);
    objective.set_retry_policy(retry);
  }
  return objective;
}

bool Session::open_journal() {
  if (spec_.checkpoint_path.empty()) return true;
  try {
    const auto mode = spec_.recover ? LoadMode::kRecover : LoadMode::kStrict;
    SessionLoadReport load_report;
    if (spec_.resume && load_session_file(spec_.checkpoint_path, log_.state,
                                          mode, &load_report)) {
      outcome_.resumed = true;
      outcome_.replayed = log_.state.evaluations.size();
      outcome_.journal_recovered = load_report.recovered;
      outcome_.dropped_records = load_report.dropped_records;
      // Report the replayable prefix now, not at the next flush.
      canonicalize_journal(log_.state);
      if (progress_) progress_(progress_of(log_.state));
    }
  } catch (const std::exception& e) {
    outcome_.error = std::string("cannot resume from ") +
                     spec_.checkpoint_path + ": " + e.what();
    return false;
  }
  log_.flush = [this](const SessionCheckpoint& state) {
    save_session_file(state, spec_.checkpoint_path, spec_.sync);
    if (progress_) progress_(progress_of(state));
  };
  return true;
}

SessionOutcome Session::run(
    const std::atomic<bool>* cancel,
    std::function<void(const SessionProgress&)> progress) {
  if (robotune_ != nullptr) {
    obs::Span session_span("session", "core");
    session_span.arg("tuner", tuner_->name());
    session_span.arg("workload", sparksim::to_string(kind_));
    session_span.arg("budget", spec_.budget);
    session_span.arg("seed", spec_.seed);
    // Cooperative cancellation at round boundaries: every completed
    // evaluation is journaled, so the checkpoint resumes bit-identically.
    bool live = open(std::move(progress));
    bool interrupted = false;
    while (live && !(interrupted = cancel != nullptr &&
                                   cancel->load(std::memory_order_relaxed))) {
      live = step();
    }
    return finish(interrupted);
  }
  if (ran_) {
    SessionOutcome again;
    again.error = "session already ran";
    return again;
  }
  ran_ = true;
  progress_ = std::move(progress);
  auto objective = make_objective();
  // parallel 0 (the default) and 1 both run inline on one worker.
  exec::EvalScheduler scheduler(scheduler_options());
  tuner_->set_pacing(cancel);
  try {
    tuner_->set_scheduler(&scheduler);
    outcome_.result = tuner_->tune(objective, spec_.budget, spec_.seed);
    tuner_->set_scheduler(nullptr);
  } catch (const std::exception& e) {
    outcome_.error = e.what();
    return outcome_;
  }
  outcome_.interrupted =
      cancel != nullptr && cancel->load(std::memory_order_relaxed) &&
      static_cast<int>(outcome_.result.history.size()) < spec_.budget;
  return conclude();
}

exec::SchedulerOptions Session::scheduler_options() const {
  exec::SchedulerOptions sched;
  sched.parallelism = std::max(1, spec_.parallel);
  sched.racing.mode = racing_mode_;
  sched.racing.deadline_s = spec_.eval_deadline;
  return sched;
}

bool Session::open(std::function<void(const SessionProgress&)> progress,
                   ExternalBridge* bridge) {
  if (ran_) {
    outcome_.error = "session already ran";
    return false;
  }
  ran_ = true;
  progress_ = std::move(progress);
  bridge_ = bridge;
  try {
    require(robotune_ != nullptr,
            "Session::open: only robotune sessions run in steps");
    require(bridge_ == nullptr || spec_.mode == "external",
            "Session::open: not an ask/tell (mode=external) session");
    if (!open_journal()) return false;
    objective_ = std::make_unique<sparksim::SparkObjective>(make_objective());
    std::string racing = exec::racing_signature(exec::RacingOptions{});
    if (bridge_ == nullptr) {
      scheduler_ = std::make_unique<exec::EvalScheduler>(scheduler_options());
      racing = exec::racing_signature(scheduler_->racing());
    }
    outcome_.report.emplace();
    engine_ = robotune_->begin_search(*objective_, spec_.budget, spec_.seed,
                                      journal(), racing, bridge_ != nullptr,
                                      *outcome_.report);
    if (bridge_ == nullptr) return true;
    bridge_->bind(journal());
    const auto round = engine_->propose();
    if (!round) return false;
    bridge_->publish(round->points, round->first_index);
  } catch (const std::exception& e) {
    outcome_.error = e.what();
    return false;
  }
  return step();
}

bool Session::step() {
  if (engine_ == nullptr) return false;
  try {
    if (bridge_ == nullptr) return engine_->run_round(*objective_, *scheduler_);
    while (auto reported = bridge_->collect()) {
      engine_->ingest_external(*reported);
      const auto round = engine_->propose();
      if (!round) return false;
      bridge_->publish(round->points, round->first_index);
    }
  } catch (const std::exception& e) {
    outcome_.error = e.what();
    return false;
  }
  return true;
}

SessionOutcome Session::finish(bool interrupted) {
  if (engine_ != nullptr && outcome_.ok()) {
    robotune_->end_search(*objective_, engine_->finish(interrupted),
                          *outcome_.report);
    outcome_.result = outcome_.report->tuning;
    outcome_.interrupted = interrupted;
    // Parallel sessions journal in completion order; re-flush the journal
    // in canonical index order so the final bytes are identical for any
    // worker count.  Already-canonical journals (every one-worker or q=1
    // session, and every ask/tell one) are left byte-for-byte untouched.
    const auto& evaluations = log_.state.evaluations;
    bool canonical = true;
    for (std::size_t i = 0; i < evaluations.size(); ++i) {
      if (evaluations[i].index != i) {
        canonical = false;
        break;
      }
    }
    if (journal() != nullptr && !canonical) {
      canonicalize_journal(log_.state);
      save_session_file(log_.state, spec_.checkpoint_path, spec_.sync);
    }
  }
  engine_.reset();
  scheduler_.reset();
  objective_.reset();
  if (!outcome_.ok()) return outcome_;
  return conclude();
}

SessionOutcome Session::conclude() {
  if (progress_) {
    SessionProgress final_progress;
    final_progress.evaluations = outcome_.result.history.size();
    if (outcome_.result.found_any()) {
      final_progress.best_value_s = outcome_.result.best_value_s();
      final_progress.best_unit = outcome_.result.best_unit();
    } else {
      final_progress.best_value_s = std::numeric_limits<double>::infinity();
    }
    progress_(final_progress);
  }
  return outcome_;
}

std::unique_ptr<Session> SessionFactory::create(const SessionSpec& spec,
                                                std::string* error) {
  if (auto why = spec.validate(); !why.empty()) {
    if (error != nullptr) *error = std::move(why);
    return nullptr;
  }
  return std::unique_ptr<Session>(new Session(spec));
}

}  // namespace robotune::core
