#include "core/bo_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/error.h"
#include "core/external.h"
#include "gp/kernel.h"
#include "gp/rff_gp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sampling/latin_hypercube.h"

namespace robotune::core {

const char* to_string(SurrogateTier tier) noexcept {
  switch (tier) {
    case SurrogateTier::kExact:
      return "exact";
    case SurrogateTier::kRff:
      return "rff";
    case SurrogateTier::kAuto:
      return "auto";
  }
  return "auto";
}

const char* to_string(RefitSchedule schedule) noexcept {
  switch (schedule) {
    case RefitSchedule::kFixed:
      return "fixed";
    case RefitSchedule::kDoubling:
      return "doubling";
    case RefitSchedule::kAuto:
      return "auto";
  }
  return "auto";
}

std::optional<SurrogateTier> parse_surrogate_tier(std::string_view name) {
  if (name == "exact") return SurrogateTier::kExact;
  if (name == "rff") return SurrogateTier::kRff;
  if (name == "auto") return SurrogateTier::kAuto;
  return std::nullopt;
}

std::optional<RefitSchedule> parse_refit_schedule(std::string_view name) {
  if (name == "fixed") return RefitSchedule::kFixed;
  if (name == "doubling") return RefitSchedule::kDoubling;
  if (name == "auto") return RefitSchedule::kAuto;
  return std::nullopt;
}

BoEngine::BoEngine(std::vector<std::size_t> selected,
                   std::vector<double> base_unit, BoOptions options)
    : selected_(std::move(selected)),
      base_unit_(std::move(base_unit)),
      options_(options),
      rng_(options_.seed),
      guard_(options_.static_threshold_s, options_.median_multiple) {
  require(!selected_.empty(), "BoEngine: no selected parameters");
  require(!base_unit_.empty(), "BoEngine: empty base configuration");
  for (std::size_t idx : selected_) {
    require(idx < base_unit_.size(), "BoEngine: selected index out of range");
  }
  require(options_.initial_samples >= 2, "BoEngine: need >= 2 initial samples");
  require(options_.budget >= options_.initial_samples,
          "BoEngine: budget smaller than initial sample count");
  require(options_.batch_size >= 1, "BoEngine: batch_size must be >= 1");
  require(options_.sparse_threshold >= 2,
          "BoEngine: sparse_threshold must be >= 2");
  require(options_.rff_features >= 1,
          "BoEngine: rff_features must be >= 1");
}

std::vector<double> BoEngine::project(const std::vector<double>& full) const {
  std::vector<double> sub(selected_.size());
  for (std::size_t i = 0; i < selected_.size(); ++i) {
    sub[i] = full[selected_[i]];
  }
  return sub;
}

std::vector<double> BoEngine::expand(const std::vector<double>& sub) const {
  std::vector<double> full = base_unit_;
  for (std::size_t i = 0; i < selected_.size(); ++i) {
    full[selected_[i]] = std::clamp(sub[i], 0.0, 1.0 - 1e-12);
  }
  return full;
}

namespace {

EvalRecord record_of(const tuners::Evaluation& e, std::uint64_t index) {
  EvalRecord rec;
  rec.index = index;
  rec.unit = e.unit;
  rec.value_s = e.value_s;
  rec.cost_s = e.cost_s;
  rec.status = e.status;
  rec.stopped_early = e.stopped_early;
  rec.transient = e.transient;
  rec.attempts = e.attempts;
  return rec;
}

// Maps an externally reported (value, cost, status) tuple onto the
// evaluation the simulator path would have produced under the round's
// guard threshold: successes at or above the threshold are censored like
// a guard stop, failures carry the same penalty/censoring split as
// sparksim's objective, and non-finite values fall through to
// append_evaluation's quarantine.  External executors report one
// measurement per suggestion, so attempts is always 1.
tuners::Evaluation funnel_external(const std::vector<double>& unit,
                                   const ExternalObservation& o,
                                   double threshold) {
  tuners::Evaluation e;
  e.unit = unit;
  e.value_s = o.value_s;
  e.cost_s = o.cost_s;
  e.status = o.status;
  e.attempts = 1;
  switch (o.status) {
    case sparksim::RunStatus::kOk:
      if (std::isfinite(e.value_s) && threshold > 0.0 &&
          e.value_s >= threshold) {
        e.value_s = threshold;
        e.stopped_early = true;
      }
      break;
    case sparksim::RunStatus::kTimeLimit:
      if (threshold > 0.0) e.value_s = threshold;
      e.stopped_early = true;
      break;
    case sparksim::RunStatus::kOom:
    case sparksim::RunStatus::kInfeasible:
      e.value_s = (threshold > 0.0 ? threshold : 600.0) * 1.05;
      break;
    case sparksim::RunStatus::kExecutorLost:
    case sparksim::RunStatus::kFetchFailure:
    case sparksim::RunStatus::kPreempted:
    case sparksim::RunStatus::kKilled:
      if (threshold > 0.0) e.value_s = threshold;
      e.transient = true;
      break;
  }
  return e;
}

}  // namespace

BoResult BoEngine::run(sparksim::SparkObjective& objective,
                       const std::vector<MemoizedConfig>& memoized,
                       const BoObserver& observer, SessionLog* session,
                       exec::EvalScheduler* scheduler) {
  // Without an attached scheduler, rounds run on an inline one-worker
  // scheduler: the same index-derived seed streams, and no thread.
  exec::EvalScheduler inline_scheduler;
  if (scheduler == nullptr) scheduler = &inline_scheduler;
  begin(memoized, observer, session,
        exec::racing_signature(scheduler->racing()), /*external=*/false);
  // Cooperative cancellation (graceful SIGINT/SIGTERM): checked at round
  // boundaries only, so every completed evaluation is journaled and the
  // checkpoint left behind resumes bit-identically.
  const auto cancelled = [this] {
    return options_.cancel != nullptr &&
           options_.cancel->load(std::memory_order_relaxed);
  };
  bool interrupted = false;
  while (!(interrupted = cancelled()) && run_round(objective, *scheduler)) {
  }
  return finish(interrupted);
}

bool BoEngine::run_round(sparksim::SparkObjective& objective,
                         exec::EvalScheduler& scheduler) {
  const auto round = propose();
  if (!round) return false;
  require(!external_,
          "BoEngine: external-mode checkpoint has unreplayed budget; "
          "host it in the daemon, whose ask/tell clients continue it — "
          "standalone runs can only replay it");
  std::vector<exec::EvalRequest> requests;
  requests.reserve(round->points.size());
  for (const auto& unit : round->points) {
    requests.push_back({unit, round->threshold});
  }
  // Journal completions as they happen — possibly out of index order;
  // canonicalize_journal restores replay order on resume.
  const auto outcomes = scheduler.run_batch(
      objective, requests, round->first_index,
      [this](const exec::CompletedEval& done) {
        if (session_ == nullptr) return;
        session_->state.evaluations.push_back(record_of(
            tuners::to_evaluation(done.request->unit, *done.outcome),
            done.eval_index));
        if (done.outcome->status == sparksim::RunStatus::kKilled) {
          session_->state.kill_events.push_back(
              KillEvent{done.eval_index, done.outcome->kill_reason});
        }
        if (session_->flush) {
          // Journal flushes run in completion order on whichever thread
          // finished the evaluation — span attribution shows
          // checkpoint-write stalls per worker.
          obs::Span span("journal", "bo");
          span.arg("eval_index", done.eval_index);
          session_->flush(session_->state);
        }
      });
  std::vector<tuners::Evaluation> live;
  live.reserve(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    live.push_back(tuners::to_evaluation(round->points[i], outcomes[i]));
  }
  ingest(std::move(live));
  return true;
}

void BoEngine::begin(const std::vector<MemoizedConfig>& memoized,
                     const BoObserver& observer, SessionLog* session,
                     const std::string& racing, bool external) {
  require(!begun_, "BoEngine: an engine runs one session");
  begun_ = true;
  const std::size_t dims = selected_.size();
  session_ = session;
  observer_ = observer;
  result_.tuning.tuner = "ROBOTune";
  obs::set_gauge("bo.selected_dims", static_cast<double>(dims));

  // Checkpoint/resume: journaled evaluations are replayed instead of
  // re-run — same bookkeeping (guard, incumbent, cost) via
  // append_evaluation.  Seed streams are derived from the eval index, so
  // replay just skips the index and the live continuation after the
  // journal is bit-identical to an uninterrupted session.
  if (session_ != nullptr) {
    auto& state = session_->state;
    // Parallel sessions journal in completion order; restore canonical
    // order and drop anything stranded past a crash hole.
    canonicalize_journal(state);
    // Degrade events are *derived* state: the resumed engine re-runs the
    // same deterministic ladder decisions while replaying, so clear and
    // regenerate rather than double-append.  Kill events are NOT cleared:
    // they belong to journaled evaluations, which replay from the journal
    // instead of re-running, so the journaled events are the only record
    // (canonicalize_journal already pruned any past the valid prefix).
    state.degrade_events.clear();
    journaled_ = state.evaluations.size();
    // Mode is pinned the moment anything was journaled: an internal
    // checkpoint must not resume in ask/tell mode (its evaluations came
    // from the simulator).
    require(!(external && !state.external &&
              (journaled_ > 0 || !state.suggests.empty())),
            "BoEngine: checkpoint was journaled by an internal-mode "
            "session; it cannot resume in ask/tell (external) mode");
    if (journaled_ > 0) {
      // A journal produced under one racing policy replays evaluations
      // another policy would have killed differently — refuse the
      // cross-mode resume.
      const std::string journaled_sig =
          state.racing_mode.empty() ? "off" : state.racing_mode;
      require(journaled_sig == racing,
              "BoEngine: checkpoint was journaled under a different "
              "racing configuration; resume with the racing setup "
              "(--racing/--eval-deadline) that produced it");
    } else {
      state.racing_mode = racing == "off" ? "" : racing;
    }
    // Never cleared once set: a restored external flag survives even
    // when the crash predated the first completed evaluation.
    if (external) state.external = true;
  }
  external_ = external || (session_ != nullptr && session_->state.external);

  // ---- Initial training set (§3.2): memoized best configs + LHS --------
  const int memo_count = std::min<int>(
      {options_.memoized_in_initial, static_cast<int>(memoized.size()),
       options_.initial_samples});
  for (int i = 0; i < memo_count; ++i) {
    init_subs_.push_back(project(memoized[static_cast<std::size_t>(i)].unit));
  }
  const auto lhs_count =
      static_cast<std::size_t>(options_.initial_samples - memo_count);
  if (lhs_count > 0) {
    const auto design =
        options_.lhs_initialization
            ? sampling::latin_hypercube(lhs_count, dims, rng_)
            : sampling::uniform_random(lhs_count, dims, rng_);
    init_subs_.insert(init_subs_.end(), design.begin(), design.end());
  }
}

std::optional<BoRound> BoEngine::propose() {
  require(!round_open_, "BoEngine: propose() before the open round was "
                        "ingested");
  for (;;) {
    open_round();
    if (finished_) return std::nullopt;
    // Freeze the round's guard threshold before replaying its prefix, so
    // a resume mid-round evaluates the live remainder under the same
    // threshold the uninterrupted session used.
    round_.threshold = guard_.current();
    round_.evals.clear();
    round_.evals.reserve(round_.points.size());
    while (round_.evals.size() < round_.points.size() &&
           replay_pos_ < journaled_) {
      const auto& state = session_->state;
      const auto& rec = state.evaluations[replay_pos_];
      require(rec.index == replay_pos_,
              "BoEngine: journal is not in canonical order");
      ++replay_pos_;
      obs::count("bo.journal_replayed");
      tuners::Evaluation e;
      e.unit = rec.unit;
      e.value_s = rec.value_s;
      e.cost_s = rec.cost_s;
      e.status = rec.status;
      e.stopped_early = rec.stopped_early;
      e.transient = rec.transient;
      e.attempts = rec.attempts;
      if (e.status == sparksim::RunStatus::kKilled) {
        // The kill reason lives in the journal's kill records, not the
        // eval record; restore it so a resumed history is identical.
        for (const auto& kill : state.kill_events) {
          if (kill.index == rec.index) {
            e.kill_reason = kill.reason;
            break;
          }
        }
      }
      tuners::append_evaluation(e, guard_, result_.tuning);
      round_.evals.push_back(std::move(e));
    }
    const std::size_t live_begin = round_.evals.size();
    if (live_begin == round_.points.size()) {
      fold_round();
      continue;
    }
    round_open_ = true;
    BoRound out;
    out.first_index = result_.tuning.history.size();
    out.points.assign(
        round_.points.begin() + static_cast<std::ptrdiff_t>(live_begin),
        round_.points.end());
    out.threshold = round_.threshold;
    return out;
  }
}

void BoEngine::absorb(std::vector<tuners::Evaluation>& live) {
  require(round_open_, "BoEngine: ingest() without an open round");
  require(round_.evals.size() + live.size() == round_.points.size(),
          "BoEngine: ingest() needs one outcome per proposed point");
  for (auto& e : live) {
    tuners::append_evaluation(e, guard_, result_.tuning);
    round_.evals.push_back(std::move(e));
  }
  round_open_ = false;
}

void BoEngine::ingest(std::vector<tuners::Evaluation> live) {
  absorb(live);
  fold_round();
}

void BoEngine::ingest_external(
    const std::vector<ExternalObservation>& reported) {
  require(round_open_, "BoEngine: ingest() without an open round");
  const std::size_t live_begin = round_.evals.size();
  require(live_begin + reported.size() == round_.points.size(),
          "BoEngine: ingest() needs one outcome per proposed point");
  std::vector<tuners::Evaluation> live;
  live.reserve(reported.size());
  for (std::size_t i = 0; i < reported.size(); ++i) {
    live.push_back(funnel_external(round_.points[live_begin + i],
                                   reported[i], round_.threshold));
  }
  const std::uint64_t first_index = result_.tuning.history.size();
  absorb(live);
  if (session_ != nullptr) {
    // Journal post-funnel (quarantine included): replay feeds each record
    // straight back through append_evaluation and lands identical state.
    // One flush resolves the round atomically: the eval records land and
    // their suggest entries leave the pending set.  The observations
    // themselves are already durable (acks journaled at tell time), so a
    // crash right here replays into the same evaluations.
    auto& state = session_->state;
    const auto& history = result_.tuning.history;
    for (std::uint64_t i = first_index; i < history.size(); ++i) {
      state.evaluations.push_back(record_of(history[i], i));
    }
    const std::uint64_t resolved_end = history.size();
    prune_suggests(state, resolved_end);
    // A finished session leases nothing more: its completed journal
    // carries no lease id, so its bytes do not depend on how often the
    // daemon restarted.
    if (resolved_end >= static_cast<std::uint64_t>(options_.budget)) {
      state.lease_mark = 0;
    }
    if (session_->flush) {
      obs::Span span("journal", "bo");
      span.arg("eval_index", resolved_end - 1);
      session_->flush(state);
    }
  }
  fold_round();
}

BoResult BoEngine::finish(bool interrupted) {
  result_.interrupted = interrupted;
  if (hedge_) {
    const auto gains = hedge_->gains();
    result_.hedge_gains.assign(gains.begin(), gains.end());
  } else {
    result_.hedge_gains.assign(3, 0.0);  // a fresh portfolio's gains
  }
  round_open_ = false;
  finished_ = true;
  return std::move(result_);
}

double BoEngine::observation(double seconds) const {
  return options_.log_observations ? std::log(std::max(1e-6, seconds))
                                   : seconds;
}

// One rung of the degradation ladder taken: counted (obs) and journaled,
// so a degraded session is auditable and byte-reproducible.
void BoEngine::note_degrade(const char* rung) {
  obs::count(std::string("degrade.") + rung);
  if (session_ != nullptr) {
    session_->state.degrade_events.push_back(
        DegradeEvent{static_cast<std::uint64_t>(iter_), rung});
  }
}

void BoEngine::open_round() {
  const auto q_opt = static_cast<std::size_t>(std::max(1, options_.batch_size));
  round_.points.clear();
  if (next_init_ < init_subs_.size()) {
    // An initial-design round: the next q_opt samples of the design.
    round_.init = true;
    round_.init_begin = next_init_;
    round_.init_end = std::min(init_subs_.size(), next_init_ + q_opt);
    next_init_ = round_.init_end;
    for (std::size_t i = round_.init_begin; i < round_.init_end; ++i) {
      round_.points.push_back(expand(init_subs_[i]));
    }
    return;
  }
  if (!hedge_) start_search();
  const int search_budget = options_.budget - options_.initial_samples;
  if (finished_ || iter_ >= search_budget) {
    finished_ = true;
    return;
  }
  round_.init = false;
  propose_batch(std::min(static_cast<int>(q_opt), search_budget - iter_));
}

// Ends the initial design: builds the surrogate and the Hedge portfolio.
void BoEngine::start_search() {
  // Safety valve: the GP needs observations to fit.  If flakes wiped out
  // (nearly) the whole initial design, fall back to the censored values —
  // a biased model beats no model.
  if (xs_.size() < 2) {
    for (auto& [sub, y] : censored_init_) {
      xs_.push_back(std::move(sub));
      ys_.push_back(y);
    }
  }
  censored_init_.clear();
  const std::size_t dims = selected_.size();
  kernel_state_ = gp::ard_kernel(dims);
  model_ = std::make_unique<gp::GaussianProcess>(kernel_state_->clone(),
                                                 gp::GpOptions{}, rng_());
  hedge_.emplace(dims, rng_(), options_.hedge);
  best_seen_ = result_.tuning.found_any()
                   ? result_.tuning.best_value_s()
                   : std::numeric_limits<double>::infinity();
}

// ---- BO loop (Algorithm 1, lines 8-14) ------------------------------------

void BoEngine::propose_batch(int q) {
  const std::size_t dims = selected_.size();
  const int iter = iter_;
  obs::count("bo.rounds");
  obs::Span iter_span("iteration", "bo");
  iter_span.arg("iter", iter);
  iter_span.arg("q", q);

  // (1) Train the surrogate on all priors.  Kernel hyperparameters are
  // refit by marginal likelihood on the schedule — every
  // `hyperfit_every` rounds (fixed), or whenever the training set has
  // doubled since the last refit (doubling: the total refit cost over a
  // run is a geometric series, O(n³) *amortized*).  In between, new
  // observations were already folded in by the previous round's fold,
  // incrementally in O(n²) / O(m²) via add_point and remove_point.
  const bool doubling_active =
      options_.refit_schedule == RefitSchedule::kDoubling ||
      (options_.refit_schedule == RefitSchedule::kAuto &&
       xs_.size() >= static_cast<std::size_t>(options_.sparse_threshold));
  const bool refit =
      doubling_active
          ? xs_.size() >= std::max<std::size_t>(next_doubling_n_, 1)
          : options_.hyperfit_every > 0 &&
                (iter % options_.hyperfit_every) == 0;
  if (refit) next_doubling_n_ = 2 * std::max<std::size_t>(1, xs_.size());
  if (refit || !model_fitted_) {
    obs::Span span("gp_fit", "bo");
    span.arg("points", static_cast<std::uint64_t>(xs_.size()));
    span.arg("hyperfit", refit ? 1 : 0);
    if (refit) obs::count("bo.gp_refits");
    model_fitted_ =
        fit_with_ladder(refit, options_.seed ^ static_cast<std::uint64_t>(iter));
  }

  // (2) Hedge proposes q configurations (or, in the single-acquisition
  // ablation, the forced function does).  Between proposals the pending
  // point is folded in as a constant-liar fantasy (CL-min): it pretends
  // to have returned the best observation so far, collapsing the
  // posterior variance around it so the next proposal explores
  // elsewhere.  The fantasies depend only on the q proposals, never on
  // evaluation scheduling, so the trajectory is worker-count-invariant.
  // When the ladder left no usable model this round, the whole round's
  // proposals degrade to a seeded space-filling design; when a single
  // proposal's acquisition optimizer fails, that proposal alone
  // degrades to a seeded uniform point.  Either way the fallback is a
  // pure function of (seed, iteration, slot) — byte-reproducible at
  // any worker count — and fallback proposals are excluded from the
  // Hedge portfolio's bookkeeping (no acquisition chose them).
  auto& choices = round_.choices;
  auto& fallback = round_.fallback;
  round_.q = q;
  choices.clear();
  fallback.assign(static_cast<std::size_t>(q), 0);
  choices.reserve(static_cast<std::size_t>(q));
  round_.fantasies_planted = 0;
  if (!model_fitted_) {
    Rng fb_rng(options_.seed ^
               (0xfa11ULL + static_cast<std::uint64_t>(iter) *
                                0x9e3779b97f4a7c15ULL));
    const auto design = sampling::latin_hypercube(
        static_cast<std::size_t>(q), dims, fb_rng);
    for (int j = 0; j < q; ++j) {
      note_degrade("fallback_proposal");
      gp::GpHedge::Choice choice;
      choice.point = design[static_cast<std::size_t>(j)];
      choice.chosen = gp::AcquisitionKind::kEI;  // placeholder; unused
      choice.nominees = {choice.point, choice.point, choice.point};
      fallback[static_cast<std::size_t>(j)] = 1;
      choices.push_back(std::move(choice));
    }
  } else {
    obs::Span span("acq_opt", "bo");
    span.arg("q", q);
    for (int j = 0; j < q; ++j) {
      gp::GpHedge::Choice choice;
      try {
        if (options_.force_acquisition) {
          Rng acq_rng(options_.seed ^
                      (0x9e37ULL + static_cast<std::uint64_t>(iter + j)));
          choice.chosen = *options_.force_acquisition;
          choice.point = gp::optimize_acquisition(
              *model_, choice.chosen, dims, acq_rng, options_.hedge.params,
              options_.hedge.optimizer);
          choice.nominees = {choice.point, choice.point, choice.point};
        } else {
          choice = hedge_->propose(*model_);
        }
      } catch (const NumericalError&) {
        note_degrade("acq_fallback");
        note_degrade("fallback_proposal");
        Rng fb_rng(options_.seed ^
                   (0xacdfULL + static_cast<std::uint64_t>(iter) * 131ULL +
                    static_cast<std::uint64_t>(j)));
        choice.point.assign(dims, 0.0);
        for (auto& c : choice.point) c = fb_rng.uniform();
        choice.chosen = gp::AcquisitionKind::kEI;  // placeholder; unused
        choice.nominees = {choice.point, choice.point, choice.point};
        fallback[static_cast<std::size_t>(j)] = 1;
      }
      if (fallback[static_cast<std::size_t>(j)] == 0) {
        obs::count(std::string("bo.hedge.selected.") +
                   gp::to_string(choice.chosen));
        result_.chosen_acquisitions.push_back(choice.chosen);
      }
      if (j + 1 < q) {
        const double lie =
            ys_.empty() ? 0.0 : *std::min_element(ys_.begin(), ys_.end());
        try {
          model_->add_point(choice.point, lie);
          ++round_.fantasies_planted;
        } catch (const NumericalError&) {
          // Skip the fantasy: add_point's strong exception guarantee
          // keeps the model usable for the remaining proposals.
          note_degrade("gp_add_point");
        }
      }
      choices.push_back(std::move(choice));
    }
  }
  for (const auto& choice : choices) round_.points.push_back(expand(choice.point));
}

void BoEngine::fold_round() {
  if (round_.init) {
    for (std::size_t i = round_.init_begin; i < round_.init_end; ++i) {
      const auto& e = round_.evals[i - round_.init_begin];
      // A racer kill certifies value >= threshold — the same censored
      // lower bound a guard stop would have produced — so it feeds the
      // model at its capped value.  Truly transient faults say nothing
      // about the configuration and are withheld.
      if (e.transient && e.status != sparksim::RunStatus::kKilled) {
        censored_init_.emplace_back(init_subs_[i], observation(e.value_s));
        continue;
      }
      xs_.push_back(init_subs_[i]);
      ys_.push_back(observation(e.value_s));
    }
    return;
  }
  const int q = round_.q;
  const int iter = iter_;
  const auto& evals = round_.evals;
  const auto& choices = round_.choices;
  // (3) The driver evaluated the batch (or propose() replayed it).
  // (4) Fold the real observations into the model and update Hedge's
  // cumulative gains under the refreshed posterior.  Transient failures
  // are withheld from the model (see the init phase).  With q = 1 the
  // incremental add_point path is taken (no fantasy was planted); with
  // q > 1 the round's constant-liar fantasies are purged by rank-1
  // downdates (they are the model's last points, so each removal is a
  // LIFO truncation) and the reals folded in incrementally — O(q·n²)
  // instead of the O(n³) refit-from-scratch this block used to cost.
  const std::size_t round_begin = xs_.size();
  for (int j = 0; j < q; ++j) {
    const auto& e = evals[static_cast<std::size_t>(j)];
    // Racer kills enter at their censored value (see the init phase);
    // other transients stay out of the model.
    if (e.transient && e.status != sparksim::RunStatus::kKilled) continue;
    xs_.push_back(choices[static_cast<std::size_t>(j)].point);
    ys_.push_back(observation(e.value_s));
    if (q == 1 && model_fitted_) {
      try {
        model_->add_point(xs_.back(), ys_.back());
      } catch (const NumericalError&) {
        // The observation is kept in (xs, ys); force the next round
        // through the full refit ladder instead of trusting a model
        // that could not absorb it.
        note_degrade("gp_add_point");
        model_fitted_ = false;
      }
    }
  }
  if (q > 1 && model_fitted_) {
    bool incremental = true;
    {
      obs::Span span("cl_purge", "bo");
      span.arg("fantasies", round_.fantasies_planted);
      span.arg("reals", static_cast<std::uint64_t>(xs_.size() - round_begin));
      try {
        for (int k = 0; k < round_.fantasies_planted; ++k) {
          model_->remove_point(model_->num_points() - 1);
        }
        if (round_.fantasies_planted > 0) {
          obs::count("bo.cl_purge.downdates",
                     static_cast<std::uint64_t>(round_.fantasies_planted));
        }
        for (std::size_t i = round_begin; i < xs_.size(); ++i) {
          model_->add_point(xs_[i], ys_[i]);
        }
      } catch (const NumericalError&) {
        // A lost downdate (or an add the model could not absorb): the
        // strong guarantees kept the model predictable, but its
        // training set no longer matches (xs, ys) — rebuild it via the
        // refit rung.  Deterministic in (seed, iter): worker count
        // never reaches here.
        note_degrade("cl_purge");
        incremental = false;
      }
    }
    if (!incremental) {
      obs::count("bo.cl_purge.refits");
      obs::Span span("gp_fit", "bo");
      span.arg("points", static_cast<std::uint64_t>(xs_.size()));
      span.arg("hyperfit", 0);
      model_fitted_ = fit_with_ladder(
          false,
          options_.seed ^ (0x51edULL + static_cast<std::uint64_t>(iter)));
    }
  }
  // Hedge gains need a refreshed posterior; fallback proposals carry no
  // acquisition to reward or punish.
  if (model_fitted_) {
    for (int j = 0; j < q; ++j) {
      if (round_.fallback[static_cast<std::size_t>(j)] != 0) continue;
      hedge_->update_gains(*model_, choices[static_cast<std::size_t>(j)]);
    }
  }

  if (observer_ && model_fitted_) {
    for (int j = 0; j < q; ++j) {
      BoObserverInfo info;
      info.iteration = iter + j;
      info.gp = model_.get();
      info.choice = &choices[static_cast<std::size_t>(j)];
      observer_(info);
    }
  }

  // Automated early stopping (§4), optional — checked per evaluation in
  // canonical order, so a patience trip mid-batch truncates the session
  // at the same iteration count regardless of q's remainder.
  for (int j = 0; j < q; ++j) {
    result_.iterations_run = iter + j + 1;
    const auto& e = evals[static_cast<std::size_t>(j)];
    if (e.ok() &&
        e.value_s < best_seen_ * (1.0 - options_.early_stop_epsilon)) {
      best_seen_ = e.value_s;
      since_improvement_ = 0;
    } else {
      ++since_improvement_;
      if (options_.early_stop_patience > 0 &&
          since_improvement_ >= options_.early_stop_patience) {
        result_.early_stopped = true;
        obs::count("bo.early_stops");
        finished_ = true;
        return;
      }
    }
  }
  iter_ += q;
}

// Deduplicates the training set (L-inf distance < 1e-10, first occurrence
// kept) — near-identical points are the classic cause of a singular
// kernel matrix.  Falls back to the full set when fewer than two distinct
// points remain (the GP needs two).
void BoEngine::dedup_training(std::vector<std::vector<double>>& dx,
                              std::vector<double>& dy) const {
  dx.clear();
  dy.clear();
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    bool duplicate = false;
    for (const auto& kept : dx) {
      double dist = 0.0;
      for (std::size_t d = 0; d < kept.size(); ++d) {
        dist = std::max(dist, std::abs(kept[d] - xs_[i][d]));
      }
      if (dist < 1e-10) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      dx.push_back(xs_[i]);
      dy.push_back(ys_[i]);
    }
  }
  if (dx.size() < 2) {
    dx = xs_;
    dy = ys_;
  }
}

// Degradation ladder for exact-GP fits (DESIGN.md §11): a failed fit
// walks deterministic fallback rungs instead of killing the session —
// retry on deduplicated data, retry with inflated observation noise, and
// finally skip the model update for this round (the proposal step then
// degrades to seeded space-filling sampling).  Returns true when some
// rung produced a usable model; `model_` is only assigned on a
// successful rung, never left half-fitted.
bool BoEngine::fit_exact_ladder(bool hyperfit, std::uint64_t fit_seed) {
  try {
    gp::GpOptions gp_options;
    gp_options.optimize_hyperparameters = hyperfit;
    gp_options.shrink_restarts_at = options_.sparse_threshold;
    gp::GaussianProcess candidate(kernel_state_->clone(), gp_options,
                                  fit_seed);
    candidate.fit(xs_, ys_);
    kernel_state_ = candidate.kernel().clone();
    model_ = std::make_unique<gp::GaussianProcess>(std::move(candidate));
    return true;
  } catch (const NumericalError&) {
    note_degrade("gp_refit");
  }
  std::vector<std::vector<double>> dx;
  std::vector<double> dy;
  dedup_training(dx, dy);
  try {
    gp::GpOptions gp_options;
    gp_options.optimize_hyperparameters = false;
    gp::GaussianProcess candidate(kernel_state_->clone(), gp_options,
                                  fit_seed);
    candidate.fit(dx, dy);
    model_ = std::make_unique<gp::GaussianProcess>(std::move(candidate));
    return true;
  } catch (const NumericalError&) {
    note_degrade("gp_noise_inflate");
  }
  try {
    gp::GpOptions gp_options;
    gp_options.optimize_hyperparameters = false;
    auto inflated = std::make_unique<gp::SumKernel>(
        kernel_state_->clone(), std::make_unique<gp::WhiteNoise>(0.1));
    gp::GaussianProcess candidate(std::move(inflated), gp_options, fit_seed);
    candidate.fit(dx, dy);
    model_ = std::make_unique<gp::GaussianProcess>(std::move(candidate));
    return true;
  } catch (const NumericalError&) {
    note_degrade("gp_skip");
    return false;
  }
}

// Random-features rung (DESIGN.md §15): fit the sparse tier under the
// kernel-state hyperparameters.  Any failure — a kernel shape the
// spectral map cannot mirror, or a lost factorization (incl. chaos) —
// lands the journaled `rff_fallback` rung and the caller keeps or
// rebuilds the exact model instead.
bool BoEngine::fit_rff() {
  const auto hypers =
      gp::extract_matern_hyperparams(*kernel_state_, selected_.size());
  if (!hypers) {
    note_degrade("rff_fallback");
    return false;
  }
  gp::RffOptions rff_options;
  rff_options.num_features = static_cast<std::size_t>(options_.rff_features);
  rff_options.seed = options_.seed ^ 0x5eedULL;
  try {
    gp::RffGp candidate(rff_options);
    candidate.fit(xs_, ys_, *hypers);
    model_ = std::make_unique<gp::RffGp>(std::move(candidate));
    obs::count("bo.surrogate.rff_fits");
    return true;
  } catch (const NumericalError&) {
    note_degrade("rff_fallback");
    return false;
  }
}

// Tier dispatch: below the switchover everything (arithmetic and
// trajectory) is byte-identical to the exact-only engine.  Above it,
// hyperfit rounds still *learn* on the exact GP (that is where the
// marginal likelihood lives), then refit the sparse tier on top; plain
// rounds fit the sparse tier directly and only fall back to the exact
// ladder when the RFF fit is lost.
bool BoEngine::fit_with_ladder(bool hyperfit, std::uint64_t fit_seed) {
  const bool want_sparse =
      options_.surrogate == SurrogateTier::kRff ||
      (options_.surrogate == SurrogateTier::kAuto &&
       xs_.size() >= static_cast<std::size_t>(options_.sparse_threshold));
  if (!want_sparse) return fit_exact_ladder(hyperfit, fit_seed);
  if (hyperfit) {
    if (!fit_exact_ladder(true, fit_seed)) return false;
    // A failed RFF fit keeps the freshly fitted exact model — degraded
    // in speed, never in correctness.
    fit_rff();
    return true;
  }
  if (fit_rff()) return true;
  return fit_exact_ladder(false, fit_seed);
}

}  // namespace robotune::core
