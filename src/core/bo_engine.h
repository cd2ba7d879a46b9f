// Bayesian Optimization Engine (paper §3.4, Algorithm 1).
//
// The engine searches the *selected* low-dimensional subspace: unselected
// parameters stay at a base configuration (the framework defaults).  Each
// iteration fits a Gaussian process (Matérn 5/2 + white noise) on all
// prior observations, asks the GP-Hedge portfolio (PI/EI/LCB) for the
// next configuration, evaluates it under the guard thresholds, and
// updates the portfolio's gains.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "core/memoization.h"
#include "core/persistence.h"
#include "exec/eval_scheduler.h"
#include "gp/acquisition.h"
#include "gp/gaussian_process.h"
#include "sparksim/objective.h"
#include "tuners/tuner.h"

namespace robotune::core {

class ExternalBridge;

/// Which surrogate tier models the observations (DESIGN.md §15).
enum class SurrogateTier {
  kExact,  ///< always the exact GP (O(n³) fits)
  kRff,    ///< always the random-features tier (O(n·m²) fits)
  kAuto,   ///< exact below BoOptions::sparse_threshold points, RFF above
};

/// When kernel hyperparameters are re-learned by marginal likelihood.
enum class RefitSchedule {
  kFixed,     ///< every BoOptions::hyperfit_every iterations
  kDoubling,  ///< when the training set doubles since the last refit —
              ///< total refit cost stays O(n³) *amortized over the run*
  kAuto,      ///< fixed below sparse_threshold, doubling above
};

const char* to_string(SurrogateTier tier) noexcept;
const char* to_string(RefitSchedule schedule) noexcept;
std::optional<SurrogateTier> parse_surrogate_tier(std::string_view name);
std::optional<RefitSchedule> parse_refit_schedule(std::string_view name);

struct BoOptions {
  /// Total evaluation budget, initial samples included (paper: 100).
  int budget = 100;
  /// Initial training set size (paper: 20).
  int initial_samples = 20;
  /// How many memoized configurations to blend into the initial set
  /// (paper: 4 best recent + 16 LHS).
  int memoized_in_initial = 4;
  /// Guard thresholds (§4): static for initial samples, a multiple of the
  /// running median during the search.
  double static_threshold_s = 480.0;
  double median_multiple = 2.5;
  /// Kernel hyperparameters are refit by marginal likelihood every this
  /// many iterations (1 = every iteration) under the fixed schedule.
  int hyperfit_every = 5;
  /// Hyperparameter-refit cadence (see RefitSchedule).  The default
  /// (kAuto) keeps the fixed cadence — and byte-identical trajectories —
  /// below `sparse_threshold` and switches to doubling above it.
  RefitSchedule refit_schedule = RefitSchedule::kAuto;
  /// Surrogate tier selection (see SurrogateTier).  kAuto is exact below
  /// `sparse_threshold` training points, random features at or above.
  SurrogateTier surrogate = SurrogateTier::kAuto;
  /// Training-set size where kAuto switches tiers, doubling-refit
  /// scheduling kicks in, and the exact GP's hyperparameter search drops
  /// to a single warm-started descent.
  int sparse_threshold = 256;
  /// Random-feature count m for the RFF tier (fit O(n·m²)).
  int rff_features = 256;
  /// Optional automated early stopping (§4): stop when the best value has
  /// not improved by `early_stop_epsilon` (relative) for
  /// `early_stop_patience` iterations.  0 disables.
  int early_stop_patience = 0;
  double early_stop_epsilon = 0.01;
  /// Model log(time) in the GP: execution times are positive with a
  /// heavy right tail (guard-killed and failed configurations), which a
  /// stationary Matérn kernel fits poorly in linear space.
  bool log_observations = true;
  /// Ablation knob: bypass the Hedge portfolio and always use one
  /// acquisition function (paper §3.4 argues the portfolio beats any
  /// single function; bench/abl_hedge_vs_single measures it).
  std::optional<gp::AcquisitionKind> force_acquisition;
  /// Ablation knob: draw the initial samples uniformly at random instead
  /// of via LHS (bench/abl_lhs_vs_random).
  bool lhs_initialization = true;
  /// Batch width q of the BO loop: each round proposes q configurations
  /// via constant-liar fantasies (CL-min: every pending point pretends to
  /// have returned the best observation so far, pushing later proposals
  /// away from it) and evaluates them as one group — concurrently when a
  /// multi-worker scheduler is attached.  q = 1 reproduces the sequential
  /// Algorithm 1 exactly.  The trajectory depends on q, never on how many
  /// workers evaluate the batch.
  int batch_size = 1;
  /// GP-Hedge portfolio configuration.
  gp::GpHedge::Options hedge;
  /// Cooperative cancellation (graceful SIGINT/SIGTERM): when non-null
  /// and set, the engine stops at the next round boundary and returns
  /// with `interrupted = true` — every completed evaluation journaled, so
  /// the checkpoint resumes bit-identically.  The engine only reads the
  /// flag; signal handlers may set it from any thread.
  const std::atomic<bool>* cancel = nullptr;
  /// Cooperative fair-scheduling hook (the service layer's round-robin
  /// turnstile): invoked at every round boundary, immediately before
  /// `cancel` is polled.  The hook may block — that is how a session
  /// manager slices CPU between concurrent sessions — but must not
  /// mutate engine-visible state, so a null or no-op yield leaves the
  /// trajectory byte-identical.
  std::function<void()> yield;
  std::uint64_t seed = 2024;
};

struct BoObserverInfo {
  int iteration = 0;  ///< 0-based index of the BO iteration (post-init)
  /// The active surrogate (exact GP or RFF tier — check gp->tier()).
  const gp::Surrogate* gp = nullptr;
  const gp::GpHedge::Choice* choice = nullptr;
};

/// Called after every BO iteration; used by the Fig. 9 response-surface
/// bench to snapshot the posterior.
using BoObserver = std::function<void(const BoObserverInfo&)>;

/// Checkpoint/resume journal for a BO session.
///
/// On a fresh session the engine appends one EvalRecord per completed
/// evaluation to `state.evaluations` and calls `flush` after each — the
/// flush typically rewrites the checkpoint file, so a kill -9 at any
/// point loses at most the evaluation in flight.
///
/// On resume, pass the loaded checkpoint back in: the engine re-runs all
/// of its (deterministic) modeling math but substitutes journaled
/// outcomes for the first `state.evaluations.size()` cluster runs,
/// skipping their eval indices (every evaluation's seed stream is
/// derived from its index, so nothing else needs fast-forwarding).  Once
/// the journal is exhausted the session continues live, bit-identical to
/// a never-interrupted run.
///
/// Parallel sessions journal evaluations in *completion* order; the
/// engine canonicalizes the journal (sort by eval index, truncate at the
/// first gap) before replaying, so a crash mid-batch loses only the
/// evaluations that had not finished plus any stranded past a hole.  A
/// checkpoint resumes only under the racing policy that produced it.
struct SessionLog {
  SessionCheckpoint state;
  std::function<void(const SessionCheckpoint&)> flush;
};

struct BoResult {
  tuners::TuningResult tuning;       ///< all evaluations (init + search)
  std::vector<gp::AcquisitionKind> chosen_acquisitions;
  std::vector<double> hedge_gains;   ///< final gains (PI, EI, LCB)
  bool early_stopped = false;
  /// True when BoOptions::cancel stopped the session before its budget;
  /// the journal (if any) holds a resumable checkpoint.
  bool interrupted = false;
  int iterations_run = 0;
};

class BoEngine {
 public:
  /// `selected` lists the subspace parameter indices; `base_unit` supplies
  /// the coordinates of all non-selected parameters.
  BoEngine(std::vector<std::size_t> selected, std::vector<double> base_unit,
           BoOptions options = {});

  /// Runs Algorithm 1 (batched when options.batch_size > 1).  `memoized`
  /// seeds the initial set (pass {} for an unseen workload).  `session`,
  /// when given, journals every completed evaluation and replays a
  /// previously journaled prefix (see SessionLog).  Every evaluation
  /// batch runs through `scheduler` — or, when it is null, through an
  /// inline one-worker scheduler — with per-eval index-derived seed
  /// streams, so results are bit-identical for any scheduler
  /// parallelism.
  ///
  /// `external`, when given, turns the engine into ask/tell mode
  /// (DESIGN.md §16): each round's batch is published through the
  /// bridge instead of evaluated, and the engine blocks until an
  /// external executor reports every observation back.  Mutually
  /// exclusive with `scheduler`.  An external-mode checkpoint replays
  /// standalone (no bridge) but refuses to run live evaluations without
  /// one.
  BoResult run(sparksim::SparkObjective& objective,
               const std::vector<MemoizedConfig>& memoized = {},
               const BoObserver& observer = nullptr,
               SessionLog* session = nullptr,
               exec::EvalScheduler* scheduler = nullptr,
               ExternalBridge* external = nullptr);

  /// Projects a full-space unit vector onto the selected subspace.
  std::vector<double> project(const std::vector<double>& full) const;
  /// Expands a subspace point to a full-space unit vector over the base.
  std::vector<double> expand(const std::vector<double>& sub) const;

  const std::vector<std::size_t>& selected() const noexcept {
    return selected_;
  }

 private:
  std::vector<std::size_t> selected_;
  std::vector<double> base_unit_;
  BoOptions options_;
};

}  // namespace robotune::core
