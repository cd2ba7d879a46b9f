// Bayesian Optimization Engine (paper §3.4, Algorithm 1).
//
// The engine searches the *selected* low-dimensional subspace: unselected
// parameters stay at a base configuration (the framework defaults).  Each
// iteration fits a Gaussian process (Matérn 5/2 + white noise) on all
// prior observations, asks the GP-Hedge portfolio (PI/EI/LCB) for the
// next configuration, evaluates it under the guard thresholds, and
// updates the portfolio's gains.
//
// The engine is a step-wise ask/tell core (the shape of scikit-optimize's
// Optimizer, the paper's engine).  It owns the GP, Hedge, guard,
// degradation-ladder and journal-replay state, and does two things:
// `propose()` hands out the next round of points and `ingest()` folds the
// round's outcomes back in.  Who evaluates a round is the driver's
// business.  `run_round()` evaluates one round on an exec::EvalScheduler
// (propose → run_batch, journaling each completion → ingest); `run()` is
// begin, run_round until finished, finish.  A daemon-hosted session
// (core::Session, DESIGN.md §16) calls run_round once per step, or — in
// ask/tell mode — publishes each round to external executors and ingests
// what they report.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/memoization.h"
#include "core/persistence.h"
#include "exec/eval_scheduler.h"
#include "gp/acquisition.h"
#include "gp/gaussian_process.h"
#include "sparksim/objective.h"
#include "tuners/tuner.h"

namespace robotune::core {

struct ExternalObservation;

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
  /// True when the session was stopped before its budget (BoOptions::
  /// cancel, or its ask/tell host); the journal holds a resumable
  /// checkpoint.
  bool interrupted = false;
  int iterations_run = 0;
};

/// One round handed out by BoEngine::propose: the live remainder of a
/// batch whose journaled prefix was already replayed.
struct BoRound {
  std::uint64_t first_index = 0;            ///< eval index of points[0]
  std::vector<std::vector<double>> points;  ///< full-space unit vectors
  /// Guard threshold frozen for the whole round (before its replayed
  /// prefix), so a resume mid-round runs the remainder under the
  /// threshold the uninterrupted session used.
  double threshold = 0.0;
};

class BoEngine {
 public:
  /// `selected` lists the subspace parameter indices; `base_unit` supplies
  /// the coordinates of all non-selected parameters.
  BoEngine(std::vector<std::size_t> selected, std::vector<double> base_unit,
           BoOptions options = {});

  /// The internal driver: runs Algorithm 1 (batched when
  /// options.batch_size > 1) as begin → run_round until propose() says
  /// finished or `options.cancel` is set at a round boundary.
  /// `memoized` seeds the initial set (pass {} for an unseen
  /// workload).  `session`, when given, journals every completed
  /// evaluation and replays a previously journaled prefix (see
  /// SessionLog).  Every round runs through `scheduler` — or, when it is
  /// null, through an inline one-worker scheduler — with per-eval
  /// index-derived seed streams, so results are bit-identical for any
  /// scheduler parallelism.  A checkpoint an ask/tell session journaled
  /// replays here too, but refuses to run live evaluations: only its
  /// external executors can continue it.
  BoResult run(sparksim::SparkObjective& objective,
               const std::vector<MemoizedConfig>& memoized = {},
               const BoObserver& observer = nullptr,
               SessionLog* session = nullptr,
               exec::EvalScheduler* scheduler = nullptr);

  // ---- the step-wise core ---------------------------------------------

  /// Starts the engine's one session: canonicalizes and pins the journal
  /// (racing signature, session mode) and draws the initial design.  `racing` is
  /// the exec::racing_signature live rounds will be evaluated under;
  /// `external` marks an ask/tell session (a checkpoint journaled by an
  /// internal session is refused).
  void begin(const std::vector<MemoizedConfig>& memoized,
             const BoObserver& observer, SessionLog* session,
             const std::string& racing, bool external);

  /// One round on `scheduler`: propose → EvalScheduler::run_batch →
  /// ingest, journaling every completed evaluation through the session
  /// log as it lands.  False (nothing run) once propose() says finished.
  /// A checkpoint an ask/tell session journaled is refused once its
  /// journal runs out: only its external executors can continue it.
  bool run_round(sparksim::SparkObjective& objective,
                 exec::EvalScheduler& scheduler);

  /// The next round, or nullopt once the budget is spent or early
  /// stopping tripped.  Journaled evaluations are replayed in here, so a
  /// round is handed out only for its live remainder, and a fully
  /// journaled round is folded in without ever leaving the engine.
  std::optional<BoRound> propose();

  /// Folds in the outcomes of the round propose() handed out, one per
  /// point in point order.  Journaling them is the driver's job.
  void ingest(std::vector<tuners::Evaluation> live);

  /// Ask/tell counterpart of ingest: maps each reported (value, cost,
  /// status) tuple onto the evaluation the simulator path would have
  /// produced under the round's frozen threshold, journals the eval
  /// records and drops the round's suggest records in one flush, then
  /// folds them in.
  void ingest_external(const std::vector<ExternalObservation>& reported);

  /// Ends the session and returns its result.  `interrupted` marks a
  /// stop before propose() said finished; the journal (if any) then
  /// holds a resumable checkpoint.
  BoResult finish(bool interrupted);

  /// Projects a full-space unit vector onto the selected subspace.
  std::vector<double> project(const std::vector<double>& full) const;
  /// Expands a subspace point to a full-space unit vector over the base.
  std::vector<double> expand(const std::vector<double>& sub) const;

  const std::vector<std::size_t>& selected() const noexcept {
    return selected_;
  }

 private:
  void open_round();
  void propose_batch(int q);
  void start_search();
  void absorb(std::vector<tuners::Evaluation>& live);
  void fold_round();
  bool fit_exact_ladder(bool hyperfit, std::uint64_t fit_seed);
  bool fit_rff();
  bool fit_with_ladder(bool hyperfit, std::uint64_t fit_seed);
  void dedup_training(std::vector<std::vector<double>>& dx,
                      std::vector<double>& dy) const;
  void note_degrade(const char* rung);
  double observation(double seconds) const;

  std::vector<std::size_t> selected_;
  std::vector<double> base_unit_;
  BoOptions options_;

  // ---- the one session an engine runs ----------------------------------
  bool begun_ = false;
  SessionLog* session_ = nullptr;
  BoObserver observer_;
  bool external_ = false;  ///< its rounds are resolved by ingest_external
  BoResult result_;
  Rng rng_;
  tuners::GuardPolicy guard_;
  std::size_t replay_pos_ = 0;  ///< next journaled evaluation to replay
  std::size_t journaled_ = 0;
  std::vector<std::vector<double>> init_subs_;  ///< the initial design
  std::size_t next_init_ = 0;
  /// Transient initial samples: trained on only if flakes wiped out
  /// (nearly) the whole design.
  std::vector<std::pair<std::vector<double>, double>> censored_init_;
  std::vector<std::vector<double>> xs_;  ///< subspace training points
  std::vector<double> ys_;
  /// The learned (hyperfit) kernel, kept apart from model_->kernel(): the
  /// noise-inflation rung fits a temporary Sum(kernel, WhiteNoise) model,
  /// and cloning *that* forward would stack a noise term per round.
  std::unique_ptr<gp::Kernel> kernel_state_;
  std::unique_ptr<gp::Surrogate> model_;
  std::optional<gp::GpHedge> hedge_;  ///< created when the search starts
  bool model_fitted_ = false;
  int iter_ = 0;  ///< BO iterations done (evaluations past the design)
  double best_seen_ = 0.0;
  int since_improvement_ = 0;
  /// Doubling schedule: the training-set size of the next refit.
  std::size_t next_doubling_n_ = 0;
  bool finished_ = false;
  bool round_open_ = false;  ///< handed out by propose, not yet ingested
  /// The round between propose() and its fold: an initial-design slice
  /// [init_begin, init_end) or a BO iteration's q proposals (fallback[j]
  /// marks a seeded one Hedge did not choose), and its evaluations so
  /// far (replayed prefix, then live).
  struct Round {
    bool init = true;
    std::size_t init_begin = 0, init_end = 0;
    int q = 0;
    std::vector<gp::GpHedge::Choice> choices;
    std::vector<char> fallback;
    int fantasies_planted = 0;
    std::vector<std::vector<double>> points;
    double threshold = 0.0;
    std::vector<tuners::Evaluation> evals;
  } round_;
};

}  // namespace robotune::core
