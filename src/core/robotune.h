// ROBOTune: the top-level tuning framework (paper Figure 1).
//
// On a tuning request for (workload, dataset):
//  * the parameter-selection cache is consulted; a miss triggers the
//    Random-Forests selection pipeline on 100 generic LHS samples and the
//    result is cached for the workload;
//  * the configuration memoization buffer supplies up to 4 best recent
//    configurations when the workload was tuned before (on any dataset);
//  * the BO engine searches the selected subspace under the remaining
//    budget and the best configurations found are stored back into the
//    memoization buffer.
//
// ROBOTune implements the common Tuner interface so the benchmark
// harnesses can drive it side by side with BestConfig, Gunther and RS.
// tune_report runs the whole session with BoEngine's internal driver;
// begin_search/end_search split it around the BO search for hosts that
// drive the engine a round at a time (core::Session: the CLI, and the
// daemon's internal and ask/tell sessions, DESIGN.md §16).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/bo_engine.h"
#include "core/memoization.h"
#include "core/parameter_selection.h"
#include "tuners/tuner.h"

namespace robotune::core {

struct RoboTuneOptions {
  BoOptions bo;
  SelectionOptions selection;
  /// Joint-parameter definitions used during selection; defaults to the
  /// Spark 2.4 groups when empty.
  std::vector<std::vector<std::string>> joint_groups;
  /// Number of best configs pushed into the memoization buffer after a
  /// session.
  std::size_t memoize_top_k = 4;
};

struct RoboTuneReport {
  tuners::TuningResult tuning;          ///< the BO session (init + search)
  std::vector<std::size_t> selected;    ///< tuned parameter indices
  bool selection_cache_hit = false;
  bool used_memoized_configs = false;
  /// One-time parameter-selection cost (excluded from search cost, §5.3).
  double selection_cost_s = 0.0;
  SelectionReport selection_report;     ///< empty on a cache hit
  BoResult bo;
};

class RoboTune : public tuners::Tuner {
 public:
  explicit RoboTune(RoboTuneOptions options = {});

  std::string name() const override { return "ROBOTune"; }

  /// Tuner-interface entry point: keys the caches by the objective's
  /// workload name (dataset-independent, per §3.2).
  tuners::TuningResult tune(sparksim::SparkObjective& objective, int budget,
                            std::uint64_t seed) override;

  /// Full-featured entry point returning selection + memoization details.
  ///
  /// `session`, when given, makes the run restartable: a fresh session
  /// records its selection result and journals every evaluation through
  /// the log's flush hook; a session whose log already carries state (a
  /// loaded checkpoint) skips parameter selection and replays the journal
  /// so the continuation is identical to an uninterrupted run (the
  /// checkpoint's seed/budget/workload must match).
  ///
  /// `scheduler`, when given, runs the BO evaluation batches on its
  /// workers (see BoEngine::run; without one they run inline on one
  /// worker, with the same index-derived seed streams and results).
  /// Parameter selection itself stays sequential.
  RoboTuneReport tune_report(sparksim::SparkObjective& objective, int budget,
                             std::uint64_t seed,
                             const BoObserver& observer = nullptr,
                             SessionLog* session = nullptr,
                             exec::EvalScheduler* scheduler = nullptr);

  /// tune_report up to the BO search, for a host that drives the engine
  /// a round at a time: selection as in tune_report (against the
  /// simulator even for an ask/tell session — its generic LHS probes are
  /// not something an external executor serves), and the engine begun on
  /// `session` under the exec::racing_signature its rounds run with.
  /// `external` pins the journal to ask/tell mode.
  std::unique_ptr<BoEngine> begin_search(sparksim::SparkObjective& objective,
                                         int budget, std::uint64_t seed,
                                         SessionLog* session,
                                         const std::string& racing,
                                         bool external,
                                         RoboTuneReport& report);
  /// tune_report after the BO search: the engine's result into `report`,
  /// the best configurations into the memoization buffer.
  void end_search(const sparksim::SparkObjective& objective, BoResult bo,
                  RoboTuneReport& report);

  ParameterSelectionCache& selection_cache() { return selection_cache_; }
  ConfigMemoizationBuffer& memo_buffer() { return memo_buffer_; }
  const RoboTuneOptions& options() const { return options_; }

 private:
  /// Parameter selection (checkpoint, cache hit, or RF pipeline), the
  /// memoized-config snapshot, and the session metadata's first flush.
  /// Returns the memoized configurations that seed the initial design.
  std::vector<MemoizedConfig> prepare(sparksim::SparkObjective& objective,
                                      int budget, std::uint64_t seed,
                                      SessionLog* session, bool external,
                                      RoboTuneReport& report);
  BoOptions bo_options(int budget, std::uint64_t seed) const;

  RoboTuneOptions options_;
  ParameterSelectionCache selection_cache_;
  ConfigMemoizationBuffer memo_buffer_;
};

}  // namespace robotune::core
