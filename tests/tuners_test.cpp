// Tests for the tuner infrastructure and the three baseline tuners.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>

#include "exec/eval_scheduler.h"
#include "sparksim/objective.h"
#include "tuners/bestconfig.h"
#include "tuners/gunther.h"
#include "tuners/random_search.h"
#include "tuners/tuner.h"

namespace robotune::tuners {
namespace {

using sparksim::RunStatus;

sparksim::SparkObjective make_objective(std::uint64_t seed = 42,
                                        sparksim::WorkloadKind kind =
                                            sparksim::WorkloadKind::kTeraSort,
                                        int dataset = 1) {
  return sparksim::SparkObjective(sparksim::ClusterSpec{},
                                  sparksim::make_workload(kind, dataset),
                                  sparksim::spark24_config_space(), seed);
}

// -------------------------------------------------------- GuardPolicy ----

TEST(GuardPolicyTest, StaticThresholdOnly) {
  GuardPolicy guard(480.0, 0.0);
  EXPECT_DOUBLE_EQ(guard.current(), 480.0);
}

TEST(GuardPolicyTest, NoGuardMeansZero) {
  GuardPolicy guard(0.0, 0.0);
  EXPECT_DOUBLE_EQ(guard.current(), 0.0);
}

TEST(GuardPolicyTest, MedianMultipleActivatesAfterFiveSamples) {
  GuardPolicy guard(480.0, 2.0);
  Evaluation e;
  e.status = RunStatus::kOk;
  for (double v : {100.0, 110.0, 90.0, 105.0}) {
    e.value_s = v;
    guard.record(e);
  }
  EXPECT_DOUBLE_EQ(guard.current(), 480.0);  // only 4 samples yet
  e.value_s = 95.0;
  guard.record(e);
  EXPECT_DOUBLE_EQ(guard.current(), 200.0);  // 2 x median(…)=2x100
}

TEST(GuardPolicyTest, IgnoresFailedAndStoppedRuns) {
  GuardPolicy guard(480.0, 2.0);
  Evaluation bad;
  bad.status = RunStatus::kOom;
  bad.value_s = 600.0;
  for (int i = 0; i < 10; ++i) guard.record(bad);
  EXPECT_DOUBLE_EQ(guard.current(), 480.0);
}

TEST(GuardPolicyTest, StaticCapWinsWhenTighter) {
  GuardPolicy guard(150.0, 3.0);
  Evaluation e;
  e.status = RunStatus::kOk;
  for (double v : {100.0, 100.0, 100.0, 100.0, 100.0}) {
    e.value_s = v;
    guard.record(e);
  }
  EXPECT_DOUBLE_EQ(guard.current(), 150.0);  // min(150, 300)
}

TEST(GuardPolicyTest, ThresholdIsMinOfStaticCapAndMedianMultiple) {
  GuardPolicy guard(480.0, 2.0);
  Evaluation e;
  e.status = RunStatus::kOk;
  for (double v : {100.0, 100.0, 100.0, 100.0, 100.0}) {
    e.value_s = v;
    guard.record(e);
  }
  ASSERT_EQ(guard.observations(), 5u);
  EXPECT_DOUBLE_EQ(guard.current(), 200.0);  // min(480, 2 x 100)
  // A run of slow successes pushes the median-derived bound back above
  // the static cap, which takes over again.
  for (double v : {400.0, 400.0, 400.0, 400.0, 400.0, 400.0}) {
    e.value_s = v;
    guard.record(e);
  }
  EXPECT_DOUBLE_EQ(guard.current(), 480.0);  // min(480, 2 x 400)
}

TEST(GuardPolicyTest, EarlyStoppedAndFailedRunsNeverEnterTheMedian) {
  GuardPolicy guard(480.0, 2.0);
  Evaluation stopped;
  stopped.status = RunStatus::kTimeLimit;
  stopped.stopped_early = true;
  stopped.value_s = 480.0;
  Evaluation failed;
  failed.status = RunStatus::kOom;
  failed.value_s = 504.0;
  Evaluation transient;
  transient.status = RunStatus::kExecutorLost;
  transient.transient = true;
  transient.value_s = 480.0;
  for (int i = 0; i < 5; ++i) {
    guard.record(stopped);
    guard.record(failed);
    guard.record(transient);
  }
  EXPECT_EQ(guard.observations(), 0u);
  EXPECT_DOUBLE_EQ(guard.current(), 480.0);  // static cap only
  // Clean successes are the only observations that count.
  Evaluation ok;
  ok.status = RunStatus::kOk;
  ok.value_s = 50.0;
  for (int i = 0; i < 5; ++i) guard.record(ok);
  EXPECT_EQ(guard.observations(), 5u);
  EXPECT_DOUBLE_EQ(guard.current(), 100.0);
}

TEST(EvaluateIntoTest, ChargesExactlyTheThresholdOnEarlyStop) {
  auto objective = make_objective(30);
  GuardPolicy guard(30.0, 0.0);  // far below any real execution time
  TuningResult result;
  const auto e = evaluate_into(objective, objective.space().default_unit(),
                               guard, result);
  EXPECT_TRUE(e.stopped_early);
  EXPECT_EQ(e.status, RunStatus::kTimeLimit);
  EXPECT_DOUBLE_EQ(e.value_s, 30.0);
  EXPECT_DOUBLE_EQ(e.cost_s, 30.0);
  EXPECT_DOUBLE_EQ(result.search_cost_s, 30.0);
  EXPECT_EQ(guard.observations(), 0u);  // the stop never feeds the median
}

// ------------------------------------------------------- TuningResult ----

TEST(TuningResultTest, BestTrackingPrefersSuccessfulRuns) {
  auto objective = make_objective(1);
  GuardPolicy guard(480.0, 0.0);
  TuningResult result;
  // A failing config first (tiny memory per slot), then a good one.
  auto bad = objective.space().default_unit();
  bad[*objective.space().index_of("spark.executor.cores")] = 0.999;   // 32
  bad[*objective.space().index_of("spark.executor.memory.mb")] = 0.0;  // 8 GB
  bad[*objective.space().index_of("spark.memory.fraction")] = 0.0;
  auto good = objective.space().default_unit();
  good[*objective.space().index_of("spark.executor.cores")] =
      objective.space()
          .spec(*objective.space().index_of("spark.executor.cores"))
          .encode(8);
  good[*objective.space().index_of("spark.executor.memory.mb")] =
      objective.space()
          .spec(*objective.space().index_of("spark.executor.memory.mb"))
          .encode(32768);
  evaluate_into(objective, bad, guard, result);
  evaluate_into(objective, good, guard, result);
  EXPECT_TRUE(result.found_any());
  EXPECT_EQ(result.best_index, result.history[0].ok() ? 0u : 1u);
}

TEST(TuningResultTest, TrajectoryIsMonotoneNonIncreasing) {
  auto objective = make_objective(2);
  RandomSearch rs;
  const auto result = rs.tune(objective, 30, 7);
  const auto traj = result.best_trajectory();
  ASSERT_EQ(traj.size(), 30u);
  for (std::size_t i = 1; i < traj.size(); ++i) {
    EXPECT_LE(traj[i], traj[i - 1]);
  }
}

TEST(TuningResultTest, SearchCostEqualsSumOfEvaluationCosts) {
  auto objective = make_objective(3);
  RandomSearch rs;
  const auto result = rs.tune(objective, 20, 9);
  double sum = 0.0;
  for (const auto& e : result.history) sum += e.cost_s;
  EXPECT_NEAR(result.search_cost_s, sum, 1e-9);
  EXPECT_NEAR(objective.total_cost_s(), sum, 1e-9);
}

TEST(TuningResultTest, SampledTimesExcludeHardFailures) {
  auto objective = make_objective(4, sparksim::WorkloadKind::kPageRank, 1);
  RandomSearch rs;
  const auto result = rs.tune(objective, 40, 11);
  for (double t : result.sampled_times()) {
    EXPECT_LE(t, 480.0);  // penalties (>480) never appear
  }
}

// ------------------------------------------------------- RandomSearch ----

TEST(RandomSearchTest, RespectsBudgetExactly) {
  auto objective = make_objective(5);
  RandomSearch rs;
  const auto result = rs.tune(objective, 25, 3);
  EXPECT_EQ(result.history.size(), 25u);
  EXPECT_EQ(objective.evaluations(), 25u);
  EXPECT_EQ(result.tuner, "RS");
}

TEST(RandomSearchTest, DeterministicPerSeed) {
  auto a = make_objective(6);
  auto b = make_objective(6);
  RandomSearch rs;
  const auto ra = rs.tune(a, 15, 42);
  const auto rb = rs.tune(b, 15, 42);
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (std::size_t i = 0; i < ra.history.size(); ++i) {
    EXPECT_EQ(ra.history[i].unit, rb.history[i].unit);
  }
}

TEST(RandomSearchTest, DifferentSeedsExploreDifferently) {
  auto a = make_objective(7);
  auto b = make_objective(7);
  RandomSearch rs;
  EXPECT_NE(rs.tune(a, 10, 1).history[0].unit,
            rs.tune(b, 10, 2).history[0].unit);
}

TEST(RandomSearchTest, CancelStopsAtARoundBoundaryWithAPrefix) {
  constexpr int kBudget = 8 * RandomSearch::kRoundWidth;
  auto full_objective = make_objective(8);
  RandomSearch rs;
  const auto full = rs.tune(full_objective, kBudget, 9);
  ASSERT_EQ(full.history.size(), static_cast<std::size_t>(kBudget));
  const auto expect_round_prefix = [&](const TuningResult& cut) {
    EXPECT_EQ(cut.history.size() % RandomSearch::kRoundWidth, 0u);
    ASSERT_LE(cut.history.size(), full.history.size());
    for (std::size_t i = 0; i < cut.history.size(); ++i) {
      EXPECT_EQ(cut.history[i].unit, full.history[i].unit) << i;
      EXPECT_EQ(cut.history[i].value_s, full.history[i].value_s) << i;
    }
  };

  // Set before tune: the first boundary stops it with nothing run.
  std::atomic<bool> cancel{true};
  RandomSearch paced;
  paced.set_pacing(&cancel);
  auto objective = make_objective(8);
  const auto none = paced.tune(objective, kBudget, 9);
  EXPECT_TRUE(none.history.empty());

  // Tripped from another thread mid-run: wherever it lands, the cut is
  // whole rounds and a prefix of the uncancelled run.
  cancel.store(false);
  auto tripped_objective = make_objective(8);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cancel.store(true);
  });
  const auto cut = paced.tune(tripped_objective, kBudget, 9);
  canceller.join();
  expect_round_prefix(cut);
}

// --------------------------------------------------------- BestConfig ----

TEST(BestConfigTest, SingleRoundAtPaperSettings) {
  // sample_set_size=100 with budget 100 -> one DDS round, pure exploration
  // (exactly the paper's observation in §5.2).
  auto objective = make_objective(8);
  BestConfig bc;
  const auto result = bc.tune(objective, 100, 5);
  EXPECT_EQ(result.history.size(), 100u);
  EXPECT_EQ(result.tuner, "BestConfig");
}

TEST(BestConfigTest, SmallSampleSetTriggersRecursiveBoundAndSearch) {
  auto objective = make_objective(9);
  BestConfigOptions options;
  options.sample_set_size = 10;
  BestConfig bc(options);
  const auto result = bc.tune(objective, 50, 5);
  EXPECT_EQ(result.history.size(), 50u);
  // Later rounds concentrate: some late sample must be closer to the best
  // than the typical first-round spread.
  const auto& best = result.best_unit();
  double min_late_distance = std::numeric_limits<double>::infinity();
  for (std::size_t i = 40; i < 50; ++i) {
    double d = 0.0;
    for (std::size_t k = 0; k < best.size(); ++k) {
      d += std::abs(result.history[i].unit[k] - best[k]);
    }
    min_late_distance = std::min(min_late_distance, d);
  }
  EXPECT_LT(min_late_distance, 0.25 * static_cast<double>(best.size()));
}

TEST(BestConfigTest, ThresholdTightensWithinThePaperRound) {
  // Paper settings — one DDS round of 100 under a 480 s cap — on a fast
  // workload: once a sub-batch finds a quick incumbent, the threshold
  // (4x the incumbent) drops below the cap for the rest of the round, so
  // a later run is stopped below 480 s.  Sub-batches have a constant
  // width, so the history is the same at any worker count.
  const auto run = [](int workers) {
    sparksim::SparkObjective objective(
        sparksim::ClusterSpec::paper_testbed(),
        sparksim::make_workload(sparksim::WorkloadKind::kLogisticRegression,
                                1),
        sparksim::spark24_config_space(), 21);
    exec::SchedulerOptions options;
    options.parallelism = workers;
    exec::EvalScheduler scheduler(options);
    BestConfig bc;
    bc.set_scheduler(&scheduler);
    return bc.tune(objective, 100, 5);
  };
  const auto one = run(1);
  const auto four = run(4);
  ASSERT_EQ(one.history.size(), 100u);
  ASSERT_EQ(four.history.size(), one.history.size());
  bool stopped_below_cap = false;
  for (std::size_t i = 0; i < one.history.size(); ++i) {
    const auto& a = one.history[i];
    const auto& b = four.history[i];
    EXPECT_EQ(a.unit, b.unit) << "eval " << i;
    EXPECT_EQ(a.value_s, b.value_s) << "eval " << i;
    EXPECT_EQ(a.cost_s, b.cost_s) << "eval " << i;
    EXPECT_EQ(a.status, b.status) << "eval " << i;
    if (i >= static_cast<std::size_t>(BestConfig::kSubBatchWidth) &&
        a.stopped_early && a.value_s < 480.0) {
      stopped_below_cap = true;
    }
  }
  EXPECT_TRUE(stopped_below_cap);
}

TEST(BestConfigTest, BudgetSmallerThanSampleSetStillWorks) {
  auto objective = make_objective(10);
  const auto result = BestConfig().tune(objective, 17, 3);
  EXPECT_EQ(result.history.size(), 17u);
}

// ------------------------------------------------------------ Gunther ----

TEST(GuntherTest, RespectsBudget) {
  auto objective = make_objective(11);
  Gunther g;
  const auto result = g.tune(objective, 60, 5);
  EXPECT_EQ(result.history.size(), 60u);
  EXPECT_EQ(result.tuner, "Gunther");
}

TEST(GuntherTest, InitialPopulationDominatesBudgetAtHighDims) {
  // The paper's critique (§6): 2 initial configs per parameter over 44
  // parameters consumes most of a 100-evaluation budget.
  auto objective = make_objective(12);
  GuntherOptions options;
  Gunther g(options);
  const auto result = g.tune(objective, 100, 5);
  // 85% cap applies: exactly 85 random initial evaluations.
  EXPECT_EQ(result.history.size(), 100u);
  const int init = static_cast<int>(
      std::min(options.initial_per_param * 44.0,
               100.0 * options.max_initial_budget_fraction));
  EXPECT_EQ(init, 85);
}

TEST(GuntherTest, TinyBudgetOnlyRunsInitialPopulation) {
  auto objective = make_objective(13);
  Gunther g;
  const auto result = g.tune(objective, 5, 5);
  EXPECT_EQ(result.history.size(), 5u);
}

TEST(GuntherTest, GenesStayInUnitCube) {
  auto objective = make_objective(14);
  Gunther g;
  const auto result = g.tune(objective, 40, 9);
  for (const auto& e : result.history) {
    for (double v : e.unit) {
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

// ------------------------------------------- cross-tuner sanity sweep ----

class AllTunersTest : public ::testing::TestWithParam<int> {};

TEST_P(AllTunersTest, EveryTunerFindsAWorkingConfiguration) {
  const int which = GetParam();
  std::unique_ptr<Tuner> tuner;
  switch (which) {
    case 0:
      tuner = std::make_unique<RandomSearch>();
      break;
    case 1:
      tuner = std::make_unique<BestConfig>();
      break;
    default:
      tuner = std::make_unique<Gunther>();
      break;
  }
  auto objective = make_objective(20 + static_cast<std::uint64_t>(which));
  const auto result = tuner->tune(objective, 30, 77);
  EXPECT_TRUE(result.found_any()) << result.tuner;
  EXPECT_LT(result.best_value_s(), 480.0) << result.tuner;
  EXPECT_GT(result.search_cost_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Tuners, AllTunersTest, ::testing::Range(0, 3));

}  // namespace
}  // namespace robotune::tuners
