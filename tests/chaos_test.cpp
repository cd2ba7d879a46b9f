// Tests for the deterministic chaos harness: profile parsing, seeded
// decision sequences, and the behavior of the injection hook sites
// (Cholesky, journal write, thread-pool task).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/chaos.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "core/persistence.h"
#include "linalg/matrix.h"

namespace robotune {
namespace {

// Every test leaves the process-wide injector inert, so suites sharing
// the binary (and the no-chaos tests in other binaries) stay unaffected.
class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { chaos::injector().disarm(); }
};

TEST_F(ChaosTest, ProfileParsesPresets) {
  chaos::ChaosProfile p;
  ASSERT_TRUE(chaos::ChaosProfile::parse("none", p));
  EXPECT_FALSE(p.active());

  ASSERT_TRUE(chaos::ChaosProfile::parse("surrogate", p));
  EXPECT_DOUBLE_EQ(p.cholesky_failure, 1.0);
  EXPECT_DOUBLE_EQ(p.acq_opt_failure, 0.0);

  ASSERT_TRUE(chaos::ChaosProfile::parse("flaky", p));
  EXPECT_GT(p.cholesky_failure, 0.0);
  EXPECT_LT(p.cholesky_failure, 1.0);
  EXPECT_GT(p.journal_write_failure, 0.0);

  ASSERT_TRUE(chaos::ChaosProfile::parse("full", p));
  EXPECT_DOUBLE_EQ(p.cholesky_failure, 1.0);
  EXPECT_DOUBLE_EQ(p.acq_opt_failure, 1.0);
  EXPECT_DOUBLE_EQ(p.journal_write_failure, 1.0);
  // Pool-task exceptions are not survivable; no preset arms them.
  EXPECT_DOUBLE_EQ(p.pool_task_failure, 0.0);
}

TEST_F(ChaosTest, ProfileParsesRateLists) {
  chaos::ChaosProfile p;
  ASSERT_TRUE(
      chaos::ChaosProfile::parse("cholesky=0.25,acq=0.5,journal=1", p));
  EXPECT_DOUBLE_EQ(p.cholesky_failure, 0.25);
  EXPECT_DOUBLE_EQ(p.acq_opt_failure, 0.5);
  EXPECT_DOUBLE_EQ(p.journal_write_failure, 1.0);
  EXPECT_DOUBLE_EQ(p.pool_task_failure, 0.0);

  ASSERT_TRUE(chaos::ChaosProfile::parse("pool=0.125", p));
  EXPECT_DOUBLE_EQ(p.pool_task_failure, 0.125);

  EXPECT_FALSE(chaos::ChaosProfile::parse("bogus", p));
  EXPECT_FALSE(chaos::ChaosProfile::parse("cholesky=2.0", p));   // > 1
  EXPECT_FALSE(chaos::ChaosProfile::parse("cholesky=-0.1", p));  // < 0
  EXPECT_FALSE(chaos::ChaosProfile::parse("cholesky=x", p));
  EXPECT_FALSE(chaos::ChaosProfile::parse("frobnicate=0.5", p));
}

TEST_F(ChaosTest, UnconfiguredInjectorNeverFires) {
  EXPECT_FALSE(chaos::injector().enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(chaos::fail(chaos::Site::kCholesky));
    EXPECT_FALSE(chaos::fail_indexed(chaos::Site::kPoolTask, i));
  }
}

TEST_F(ChaosTest, SameSeedReplaysTheSameDecisionSequence) {
  chaos::ChaosProfile p;
  p.cholesky_failure = 0.5;
  const auto draw_sequence = [&](std::uint64_t seed) {
    chaos::injector().configure(p, seed);
    std::vector<bool> out;
    for (int i = 0; i < 64; ++i) {
      out.push_back(chaos::injector().should_fail(chaos::Site::kCholesky));
    }
    return out;
  };
  const auto a = draw_sequence(7);
  const auto b = draw_sequence(7);
  EXPECT_EQ(a, b);  // configure() resets the counters: exact replay
  const auto c = draw_sequence(8);
  EXPECT_NE(a, c);  // a different seed rolls different dice
  // A fractional rate is actually fractional.
  const auto hits = static_cast<std::size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, a.size());
}

TEST_F(ChaosTest, IndexedDecisionsArePureFunctionsOfTheIndex) {
  chaos::ChaosProfile p;
  p.pool_task_failure = 0.5;
  chaos::injector().configure(p, 99);
  std::vector<bool> forward;
  for (std::uint64_t i = 0; i < 64; ++i) {
    forward.push_back(
        chaos::injector().should_fail(chaos::Site::kPoolTask, i));
  }
  std::vector<bool> reverse(64);
  for (std::uint64_t i = 64; i-- > 0;) {
    reverse[i] = chaos::injector().should_fail(chaos::Site::kPoolTask, i);
  }
  EXPECT_EQ(forward, reverse);  // order of asking cannot change the answer
}

TEST_F(ChaosTest, RateEndpointsAreExact) {
  chaos::ChaosProfile p;
  p.cholesky_failure = 1.0;
  chaos::injector().configure(p, 1);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(chaos::injector().should_fail(chaos::Site::kCholesky));
    EXPECT_FALSE(chaos::injector().should_fail(chaos::Site::kAcqOpt));
  }
  EXPECT_EQ(chaos::injector().injections(chaos::Site::kCholesky), 16u);
  EXPECT_EQ(chaos::injector().injections(chaos::Site::kAcqOpt), 0u);
  chaos::injector().disarm();
  EXPECT_FALSE(chaos::injector().enabled());
  EXPECT_FALSE(chaos::injector().should_fail(chaos::Site::kCholesky));
}

TEST_F(ChaosTest, CholeskyHookThrowsTheRealRecoveryException) {
  linalg::Matrix identity(2, 2);
  identity(0, 0) = identity(1, 1) = 1.0;
  chaos::ChaosProfile p;
  p.cholesky_failure = 1.0;
  chaos::injector().configure(p, 3);
  // A forced failure is indistinguishable from a genuinely non-PD matrix.
  EXPECT_THROW(linalg::cholesky(identity), NumericalError);
  chaos::injector().disarm();
  EXPECT_NO_THROW(linalg::cholesky(identity));
}

TEST_F(ChaosTest, JournalWriteHookFailsWithoutTouchingTheFile) {
  const std::string path = "/tmp/robotune_chaos_journal_test.ckpt";
  std::remove(path.c_str());
  core::SessionCheckpoint session;
  session.workload = "W";
  ASSERT_TRUE(core::save_session_file(session, path));

  chaos::ChaosProfile p;
  p.journal_write_failure = 1.0;
  chaos::injector().configure(p, 3);
  session.workload = "X";
  EXPECT_FALSE(core::save_session_file(session, path));
  chaos::injector().disarm();

  // The previous checkpoint survives the simulated I/O error untouched.
  core::SessionCheckpoint loaded;
  ASSERT_TRUE(core::load_session_file(path, loaded));
  EXPECT_EQ(loaded.workload, "W");
  std::remove(path.c_str());
}

TEST_F(ChaosTest, PoolTaskFailurePropagatesIdenticallyAtAnyWorkerCount) {
  chaos::ChaosProfile p;
  p.pool_task_failure = 0.3;
  constexpr std::size_t kTasks = 32;

  // The injected failure set is keyed on the task index, so it is the
  // same for the inline single-worker path and the pooled path; wait_all
  // rethrows the lowest failing index either way.
  chaos::injector().configure(p, 11);
  std::vector<bool> expected;
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    expected.push_back(
        chaos::injector().should_fail(chaos::Site::kPoolTask, i));
  }
  ASSERT_TRUE(std::count(expected.begin(), expected.end(), true) > 0)
      << "seed produced no failures; pick another seed";

  for (const std::size_t workers : {1u, 4u}) {
    ThreadPool pool(workers);
    chaos::injector().configure(p, 11);
    std::string what;
    try {
      pool.parallel_for(kTasks, [](std::size_t) {});
      FAIL() << "expected an injected ChaosError (workers=" << workers
             << ")";
    } catch (const chaos::ChaosError& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "parallel_for: injected task failure");
  }
}

}  // namespace
}  // namespace robotune
