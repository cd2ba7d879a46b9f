// Tests of the session benchmark's statistics helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats.h"

namespace {

std::vector<double> ramp(int n) {
  // 1..n in scrambled order: the helpers must sort for themselves.
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(static_cast<double>((i * 7) % n + 1));
  return v;
}

TEST(TailPercentile, P99WhenTenSamplesLieBeyondIt) {
  const auto tail = perfbench::tail_percentile(ramp(1000));
  EXPECT_DOUBLE_EQ(tail.value, 990.0);  // 990 < x <= 1000: ten beyond
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
  EXPECT_EQ(tail.samples, 1000u);
}

TEST(TailPercentile, DropsBelowP99UntilTenSamplesLieBeyond) {
  const auto tail = perfbench::tail_percentile(ramp(160));
  EXPECT_DOUBLE_EQ(tail.value, 150.0);  // 151..160 are the ten beyond
  EXPECT_DOUBLE_EQ(tail.percentile, 93.75);
  const auto smallest = perfbench::tail_percentile(ramp(11));
  EXPECT_DOUBLE_EQ(smallest.value, 1.0);
}

TEST(TailPercentile, UndefinedWithTenSamplesOrFewer) {
  const auto tail = perfbench::tail_percentile(ramp(10));
  EXPECT_TRUE(std::isnan(tail.value));
  EXPECT_DOUBLE_EQ(tail.percentile, 0.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_TRUE(std::isnan(perfbench::median({})));
}

TEST(Geomean, OfRatios) {
  EXPECT_NEAR(perfbench::geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(perfbench::geomean({0.5, 2.0, 1.0}), 1.0, 1e-12);
  EXPECT_TRUE(std::isnan(perfbench::geomean({})));
  EXPECT_TRUE(std::isnan(perfbench::geomean({1.0, 0.0})));
}

TEST(SelfTimes, SubtractsDirectChildrenOnTheSameThread) {
  // Thread 0: session [0,100) > iteration [10,60) > {gp_fit [10,30),
  // acq_opt [35,55)}; a second iteration [60,90) with no children.
  // Thread 1: a pool worker's span inside the acquisition window — it
  // overlaps acq_opt but is not its child.
  const std::vector<perfbench::SpanTiming> spans = {
      {0, 100, 0, 0}, {10, 50, 0, 1}, {10, 20, 0, 2},
      {35, 20, 0, 2}, {60, 30, 0, 1}, {36, 15, 1, 0},
  };
  const auto self = perfbench::self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - 50 - 30);  // session minus both iterations
  EXPECT_EQ(self[1], 50 - 20 - 20);   // iteration minus its two children
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 20);             // the worker span is not subtracted
  EXPECT_EQ(self[4], 30);
  EXPECT_EQ(self[5], 15);
}

TEST(SelfTimes, SumEqualsRootDurationAndClampsRoundingOverrun) {
  // A child that overruns its parent by a rounding microsecond leaves the
  // parent at zero self time, never negative.
  const std::vector<perfbench::SpanTiming> spans = {
      {0, 10, 3, 0}, {0, 11, 3, 1}, {20, 5, 3, 0}, {21, 2, 3, 1},
  };
  const auto self = perfbench::self_times(spans);
  EXPECT_EQ(self[0], 0);
  EXPECT_EQ(self[1], 11);
  EXPECT_EQ(self[2], 3);
  EXPECT_EQ(self[3], 2);
}

}  // namespace
