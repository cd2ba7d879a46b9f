// Random Search baseline (Bergstra & Bengio 2012): parameter ranges are
// explored uniformly at random.  Per §5.1 it is augmented with the static
// threshold guard so its search cost is comparable with the other tuners.
#pragma once

#include "tuners/tuner.h"

namespace robotune::tuners {

class RandomSearch : public Tuner {
 public:
  explicit RandomSearch(double static_threshold_s = 480.0)
      : static_threshold_s_(static_threshold_s) {}

  /// Evaluations per round; cancel is polled between rounds.  Results do
  /// not depend on it.
  static constexpr int kRoundWidth = 16;

  std::string name() const override { return "RS"; }
  TuningResult tune(sparksim::SparkObjective& objective, int budget,
                    std::uint64_t seed) override;

 private:
  double static_threshold_s_;
};

}  // namespace robotune::tuners
