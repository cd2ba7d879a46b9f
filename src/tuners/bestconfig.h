// BestConfig (Zhu et al., SoCC 2017): divide-and-diverge sampling (DDS)
// plus recursive bound-and-search (RBS).
//
// DDS divides each parameter's range into k intervals and draws k samples
// so every interval of every parameter is covered exactly once (a Latin
// hypercube); RBS then bounds a subspace around the incumbent best — for
// each parameter, between the nearest sampled values below and above the
// incumbent — and re-samples inside it.  When a bounded round fails to
// improve, the search *diverges* back to global sampling.
//
// BestConfig's recommended sample-set size is 100; with the paper's total
// budget of 100 evaluations that leaves exactly one DDS round and no RBS,
// which is why it behaves like pure exploration in the evaluation (§5.2).
// Smaller `sample_set_size` values exercise the full recursion.
//
// BestConfig also adapts its kill threshold at runtime (the best time
// seen so far times a multiplier), reproduced here per §5.3.  A DDS round
// evaluates in sub-batches of a constant width, and the threshold is
// recomputed between them, so it tightens within the paper's single
// round too.  The width is never the worker count: the history is the
// same at any parallelism.
#pragma once

#include "tuners/tuner.h"

namespace robotune::tuners {

struct BestConfigOptions {
  int sample_set_size = 100;
  /// Runtime threshold: multiple of the incumbent best (paper §5.3 notes
  /// BestConfig modifies its threshold during runtime).
  double best_multiple_threshold = 4.0;
  double static_threshold_s = 480.0;
};

class BestConfig : public Tuner {
 public:
  explicit BestConfig(BestConfigOptions options = {}) : options_(options) {}

  /// Evaluations per sub-batch of a DDS round; the threshold is
  /// recomputed, and cancel polled, between them.
  static constexpr int kSubBatchWidth = 10;

  std::string name() const override { return "BestConfig"; }
  TuningResult tune(sparksim::SparkObjective& objective, int budget,
                    std::uint64_t seed) override;

 private:
  BestConfigOptions options_;
};

}  // namespace robotune::tuners
