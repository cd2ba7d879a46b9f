#include "tuners/random_search.h"

#include <algorithm>

#include "obs/trace.h"

namespace robotune::tuners {

TuningResult RandomSearch::tune(sparksim::SparkObjective& objective,
                                int budget, std::uint64_t seed) {
  TuningResult result;
  result.tuner = name();
  obs::Span session_span("session", "tuners");
  session_span.arg("tuner", name());
  session_span.arg("budget", budget);
  session_span.arg("seed", seed);
  Rng rng(seed);
  const std::size_t dims = objective.space().size();
  // Transient-fault handling rides entirely on evaluate_batch_into and
  // GuardPolicy: censored flake values never enter the guard median, and
  // RS keeps no model state that a flake could poison.
  GuardPolicy guard(static_threshold_s_, /*median_multiple=*/0.0);
  // RS has no sequential dependence at all (static threshold, no model),
  // so it evaluates in rounds of a fixed width purely to give cancel a
  // boundary.  The width is a constant, never the worker count, and
  // streams are index-derived, so the history is identical at any width
  // or parallelism.
  std::vector<std::vector<double>> units;
  for (int done = 0; done < budget; done += kRoundWidth) {
    if (paced_stop()) break;  // cooperative cancel at round boundary
    const int width = std::min(kRoundWidth, budget - done);
    units.assign(static_cast<std::size_t>(width), std::vector<double>(dims));
    for (auto& unit : units) {
      for (auto& u : unit) u = rng.uniform();
    }
    evaluate_batch_into(rounds(), objective, units, guard, result);
  }
  return result;
}

}  // namespace robotune::tuners
