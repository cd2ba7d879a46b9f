// Statistics helpers of the session benchmark: medians, geometric means,
// the tail-percentile rule, and span self time.  Header-only so the
// helper tests link nothing but this file.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

namespace perfbench {

/// Median of a sample; NaN when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Geometric mean of strictly positive values; NaN when empty or when any
/// value is not positive (a ratio of times cannot be zero or negative).
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) return std::numeric_limits<double>::quiet_NaN();
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// A tail percentile together with the rule that produced it.
struct Tail {
  double value = std::numeric_limits<double>::quiet_NaN();
  double percentile = 0.0;  ///< nearest-rank percentile actually reported
  std::size_t samples = 0;
};

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// The highest nearest-rank percentile, capped at `cap` (e.g. 99), that
/// still has at least ten samples beyond it.  With n samples the value at
/// sorted rank r (0-based) has n - 1 - r samples beyond it, so the rank is
/// min(ceil(cap/100 * n) - 1, n - 11).  Fewer than eleven samples have no
/// such percentile: the result is NaN with percentile 0.
inline Tail tail_percentile(std::vector<double> values, double cap = 99.0) {
  Tail tail;
  tail.samples = values.size();
  const std::size_t n = values.size();
  if (n < kTailBeyond + 1) return tail;
  std::sort(values.begin(), values.end());
  const auto nearest =
      static_cast<std::size_t>(std::ceil(cap / 100.0 * static_cast<double>(n)));
  const std::size_t rank =
      std::min(nearest == 0 ? 0 : nearest - 1, n - 1 - kTailBeyond);
  tail.value = values[rank];
  tail.percentile = 100.0 * static_cast<double>(rank + 1) /
                    static_cast<double>(n);
  return tail;
}

/// The fields of a recorded span that self time depends on.
struct SpanTiming {
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;  ///< nesting depth on its thread (0 = root)
};

/// Self time of every span: its duration minus the time its direct
/// children on the same thread cover, clamped at zero (timestamps are
/// whole microseconds, so a child can appear to overrun its parent).
/// Spans on one thread nest strictly, so the direct parent of a span at
/// depth d is the latest span at depth d - 1 on that thread that started
/// no later than it.  Spans on other threads (pool workers) are never
/// children: their time overlaps the parent's instead of replacing it.
/// Returns one value per input span, in input order.
inline std::vector<std::int64_t> self_times(
    const std::vector<SpanTiming>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Parents start no later than their children and sit one level up, so
  // (start, depth) order visits every parent before its children.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].tid != spans[b].tid) return spans[a].tid < spans[b].tid;
    if (spans[a].start_us != spans[b].start_us) {
      return spans[a].start_us < spans[b].start_us;
    }
    return spans[a].depth < spans[b].depth;
  });
  std::vector<std::int64_t> child_us(spans.size(), 0);
  std::map<std::uint32_t, std::size_t> open;  // depth -> latest span there
  std::uint32_t tid = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const SpanTiming& s = spans[order[k]];
    if (k == 0 || s.tid != tid) {
      open.clear();
      tid = s.tid;
    }
    if (s.depth > 0) {
      const auto parent = open.find(s.depth - 1);
      if (parent != open.end()) child_us[parent->second] += s.dur_us;
    }
    open[s.depth] = order[k];
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = std::max<std::int64_t>(0, spans[i].dur_us - child_us[i]);
  }
  return self;
}

}  // namespace perfbench
