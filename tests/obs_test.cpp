// Unit tests for src/obs: the metrics registry (lock-free shards,
// canonical-order merge, logical/runtime split), the span tracer and its
// JSONL / Chrome exporters, and the end-of-session summary rendering.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/summary.h"
#include "obs/trace.h"

namespace robotune::obs {
namespace {

// ------------------------------------------------------------ pure data ----

TEST(ObsMetricsTest, RuntimePrefixSplitsSnapshots) {
  EXPECT_TRUE(is_runtime_metric("runtime.pool.tasks_executed"));
  EXPECT_FALSE(is_runtime_metric("evals.total"));
  EXPECT_FALSE(is_runtime_metric("run"));

  MetricsSnapshot snapshot;
  snapshot.counters["evals.total"] = 20;
  snapshot.counters["runtime.pool.tasks_executed"] = 7;
  snapshot.gauges["bo.selected_dims"] = 5.0;
  snapshot.gauges["runtime.exec.parallelism"] = 4.0;

  const auto logical = snapshot.logical();
  EXPECT_EQ(logical.counters.size(), 1u);
  EXPECT_EQ(logical.counters.count("evals.total"), 1u);
  EXPECT_EQ(logical.gauges.size(), 1u);

  const auto runtime = snapshot.runtime();
  EXPECT_EQ(runtime.counters.size(), 1u);
  EXPECT_EQ(runtime.counters.count("runtime.pool.tasks_executed"), 1u);
  EXPECT_EQ(runtime.gauges.size(), 1u);
}

TEST(ObsMetricsTest, SecondsBucketsAreStrictlyAscending) {
  const auto& bounds = seconds_buckets();
  ASSERT_GE(bounds.size(), 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(ObsTraceTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(ObsTraceTest, ParseTraceFormat) {
  TraceFormat format = TraceFormat::kJsonl;
  EXPECT_TRUE(parse_trace_format("chrome", format));
  EXPECT_EQ(format, TraceFormat::kChrome);
  EXPECT_TRUE(parse_trace_format("jsonl", format));
  EXPECT_EQ(format, TraceFormat::kJsonl);
  EXPECT_FALSE(parse_trace_format("perfetto", format));
}

TEST(ObsSummaryTest, MetricsJsonHasBothSections) {
  MetricsSnapshot snapshot;
  snapshot.counters["evals.total"] = 3;
  snapshot.counters["runtime.pool.tasks_executed"] = 9;
  snapshot.histograms["evals.value_s"] =
      HistogramData{{1.0, 2.0}, {1, 1, 1}, 3};
  std::stringstream out;
  write_metrics_json(snapshot, out);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"logical\""), std::string::npos);
  EXPECT_NE(doc.find("\"runtime\""), std::string::npos);
  EXPECT_NE(doc.find("\"evals.total\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"runtime.pool.tasks_executed\":9"),
            std::string::npos);
  EXPECT_NE(doc.find("\"evals.value_s\""), std::string::npos);
}

TEST(ObsSummaryTest, RenderSummaryLabelsTheDeterminismSplit) {
  MetricsSnapshot snapshot;
  snapshot.counters["evals.total"] = 20;
  snapshot.counters["evals.ok"] = 18;
  snapshot.counters["evals.guard_kills"] = 2;
  std::vector<SpanRecord> spans;
  SpanRecord span;
  span.name = "gp_fit";
  span.dur_us = 1500;
  spans.push_back(span);
  const std::string table = render_summary(snapshot, spans);
  EXPECT_NE(table.find("logical metrics"), std::string::npos);
  EXPECT_NE(table.find("NON-deterministic"), std::string::npos);
  EXPECT_NE(table.find("guard kills"), std::string::npos);
  EXPECT_NE(table.find("gp_fit"), std::string::npos);
}

TEST(ObsSummaryTest, MetricsFileFailurePathLeavesNothing) {
  MetricsSnapshot snapshot;
  snapshot.counters["evals.total"] = 1;
  const std::string bad = "/nonexistent/dir/metrics.json";
  EXPECT_FALSE(write_metrics_file(snapshot, bad));
  EXPECT_FALSE(std::ifstream(bad).good());
  EXPECT_FALSE(std::ifstream(bad + ".tmp").good());

  const std::string good = "/tmp/robotune_obs_metrics_test.json";
  EXPECT_TRUE(write_metrics_file(snapshot, good));
  EXPECT_TRUE(std::ifstream(good).good());
  EXPECT_FALSE(std::ifstream(good + ".tmp").good());
  std::remove(good.c_str());
}

// ------------------------------------------------------------- registry ----

TEST(ObsMetricsTest, CountersGaugesHistogramsAccumulate) {
  MetricsRegistry registry;
  registry.add("a.count");
  registry.add("a.count", 4);
  registry.set_gauge("g", 2.5);
  registry.set_gauge("g", 3.5);  // last write wins
  registry.observe("h", 0.4);
  registry.observe("h", 1.5);
  registry.observe("h", 1e9);  // overflow bucket

  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counters.at("a.count"), 5u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("g"), 3.5);
  const auto& h = snapshot.histograms.at("h");
  EXPECT_EQ(h.total, 3u);
  EXPECT_EQ(h.bounds, seconds_buckets());
  ASSERT_EQ(h.counts.size(), h.bounds.size() + 1);
  EXPECT_EQ(h.counts.front(), 1u);  // 0.4 <= 0.5
  EXPECT_EQ(h.counts.back(), 1u);   // 1e9 overflows
  std::uint64_t sum = 0;
  for (auto c : h.counts) sum += c;
  EXPECT_EQ(sum, h.total);
}

TEST(ObsMetricsTest, ShardsMergeAcrossThreads) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry]() {
      for (int i = 0; i < 1000; ++i) {
        registry.add("threads.count");
        registry.observe("threads.hist", 1.0);
      }
    });
  }
  for (auto& t : threads) t.join();  // happens-before the snapshot
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counters.at("threads.count"), 4000u);
  EXPECT_EQ(snapshot.histograms.at("threads.hist").total, 4000u);
}

TEST(ObsMetricsTest, ResetClearsEverything) {
  MetricsRegistry registry;
  registry.add("x");
  registry.set_gauge("y", 1.0);
  registry.observe("z", 2.0);
  EXPECT_FALSE(registry.snapshot().empty());
  registry.reset();
  EXPECT_TRUE(registry.snapshot().empty());
}

// --------------------------------------------------------------- tracer ----

TEST(ObsTraceTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  {
    Span span("quiet", "test", tracer);
    span.arg("k", std::int64_t{1});
  }
  EXPECT_TRUE(tracer.records().empty());
}

TEST(ObsTraceTest, NestedSpansCarryDepthAndArgs) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span outer("session", "test", tracer);
    outer.arg("tuner", "ROBOTune");
    {
      Span inner("iteration", "test", tracer);
      inner.arg("iter", 3);
      inner.arg("value", 1.5);
    }
  }
  const auto records = tracer.records();
  ASSERT_EQ(records.size(), 2u);
  // Sorted by start time: outer opened first.
  EXPECT_EQ(records[0].name, "session");
  EXPECT_EQ(records[0].depth, 0u);
  EXPECT_EQ(records[1].name, "iteration");
  EXPECT_EQ(records[1].depth, 1u);
  EXPECT_GE(records[0].dur_us, records[1].dur_us);
  ASSERT_EQ(records[1].args.size(), 2u);
  EXPECT_EQ(records[1].args[0].first, "iter");
  EXPECT_EQ(records[1].args[0].second, "3");
}

TEST(ObsTraceTest, WorkerThreadsGetStableTids) {
  Tracer tracer;
  tracer.set_enabled(true);
  { Span span("main", "test", tracer); }
  std::thread worker([&tracer]() {
    Span span("on_worker", "test", tracer);
  });
  worker.join();
  const auto records = tracer.records();
  ASSERT_EQ(records.size(), 2u);
  std::uint32_t main_tid = 0, worker_tid = 0;
  for (const auto& r : records) {
    (r.name == "main" ? main_tid : worker_tid) = r.tid;
  }
  EXPECT_NE(main_tid, worker_tid);
}

TEST(ObsTraceTest, JsonlExportOneObjectPerLine) {
  Tracer tracer;
  tracer.set_enabled(true);
  { Span span("a", "cat", tracer); }
  { Span span("b", "cat", tracer); }
  std::stringstream out;
  tracer.write(out, TraceFormat::kJsonl);
  std::string line;
  int lines = 0;
  while (std::getline(out, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"name\""), std::string::npos);
    EXPECT_NE(line.find("\"ts_us\""), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 2);
}

TEST(ObsTraceTest, ChromeExportHasCompleteEventsAndThreadNames) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span span("phase", "core", tracer);
    span.arg("eval_index", std::uint64_t{7});
  }
  std::stringstream out;
  tracer.write(out, TraceFormat::kChrome);
  const std::string doc = out.str();
  EXPECT_EQ(doc.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("\"eval_index\":\"7\""), std::string::npos);
  EXPECT_EQ(doc.back(), '\n');
}

TEST(ObsTraceTest, ResetDropsRecordsAndRestartsEpoch) {
  Tracer tracer;
  tracer.set_enabled(true);
  { Span span("first", "t", tracer); }
  tracer.reset();
  EXPECT_TRUE(tracer.records().empty());
  { Span span("second", "t", tracer); }
  EXPECT_EQ(tracer.records().size(), 1u);
}

TEST(ObsTraceTest, DisabledTracerExportsValidEmptyOutput) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  { Span span("phase", "core", tracer); }
  EXPECT_TRUE(tracer.records().empty());
  std::stringstream chrome;
  tracer.write(chrome, TraceFormat::kChrome);
  EXPECT_NE(chrome.str().find("\"traceEvents\""), std::string::npos);
  std::stringstream jsonl;
  tracer.write(jsonl, TraceFormat::kJsonl);
  EXPECT_TRUE(jsonl.str().empty());
}

TEST(ObsTraceTest, WriteFileFailurePathLeavesNothing) {
  const std::string bad = "/nonexistent/dir/trace.json";
  EXPECT_FALSE(tracer().write_file(bad, TraceFormat::kChrome));
  EXPECT_FALSE(std::ifstream(bad).good());
  EXPECT_FALSE(std::ifstream(bad + ".tmp").good());

  const std::string good = "/tmp/robotune_obs_trace_test.json";
  EXPECT_TRUE(tracer().write_file(good, TraceFormat::kChrome));
  EXPECT_TRUE(std::ifstream(good).good());
  EXPECT_FALSE(std::ifstream(good + ".tmp").good());
  std::remove(good.c_str());
}

}  // namespace
}  // namespace robotune::obs
