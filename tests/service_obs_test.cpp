// Fleet observability suite (DESIGN.md §14): the structured event
// journal's crash-safety and rotation, the byte-identity contract of
// its logical projection, the `metrics` verb over both transports, the
// Prometheus writer, the quantile estimator, and the O(1) status-count
// regression guard.
//
// The logical projection goldens are identical across any
// max_live/slots/worker configuration — that *is* the contract.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "service/client.h"
#include "service/events.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session_manager.h"
#include "service/telemetry.h"

namespace robotune {
namespace {

namespace fs = std::filesystem;

core::SessionSpec small_spec(std::uint64_t seed, int budget = 8) {
  core::SessionSpec spec;
  spec.workload = "PR";
  spec.dataset = 1;
  spec.tuner = "robotune";
  spec.budget = budget;
  spec.seed = seed;
  spec.parallel = 1;
  spec.init = 4;
  spec.selection_samples = 20;
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    root_ = fs::temp_directory_path() /
            ("robotune-svcobs-" + tag + "-" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  std::string path() const { return root_.string(); }
  std::string file(const std::string& name) const {
    return (root_ / name).string();
  }

 private:
  fs::path root_;
};

using service::EventJournal;
using service::FleetEvent;

EventJournal::Options journal_options(const std::string& path,
                                      std::size_t max_bytes = 256 * 1024,
                                      std::size_t keep = 3) {
  EventJournal::Options options;
  options.path = path;
  options.max_bytes = max_bytes;
  options.keep = keep;
  return options;
}

// ---- event journal: framing, recovery, rotation --------------------------

TEST(EventJournal, RoundTripsEventsWithMonotonicSequence) {
  TempDir dir("roundtrip");
  const std::string path = dir.file("events.jsonl");
  {
    EventJournal journal;
    ASSERT_TRUE(journal.open(journal_options(path)));
    EXPECT_TRUE(journal.enabled());
    journal.emit(0, "daemon.start");
    journal.emit(3, "admission.accept", "readmission");
    journal.emit(3, "queue.enter");
    journal.emit(0, "admission.reject", "weird spec: a=b c%\" \\ \n d");
    EXPECT_EQ(journal.last_seq(), 4u);
  }
  std::vector<FleetEvent> events;
  EventJournal::LoadReport report;
  ASSERT_TRUE(EventJournal::load_file(path, events, core::LoadMode::kStrict,
                                      &report));
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_FALSE(report.recovered);
  EXPECT_TRUE(report.header_ok);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);
  }
  EXPECT_EQ(events[1].session, 3u);
  EXPECT_EQ(events[1].kind, "admission.accept");
  EXPECT_EQ(events[1].detail, "readmission");
  // Escaping survives arbitrary detail strings.
  EXPECT_EQ(events[3].detail, "weird spec: a=b c%\" \\ \n d");
}

TEST(EventJournal, DisabledJournalNoOps) {
  EventJournal journal;  // never opened
  EXPECT_FALSE(journal.enabled());
  journal.emit(1, "admission.accept");
  journal.flush();
  EXPECT_EQ(journal.last_seq(), 0u);
  EXPECT_TRUE(journal.chain().empty());
}

TEST(EventJournal, RecoverTruncatesAtEveryCutPoint) {
  TempDir dir("truncate");
  const std::string path = dir.file("events.jsonl");
  {
    EventJournal journal;
    ASSERT_TRUE(journal.open(journal_options(path)));
    for (int i = 1; i <= 6; ++i) {
      journal.emit(static_cast<std::uint64_t>(i), "queue.enter",
                   "detail-" + std::to_string(i));
    }
  }
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 30u);
  std::vector<FleetEvent> full;
  ASSERT_TRUE(
      EventJournal::load_file(path, full, core::LoadMode::kStrict, nullptr));
  ASSERT_EQ(full.size(), 6u);

  // Every possible kill -9 cut: the recovered events are exactly a
  // prefix of the full stream, and a cut mid-record drops only that
  // record.
  std::size_t last_count = full.size();
  for (std::size_t cut = bytes.size(); cut-- > 0;) {
    const std::string cut_path = dir.file("cut.jsonl");
    spit(cut_path, bytes.substr(0, cut));
    std::vector<FleetEvent> events;
    EventJournal::LoadReport report;
    ASSERT_TRUE(EventJournal::load_file(cut_path, events,
                                        core::LoadMode::kRecover, &report))
        << "cut at byte " << cut;
    ASSERT_LE(events.size(), full.size());
    // Monotone: shrinking the file never recovers *more* events.
    ASSERT_LE(events.size(), last_count) << "cut at byte " << cut;
    last_count = events.size();
    for (std::size_t i = 0; i < events.size(); ++i) {
      ASSERT_EQ(events[i], full[i]) << "cut at byte " << cut;
    }
    // Strict mode refuses anything recover had to repair.
    if (report.recovered || !report.header_ok) {
      std::vector<FleetEvent> ignored;
      ASSERT_THROW(EventJournal::load_file(cut_path, ignored,
                                           core::LoadMode::kStrict, nullptr),
                   InvalidArgument)
          << "cut at byte " << cut;
    }
  }
}

TEST(EventJournal, RecoverStopsAtBitFlip) {
  TempDir dir("bitflip");
  const std::string path = dir.file("events.jsonl");
  {
    EventJournal journal;
    ASSERT_TRUE(journal.open(journal_options(path)));
    for (int i = 1; i <= 5; ++i) {
      journal.emit(static_cast<std::uint64_t>(i), "session.running");
    }
  }
  const std::string bytes = slurp(path);
  const std::string flipped_path = dir.file("flipped.jsonl");
  // Every single-bit flip of every byte — header, frame head, payload,
  // newline — must be caught: recover keeps a strict prefix, strict
  // throws.
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[at] = static_cast<char>(
          static_cast<unsigned char>(flipped[at]) ^ (1u << bit));
      spit(flipped_path, flipped);
      std::vector<FleetEvent> events;
      EventJournal::LoadReport report;
      ASSERT_TRUE(EventJournal::load_file(flipped_path, events,
                                          core::LoadMode::kRecover, &report));
      EXPECT_TRUE(report.recovered)
          << "flip of bit " << bit << " at byte " << at;
      EXPECT_GT(report.dropped, 0u);
      EXPECT_LT(events.size(), 5u);
      for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, i + 1);
      }
      std::vector<FleetEvent> ignored;
      EXPECT_THROW(EventJournal::load_file(flipped_path, ignored,
                                           core::LoadMode::kStrict, nullptr),
                   InvalidArgument)
          << "flip of bit " << bit << " at byte " << at;
    }
  }
}

TEST(EventJournal, ReopenTruncatesTornTailAndContinuesSequence) {
  TempDir dir("reopen");
  const std::string path = dir.file("events.jsonl");
  {
    EventJournal journal;
    ASSERT_TRUE(journal.open(journal_options(path)));
    journal.emit(1, "queue.enter");
    journal.emit(1, "queue.leave");
    journal.emit(1, "session.running");
  }
  // Tear the last record (kill -9 mid-write).
  const std::string bytes = slurp(path);
  spit(path, bytes.substr(0, bytes.size() - 7));
  {
    EventJournal journal;
    ASSERT_TRUE(journal.open(journal_options(path)));
    // The torn record is gone; the sequence continues after the last
    // durable one.
    EXPECT_EQ(journal.last_seq(), 2u);
    journal.emit(1, "session.done");
  }
  std::vector<FleetEvent> events;
  ASSERT_TRUE(EventJournal::load_file(path, events, core::LoadMode::kStrict,
                                      nullptr));
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].seq, 3u);
  EXPECT_EQ(events[2].kind, "session.done");
}

TEST(EventJournal, CorruptHeaderIsSetAsideNotOverwritten) {
  TempDir dir("header");
  const std::string path = dir.file("events.jsonl");
  spit(path, "not an event journal at all\ngarbage\n");
  EventJournal journal;
  ASSERT_TRUE(journal.open(journal_options(path)));
  EXPECT_EQ(journal.last_seq(), 0u);
  journal.emit(1, "queue.enter");
  journal.close();
  // The unrecognizable history was preserved, not clobbered.
  EXPECT_TRUE(fs::exists(path + ".corrupt"));
  EXPECT_EQ(slurp(path + ".corrupt"),
            "not an event journal at all\ngarbage\n");
  std::vector<FleetEvent> events;
  ASSERT_TRUE(EventJournal::load_file(path, events, core::LoadMode::kStrict,
                                      nullptr));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 1u);
}

TEST(EventJournal, EmptyFileRestartsWithoutBeingSetAside) {
  // A crash between creating the file and writing its header leaves it
  // empty: there is no history to preserve, so it simply restarts.
  TempDir dir("empty");
  const std::string path = dir.file("events.jsonl");
  spit(path, "");
  EventJournal journal;
  ASSERT_TRUE(journal.open(journal_options(path)));
  journal.emit(1, "queue.enter");
  journal.close();
  EXPECT_FALSE(fs::exists(path + ".corrupt"));
  std::vector<FleetEvent> events;
  ASSERT_TRUE(EventJournal::load_file(path, events, core::LoadMode::kStrict,
                                      nullptr));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 1u);
}

TEST(EventJournal, RotationKeepsSequenceMonotonicAcrossChain) {
  TempDir dir("rotate");
  const std::string path = dir.file("events.jsonl");
  {
    EventJournal journal;
    // Tiny threshold: every few records force a rotation.
    ASSERT_TRUE(journal.open(journal_options(path, /*max_bytes=*/256,
                                             /*keep=*/2)));
    for (int i = 1; i <= 40; ++i) {
      journal.emit(static_cast<std::uint64_t>(i % 5), "queue.enter",
                   "record-" + std::to_string(i));
    }
    EXPECT_EQ(journal.last_seq(), 40u);
    const auto chain = journal.chain();
    ASSERT_GE(chain.size(), 2u);  // rotations happened
    ASSERT_LE(chain.size(), 3u);  // keep=2 bounds the chain
    EXPECT_EQ(chain.back(), path);
  }
  std::vector<FleetEvent> events;
  EventJournal::LoadReport report;
  ASSERT_TRUE(EventJournal::load_chain(
      journal_options(path, 256, 2), events, &report));
  ASSERT_FALSE(events.empty());
  // keep=2 dropped the oldest rotations, so the chain holds a strict
  // *suffix* of the sequence, still strictly monotonic.
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_GT(events[i].seq, events[i - 1].seq);
  }
  EXPECT_EQ(events.back().seq, 40u);
  EXPECT_LT(events.size(), 40u);  // the oldest file really was dropped

  // Reopening after rotation continues from the *active* file's tail.
  EventJournal journal;
  ASSERT_TRUE(journal.open(journal_options(path, 256, 2)));
  EXPECT_EQ(journal.last_seq(), 40u);
  journal.emit(1, "queue.leave");
  EXPECT_EQ(journal.last_seq(), 41u);
}

TEST(EventJournal, ReopenAfterRotationWithEmptyActiveFileScansChain) {
  TempDir dir("rotate-empty");
  const std::string path = dir.file("events.jsonl");
  {
    EventJournal journal;
    ASSERT_TRUE(journal.open(journal_options(path, /*max_bytes=*/128,
                                             /*keep=*/2)));
    for (int i = 1; i <= 10; ++i) journal.emit(1, "queue.enter");
  }
  // Simulate a crash right after rotation: active file is header-only.
  spit(path, slurp(path).substr(0, slurp(path).find('\n') + 1));
  EventJournal journal;
  ASSERT_TRUE(journal.open(journal_options(path, 128, 2)));
  // The sequence must continue after the rotated files' last record,
  // never restart at 1.
  journal.emit(1, "queue.leave");
  std::vector<FleetEvent> events;
  ASSERT_TRUE(EventJournal::load_file(path, events, core::LoadMode::kStrict,
                                      nullptr));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GT(events[0].seq, 1u);
}

// ---- logical projection: the byte-identity contract ----------------------

TEST(EventProjection, ClassifiesKinds) {
  EXPECT_TRUE(service::logical_event_kind("admission.accept"));
  EXPECT_TRUE(service::logical_event_kind("session.done"));
  EXPECT_TRUE(service::logical_event_kind("recovery.quarantined"));
  EXPECT_FALSE(service::logical_event_kind("admission.reject"));
  EXPECT_FALSE(service::logical_event_kind("client.connect"));
  EXPECT_FALSE(service::logical_event_kind("daemon.start"));
  EXPECT_FALSE(service::logical_event_kind("made.up"));
}

std::string fleet_projection(std::size_t max_live, std::size_t slots,
                             const std::string& tag) {
  TempDir dir("proj-" + tag);
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = max_live;
  options.slots = slots;
  options.seed = 99;
  options.events_path = dir.file("events.jsonl");
  std::string projection;
  {
    service::SessionManager manager(options);
    EXPECT_TRUE(manager.events_error().empty()) << manager.events_error();
    for (int i = 0; i < 3; ++i) {
      const auto result =
          manager.start(small_spec(/*seed=*/0, /*budget=*/6),
                        /*derive_seed=*/true);
      EXPECT_TRUE(result.admitted) << result.error;
    }
    manager.drain();
    std::vector<FleetEvent> events;
    EXPECT_TRUE(EventJournal::load_chain(journal_options(options.events_path),
                                         events, nullptr));
    projection = service::logical_event_projection(events);
  }
  return projection;
}

TEST(EventProjection, ByteIdenticalAcrossFleetConfigurations) {
  // The golden is config-independent AND obs-build-independent: the CI
  // OBS=OFF run asserts the very same bytes.
  const std::string golden =
      "session 1 admission.accept\n"
      "session 1 queue.enter\n"
      "session 1 queue.leave\n"
      "session 1 session.running\n"
      "session 1 session.done\n"
      "session 2 admission.accept\n"
      "session 2 queue.enter\n"
      "session 2 queue.leave\n"
      "session 2 session.running\n"
      "session 2 session.done\n"
      "session 3 admission.accept\n"
      "session 3 queue.enter\n"
      "session 3 queue.leave\n"
      "session 3 session.running\n"
      "session 3 session.done\n";
  EXPECT_EQ(fleet_projection(1, 1, "serial"), golden);
  EXPECT_EQ(fleet_projection(4, 2, "wide"), golden);
  EXPECT_EQ(fleet_projection(4, 0, "free"), golden);
}

TEST(EventProjection, RecoveredFleetKeepsLogicalStream) {
  TempDir dir("proj-recover");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 2;
  options.seed = 7;
  options.events_path = dir.file("events.jsonl");
  {
    service::SessionManager manager(options);
    const auto a = manager.start(small_spec(0, 6), /*derive_seed=*/true);
    const auto b = manager.start(small_spec(0, 6), /*derive_seed=*/true);
    ASSERT_TRUE(a.admitted);
    ASSERT_TRUE(b.admitted);
    manager.drain();
  }
  // Restart over the same root: both sessions are complete on disk.
  {
    service::SessionManager manager(options);
    const auto recovery = manager.recover_fleet();
    EXPECT_EQ(recovery.completed, 2u);
    EXPECT_EQ(recovery.quarantined, 0u);
    manager.drain();
  }
  std::vector<FleetEvent> events;
  ASSERT_TRUE(EventJournal::load_chain(journal_options(options.events_path),
                                       events, nullptr));
  const std::string projection = service::logical_event_projection(events);
  EXPECT_EQ(projection,
            "session 1 admission.accept\n"
            "session 1 queue.enter\n"
            "session 1 queue.leave\n"
            "session 1 session.running\n"
            "session 1 session.done\n"
            "session 1 recovery.completed\n"
            "session 2 admission.accept\n"
            "session 2 queue.enter\n"
            "session 2 queue.leave\n"
            "session 2 session.running\n"
            "session 2 session.done\n"
            "session 2 recovery.completed\n");
  // The journal survived the restart as ONE monotonic stream.
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_GT(events[i].seq, events[i - 1].seq);
  }
}

// ---- O(1) service_status (ROADMAP 5) -------------------------------------

void expect_counts_match(service::SessionManager& manager) {
  const auto fast = manager.service_status();
  const auto slow = manager.recount_status();
  EXPECT_EQ(fast.queued, slow.queued);
  EXPECT_EQ(fast.running, slow.running);
  EXPECT_EQ(fast.done, slow.done);
  EXPECT_EQ(fast.cancelled, slow.cancelled);
  EXPECT_EQ(fast.failed, slow.failed);
}

TEST(ServiceStatus, IncrementalCountsNeverDriftFromScan) {
  TempDir dir("counts");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 2;
  // Room for all four admissions even if no worker has dequeued yet —
  // admission timing must not make this test flaky.
  options.max_pending = 4;
  options.events_path = dir.file("events.jsonl");
  service::SessionManager manager(options);
  expect_counts_match(manager);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    const auto result =
        manager.start(small_spec(100 + i, /*budget=*/6));
    ASSERT_TRUE(result.admitted) << result.error;
    ids.push_back(result.id);
    expect_counts_match(manager);
  }
  // One cancel mid-flight exercises the cancelled transition.
  manager.cancel(ids[3]);
  expect_counts_match(manager);
  manager.drain();
  expect_counts_match(manager);
  const auto status = manager.service_status();
  EXPECT_EQ(status.queued, 0u);
  EXPECT_EQ(status.running, 0u);
  EXPECT_EQ(status.done + status.cancelled, 4u);
  EXPECT_EQ(status.failed, 0u);
}

TEST(ServiceStatus, RecoveredFleetCountsMatchScan) {
  TempDir dir("counts-recover");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 2;
  {
    service::SessionManager manager(options);
    ASSERT_TRUE(manager.start(small_spec(11, 6)).admitted);
    ASSERT_TRUE(manager.start(small_spec(12, 6)).admitted);
    manager.drain();
  }
  service::SessionManager manager(options);
  const auto recovery = manager.recover_fleet();
  EXPECT_EQ(recovery.completed, 2u);
  expect_counts_match(manager);
  const auto status = manager.service_status();
  EXPECT_EQ(status.done, 2u);
}

// ---- metrics verb --------------------------------------------------------

TEST(MetricsVerb, AnswersOverLocalClient) {
  // The registry is process-global; reset so this test's counter
  // assertions are exact regardless of which tests ran before it.
  obs::metrics().reset();
  TempDir dir("verb-local");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 2;
  options.events_path = dir.file("events.jsonl");
  service::SessionManager manager(options);
  service::LocalClient client(manager);

  service::Request start;
  start.verb = "start";
  start.spec_body = core::encode_spec_body(small_spec(21, 6));
  const auto started = client.call(start);
  ASSERT_TRUE(started.ok) << started.error;
  manager.drain();

  // A suggest feeds the per-session latency histogram.
  service::Request suggest;
  suggest.verb = "suggest";
  suggest.session = 1;
  ASSERT_TRUE(client.call(suggest).ok);

  service::Request metrics;
  metrics.verb = "metrics";
  metrics.format = "prom";
  const auto response = client.call(metrics);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.fields.at("done"), "1");
  EXPECT_EQ(response.fields.at("queued"), "0");
  EXPECT_EQ(response.fields.at("running"), "0");
  EXPECT_EQ(response.fields.at("accepting"), "1");
  ASSERT_EQ(response.records.size(), 1u);
  EXPECT_EQ(response.records[0].substr(0, 7), "1 done ");
  // start + suggest counted; the in-flight metrics call records its
  // own latency only after answering.
  EXPECT_GE(std::stoull(response.fields.at("rpc_requests")), 2u);
  const std::string& prom = response.fields.at("prom");
  EXPECT_NE(prom.find("robotune_service_rpc_start 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("robotune_service_admission_accepted 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("session=\"1\""), std::string::npos);
  EXPECT_NE(
      prom.find("robotune_runtime_service_rpc_suggest_latency_us_bucket"),
      std::string::npos);
  // events_seq reflects the fleet journal.
  EXPECT_GT(std::stoull(response.fields.at("events_seq")), 0u);

  // Per-session variant.
  service::Request per_session;
  per_session.verb = "metrics";
  per_session.session = 1;
  per_session.format = "prom";
  const auto session_response = client.call(per_session);
  ASSERT_TRUE(session_response.ok) << session_response.error;
  EXPECT_EQ(session_response.fields.at("state"), "done");
  EXPECT_EQ(session_response.fields.at("evals"), "6");
  // The session section is exported *unscoped* (names already
  // stripped of session/<id>/) — directly comparable to a standalone
  // run's logical section.
  const std::string& session_prom = session_response.fields.at("prom");
  EXPECT_NE(session_prom.find("robotune_bo_rounds"), std::string::npos);
  EXPECT_EQ(session_prom.find("session=\""), std::string::npos);

  service::Request missing;
  missing.verb = "metrics";
  missing.session = 99;
  EXPECT_FALSE(client.call(missing).ok);
}

TEST(MetricsVerb, RoundTripsOverUnixSocket) {
  obs::metrics().reset();
  TempDir dir("verb-socket");
  service::ServiceOptions options;
  options.root = dir.path();
  options.max_live = 1;
  options.events_path = dir.file("events.jsonl");
  service::SessionManager manager(options);
  service::Server server(manager, dir.file("rt.sock"));
  std::string error;
  ASSERT_TRUE(server.listen(&error)) << error;
  std::atomic<bool> stop{false};
  std::thread serve_thread([&] { server.serve(stop); });

  service::SocketClient client;
  ASSERT_TRUE(client.connect(dir.file("rt.sock"), &error)) << error;

  service::Request start;
  start.verb = "start";
  start.spec_body = core::encode_spec_body(small_spec(31, 6));
  service::Response response;
  ASSERT_TRUE(client.call(start, response, &error)) << error;
  ASSERT_TRUE(response.ok) << response.error;
  manager.drain();

  service::Request metrics;
  metrics.verb = "metrics";
  metrics.format = "prom";
  ASSERT_TRUE(client.call(metrics, response, &error)) << error;
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.fields.at("done"), "1");
  ASSERT_EQ(response.records.size(), 1u);
  // The exposition survived the framed socket round-trip (escaping
  // covers its newlines) and saw the socket-side counters.
  const std::string& prom = response.fields.at("prom");
  EXPECT_NE(prom.find("robotune_service_rpc_start 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("robotune_service_clients_connected 1\n"),
            std::string::npos);

  client.close();
  stop.store(true);
  serve_thread.join();

  // The transport events landed in the fleet journal.
  std::vector<FleetEvent> events;
  ASSERT_TRUE(EventJournal::load_chain(journal_options(options.events_path),
                                       events, nullptr));
  bool connect_seen = false;
  for (const auto& event : events) {
    if (event.kind == "client.connect") connect_seen = true;
  }
  EXPECT_TRUE(connect_seen);
}

// ---- quantile estimator --------------------------------------------------

TEST(HistogramQuantile, EstimatesWithinBuckets) {
  obs::HistogramData h;
  h.bounds = {1.0, 2.0, 4.0};
  h.counts = {0, 0, 0, 0};
  EXPECT_EQ(obs::histogram_quantile(h, 0.5), 0.0);  // empty

  // 10 observations in (1, 2]: every quantile interpolates inside it.
  h.counts = {0, 10, 0, 0};
  h.total = 10;
  EXPECT_GT(obs::histogram_quantile(h, 0.5), 1.0);
  EXPECT_LE(obs::histogram_quantile(h, 0.5), 2.0);
  EXPECT_LT(obs::histogram_quantile(h, 0.1),
            obs::histogram_quantile(h, 0.9));
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 1.0), 2.0);

  // Mixed: 5 in the first bucket, 5 in the third.
  h.counts = {5, 0, 5, 0};
  h.total = 10;
  EXPECT_LE(obs::histogram_quantile(h, 0.5), 1.0);
  EXPECT_GT(obs::histogram_quantile(h, 0.9), 2.0);
  EXPECT_LE(obs::histogram_quantile(h, 0.9), 4.0);

  // Overflow ranks clamp to the largest finite bound.
  h.counts = {0, 0, 0, 10};
  h.total = 10;
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.99), 4.0);
}

// ---- Prometheus writer ---------------------------------------------------

TEST(Prometheus, RendersCountersGaugesAndSessionLabels) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["eval.runs"] = 24;
  snapshot.counters["session/3/eval.runs"] = 7;
  snapshot.counters["session/11/eval.runs"] = 17;
  snapshot.gauges["runtime.service.queue.depth"] = 2.0;
  const std::string text = obs::render_prometheus(snapshot);
  // One family: a single TYPE line, fleet series plus labeled
  // per-session series.
  EXPECT_NE(text.find("# TYPE robotune_eval_runs counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("robotune_eval_runs 24\n"), std::string::npos);
  EXPECT_NE(text.find("robotune_eval_runs{session=\"3\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("robotune_eval_runs{session=\"11\"} 17\n"),
            std::string::npos);
  EXPECT_EQ(text.find("session/"), std::string::npos);  // fully mapped
  EXPECT_NE(
      text.find("# TYPE robotune_runtime_service_queue_depth gauge\n"),
      std::string::npos);
  EXPECT_NE(text.find("robotune_runtime_service_queue_depth 2\n"),
            std::string::npos);
}

TEST(Prometheus, RendersCumulativeHistogramBuckets) {
  obs::MetricsSnapshot snapshot;
  obs::HistogramData h;
  h.bounds = {1.0, 5.0};
  h.counts = {2, 3, 1};  // 2 <=1, 3 <=5, 1 overflow
  h.total = 6;
  snapshot.histograms["runtime.rpc.latency_us"] = h;
  const std::string text = obs::render_prometheus(snapshot);
  EXPECT_NE(
      text.find("# TYPE robotune_runtime_rpc_latency_us histogram\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("robotune_runtime_rpc_latency_us_bucket{le=\"1\"} 2\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("robotune_runtime_rpc_latency_us_bucket{le=\"5\"} 5\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("robotune_runtime_rpc_latency_us_bucket{le=\"+Inf\"} 6\n"),
      std::string::npos);
  EXPECT_NE(text.find("robotune_runtime_rpc_latency_us_count 6\n"),
            std::string::npos);
  // No _sum by design: the registry keeps no floating-point sums.
  EXPECT_EQ(text.find("_sum"), std::string::npos);
}

TEST(Prometheus, WritesFileAtomically) {
  TempDir dir("promfile");
  obs::MetricsSnapshot snapshot;
  snapshot.counters["eval.runs"] = 1;
  const std::string path = dir.file("metrics.prom");
  ASSERT_TRUE(obs::write_prometheus_file(snapshot, path));
  const std::string text = slurp(path);
  EXPECT_NE(text.find("robotune_eval_runs 1\n"), std::string::npos);
  // No temp file left behind.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  EXPECT_FALSE(obs::write_prometheus_file(
      snapshot, dir.path() + "/no-such-dir/metrics.prom"));
}

// ---- fleet summary / verb plumbing ---------------------------------------

TEST(FleetSummary, RendersSectionsAndSessionRows) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["service.rpc.suggest"] = 5;
  service::ServiceStatus status;
  status.done = 2;
  std::vector<service::SessionStatus> sessions(2);
  sessions[0].id = 1;
  sessions[0].state = service::SessionState::kDone;
  sessions[0].evaluations = 6;
  sessions[0].best_value_s = 41.5;
  sessions[1].id = 2;
  sessions[1].state = service::SessionState::kQueued;
  sessions[1].best_value_s = std::numeric_limits<double>::infinity();
  const std::string text =
      service::render_fleet_summary(snapshot, status, sessions);
  EXPECT_NE(text.find("fleet observability summary"), std::string::npos);
  EXPECT_NE(text.find("-- rpc"), std::string::npos);
  EXPECT_NE(text.find("suggest"), std::string::npos);
  EXPECT_NE(text.find("41.50"), std::string::npos);
  // +inf incumbents render as "-", never "inf".
  EXPECT_EQ(text.find("inf"), std::string::npos);
}

TEST(Telemetry, UnknownVerbsCollapseIntoOneCounter) {
  service::record_rpc("garbage-verb-1", 0, false, 1.0);
  service::record_rpc("garbage-verb-2", 0, true, 1.0);
  const auto snapshot = obs::metrics().snapshot();
  EXPECT_GE(snapshot.counters.at("service.rpc.unknown"), 2u);
  EXPECT_GE(snapshot.counters.at("service.rpc.unknown.errors"), 1u);
  EXPECT_EQ(snapshot.counters.count("service.rpc.garbage-verb-1"), 0u);
}

TEST(Protocol, FormatFieldRoundTrips) {
  service::Request request;
  request.verb = "metrics";
  request.rid = 9;
  request.format = "prom";
  const std::string payload = service::encode_request(request);
  service::Request decoded;
  std::string error;
  ASSERT_TRUE(service::decode_request(payload, decoded, error)) << error;
  EXPECT_EQ(decoded.format, "prom");
  EXPECT_EQ(decoded.verb, "metrics");
}

}  // namespace
}  // namespace robotune
