// Tier-1 model-based suite for ask/tell sessions (DESIGN.md §16).
//
// LedgerModel is a ~100-line reference of the lease ledger: the pending
// set of the published round, lease ids and deadlines, the ack ledger,
// reaper expiries, and what a restart keeps.  Seeded random sequences of
// ask / tell (accepted, duplicate, conflict, unknown) / tick-to-deadline /
// kill-restart run through a real SessionManager, and every answer and
// every status reading is compared with the model after each step.
//
// The thread-bound tests pin the other half of the hosting contract: an
// ask/tell session holds no thread while it waits on its executors, and
// internal sessions run as steps on the same one pool.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/external.h"
#include "core/persistence.h"
#include "core/session.h"
#include "service/session_manager.h"

namespace robotune {
namespace {

namespace fs = std::filesystem;

constexpr int kBudget = 9;
constexpr int kInit = 4;
constexpr int kBatch = 3;
constexpr std::uint64_t kTimeout = 3;

core::SessionSpec spec_for(std::uint64_t seed) {
  core::SessionSpec spec;
  spec.workload = "PR";
  spec.tuner = "robotune";
  spec.mode = "external";
  spec.budget = kBudget;
  spec.seed = seed;
  spec.init = kInit;
  spec.batch = kBatch;
  spec.selection_samples = 20;
  return spec;
}

/// The executor's measurement of eval `index` (variant 0), or a
/// re-measurement that conflicts with it in the value (1), the cost (2)
/// or the status (3).
core::ExternalObservation measurement(std::uint64_t index, int variant = 0) {
  core::ExternalObservation obs;
  obs.value_s = 70.0 + static_cast<double>(index % 7) * 3.5;
  obs.cost_s = obs.value_s + 1.25;
  if (variant == 1) obs.value_s += 1.0;
  if (variant == 2) obs.cost_s += 1.0;
  if (variant == 3) obs.status = sparksim::RunStatus::kOom;
  return obs;
}

/// The reference ledger.  Rounds follow BoEngine's plan: the initial
/// design in chunks of the batch width, then batches of the search.
class LedgerModel {
 public:
  struct Slot {
    bool delivered = false;
    bool leased = false;
    std::uint64_t lease = 0;  ///< last issued id (0 = never)
    std::uint64_t deadline = 0;
  };
  std::map<std::uint64_t, Slot> round;  ///< the published round, by index
  std::map<std::uint64_t, core::ExternalObservation> acks;
  std::vector<std::uint64_t> expired_leases;  ///< journaled expiries
  std::uint64_t next_lease = 1;
  std::uint64_t now = 0;
  std::uint64_t resolved = 0;  ///< evaluations of completed rounds
  std::uint64_t reclaimed = 0;  ///< this manager's lifetime

  bool done() const { return resolved == kBudget; }

  void publish_next() {
    const std::uint64_t n = resolved;
    const std::uint64_t end =
        n < kInit ? std::min<std::uint64_t>(kInit, n + kBatch)
                  : std::min<std::uint64_t>(kBudget, n + kBatch);
    round.clear();
    for (std::uint64_t i = n; i < end; ++i) round[i];
  }

  std::vector<std::uint64_t> lease(std::size_t max_count) {
    std::vector<std::uint64_t> granted;
    for (auto& [index, slot] : round) {
      if (granted.size() >= std::max<std::size_t>(1, max_count)) break;
      if (slot.delivered || slot.leased) continue;
      slot.lease = next_lease++;
      slot.leased = true;
      slot.deadline = now + kTimeout;
      granted.push_back(index);
    }
    return granted;
  }

  /// Returns the verdict; a round it resolves is retired (the engine
  /// publishes the next one, which publish_next mirrors).
  core::TellVerdict tell(std::uint64_t index,
                         const core::ExternalObservation& obs) {
    if (const auto it = acks.find(index); it != acks.end()) {
      return it->second.value_s == obs.value_s &&
                     it->second.cost_s == obs.cost_s &&
                     it->second.status == obs.status
                 ? core::TellVerdict::kDuplicate
                 : core::TellVerdict::kConflict;
    }
    const auto it = round.find(index);
    if (it == round.end()) return core::TellVerdict::kUnknown;
    it->second.delivered = true;
    acks[index] = obs;
    if (std::all_of(round.begin(), round.end(),
                    [](const auto& s) { return s.second.delivered; })) {
      resolved += round.size();
      round.clear();
      if (!done()) publish_next();
    }
    return core::TellVerdict::kAccepted;
  }

  std::size_t tick() {
    ++now;
    std::size_t count = 0;
    for (auto& [index, slot] : round) {
      if (slot.delivered || !slot.leased || now < slot.deadline) continue;
      slot.leased = false;
      expired_leases.push_back(slot.lease);
      ++count;
    }
    reclaimed += count;
    return count;
  }

  /// A fresh manager on the same files: runtime leases are void and the
  /// clock restarts, but lease ids resume past every id ever issued —
  /// also between rounds, when no suggest record carries one.
  void restart() {
    for (auto& [index, slot] : round) slot.leased = false;
    now = 0;
    reclaimed = 0;
  }

  std::size_t pending() const {
    return static_cast<std::size_t>(std::count_if(
        round.begin(), round.end(),
        [](const auto& s) { return !s.second.delivered; }));
  }
  std::size_t live_leases() const {
    return static_cast<std::size_t>(
        std::count_if(round.begin(), round.end(), [&](const auto& s) {
          return !s.second.delivered && s.second.leased &&
                 now < s.second.deadline;
        }));
  }
};

std::string temp_root(const std::string& tag) {
  const fs::path root = fs::temp_directory_path() /
                        ("robotune-ledger-" + tag + "-" +
                         std::to_string(::getpid()));
  fs::remove_all(root);
  return root.string();
}

std::unique_ptr<service::SessionManager> make_manager(const std::string& root) {
  service::ServiceOptions options;
  options.root = root;
  options.max_live = 1;
  options.lease_timeout_ticks = kTimeout;
  return std::make_unique<service::SessionManager>(options);
}

bool terminal(service::SessionState state) {
  return state == service::SessionState::kDone ||
         state == service::SessionState::kCancelled ||
         state == service::SessionState::kFailed;
}

/// Waits until the session's steps caught up with the model: the round
/// the model expects is published (or the session is done).
service::SessionStatus settle(service::SessionManager& manager,
                              std::uint64_t id, const LedgerModel& model) {
  for (int spin = 0; spin < 20000; ++spin) {
    const auto status = manager.status(id);
    if (status.has_value() &&
        (model.done() ? terminal(status->state)
                      : status->pending == model.pending() &&
                            status->evaluations == model.resolved)) {
      return *status;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "session " << id << " never settled";
  return {};
}

/// How often each operation kind ran, over all sequences.
std::map<std::string, int> g_ops;

void run_sequence(std::uint64_t seed) {
  SCOPED_TRACE("sequence seed " + std::to_string(seed));
  const std::string root = temp_root(std::to_string(seed));
  const std::string image = root + "-image";
  auto manager = make_manager(root);
  const auto started = manager->start(spec_for(seed));
  ASSERT_TRUE(started.admitted) << started.error;
  const std::uint64_t id = started.id;
  LedgerModel model;
  model.publish_next();
  std::map<std::uint64_t, std::vector<double>> units;
  Rng rng(seed);
  settle(*manager, id, model);

  for (int step = 0; step < 400 && !model.done(); ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const double op = rng.uniform();
    if (op < 0.30) {
      const std::size_t k = 1 + rng.uniform_index(3);
      const auto expected = model.lease(k);
      ++g_ops["ask"];
      const auto ask = manager->ask(id, k);
      ASSERT_TRUE(ask.ok) << ask.error;
      ASSERT_EQ(ask.grants.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto& grant = ask.grants[i];
        const auto& slot = model.round.at(expected[i]);
        EXPECT_EQ(grant.index, expected[i]);
        EXPECT_EQ(grant.lease, slot.lease);
        EXPECT_EQ(grant.deadline, slot.deadline);
        const auto [it, fresh] = units.emplace(grant.index, grant.unit);
        EXPECT_TRUE(fresh || it->second == grant.unit)
            << "eval " << grant.index << " came back with another unit";
      }
    } else if (op < 0.60) {
      // Accepted: any undelivered suggestion, leased or not.
      std::vector<std::uint64_t> open;
      for (const auto& [index, slot] : model.round) {
        if (!slot.delivered) open.push_back(index);
      }
      const std::uint64_t index = open[rng.uniform_index(open.size())];
      const auto obs = measurement(index);
      const auto verdict = model.tell(index, obs);
      const auto told = manager->tell(id, index, obs);
      ++g_ops[core::to_string(verdict)];
      ASSERT_EQ(told.verdict, verdict);
      ASSERT_TRUE(told.ok) << told.error;
    } else if (op < 0.72 && !model.acks.empty()) {
      // Duplicate or conflict of a recorded ack.
      auto it = model.acks.begin();
      std::advance(it, static_cast<long>(rng.uniform_index(model.acks.size())));
      const auto obs =
          measurement(it->first, static_cast<int>(rng.uniform_index(4)));
      const auto verdict = model.tell(it->first, obs);
      const auto told = manager->tell(id, it->first, obs);
      ++g_ops[core::to_string(verdict)];
      EXPECT_EQ(told.verdict, verdict);
      EXPECT_EQ(told.ok, verdict == core::TellVerdict::kDuplicate);
      EXPECT_EQ(told.recorded.value_s, it->second.value_s);
    } else if (op < 0.78) {
      // Unknown: a future round's index or one past the budget.
      const std::uint64_t index =
          model.resolved + model.round.size() + rng.uniform_index(kBudget);
      const auto told = manager->tell(id, index, measurement(index));
      EXPECT_EQ(told.verdict, model.tell(index, measurement(index)));
      ++g_ops[core::to_string(told.verdict)];
      EXPECT_FALSE(told.ok);
    } else if (op < 0.92) {
      // Tick to the earliest live deadline (or once).
      std::uint64_t target = model.now + 1;
      for (const auto& [index, slot] : model.round) {
        if (!slot.delivered && slot.leased) {
          target = std::max(target, std::min(slot.deadline, model.now + kTimeout));
        }
      }
      while (model.now < target) {
        const std::size_t expected = model.tick();
        g_ops["expired"] += static_cast<int>(expected);
        ASSERT_EQ(manager->tick(), expected) << "tick " << model.now;
      }
    } else {
      // kill -9: freeze the files as they are now, drop the manager, and
      // recover a fresh one from the frozen image.
      fs::remove_all(image);
      fs::copy(root, image, fs::copy_options::recursive);
      manager.reset();
      fs::remove_all(root);
      fs::rename(image, root);
      manager = make_manager(root);
      const auto recovery = manager->recover_fleet();
      EXPECT_EQ(recovery.readmitted, 1u);
      EXPECT_EQ(recovery.quarantined, 0u);
      model.restart();
      ++g_ops["restart"];
    }
    const auto status = settle(*manager, id, model);
    EXPECT_EQ(status.evaluations, model.resolved);
    EXPECT_EQ(status.pending, model.pending());
    EXPECT_EQ(status.leased, model.live_leases());
    EXPECT_EQ(status.reclaimed, model.reclaimed);
    EXPECT_EQ(manager->now_tick(), model.now);
    if (::testing::Test::HasFailure()) break;
  }
  ASSERT_TRUE(model.done()) << "sequence ended before the budget was spent";
  manager->drain();
  const auto status = manager->status(id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, service::SessionState::kDone);
  core::SessionCheckpoint state;
  ASSERT_TRUE(core::load_session_file(manager->journal_path(id), state));
  EXPECT_EQ(state.evaluations.size(), static_cast<std::size_t>(kBudget));
  EXPECT_EQ(state.observe_acks.size(), model.acks.size());
  EXPECT_EQ(state.lease_expiries.size(), model.expired_leases.size());
  EXPECT_TRUE(state.suggests.empty());
  manager.reset();
  fs::remove_all(root);
}

TEST(LedgerModelTest, RandomSequencesMatchTheReferenceLedger) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_sequence(seed);
    if (HasFailure()) break;
  }
  // The sequences must actually mix every kind of step.
  for (const char* kind : {"ask", "accepted", "duplicate", "conflict",
                           "unknown", "expired", "restart"}) {
    EXPECT_GT(g_ops[kind], 0) << kind;
  }
}

// ---- thread bound ----------------------------------------------------------

std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

// The manager's one pool: `slots` threads, fewer than max_live.
constexpr std::size_t kSlots = 2;

/// Admits `internal` internal sessions (parallel 1) and 64 ask/tell
/// sessions at max_live 4 and kSlots, drives every ask/tell session into
/// the middle of its first round, waits for the internal ones to finish,
/// and returns the peak thread count above the baseline seen meanwhile.
std::size_t extra_threads_for(std::size_t internal) {
  // Selection trains its forests on the process-wide pool; create it up
  // front so it is part of the baseline.
  ThreadPool::global();
  const std::size_t before = thread_count();
  const std::string root = temp_root("threads-" + std::to_string(internal));
  service::ServiceOptions options;
  options.root = root;
  options.max_live = 4;
  options.slots = kSlots;
  options.max_pending = 64 + internal;
  std::size_t peak = 0;
  {
    service::SessionManager manager(options);
    std::vector<std::uint64_t> internal_ids;
    for (std::uint64_t seed = 1; seed <= internal; ++seed) {
      auto spec = spec_for(100 + seed);
      spec.mode = "internal";
      spec.parallel = 1;
      spec.budget = 12;
      const auto started = manager.start(spec);
      EXPECT_TRUE(started.admitted) << started.error;
      internal_ids.push_back(started.id);
      peak = std::max(peak, thread_count());
    }
    std::vector<std::uint64_t> ids;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      auto spec = spec_for(seed);
      spec.budget = 6;
      spec.batch = 4;
      const auto started = manager.start(spec);
      EXPECT_TRUE(started.admitted) << started.error;
      ids.push_back(started.id);
      peak = std::max(peak, thread_count());
    }
    // Drive every ask/tell session into the middle of its first round:
    // lease it whole and resolve half of it.
    for (const std::uint64_t id : ids) {
      std::vector<core::LeaseGrant> grants;
      for (int spin = 0; spin < 60000 && grants.empty(); ++spin) {
        grants = manager.ask(id, 4).grants;
        peak = std::max(peak, thread_count());
        if (grants.empty()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      EXPECT_EQ(grants.size(), 4u) << "session " << id;
      for (std::size_t i = 0; i < 2 && i < grants.size(); ++i) {
        EXPECT_TRUE(manager.tell(id, grants[i].index,
                                 measurement(grants[i].index))
                        .ok);
      }
      peak = std::max(peak, thread_count());
    }
    for (const std::uint64_t id : internal_ids) {
      for (int spin = 0; spin < 60000; ++spin) {
        peak = std::max(peak, thread_count());
        if (terminal(manager.status(id)->state)) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_EQ(manager.status(id)->state, service::SessionState::kDone);
    }
    const auto fleet = manager.service_status();
    EXPECT_EQ(fleet.running, 64u);
    EXPECT_EQ(fleet.done, internal);
  }
  fs::remove_all(root);
  return peak > before ? peak - before : 0;
}

TEST(LedgerModelTest, ExternalSessionsHoldNoThreadWhileWaiting) {
  if (!fs::exists("/proc/self/task")) GTEST_SKIP() << "no /proc/self/task";
  EXPECT_LE(extra_threads_for(0), kSlots + 2)
      << "64 waiting ask/tell sessions must not cost a thread each";
}

TEST(LedgerModelTest, InternalSessionsShareTheOnePool) {
  if (!fs::exists("/proc/self/task")) GTEST_SKIP() << "no /proc/self/task";
  EXPECT_LE(extra_threads_for(16), kSlots + 2)
      << "internal sessions must run as steps on the manager's one pool";
}

}  // namespace
}  // namespace robotune
