#include "core/persistence.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/atomic_file.h"
#include "common/chaos.h"
#include "common/error.h"
#include "common/framed_line.h"

namespace robotune::core {

namespace {
constexpr std::string_view kStateHeader = "robotune-state v2";
constexpr std::string_view kUnframedStateHeader = "robotune-state v1";
constexpr std::string_view kSessionHeader = "robotune-session v3";

// Whitespace tokenizer over one record payload.  Every numeric
// conversion goes through std::from_chars with a full-token-consumption
// check, so a malformed field surfaces as InvalidArgument instead of an
// uncaught std::invalid_argument or a silently truncated value.
class RecordParser {
 public:
  explicit RecordParser(std::string_view payload) : payload_(payload) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument(what);
  }

  std::string_view token(const char* field) {
    skip_spaces();
    if (pos_ >= payload_.size()) {
      fail(std::string("missing ") + field + " field");
    }
    const std::size_t start = pos_;
    while (pos_ < payload_.size() && payload_[pos_] != ' ' &&
           payload_[pos_] != '\t') {
      ++pos_;
    }
    return payload_.substr(start, pos_ - start);
  }

  std::uint64_t u64(const char* field) {
    return number<std::uint64_t>(field);
  }
  int i(const char* field) { return number<int>(field); }
  double d(const char* field) { return number<double>(field); }

  void done(const char* record) {
    skip_spaces();
    if (pos_ < payload_.size()) {
      fail(std::string("trailing data in ") + record + " record");
    }
  }

 private:
  template <typename T>
  T number(const char* field) {
    const std::string_view t = token(field);
    T value{};
    const auto [ptr, ec] =
        std::from_chars(t.data(), t.data() + t.size(), value);
    if (ec != std::errc() || ptr != t.data() + t.size()) {
      fail(std::string("malformed ") + field + " field: '" + std::string(t) +
           "'");
    }
    return value;
  }

  void skip_spaces() {
    while (pos_ < payload_.size() &&
           (payload_[pos_] == ' ' || payload_[pos_] == '\t')) {
      ++pos_;
    }
  }

  std::string_view payload_;
  std::size_t pos_ = 0;
};

// Parses one session record payload into `session`.  Every field is
// parsed before anything is stored, so a record that throws leaves
// `session` untouched (recover mode keeps the prefix before it as is).
// A `seeding sequential` record is accepted here and flagged in
// `sequential_seeding`; load_session refuses the journal after the walk,
// so recover mode cannot mistake it for a torn tail and resume it.
void parse_session_record(RecordParser& p, SessionCheckpoint& session,
                          bool& sequential_seeding) {
  const std::string_view kind = p.token("record kind");
  if (kind == "meta") {
    const std::uint64_t seed = p.u64("seed");
    const int budget = p.i("budget");
    const std::string_view workload = p.token("workload");
    p.done("meta");
    session.seed = seed;
    session.budget = budget;
    session.workload = std::string(workload);
  } else if (kind == "seeding") {
    const std::string_view mode = p.token("seeding mode");
    if (mode != "sequential" && mode != "indexed") {
      p.fail("malformed seeding mode: '" + std::string(mode) + "'");
    }
    p.done("seeding");
    if (mode == "sequential") sequential_seeding = true;
  } else if (kind == "selected") {
    std::vector<std::size_t> selected(p.u64("selected count"));
    for (auto& idx : selected) {
      idx = static_cast<std::size_t>(p.u64("selected index"));
    }
    p.done("selected");
    session.selected = std::move(selected);
  } else if (kind == "selection-draws") {
    const std::uint64_t draws = p.u64("selection-draws");
    p.done("selection-draws");
    session.selection_seed_draws = draws;
  } else if (kind == "selection-cost") {
    const double cost = p.d("selection-cost");
    p.done("selection-cost");
    session.selection_cost_s = cost;
  } else if (kind == "memo") {
    MemoizedConfig config;
    config.value_s = p.d("memo value");
    const std::uint64_t dims = p.u64("memo dims");
    config.unit.resize(dims);
    for (auto& u : config.unit) u = p.d("memo unit coordinate");
    p.done("memo");
    session.memoized.push_back(std::move(config));
  } else if (kind == "eval") {
    EvalRecord e;
    e.index = p.u64("eval index");
    const std::string_view status_label = p.token("eval status");
    const auto status =
        sparksim::run_status_from_string(std::string(status_label));
    if (!status.has_value()) {
      p.fail("unknown run status: '" + std::string(status_label) + "'");
    }
    e.status = *status;
    e.value_s = p.d("eval value");
    e.cost_s = p.d("eval cost");
    e.stopped_early = p.i("eval stopped flag") != 0;
    e.transient = p.i("eval transient flag") != 0;
    e.attempts = p.i("eval attempts");
    const std::uint64_t dims = p.u64("eval dims");
    e.unit.resize(dims);
    for (auto& u : e.unit) u = p.d("eval unit coordinate");
    p.done("eval");
    session.evaluations.push_back(std::move(e));
  } else if (kind == "degrade") {
    DegradeEvent event;
    event.iter = p.u64("degrade iteration");
    event.rung = std::string(p.token("degrade rung"));
    p.done("degrade");
    session.degrade_events.push_back(std::move(event));
  } else if (kind == "racing") {
    const std::string_view signature = p.token("racing signature");
    p.done("racing");
    session.racing_mode = std::string(signature);
  } else if (kind == "kill") {
    KillEvent event;
    event.index = p.u64("kill index");
    const std::string_view reason_label = p.token("kill reason");
    const auto reason =
        sparksim::kill_reason_from_string(std::string(reason_label));
    if (!reason.has_value()) {
      p.fail("unknown kill reason: '" + std::string(reason_label) + "'");
    }
    event.reason = *reason;
    p.done("kill");
    session.kill_events.push_back(event);
  } else if (kind == "mode") {
    const std::string_view mode = p.token("session mode");
    if (mode != "external") {
      p.fail("malformed session mode: '" + std::string(mode) + "'");
    }
    p.done("mode");
    session.external = true;
  } else if (kind == "suggest") {
    SuggestRecord s;
    s.index = p.u64("suggest index");
    s.lease = p.u64("suggest lease");
    const std::uint64_t dims = p.u64("suggest dims");
    s.unit.resize(dims);
    for (auto& u : s.unit) u = p.d("suggest unit coordinate");
    p.done("suggest");
    session.suggests.push_back(std::move(s));
  } else if (kind == "observe_ack") {
    ObserveAck ack;
    ack.index = p.u64("observe_ack index");
    const std::string_view status_label = p.token("observe_ack status");
    const auto status =
        sparksim::run_status_from_string(std::string(status_label));
    if (!status.has_value()) {
      p.fail("unknown run status: '" + std::string(status_label) + "'");
    }
    ack.status = *status;
    ack.value_s = p.d("observe_ack value");
    ack.cost_s = p.d("observe_ack cost");
    p.done("observe_ack");
    session.observe_acks.push_back(ack);
  } else if (kind == "lease_mark") {
    session.lease_mark = p.u64("lease_mark");
    p.done("lease_mark");
  } else if (kind == "lease_expired") {
    LeaseExpiry expiry;
    expiry.index = p.u64("lease_expired index");
    expiry.lease = p.u64("lease_expired lease");
    p.done("lease_expired");
    session.lease_expiries.push_back(expiry);
  } else {
    p.fail("unknown record kind: '" + std::string(kind) + "'");
  }
}

// The records of one state file, held until the whole file has parsed.
struct StateRecords {
  std::vector<std::pair<std::string, std::vector<std::size_t>>> selections;
  std::vector<std::pair<std::string, MemoizedConfig>> memos;
};

// Parses one state record payload into `records`; like
// parse_session_record, a record that throws stores nothing.
void parse_state_record(RecordParser& p, StateRecords& records) {
  const std::string_view kind = p.token("record kind");
  if (kind == "selection") {
    const std::string_view workload = p.token("workload");
    std::vector<std::size_t> indices(p.u64("selection count"));
    for (auto& idx : indices) {
      idx = static_cast<std::size_t>(p.u64("selection index"));
    }
    p.done("selection");
    records.selections.emplace_back(std::string(workload),
                                    std::move(indices));
  } else if (kind == "memo") {
    const std::string_view workload = p.token("workload");
    MemoizedConfig config;
    config.value_s = p.d("memo value");
    config.unit.resize(p.u64("memo dims"));
    for (auto& u : config.unit) u = p.d("memo unit coordinate");
    p.done("memo");
    records.memos.emplace_back(std::string(workload), std::move(config));
  } else {
    p.fail("unknown record kind: '" + std::string(kind) + "'");
  }
}

}  // namespace

std::size_t canonicalize_journal(SessionCheckpoint& session) {
  auto& evals = session.evaluations;
  const std::size_t loaded = evals.size();
  std::stable_sort(evals.begin(), evals.end(),
                   [](const EvalRecord& a, const EvalRecord& b) {
                     return a.index < b.index;
                   });
  std::size_t keep = 0;
  while (keep < evals.size() && evals[keep].index == keep) ++keep;
  evals.resize(keep);
  // Kill events reference evaluations by index; events whose evaluation
  // fell past the replayable prefix describe work the resumed session
  // will redo (and re-journal), so they are pruned with it.
  auto& kills = session.kill_events;
  std::stable_sort(kills.begin(), kills.end(),
                   [](const KillEvent& a, const KillEvent& b) {
                     return a.index < b.index;
                   });
  kills.erase(std::remove_if(kills.begin(), kills.end(),
                             [keep](const KillEvent& k) {
                               return k.index >= keep;
                             }),
              kills.end());
  // A suggestion is resolved the moment its eval record lands; a crash
  // between the two flushes can leave both in the journal.  Prune the
  // resolved ones so the restored pending set is exactly the
  // suggestions the replayable prefix has NOT consumed.  (observe_acks
  // are deliberately untouched: the idempotency ledger outlives the
  // evaluations it acked.)
  std::stable_sort(session.suggests.begin(), session.suggests.end(),
                   [](const SuggestRecord& a, const SuggestRecord& b) {
                     return a.index < b.index;
                   });
  prune_suggests(session, keep);
  return loaded - keep;
}

void prune_suggests(SessionCheckpoint& session, std::uint64_t resolved_end) {
  std::erase_if(session.suggests, [&](const SuggestRecord& s) {
    if (s.index >= resolved_end) return false;
    session.lease_mark = std::max(session.lease_mark, s.lease);
    return true;
  });
}

std::size_t save_state(const ParameterSelectionCache& selection,
                       const ConfigMemoizationBuffer& memo,
                       std::ostream& out) {
  out << kStateHeader << "\n";
  std::ostringstream p;
  p.precision(17);
  const std::string empty;
  std::size_t records = 0;
  const auto emit = [&] {
    write_frame(out, p.view());
    p.str(empty);
    ++records;
  };
  for (const auto& [workload, indices] : selection.entries()) {
    p << "selection " << workload << " " << indices.size();
    for (std::size_t idx : indices) p << " " << idx;
    emit();
  }
  for (const auto& [workload, configs] : memo.entries()) {
    for (const auto& config : configs) {
      p << "memo " << workload << " " << config.value_s << " "
        << config.unit.size();
      for (double u : config.unit) p << " " << u;
      emit();
    }
  }
  return records;
}

std::size_t load_state(std::istream& in, ParameterSelectionCache& selection,
                       ConfigMemoizationBuffer& memo,
                       const std::string& source) {
  const std::string text(std::istreambuf_iterator<char>(in), {});
  if (text.substr(0, text.find('\n')) == kUnframedStateHeader) {
    throw InvalidArgument(
        "load_state: " + source +
        ": robotune-state v1 (the unframed format of earlier releases) is "
        "no longer read; delete the file to start from empty caches");
  }
  StateRecords records;
  const FramedWalk walk = walk_framed_lines(
      text, kStateHeader, LoadMode::kStrict, "load_state: " + source,
      [&](std::string_view payload, std::string& why) {
        try {
          RecordParser parser(payload);
          parse_state_record(parser, records);
          return true;
        } catch (const InvalidArgument& e) {
          why = e.what();
          return false;
        }
      });
  // Merge only once the whole file has parsed: a refused file leaves
  // both caches as they were.
  for (auto& [workload, indices] : records.selections) {
    selection.store(workload, std::move(indices));
  }
  for (auto& [workload, config] : records.memos) {
    memo.store(workload, std::move(config));
  }
  return walk.records;
}

bool save_state_file(const ParameterSelectionCache& selection,
                     const ConfigMemoizationBuffer& memo,
                     const std::string& path) {
  return write_file_atomically(path, [&](std::ostream& out) {
    save_state(selection, memo, out);
  });
}

bool load_state_file(const std::string& path,
                     ParameterSelectionCache& selection,
                     ConfigMemoizationBuffer& memo) {
  std::ifstream in(path);
  if (!in) return false;
  load_state(in, selection, memo, path);
  return true;
}

std::size_t save_session(const SessionCheckpoint& session,
                         std::ostream& out) {
  out << kSessionHeader << "\n";
  // Each record is built into one payload buffer, then framed onto
  // `out` by emit().  Resetting the buffer from a const empty string
  // keeps its capacity for the next record.
  std::ostringstream p;
  p.precision(17);
  const std::string empty;
  const auto emit = [&] {
    write_frame(out, p.view());
    p.str(empty);
  };
  p << "meta " << session.seed << " " << session.budget << " "
    << session.workload;
  emit();
  p << "seeding indexed";
  emit();
  // Only racing-active sessions carry the record: racing-off journals
  // stay byte-identical to those of releases without the racing layer.
  if (!session.racing_mode.empty() && session.racing_mode != "off") {
    p << "racing " << session.racing_mode;
    emit();
  }
  p << "selected " << session.selected.size();
  for (std::size_t idx : session.selected) p << " " << idx;
  emit();
  p << "selection-draws " << session.selection_seed_draws;
  emit();
  p << "selection-cost " << session.selection_cost_s;
  emit();
  for (const auto& config : session.memoized) {
    p << "memo " << config.value_s << " " << config.unit.size();
    for (double u : config.unit) p << " " << u;
    emit();
  }
  for (const auto& e : session.evaluations) {
    p << "eval " << e.index << " " << sparksim::to_string(e.status) << " "
      << e.value_s << " " << e.cost_s << " " << (e.stopped_early ? 1 : 0)
      << " " << (e.transient ? 1 : 0) << " " << e.attempts << " "
      << e.unit.size();
    for (double u : e.unit) p << " " << u;
    emit();
  }
  for (const auto& event : session.kill_events) {
    p << "kill " << event.index << " " << sparksim::to_string(event.reason);
    emit();
  }
  for (const auto& event : session.degrade_events) {
    p << "degrade " << event.iter << " " << event.rung;
    emit();
  }
  // External-only records come last and only for external sessions, so
  // internal-mode journals stay byte-identical to pre-external releases
  // (same contract as the `racing` record above).
  if (session.external) {
    p << "mode external";
    emit();
    if (session.lease_mark != 0) {
      p << "lease_mark " << session.lease_mark;
      emit();
    }
    for (const auto& s : session.suggests) {
      p << "suggest " << s.index << " " << s.lease << " " << s.unit.size();
      for (double u : s.unit) p << " " << u;
      emit();
    }
    for (const auto& ack : session.observe_acks) {
      p << "observe_ack " << ack.index << " "
        << sparksim::to_string(ack.status) << " " << ack.value_s << " "
        << ack.cost_s;
      emit();
    }
    for (const auto& expiry : session.lease_expiries) {
      p << "lease_expired " << expiry.index << " " << expiry.lease;
      emit();
    }
  }
  return session.evaluations.size();
}

std::size_t load_session(std::istream& in, SessionCheckpoint& session) {
  return load_session(in, session, LoadMode::kStrict);
}

std::size_t load_session(std::istream& in, SessionCheckpoint& session,
                         LoadMode mode, SessionLoadReport* report,
                         const std::string& source) {
  session = SessionCheckpoint{};
  const std::string text(std::istreambuf_iterator<char>(in), {});
  bool sequential_seeding = false;
  const FramedWalk walk = walk_framed_lines(
      text, kSessionHeader, mode, "load_session: " + source,
      [&](std::string_view payload, std::string& why) {
        try {
          RecordParser parser(payload);
          parse_session_record(parser, session, sequential_seeding);
          return true;
        } catch (const InvalidArgument& e) {
          why = e.what();
          return false;
        }
      });
  if (sequential_seeding) {
    throw InvalidArgument(
        "load_session: " + source +
        ": journal was written under the removed sequential "
        "evaluation-seeding mode (detached sessions of earlier releases); "
        "it cannot be resumed — start the session afresh");
  }
  if (report != nullptr) {
    report->evaluations = session.evaluations.size();
    report->dropped_records = walk.dropped;
    report->recovered = walk.recovered;
    report->header_ok = walk.header_ok;
  }
  return session.evaluations.size();
}

bool save_session_file(const SessionCheckpoint& session,
                       const std::string& path, SyncPolicy sync) {
  // Chaos site: a simulated I/O error leaves the previous checkpoint (if
  // any) untouched, exactly like a failed open would.
  if (chaos::fail(chaos::Site::kJournalWrite)) return false;
  // Resume sees either the old journal or the new one, never a torn mix.
  return write_file_atomically(
      path, [&](std::ostream& out) { save_session(session, out); }, sync);
}

bool load_session_file(const std::string& path, SessionCheckpoint& session,
                       LoadMode mode, SessionLoadReport* report) {
  std::ifstream in(path);
  if (!in) return false;
  load_session(in, session, mode, report, path);
  return true;
}

}  // namespace robotune::core
