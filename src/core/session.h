// Reusable tuning-session assembly (shared by robotune_cli and the
// service daemon).
//
// A SessionSpec is the complete, serializable description of one tuning
// run: workload, tuner, budget, seed, fault/racing/parallelism knobs,
// and the durability wiring (journal path, resume/recover, fsync).  The
// SessionFactory validates a spec and builds a Session: the objective,
// evaluation scheduler, tuner, and checkpoint log are assembled in one
// place, and the CLI and the daemon drive the same open/step/finish, so
// a daemon-hosted session and a standalone `robotune_cli` invocation
// with the same spec produce byte-identical journals.
//
// Specs persist as a small framed file (one frame of the framed-line
// codec, common/framed_line.h, after the header) so the daemon can
// re-create its fleet after a restart and detect a corrupt spec instead
// of replaying garbage:
//
//   robotune-spec v1
//   <crc32:8 hex> <len> workload=PR dataset=1 tuner=robotune ...
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/persistence.h"
#include "core/robotune.h"
#include "exec/eval_scheduler.h"
#include "sparksim/objective.h"
#include "tuners/tuner.h"

namespace robotune::core {

class ExternalBridge;

/// Everything needed to run (or re-run) one tuning session.  The
/// tuning-relevant fields round-trip through encode_spec/decode_spec;
/// the durability fields (checkpoint_path, resume, recover, sync) are
/// host wiring — the daemon derives them from its service root — and are
/// not serialized.
struct SessionSpec {
  std::string workload = "PR";  ///< PR|KM|CC|LR|TS (sparksim short name)
  int dataset = 1;              ///< Table-1 dataset, 1..3
  std::string tuner = "robotune";  ///< robotune|bestconfig|gunther|rs
  int budget = 100;
  std::uint64_t seed = 7;
  std::string metric = "time";  ///< time|coreseconds
  /// Transient-fault injection: preset name or per-site rate list (see
  /// robotune_cli --fault-profile).  Must not contain spaces.
  std::string fault_profile = "none";
  int retries = 2;
  double preempt_rate = 0.0;
  /// Evaluation workers.  0 (the default) and 1 both evaluate inline on
  /// one worker; results are bit-identical for any value.
  int parallel = 0;
  int batch = 1;              ///< BO batch width q (robotune only)
  std::string racing = "off";  ///< off|median|halving
  double eval_deadline = 0.0;  ///< per-eval deadline seconds (0 = off)
  /// BO initial-design size override (0 = engine default of 20).  Small
  /// budgets — service smoke tests, the fig_service bench — need this to
  /// keep budget >= initial_samples.
  int init = 0;
  /// Parameter-selection sample-count override (0 = default 100).  The
  /// RF selection pipeline dominates a short session's wall clock; the
  /// service bench dials it down to pack hundreds of sessions into CI.
  int selection_samples = 0;
  /// Surrogate tier: exact|rff|auto (robotune only; DESIGN.md §15).
  std::string surrogate = "auto";
  /// RFF feature count override (0 = engine default of 256).
  int rff_features = 0;
  /// Hyperparameter-refit schedule: fixed|doubling|auto.
  std::string refit = "auto";
  /// Session mode: "internal" runs evaluations against the sparksim
  /// objective (everything before DESIGN.md §16); "external" is
  /// ask/tell — the session proposes configurations and an external
  /// executor observes them back (robotune only, parallel at most 1, no
  /// racing).  Serialized only when external, so internal
  /// spec files stay byte-identical and pre-external daemons reject
  /// external specs cleanly via the unknown-key rule.
  std::string mode = "internal";

  // ---- host durability wiring (not serialized) --------------------------
  std::string checkpoint_path;  ///< empty = no journal
  bool resume = false;
  bool recover = false;
  SyncPolicy sync = SyncPolicy::kNone;

  /// Empty when the spec is well-formed, else a human-readable reason.
  std::string validate() const;
};

/// Serializes the tuning-relevant fields as one line of space-separated
/// key=value tokens (no framing) — the service protocol embeds this in
/// `start` requests.
std::string encode_spec_body(const SessionSpec& spec);
/// Parses encode_spec_body output and validates the result.  Durability
/// fields of `spec` are preserved.
bool decode_spec_body(const std::string& body, SessionSpec& spec,
                      std::string* error = nullptr);

/// Serializes the tuning-relevant fields as a framed spec file body.
std::string encode_spec(const SessionSpec& spec);
/// Parses encode_spec output.  Durability fields are left untouched.
/// Returns false (with `error` set, when non-null) on a malformed,
/// torn, or corrupt spec.
bool decode_spec(const std::string& text, SessionSpec& spec,
                 std::string* error = nullptr);
/// File wrappers (write-then-rename, like the journal).
bool save_spec_file(const SessionSpec& spec, const std::string& path);
bool load_spec_file(const std::string& path, SessionSpec& spec,
                    std::string* error = nullptr);

/// Point-in-time view of a running session, delivered on every journal
/// flush (robotune sessions) and once at completion (all tuners).
struct SessionProgress {
  std::size_t evaluations = 0;   ///< completed so far
  double best_value_s = 0.0;     ///< incumbent objective (inf until found)
  std::vector<double> best_unit;  ///< incumbent configuration (may be empty)
};

/// The progress a journal shows: its evaluation count and incumbent.
SessionProgress progress_of(const SessionCheckpoint& state);

struct SessionOutcome {
  tuners::TuningResult result;
  /// robotune only: selection + memoization details, BoResult.
  std::optional<RoboTuneReport> report;
  bool interrupted = false;  ///< cancelled at a round boundary
  bool resumed = false;      ///< journal prefix was replayed
  std::size_t replayed = 0;  ///< evaluations replayed from the journal
  bool journal_recovered = false;  ///< recover mode dropped a torn tail
  std::size_t dropped_records = 0;
  std::string error;  ///< non-empty = the session failed (nothing ran)

  bool ok() const noexcept { return error.empty(); }
};

/// One assembled tuning session.  It runs once: either through `run`,
/// or — a robotune session hosted by the daemon — through `open`, the
/// `step`s, and `finish`.
class Session {
 public:
  Session(const Session&) = delete;  // its journal hook holds `this`
  Session& operator=(const Session&) = delete;

  const SessionSpec& spec() const noexcept { return spec_; }

  /// Loads / saves the cross-session memoized state (selection cache +
  /// config buffer); no-ops (returning false) for non-robotune tuners.
  /// Loading throws InvalidArgument for a damaged or v1 state file.
  bool load_state(const std::string& path);
  bool save_state(const std::string& path);

  /// Runs the session to completion (or to cancellation).  `cancel`
  /// (nullable) is polled at round boundaries; `progress` (nullable)
  /// fires on every journal flush with the incumbent best.  A robotune
  /// session runs as `open`, `step` until finished or cancelled, and
  /// `finish`; the other tuners run their own loop.
  ///
  /// A journal an ask/tell session wrote replays here (the CLI resume
  /// path) but cannot make live progress: that needs its executors.
  SessionOutcome run(
      const std::atomic<bool>* cancel = nullptr,
      std::function<void(const SessionProgress&)> progress = nullptr);

  // ---- robotune sessions, driven in steps -------------------------------
  //
  // Each call is one short step on the host's thread.  Without a bridge
  // (internal mode) every step evaluates one round on the session's own
  // EvalScheduler.  With one (spec mode=external) `open` publishes the
  // first round and each step ingests a round its executors resolved and
  // publishes the next; nothing blocks on the executors.  `open` and
  // `step` return true while the session has more to do and false once
  // it has ended (budget spent, or an error that `finish` reports).  The
  // host runs at most one call of a session at a time and ends every
  // session with `finish`.

  /// First step: loads (resumes) the journal, runs parameter selection
  /// and begins the engine; with `bridge`, also restores the bridge's
  /// ledger and publishes the first round.
  bool open(std::function<void(const SessionProgress&)> progress = nullptr,
            ExternalBridge* bridge = nullptr);
  /// Later steps: one round (internal), or — once the bridge holds every
  /// observation of the published round — ingest it and publish the next
  /// (a no-op before).
  bool step();
  /// Ends the session and reports it; `interrupted` marks a stop before
  /// the budget was spent (the journal resumes).  A parallel session's
  /// journal is re-flushed in canonical (eval-index) order here, so the
  /// final bytes are identical for any worker count; one-worker sessions
  /// are already canonical and their journal bytes are never rewritten.
  /// An ask/tell host calls it after closing the bridge, so no service
  /// call touches the journal any more.
  SessionOutcome finish(bool interrupted);

 private:
  friend class SessionFactory;
  explicit Session(SessionSpec spec);

  sparksim::SparkObjective make_objective() const;
  exec::SchedulerOptions scheduler_options() const;
  /// Loads the journal when resuming and wires its flush hook; false
  /// (with outcome_.error set) when the journal cannot be resumed.
  bool open_journal();
  /// The log BO runs journal through: null without a checkpoint path.
  SessionLog* journal() noexcept {
    return spec_.checkpoint_path.empty() ? nullptr : &log_;
  }
  SessionOutcome conclude();

  SessionSpec spec_;
  sparksim::WorkloadKind kind_;
  sparksim::ObjectiveMetric metric_;
  sparksim::FaultProfile faults_;
  exec::RacingMode racing_mode_ = exec::RacingMode::kOff;
  std::unique_ptr<tuners::Tuner> tuner_;
  RoboTune* robotune_ = nullptr;  ///< non-null when tuner is robotune
  bool ran_ = false;
  std::function<void(const SessionProgress&)> progress_;
  SessionLog log_;
  SessionOutcome outcome_;
  // ---- step state, alive between open and finish -----------------------
  std::unique_ptr<sparksim::SparkObjective> objective_;
  std::unique_ptr<exec::EvalScheduler> scheduler_;  ///< internal mode
  ExternalBridge* bridge_ = nullptr;                ///< ask/tell mode
  std::unique_ptr<BoEngine> engine_;
};

/// Parses a fault-profile string (preset name or "loss=F,fetch=F,..."
/// list); shared by the CLI and the spec decoder.
bool parse_fault_profile(const std::string& text, sparksim::FaultProfile& out);

class SessionFactory {
 public:
  /// Validates `spec` and assembles a Session.  Returns null (with
  /// `error` set, when non-null) when the spec is rejected.
  static std::unique_ptr<Session> create(const SessionSpec& spec,
                                         std::string* error = nullptr);
};

}  // namespace robotune::core
