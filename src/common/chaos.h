// Deterministic chaos harness: seeded, off-by-default injection points
// for *internal* failures of the tuner itself.
//
// PR 1's fault layer makes the simulated cluster flaky; this harness
// makes the tuner's own machinery flaky — a Cholesky factorization that
// refuses to converge, an acquisition optimizer that dies, a journal
// write that hits an I/O error, a thread-pool task that throws — so the
// degradation ladder (DESIGN.md §11) can be proven end-to-end instead of
// waiting for a real ill-conditioned matrix to show up in production.
//
// Invariants, mirroring sparksim::FaultProfile:
//  * off means OFF: an unconfigured injector costs one relaxed atomic
//    load per hook and injects nothing — byte-identical behavior to a
//    tree without the hooks;
//  * decisions are a pure function of (chaos seed, site, invocation
//    counter) for canonical-thread sites, or (chaos seed, site, caller
//    index) for `fail_indexed` — never of wall clock or scheduling — so
//    two identically-seeded chaotic sessions are byte-identical, at any
//    `--parallel` worker count.
//
// Sites and what they throw / simulate:
//  * kCholesky      linalg::cholesky throws NumericalError up front
//                   (forces the GP fit ladder);
//  * kAcqOpt        gp::optimize_acquisition throws NumericalError
//                   (forces the fallback-proposal rung);
//  * kJournalWrite  core::save_session_file reports failure without
//                   touching the file (a simulated I/O error — the
//                   session keeps running on a stale checkpoint);
//  * kPoolTask      ThreadPool::parallel_for bodies throw ChaosError
//                   (proves deterministic exception propagation);
//  * kCancelDelivery sparksim's stage boundary ignores a pending kill
//                   request (a delayed/dropped cancellation signal — the
//                   run keeps executing until a later boundary's delivery
//                   succeeds or the run finishes on its own);
//  * kObserveDelivery the service's ask/tell observe path drops or
//                   duplicates a client observation (a per-delivery
//                   counter decision, so a blind client retry draws a
//                   fresh verdict and eventually lands; the drop
//                   pattern is scheduling-dependent but invisible to
//                   results — accepted tuples are exactly what the
//                   client sent, whichever attempt delivers them —
//                   proving the lease ledger's idempotency end-to-end).
//
// Counter-based sites (kCholesky, kAcqOpt, kJournalWrite) are only ever
// armed for call sites on the canonical session thread, or whose effect
// cannot reach tuning results (journal writes); concurrent call sites
// must use fail_indexed so the decision keys on a logical index.
//
// configure()/disarm() require quiescence (no instrumented work in
// flight), exactly like obs::MetricsRegistry::reset().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace robotune::chaos {

enum class Site : int {
  kCholesky = 0,
  kAcqOpt,
  kJournalWrite,
  kPoolTask,
  kCancelDelivery,
  kObserveDelivery,
};
inline constexpr int kSiteCount = 6;

const char* to_string(Site site) noexcept;

/// Thrown by injection points that have no domain-specific exception to
/// imitate (the thread-pool task site).  Numerical sites throw
/// NumericalError so they exercise exactly the handler a real failure
/// would.
class ChaosError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-site injection probabilities.  Default (all zero) injects nothing.
struct ChaosProfile {
  double cholesky_failure = 0.0;
  double acq_opt_failure = 0.0;
  double journal_write_failure = 0.0;
  double pool_task_failure = 0.0;
  double cancel_delivery_failure = 0.0;
  double observe_delivery_failure = 0.0;

  bool active() const noexcept {
    return cholesky_failure > 0.0 || acq_opt_failure > 0.0 ||
           journal_write_failure > 0.0 || pool_task_failure > 0.0 ||
           cancel_delivery_failure > 0.0 || observe_delivery_failure > 0.0;
  }

  double rate(Site site) const noexcept;

  /// Named presets for the CLI and CI:
  ///   none      nothing
  ///   surrogate every Cholesky factorization fails (all ladder rungs)
  ///   flaky     25% Cholesky / 25% acquisition / 50% journal failures
  ///   full      every surrogate, acquisition and journal hook fires
  /// Returns false for an unknown name.  No preset arms kPoolTask — a
  /// pool-task exception is not survivable by design (it exists to prove
  /// deterministic propagation) and is only armed explicitly.
  static bool from_preset(const std::string& name, ChaosProfile& out);

  /// Parses a preset name or a
  /// "cholesky=F,acq=F,journal=F,pool=F,cancel=F,observe=F" list.
  static bool parse(const std::string& text, ChaosProfile& out);
};

class ChaosInjector {
 public:
  /// Arms the injector: decisions derive from (seed, site, counter).
  /// Resets all per-site counters, so two configure() calls with the
  /// same (profile, seed) replay the identical decision sequence.
  void configure(const ChaosProfile& profile, std::uint64_t seed);

  /// Back to inert (and counters cleared).
  void disarm();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  const ChaosProfile& profile() const noexcept { return profile_; }

  /// Decision for the next invocation of a canonical-thread site.
  bool should_fail(Site site) noexcept;
  /// Decision keyed on a caller-supplied logical index (safe to call
  /// concurrently: the result is a pure function of (seed, site, index)).
  bool should_fail(Site site, std::uint64_t index) noexcept;

  /// Total decisions that fired for `site` since configure().
  std::uint64_t injections(Site site) const noexcept;

 private:
  bool decide(Site site, std::uint64_t index) noexcept;

  std::atomic<bool> enabled_{false};
  ChaosProfile profile_;
  std::uint64_t seed_ = 0;
  std::array<std::atomic<std::uint64_t>, kSiteCount> counters_{};
  std::array<std::atomic<std::uint64_t>, kSiteCount> injected_{};
};

/// Process-wide injector all hooks consult.
ChaosInjector& injector();

// Hook-site idiom: one call, false unless armed and the dice say fail.
inline bool fail(Site site) noexcept { return injector().should_fail(site); }
inline bool fail_indexed(Site site, std::uint64_t index) noexcept {
  return injector().should_fail(site, index);
}

}  // namespace robotune::chaos
