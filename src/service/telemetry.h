// Fleet telemetry plumbing for the service hot path (DESIGN.md §14):
// per-verb request counters + latency histograms, the `metrics` verb
// handler, and the end-of-serve fleet summary table.
//
// Naming follows the obs determinism split (obs/metrics.h):
//
//   service.rpc.<verb>            logical   requests dispatched
//   service.rpc.<verb>.errors     logical   requests answered !ok
//   runtime.service.rpc.<verb>.latency_us      dispatch latency histogram
//   runtime.service.rpc.suggest.latency_us.session.<id>
//                                 per-session suggest latency (named
//                                 under runtime., NOT session/<id>/ —
//                                 wall-clock data must never enter the
//                                 byte-identical per-session sections)
//   runtime.service.queue.wait_ms              admission→running wait
//   runtime.service.{queue.depth,sessions.*,pool.busy}   fleet gauges
//
// Unknown verbs are counted under service.rpc.unknown — a garbage
// stream must not grow the registry without bound.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "service/protocol.h"
#include "service/session_manager.h"

namespace robotune::service {

/// Dispatch-latency bucket bounds in microseconds (1 µs .. 1 s).
const std::vector<double>& rpc_latency_buckets_us();

/// Queue-wait bucket bounds in milliseconds (0.1 ms .. 60 s).
const std::vector<double>& queue_wait_buckets_ms();

/// Records one dispatched request: per-verb counter, error counter,
/// fleet latency histogram, and — for suggest — the per-session latency
/// histogram behind the `robotune_top` p99 column.
void record_rpc(std::string_view verb, std::uint64_t session, bool ok,
                double latency_us);

/// "runtime.service.rpc.suggest.latency_us.session.<id>".
std::string session_suggest_metric(std::uint64_t session_id);

/// p99 of a session's suggest latency, 0 when never measured.
double session_suggest_p99_us(const obs::MetricsSnapshot& snapshot,
                              std::uint64_t session_id);

/// The `metrics` verb.  session=0: fleet-aggregated fields (state
/// counts, rpc totals, suggest p50/p95/p99) plus one record per session
/// `<id> <state> <evals> <best> <queue_wait_ms> <suggest_p99_us>`.
/// session=N: that session's progress fields plus its logical metric
/// section.  format=prom adds the full Prometheus exposition (fleet) or
/// the session-scoped section (per-session) in fields["prom"].
Response handle_metrics(SessionManager& manager, const Request& request);

/// End-of-serve fleet summary table: admissions, terminal state counts,
/// the per-verb rpc table with p50/p95/p99, protocol/client counters,
/// and per-session outcome lines — the fleet-level sibling of
/// obs::render_summary.
std::string render_fleet_summary(const obs::MetricsSnapshot& snapshot,
                                 const ServiceStatus& status,
                                 const std::vector<SessionStatus>& sessions);

}  // namespace robotune::service
