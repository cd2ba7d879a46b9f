#include "core/external.h"

#include <algorithm>

#include "core/bo_engine.h"

namespace robotune::core {

namespace {

bool same_observation(const ExternalObservation& a,
                      const ExternalObservation& b) {
  // Exact equality on purpose: the journal round-trips doubles through
  // %.17g losslessly, so a faithful client retry compares equal even
  // across a daemon restart, while any re-measured (different) value is
  // a conflict the client must see.
  return a.value_s == b.value_s && a.cost_s == b.cost_s &&
         a.status == b.status;
}

}  // namespace

const char* to_string(TellVerdict verdict) noexcept {
  switch (verdict) {
    case TellVerdict::kAccepted:
      return "accepted";
    case TellVerdict::kDuplicate:
      return "duplicate";
    case TellVerdict::kConflict:
      return "conflict";
    case TellVerdict::kUnknown:
      return "unknown";
  }
  return "unknown";
}

void ExternalBridge::bind(SessionLog* log) {
  std::lock_guard<std::mutex> lock(mu_);
  log_ = log;
  acks_.clear();
  next_lease_ = 1;
  if (log_ == nullptr) return;
  for (const auto& ack : log_->state.observe_acks) {
    acks_[ack.index] =
        ExternalObservation{ack.value_s, ack.cost_s, ack.status};
  }
  // Lease ids stay monotonic across restarts: resume past the largest
  // id any journal record ever carried — pending suggests, expiries,
  // and the mark pruned suggests left behind.  The leases themselves
  // are void (deadlines were relative to the dead daemon's clock).
  next_lease_ = log_->state.lease_mark + 1;
  for (const auto& s : log_->state.suggests) {
    next_lease_ = std::max(next_lease_, s.lease + 1);
  }
  for (const auto& e : log_->state.lease_expiries) {
    next_lease_ = std::max(next_lease_, e.lease + 1);
  }
}

void ExternalBridge::flush_journal() {
  if (log_ != nullptr && log_->flush) log_->flush(log_->state);
}

ExternalBridge::Slot* ExternalBridge::find_slot(std::uint64_t index) {
  for (auto& slot : round_) {
    if (slot.index == index) return &slot;
  }
  return nullptr;
}

bool ExternalBridge::round_resolved() const {
  return std::all_of(round_.begin(), round_.end(),
                     [](const Slot& s) { return s.delivered; });
}

void ExternalBridge::publish(const std::vector<std::vector<double>>& points,
                             std::uint64_t first_index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  round_.clear();
  bool journal_dirty = false;
  for (std::size_t i = 0; i < points.size(); ++i) {
    Slot slot;
    slot.index = first_index + i;
    slot.unit = points[i];
    const auto it = acks_.find(slot.index);
    if (it != acks_.end()) {
      // Already observed (ack journaled before the crash, eval record
      // not yet): resolve immediately, no new lease cycle.
      slot.delivered = true;
      slot.obs = it->second;
    } else if (log_ != nullptr) {
      // Reuse the suggest record a previous process journaled for this
      // index (keeps its last lease id); journal a fresh one otherwise.
      const auto& suggests = log_->state.suggests;
      const auto existing =
          std::find_if(suggests.begin(), suggests.end(),
                       [&](const SuggestRecord& s) { return s.index == slot.index; });
      if (existing != suggests.end()) {
        slot.lease = existing->lease;
      } else {
        SuggestRecord record;
        record.index = slot.index;
        record.unit = slot.unit;
        log_->state.suggests.push_back(std::move(record));
        journal_dirty = true;
      }
    }
    round_.push_back(std::move(slot));
  }
  // The pending set must hit disk before any lease can be granted —
  // otherwise a kill -9 between grant and journal double-issues the
  // suggestion after restart.  Publication happens under the same lock
  // hold, so lease() can never observe the round before its journal
  // record exists.
  if (journal_dirty) flush_journal();
}

std::optional<std::vector<ExternalObservation>> ExternalBridge::collect() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || round_.empty() || !round_resolved()) return std::nullopt;
  std::vector<ExternalObservation> out;
  out.reserve(round_.size());
  for (const auto& slot : round_) out.push_back(slot.obs);
  round_.clear();
  return out;
}

void ExternalBridge::close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  round_.clear();
  log_ = nullptr;
}

std::vector<LeaseGrant> ExternalBridge::lease(std::size_t max_count,
                                              std::uint64_t now,
                                              std::uint64_t timeout_ticks) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LeaseGrant> grants;
  bool journal_dirty = false;
  for (auto& slot : round_) {
    if (grants.size() >= max_count) break;
    if (slot.delivered || slot.leased) continue;
    slot.lease = next_lease_++;
    slot.leased = true;
    slot.deadline = now + timeout_ticks;
    if (log_ != nullptr) {
      for (auto& s : log_->state.suggests) {
        if (s.index == slot.index) {
          s.lease = slot.lease;
          journal_dirty = true;
          break;
        }
      }
    }
    LeaseGrant grant;
    grant.index = slot.index;
    grant.lease = slot.lease;
    grant.deadline = slot.deadline;
    grant.unit = slot.unit;
    grants.push_back(std::move(grant));
  }
  // Journal the issued ids before the grants leave the process so a
  // restart never re-issues a lease id.
  if (journal_dirty) flush_journal();
  return grants;
}

ExternalBridge::TellResult ExternalBridge::tell(
    std::uint64_t index, const ExternalObservation& obs) {
  std::lock_guard<std::mutex> lock(mu_);
  TellResult result;
  const auto acked = acks_.find(index);
  if (acked != acks_.end()) {
    result.recorded = acked->second;
    result.verdict = same_observation(obs, acked->second)
                         ? TellVerdict::kDuplicate
                         : TellVerdict::kConflict;
    return result;
  }
  Slot* slot = find_slot(index);
  if (slot == nullptr) {
    result.verdict = TellVerdict::kUnknown;
    return result;
  }
  slot->obs = obs;
  slot->delivered = true;
  acks_[index] = obs;
  if (log_ != nullptr) {
    ObserveAck ack;
    ack.index = index;
    ack.status = obs.status;
    ack.value_s = obs.value_s;
    ack.cost_s = obs.cost_s;
    log_->state.observe_acks.push_back(ack);
    // The ack must be durable before the client hears it: a re-sent
    // observe after our crash has to find the record.
    flush_journal();
  }
  result.verdict = TellVerdict::kAccepted;
  result.recorded = obs;
  result.resolved = round_resolved();
  return result;
}

std::vector<LeaseExpiry> ExternalBridge::reap(std::uint64_t now) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LeaseExpiry> expired;
  for (auto& slot : round_) {
    if (slot.delivered || !slot.leased || now < slot.deadline) continue;
    slot.leased = false;
    LeaseExpiry expiry;
    expiry.index = slot.index;
    expiry.lease = slot.lease;
    if (log_ != nullptr) log_->state.lease_expiries.push_back(expiry);
    expired.push_back(expiry);
  }
  if (!expired.empty()) flush_journal();
  return expired;
}

std::size_t ExternalBridge::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(round_.begin(), round_.end(),
                    [](const Slot& s) { return !s.delivered; }));
}

std::size_t ExternalBridge::leased(std::uint64_t now) const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(std::count_if(
      round_.begin(), round_.end(), [now](const Slot& s) {
        return !s.delivered && s.leased && now < s.deadline;
      }));
}

}  // namespace robotune::core
