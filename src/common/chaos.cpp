#include "common/chaos.h"

#include <cstdlib>
#include <sstream>

#include "common/rng.h"
#include "obs/metrics.h"

namespace robotune::chaos {

namespace {

// Per-site salts so the decision streams for different sites are
// independent even under the same chaos seed.
constexpr std::array<std::uint64_t, kSiteCount> kSiteSalt = {
    0x43484f4c45534bULL,  // "CHOLESK"
    0x4143514f5054ULL,    // "ACQOPT"
    0x4a4f55524e414cULL,  // "JOURNAL"
    0x504f4f4cULL,        // "POOL"
    0x43414e43454cULL,    // "CANCEL"
    0x4f42534552564555ULL,  // "OBSERVEU"
};

const char* kSiteNames[kSiteCount] = {"cholesky", "acq_opt", "journal_write",
                                      "pool_task", "cancel_delivery",
                                      "observe_delivery"};

}  // namespace

const char* to_string(Site site) noexcept {
  return kSiteNames[static_cast<int>(site)];
}

double ChaosProfile::rate(Site site) const noexcept {
  switch (site) {
    case Site::kCholesky:
      return cholesky_failure;
    case Site::kAcqOpt:
      return acq_opt_failure;
    case Site::kJournalWrite:
      return journal_write_failure;
    case Site::kPoolTask:
      return pool_task_failure;
    case Site::kCancelDelivery:
      return cancel_delivery_failure;
    case Site::kObserveDelivery:
      return observe_delivery_failure;
  }
  return 0.0;
}

bool ChaosProfile::from_preset(const std::string& name, ChaosProfile& out) {
  if (name == "none") {
    out = ChaosProfile{};
    return true;
  }
  if (name == "surrogate") {
    out = ChaosProfile{};
    out.cholesky_failure = 1.0;
    return true;
  }
  if (name == "flaky") {
    out = ChaosProfile{};
    out.cholesky_failure = 0.25;
    out.acq_opt_failure = 0.25;
    out.journal_write_failure = 0.5;
    return true;
  }
  if (name == "full") {
    out = ChaosProfile{};
    out.cholesky_failure = 1.0;
    out.acq_opt_failure = 1.0;
    out.journal_write_failure = 1.0;
    return true;
  }
  return false;
}

bool ChaosProfile::parse(const std::string& text, ChaosProfile& out) {
  if (from_preset(text, out)) {
    return true;
  }
  ChaosProfile parsed;
  std::stringstream ss(text);
  std::string item;
  bool any = false;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) {
      continue;
    }
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      return false;
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    char* end = nullptr;
    const double rate = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || rate < 0.0 || rate > 1.0) {
      return false;
    }
    if (key == "cholesky") {
      parsed.cholesky_failure = rate;
    } else if (key == "acq") {
      parsed.acq_opt_failure = rate;
    } else if (key == "journal") {
      parsed.journal_write_failure = rate;
    } else if (key == "pool") {
      parsed.pool_task_failure = rate;
    } else if (key == "cancel") {
      parsed.cancel_delivery_failure = rate;
    } else if (key == "observe") {
      parsed.observe_delivery_failure = rate;
    } else {
      return false;
    }
    any = true;
  }
  if (!any) {
    return false;
  }
  out = parsed;
  return true;
}

void ChaosInjector::configure(const ChaosProfile& profile, std::uint64_t seed) {
  profile_ = profile;
  seed_ = seed;
  for (auto& c : counters_) {
    c.store(0, std::memory_order_relaxed);
  }
  for (auto& c : injected_) {
    c.store(0, std::memory_order_relaxed);
  }
  enabled_.store(profile.active(), std::memory_order_relaxed);
}

void ChaosInjector::disarm() { configure(ChaosProfile{}, 0); }

bool ChaosInjector::should_fail(Site site) noexcept {
  if (!enabled()) {
    return false;
  }
  const auto slot = static_cast<std::size_t>(site);
  const std::uint64_t n =
      counters_[slot].fetch_add(1, std::memory_order_relaxed);
  return decide(site, n);
}

bool ChaosInjector::should_fail(Site site, std::uint64_t index) noexcept {
  if (!enabled()) {
    return false;
  }
  return decide(site, index);
}

bool ChaosInjector::decide(Site site, std::uint64_t index) noexcept {
  const auto slot = static_cast<std::size_t>(site);
  const double rate = profile_.rate(site);
  if (rate <= 0.0) {
    return false;
  }
  bool hit;
  if (rate >= 1.0) {
    hit = true;
  } else {
    // Pure function of (seed, site, index): mix through SplitMix64 and map
    // the draw to [0, 1) exactly like Rng::uniform does.
    SplitMix64 mixer(seed_ ^ kSiteSalt[slot] ^
                     (index * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL));
    mixer.next();
    const double u =
        static_cast<double>(mixer.next() >> 11) * 0x1.0p-53;
    hit = u < rate;
  }
  if (hit) {
    injected_[slot].fetch_add(1, std::memory_order_relaxed);
    obs::count(std::string("chaos.") + kSiteNames[slot]);
  }
  return hit;
}

std::uint64_t ChaosInjector::injections(Site site) const noexcept {
  return injected_[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

ChaosInjector& injector() {
  static ChaosInjector instance;
  return instance;
}

}  // namespace robotune::chaos
