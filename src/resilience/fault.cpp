#include "resilience/fault.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <optional>

#include "obs/obs.hpp"
#include "util/string_util.hpp"

namespace socmix::resilience {

namespace {

constexpr std::array<std::string_view, 5> kSites = {
    "checkpoint.write",
    "checkpoint.rename",
    "block.complete",
    "graph.load",
    "lanczos.certificate",
};

[[nodiscard]] std::size_t site_index(std::string_view site) {
  const auto it = std::find(kSites.begin(), kSites.end(), site);
  if (it == kSites.end()) {
    throw std::invalid_argument{"unknown fault site '" + std::string{site} +
                                "' (see resilience::known_fault_sites)"};
  }
  return static_cast<std::size_t>(it - kSites.begin());
}

struct FaultState {
  std::mutex mutex;
  std::optional<FaultSpec> armed;
  std::size_t armed_site = 0;
  std::array<std::uint64_t, kSites.size()> hits{};
};

FaultState& state() {
  static FaultState s;
  return s;
}

/// Fast-path guard: fault_point is called from hot-ish loops (once per
/// completed block), so the nothing-armed case must not take the mutex.
std::atomic<bool> g_armed{false};

}  // namespace

std::span<const std::string_view> known_fault_sites() noexcept { return kSites; }

FaultSpec parse_fault_spec(std::string_view spec) {
  const auto fields = util::split(spec, ':');
  if (fields.size() < 2 || fields.size() > 3) {
    throw std::invalid_argument{"fault spec '" + std::string{spec} +
                                "' is not <site>:<nth>[:abort|:error]"};
  }
  FaultSpec out;
  out.site = std::string{fields[0]};
  (void)site_index(out.site);  // validate against the registry
  const auto nth = util::parse_i64(fields[1]);
  if (!nth || *nth < 1) {
    throw std::invalid_argument{"fault spec '" + std::string{spec} +
                                "': nth must be a positive integer"};
  }
  out.nth = static_cast<std::uint64_t>(*nth);
  if (fields.size() == 3) {
    if (fields[2] == "abort") out.mode = FaultMode::kAbort;
    else if (fields[2] == "error") out.mode = FaultMode::kError;
    else {
      throw std::invalid_argument{"fault spec '" + std::string{spec} +
                                  "': mode must be 'abort' or 'error'"};
    }
  }
  return out;
}

void arm_fault(const FaultSpec& spec) {
  const std::size_t index = site_index(spec.site);
  FaultState& s = state();
  const std::lock_guard<std::mutex> lock{s.mutex};
  s.armed = spec;
  s.armed_site = index;
  s.hits.fill(0);
  g_armed.store(true, std::memory_order_release);
}

void arm_fault(std::string_view spec) { arm_fault(parse_fault_spec(spec)); }

void disarm_faults() noexcept {
  FaultState& s = state();
  const std::lock_guard<std::mutex> lock{s.mutex};
  s.armed.reset();
  s.hits.fill(0);
  g_armed.store(false, std::memory_order_release);
}

void configure_faults_from_env() {
  const char* spec = std::getenv("SOCMIX_FAULT");
  if (spec == nullptr || *spec == '\0') return;
  arm_fault(std::string_view{spec});
}

void fault_point(std::string_view site) {
  if (!g_armed.load(std::memory_order_acquire)) {
    (void)site_index(site);  // still reject typos when nothing is armed
    return;
  }
  const std::size_t index = site_index(site);
  FaultState& s = state();
  FaultMode mode{};
  {
    const std::lock_guard<std::mutex> lock{s.mutex};
    const std::uint64_t hit = ++s.hits[index];
    if (!s.armed || s.armed_site != index || hit != s.armed->nth) return;
    mode = s.armed->mode;
  }
  SOCMIX_COUNTER_ADD("resilience.faults_injected", 1);
  if (mode == FaultMode::kAbort) {
    // _Exit: no destructors, no atexit (in particular no obs flush) — the
    // process dies as abruptly as a kill -9 would leave it.
    std::_Exit(kFaultExitCode);
  }
  throw InjectedFault{site};
}

std::uint64_t fault_hits(std::string_view site) {
  const std::size_t index = site_index(site);
  FaultState& s = state();
  const std::lock_guard<std::mutex> lock{s.mutex};
  return s.hits[index];
}

}  // namespace socmix::resilience
