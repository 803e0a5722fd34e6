// Deterministic fault injection for crash-tolerance testing.
//
// Long measurements recover from interruption via the checkpoint layer
// (checkpoint.hpp); this is the harness that proves it. A fault is armed
// either from the SOCMIX_FAULT environment variable or the --fault-inject
// flag, with the spec syntax
//
//     <site>:<nth>[:abort|:error]
//
// meaning "on the <nth> time execution reaches fault_point(<site>), fail".
// `abort` (the default) terminates the process immediately via _Exit —
// no destructors, no atexit flushes — which is the closest stand-in for an
// OOM-kill or preemption a test can schedule deterministically. `error`
// throws resilience::InjectedFault instead, so in-process tests can
// exercise the same recovery paths without forking.
//
// Sites are plain string literals checked against the registry below; the
// hit counting is process-wide and thread-safe, so the nth hit is
// well-defined even when sites fire from pool workers. When nothing is
// armed, a fault_point costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <span>

namespace socmix::resilience {

/// Exit code of an `abort`-mode injected fault; test drivers key on it to
/// distinguish an injected kill from a genuine crash.
inline constexpr int kFaultExitCode = 42;

/// Thrown by fault_point() when the armed fault's mode is `error`.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(std::string_view site)
      : std::runtime_error{"injected fault at site '" + std::string{site} + "'"} {}
};

enum class FaultMode {
  kAbort,  ///< _Exit(kFaultExitCode): simulated kill -9 / OOM-kill
  kError,  ///< throw InjectedFault: in-process recovery testing
};

struct FaultSpec {
  std::string site;
  std::uint64_t nth = 1;  ///< 1-based hit count that triggers
  FaultMode mode = FaultMode::kAbort;
};

/// Every site compiled into the binary. fault_point() and arm_fault()
/// reject names outside this registry so a typo in a test or a CI matrix
/// fails loudly instead of never firing.
///   checkpoint.write   snapshot temp-file write, before any bytes land
///   checkpoint.rename  between the temp write and the atomic publish
///   block.complete     a source block (or sweep point) just finished
///   graph.load         entry of an edge-list / binary graph load
///   lanczos.certificate  the Ritz residual certificate of a Lanczos solve;
///                      `error` mode fails the certificate (converged =
///                      false) instead of throwing, so `socmix measure`
///                      takes its exit-3 path
[[nodiscard]] std::span<const std::string_view> known_fault_sites() noexcept;

/// Parses "<site>:<nth>[:abort|:error]". Throws std::invalid_argument on
/// syntax errors or unknown sites.
[[nodiscard]] FaultSpec parse_fault_spec(std::string_view spec);

/// Arms `spec` (replacing any armed fault) and zeroes all hit counters.
void arm_fault(const FaultSpec& spec);

/// arm_fault(parse_fault_spec(spec)).
void arm_fault(std::string_view spec);

/// Disarms any armed fault and zeroes hit counters.
void disarm_faults() noexcept;

/// Arms from the SOCMIX_FAULT environment variable; no-op when unset or
/// empty. Throws like parse_fault_spec on a malformed value.
void configure_faults_from_env();

/// Marks one execution of the named site. Counts the hit and, when an
/// armed fault matches on its nth hit, fails per its mode. Unknown sites
/// throw std::invalid_argument (registry above).
void fault_point(std::string_view site);

/// Hits recorded for `site` since the last arm/disarm (test introspection).
[[nodiscard]] std::uint64_t fault_hits(std::string_view site);

}  // namespace socmix::resilience
