// Test helpers for forcing linalg::simd kernel tiers, shared by the
// tier-parity suites (test_simd_parity.cpp, sybil/test_route_hops.cpp).
#pragma once

#include <vector>

#include "linalg/simd/kernels.hpp"

namespace socmix::test {

/// Forces a kernel tier for one scope; restores runtime dispatch on exit.
class TierGuard {
 public:
  explicit TierGuard(linalg::simd::Tier tier) : ok_(linalg::simd::set_tier(tier)) {}
  ~TierGuard() { linalg::simd::reset_tier(); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  bool ok_;
};

/// The tiers compiled in and supported by this CPU (the runtime probe), so
/// a suite skips what the build/host lacks.
inline std::vector<linalg::simd::Tier> available_tiers() {
  namespace simd = linalg::simd;
  std::vector<simd::Tier> tiers;
  for (const simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_available(tier)) tiers.push_back(tier);
  }
  return tiers;
}

}  // namespace socmix::test
