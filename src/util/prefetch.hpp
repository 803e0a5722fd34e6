// Software prefetch for the irregular gathers of the batched SpMM.
//
// The sweep's inner loop chases neighbors[e] through a multi-MB lane
// block — an address stream the hardware prefetchers cannot predict.
// Hinting a fixed number of edges ahead overlaps those line transfers
// with the arithmetic. Whether that pays depends on how much work each
// edge does: the scalar and AVX2 tiers keep the hint, the AVX-512 tier
// (whose short per-edge body already keeps enough loads in flight) does
// not, and the single-vector SpMV never did (see DESIGN.md "Kernel
// tiers").
#pragma once

#include <cstddef>

namespace socmix::util {

/// Edges-ahead distance of the gather prefetch. Pure hint, no effect on
/// results.
inline constexpr std::size_t kGatherPrefetchDistance = 8;

/// Read-prefetch `addr` into the low cache levels with minimal-pollution
/// locality (the gathered lines are consumed once per sweep).
inline void prefetch_read(const void* addr) noexcept {
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/1);
}

}  // namespace socmix::util
