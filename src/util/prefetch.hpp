// Software prefetch for the irregular gathers the CSR kernels issue.
//
// The evolution/SpMV inner loops chase neighbors[e] through a multi-MB
// state array — an address stream the hardware prefetchers cannot
// predict. Hinting a fixed number of edges ahead overlaps those line
// transfers with the arithmetic; ~8 edges ahead is the distance that won
// on every measured kernel shape (1-lane SpMV up to the 32-lane block
// sweep), so all kernels share the one constant
// instead of each carrying its own copy.
#pragma once

#include <cstddef>

namespace socmix::util {

/// Edges-ahead distance every gather kernel prefetches at. Tuned on the
/// batched evolver at B=32 (worth ~1.5x on AVX-512 hardware) and flat
/// within noise from 6..12 on the single-vector kernels — pure hint, no
/// effect on results.
inline constexpr std::size_t kGatherPrefetchDistance = 8;

/// Read-prefetch `addr` into the low cache levels with minimal-pollution
/// locality (the gathered lines are consumed once per sweep).
inline void prefetch_read(const void* addr) noexcept {
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/1);
}

}  // namespace socmix::util
