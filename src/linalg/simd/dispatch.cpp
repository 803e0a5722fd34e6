// Runtime CPU dispatch for the SIMD kernel tiers.
//
// The table is resolved once, on first use: the widest tier that (a) was
// compiled into this binary (src/linalg/CMakeLists.txt probes the
// compiler) and (b) the running CPU supports per __builtin_cpu_supports —
// which on x86 also verifies the OS saves the wide register state, so a
// probed tier can never fault. SOCMIX_SIMD=scalar|avx2|avx512 overrides
// the probe (CI forces each tier on one machine); an override naming an
// unavailable tier warns once on stderr and falls back to the probe.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "linalg/simd/kernels_detail.hpp"
#include "obs/obs.hpp"

namespace socmix::linalg::simd {

namespace {

constexpr KernelTable kScalarTable{
    Tier::kScalar,         &scalar::spmm_f64,   &scalar::spmv,
    &scalar::prescale_f64, &scalar::decode_u32,
};

#if defined(SOCMIX_SIMD_HAVE_AVX2)
constexpr KernelTable kAvx2Table{
    Tier::kAvx2,         &avx2::spmm_f64,   &avx2::spmv,
    &avx2::prescale_f64, &avx2::decode_u32,
};
#endif

#if defined(SOCMIX_SIMD_HAVE_AVX512)
// The varint decode is SSSE3 shuffle work with no 512-bit form worth
// having; the AVX-512 tier reuses the AVX2 decoder (an AVX-512 build
// always compiles the AVX2 TU too — see src/linalg/CMakeLists.txt).
constexpr KernelTable kAvx512Table{
    Tier::kAvx512,         &avx512::spmm_f64, &avx512::spmv,
    &avx512::prescale_f64,
#if defined(SOCMIX_SIMD_HAVE_AVX2)
    &avx2::decode_u32,
#else
    &scalar::decode_u32,
#endif
};
#endif

bool tier_compiled(Tier tier) noexcept {
  switch (tier) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
#if defined(SOCMIX_SIMD_HAVE_AVX2)
      return true;
#else
      return false;
#endif
    case Tier::kAvx512:
#if defined(SOCMIX_SIMD_HAVE_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool cpu_supports(Tier tier) noexcept {
  switch (tier) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Tier::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

const KernelTable* table_for(Tier tier) noexcept {
  switch (tier) {
    case Tier::kScalar:
      return &kScalarTable;
    case Tier::kAvx2:
#if defined(SOCMIX_SIMD_HAVE_AVX2)
      return &kAvx2Table;
#else
      return nullptr;
#endif
    case Tier::kAvx512:
#if defined(SOCMIX_SIMD_HAVE_AVX512)
      return &kAvx512Table;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

const KernelTable* probe_default() noexcept {
  Tier best = Tier::kScalar;
  for (const Tier t : {Tier::kAvx2, Tier::kAvx512}) {
    if (tier_compiled(t) && cpu_supports(t)) best = t;
  }
  if (const char* env = std::getenv("SOCMIX_SIMD")) {
    if (const auto parsed = parse_tier(env)) {
      if (tier_available(*parsed)) {
        best = *parsed;
      } else {
        std::fprintf(stderr,
                     "socmix: SOCMIX_SIMD=%s is not available on this "
                     "build/CPU; using %s\n",
                     env, tier_name(best));
      }
    } else {
      std::fprintf(stderr,
                   "socmix: unrecognized SOCMIX_SIMD=%s (want scalar|avx2|avx512); "
                   "using %s\n",
                   env, tier_name(best));
    }
  }
  return table_for(best);
}

std::atomic<const KernelTable*> g_active{nullptr};
std::once_flag g_init_once;

const KernelTable* resolve() noexcept {
  std::call_once(g_init_once, [] {
    const KernelTable* table = probe_default();
    g_active.store(table, std::memory_order_release);
    SOCMIX_GAUGE_SET("linalg.simd.tier",
                     static_cast<std::uint64_t>(table->tier));
  });
  return g_active.load(std::memory_order_acquire);
}

}  // namespace

const KernelTable& dispatch() noexcept { return *resolve(); }

Tier active_tier() noexcept { return dispatch().tier; }

bool tier_available(Tier tier) noexcept {
  return tier_compiled(tier) && cpu_supports(tier);
}

bool set_tier(Tier tier) noexcept {
  if (!tier_available(tier)) return false;
  resolve();  // run the one-time init first so reset_tier() can't race it
  g_active.store(table_for(tier), std::memory_order_release);
  SOCMIX_GAUGE_SET("linalg.simd.tier", static_cast<std::uint64_t>(tier));
  return true;
}

void reset_tier() noexcept {
  resolve();
  const KernelTable* table = probe_default();
  g_active.store(table, std::memory_order_release);
  SOCMIX_GAUGE_SET("linalg.simd.tier", static_cast<std::uint64_t>(table->tier));
}

const char* tier_name(Tier tier) noexcept {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::optional<Tier> parse_tier(std::string_view name) noexcept {
  if (name == "scalar") return Tier::kScalar;
  if (name == "avx2") return Tier::kAvx2;
  if (name == "avx512") return Tier::kAvx512;
  return std::nullopt;
}

}  // namespace socmix::linalg::simd
