// Cache-line/SIMD-aligned allocation for the hot kernel buffers, with one
// page policy for the large ones.
//
// The lane-major evolution blocks (markov::BatchedEvolver) are read with
// 256/512-bit vector loads whose base is row*stride; with the default
// malloc alignment (16 bytes) a 32-lane f64 row can start mid cache line,
// so every vector load straddles two lines and the scalar path pays an
// extra line per block boundary. AlignedAlloc pins the buffer base to
// kSimdAlign (one cache line, and the widest vector register we dispatch
// to), which makes every row of a 64-byte-multiple stride start on a
// fresh line. The allocator is stateless and interchangeable across
// alignments >= alignof(T), so containers stay assignable.
//
// Buffers of at least kHugeBufferBytes (the walk state, a loaded pack's
// CSR and the Krylov basis at paper scale) are instead placed on a
// 2 MiB boundary and advised MADV_HUGEPAGE before std::vector first
// touches them, so transparent huge pages back them under THP `madvise`
// as well as `always`: one fault and one TLB entry per 2 MiB instead of
// per 4 KiB for random gathers across the whole block. Only page backing
// changes, never a value. Where THP is `never`, or off Linux, the advice
// is a no-op and its failure is ignored.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace socmix::util {

/// Alignment of the SIMD kernel buffers: one x86 cache line, which is
/// also the width of a zmm register (the widest load the dispatch layer
/// issues). See src/linalg/simd/.
inline constexpr std::size_t kSimdAlign = 64;

/// Allocations of at least this many bytes (16 huge pages) go on huge
/// pages. That is far above the L2-TLB reach of 4 KiB pages (a few MiB),
/// so buffers this large miss the TLB on random access; and it bounds the
/// waste to at most one partly used huge page per buffer. A 4 MiB floor
/// bought no time on a 20K-node measurement and grew its peak RSS by 9%.
inline constexpr std::size_t kHugeBufferBytes = std::size_t{32} << 20;

template <class T, std::size_t Align = kSimdAlign>
struct AlignedAlloc {
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");
  using value_type = T;

  AlignedAlloc() noexcept = default;
  template <class U>
  AlignedAlloc(const AlignedAlloc<U, Align>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kHugeBufferBytes) {
      return static_cast<T*>(::operator new(bytes, std::align_val_t{Align}));
    }
    void* p = ::operator new(bytes, kHugeAlign);
#if defined(MADV_HUGEPAGE)
    // Advise only the whole huge pages; a failure leaves 4 KiB pages.
    const std::size_t whole = bytes & ~(static_cast<std::size_t>(kHugeAlign) - 1);
    (void)::madvise(p, whole, MADV_HUGEPAGE);
#endif
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kHugeBufferBytes) {
      ::operator delete(p, std::align_val_t{Align});
    } else {
      ::operator delete(p, bytes, kHugeAlign);
    }
  }

  template <class U>
  struct rebind {
    using other = AlignedAlloc<U, Align>;
  };

  friend bool operator==(const AlignedAlloc&, const AlignedAlloc&) noexcept { return true; }

 private:
  /// One x86-64 transparent huge page (a PMD mapping).
  static constexpr std::align_val_t kHugeAlign{std::size_t{2} << 20};
};

/// std::vector whose data() is kSimdAlign-aligned, and huge-page backed
/// from kHugeBufferBytes up.
template <class T>
using aligned_vector = std::vector<T, AlignedAlloc<T>>;

/// AlignedAlloc whose containers default-initialize: resize() leaves new
/// elements of a trivial type unwritten instead of zeroing them. For a
/// buffer that is filled before it is read (a pack's CSR, read or decoded
/// when it is opened), so each page is touched once, by its first write.
template <class T>
struct UninitAlloc : AlignedAlloc<T> {
  UninitAlloc() noexcept = default;
  template <class U>
  UninitAlloc(const UninitAlloc<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <class U>
  struct rebind {
    using other = UninitAlloc<U>;
  };
};

/// aligned_vector whose resize() does not value-initialize (UninitAlloc).
template <class T>
using uninit_vector = std::vector<T, UninitAlloc<T>>;

}  // namespace socmix::util
