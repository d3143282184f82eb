// Kernel table shared between the kernel translation units and the
// dispatcher (simd.h / simd.cpp).
//
// This header is deliberately minimal — <cstddef>/<cstdint> only, no STL,
// no inline functions.  simd_avx2.cpp is compiled with -mavx2; any inline
// function it pulled in from a shared header would be emitted as a comdat
// compiled for that ISA, and the linker is free to pick that copy for
// every other translation unit — an illegal-instruction time bomb on
// machines without the extension.  Keeping the AVX2 TU leaf-only (raw
// pointers in, raw stores out) is what makes runtime dispatch sound.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bdps::matching::program::simd {

/// One evaluation kernel family.  All three entry points are exact: for
/// every input (including NaN, ±inf, denormals and a partial final vector
/// lane) they produce byte-identical outputs to the portable kernel, which
/// in turn mirrors the scalar semantics documented in program.h.
struct Kernel {
  const char* name;  // "avx2" or "portable".

  /// Interval pass over one slot's contiguous SoA run:
  ///   counts[member[i]] += (lo[i] <= v && v <= hi[i])  for i in [0, n).
  /// Compares are IEEE ordered: a NaN v passes no test (the scalar `<=`
  /// behaviour the equivalence contract is written against).
  void (*iv_accumulate)(const double* lo, const double* hi,
                        const std::uint32_t* member, std::size_t n, double v,
                        std::uint16_t* counts);

  /// String pass over one slot's contiguous run:
  ///   counts[member[i]] += (ids[i] == id)  for i in [0, n).
  void (*str_accumulate)(const std::uint32_t* ids,
                         const std::uint32_t* member, std::size_t n,
                         std::uint32_t id, std::uint16_t* counts);

  /// Bulk verdict reduction: matched[m] = (counts[m] == required[m]) ? 1 : 0
  /// for m in [0, n).  Always writes exactly 0 or 1 so verdict buffers are
  /// byte-comparable across kernels.
  void (*reduce_verdicts)(const std::uint16_t* counts,
                          const std::uint16_t* required, std::size_t n,
                          std::uint8_t* matched);
};

namespace detail {
/// Kernel getters.  avx2_kernel() returns nullptr when its TU was compiled
/// without AVX2 (wrong architecture or missing compiler support);
/// portable_kernel() never does.  Runtime CPU support is the dispatcher's
/// problem, not theirs.
const Kernel* portable_kernel();
const Kernel* avx2_kernel();
}  // namespace detail

}  // namespace bdps::matching::program::simd
