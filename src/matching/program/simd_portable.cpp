// Portable unrolled-scalar kernel: the semantic reference the AVX2 kernel
// must match byte-for-byte, and the fallback wherever AVX2 is unavailable.
// Built unconditionally with the project's baseline flags.
#include "matching/program/simd_kernels.h"

namespace bdps::matching::program::simd {
namespace {

void iv_accumulate_portable(const double* lo, const double* hi,
                            const std::uint32_t* member, std::size_t n,
                            double v, std::uint16_t* counts) {
  // 4x unrolled fused compare+accumulate.  The compares are branch-free
  // ordered `<=` (NaN v fails both), matching the interpreter exactly;
  // independent hit computations give the compiler four parallel chains
  // even though the scatter-adds stay scalar.
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint16_t h0 =
        static_cast<std::uint16_t>(static_cast<int>(lo[i + 0] <= v) &
                                   static_cast<int>(v <= hi[i + 0]));
    const std::uint16_t h1 =
        static_cast<std::uint16_t>(static_cast<int>(lo[i + 1] <= v) &
                                   static_cast<int>(v <= hi[i + 1]));
    const std::uint16_t h2 =
        static_cast<std::uint16_t>(static_cast<int>(lo[i + 2] <= v) &
                                   static_cast<int>(v <= hi[i + 2]));
    const std::uint16_t h3 =
        static_cast<std::uint16_t>(static_cast<int>(lo[i + 3] <= v) &
                                   static_cast<int>(v <= hi[i + 3]));
    counts[member[i + 0]] = static_cast<std::uint16_t>(counts[member[i + 0]] + h0);
    counts[member[i + 1]] = static_cast<std::uint16_t>(counts[member[i + 1]] + h1);
    counts[member[i + 2]] = static_cast<std::uint16_t>(counts[member[i + 2]] + h2);
    counts[member[i + 3]] = static_cast<std::uint16_t>(counts[member[i + 3]] + h3);
  }
  for (; i < n; ++i) {
    const std::uint16_t h =
        static_cast<std::uint16_t>(static_cast<int>(lo[i] <= v) &
                                   static_cast<int>(v <= hi[i]));
    counts[member[i]] = static_cast<std::uint16_t>(counts[member[i]] + h);
  }
}

void str_accumulate_portable(const std::uint32_t* ids,
                             const std::uint32_t* member, std::size_t n,
                             std::uint32_t id, std::uint16_t* counts) {
  for (std::size_t i = 0; i < n; ++i) {
    counts[member[i]] =
        static_cast<std::uint16_t>(counts[member[i]] + (ids[i] == id));
  }
}

void reduce_verdicts_portable(const std::uint16_t* counts,
                              const std::uint16_t* required, std::size_t n,
                              std::uint8_t* matched) {
  for (std::size_t i = 0; i < n; ++i) {
    matched[i] = static_cast<std::uint8_t>(counts[i] == required[i]);
  }
}

const Kernel kPortable = {
    "portable",
    &iv_accumulate_portable,
    &str_accumulate_portable,
    &reduce_verdicts_portable,
};

}  // namespace

namespace detail {
const Kernel* portable_kernel() { return &kPortable; }
}  // namespace detail

}  // namespace bdps::matching::program::simd
