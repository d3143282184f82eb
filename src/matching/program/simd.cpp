#include "matching/program/simd.h"

#include <atomic>
#include <cstring>

namespace bdps::matching::program::simd {

namespace {

/// The AVX2 kernel when this binary carries it and the running CPU can
/// execute it; nullptr otherwise.
const Kernel* avx2_if_supported() {
#if defined(__x86_64__) || defined(_M_X64)
  const Kernel* k = detail::avx2_kernel();
  if (k != nullptr && __builtin_cpu_supports("avx2") != 0) return k;
#endif
  return nullptr;
}

const Kernel* best_kernel() {
  const Kernel* k = avx2_if_supported();
  return k != nullptr ? k : detail::portable_kernel();
}

std::atomic<const Kernel*> g_active{nullptr};

}  // namespace

const Kernel& active_kernel() {
  const Kernel* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = best_kernel();
    // Racing first calls resolve identically; the CAS keeps a concurrent
    // force_kernel() from being overwritten by a late resolver.
    const Kernel* expected = nullptr;
    if (!g_active.compare_exchange_strong(expected, k,
                                          std::memory_order_acq_rel)) {
      k = expected;
    }
  }
  return *k;
}

const char* active_kernel_name() { return active_kernel().name; }

std::vector<const Kernel*> available_kernels() {
  std::vector<const Kernel*> out;
  if (const Kernel* k = avx2_if_supported()) out.push_back(k);
  out.push_back(detail::portable_kernel());
  return out;
}

bool force_kernel(const char* name) {
  const Kernel* k = nullptr;
  if (name == nullptr) {
    k = best_kernel();
  } else {
    for (const Kernel* candidate : available_kernels()) {
      if (std::strcmp(candidate->name, name) == 0) k = candidate;
    }
    if (k == nullptr) return false;
  }
  g_active.store(k, std::memory_order_release);
  return true;
}

}  // namespace bdps::matching::program::simd
