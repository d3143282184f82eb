// Runtime-dispatched SIMD kernels for compiled predicate programs.
//
// PredicateProgram::evaluate runs three dense inner loops — interval
// compares over the iv_lo_/iv_hi_ SoA, interned-string-id compares, and
// the verdict reduction of uint16 pass counts against required_.  Each has
// an AVX2 kernel (simd_avx2.cpp) and a portable unrolled-scalar reference
// (simd_portable.cpp); this header is the dispatcher that picks ONE kernel
// family per process.
//
// Dispatch is a runtime decision: the AVX2 translation unit is the only
// one compiled with its own flag (never a global -mavx2), its getter
// returns nullptr when compiled out, and active_kernel() picks AVX2 once
// at first use when the running CPU reports it, else portable.
// force_kernel() pins a kernel by name — the hook the kernel tests and
// micro benches use to run both kernels in one process.
//
// Exactness: both kernels produce byte-identical count/verdict buffers
// for every input — NaN and ±inf message values, denormals, ±0.0, and
// partial final vector lanes included.  The differential suite in
// tests/matching/program_test.cpp forces each dispatchable kernel in turn
// and compares buffers bitwise.
#pragma once

#include <vector>

#include "matching/program/simd_kernels.h"

namespace bdps::matching::program::simd {

/// The kernel evaluate() dispatches through.  Resolved once (AVX2 when
/// compiled in and supported by the CPU, else portable) and cached; an
/// atomic load per call.
const Kernel& active_kernel();

/// Name of the kernel active_kernel() returns ("avx2" or "portable") —
/// recorded by benches and tools so results name their ISA.
const char* active_kernel_name();

/// Every kernel this binary can dispatch on this machine (compiled in AND
/// supported by the running CPU).  Portable is always present and last.
std::vector<const Kernel*> available_kernels();

/// Pins the active kernel by name; false (and no change) when the name is
/// unknown, compiled out, or unsupported by the running CPU.  Passing
/// nullptr re-resolves from CPU detection.  Thread-safe; concurrent
/// evaluations see either kernel — both exact.
bool force_kernel(const char* name);

}  // namespace bdps::matching::program::simd
