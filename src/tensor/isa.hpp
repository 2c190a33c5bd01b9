// Instruction-set tiers of the hot tensor kernels (internal to
// src/tensor, the kernel tests and the kernel bench).
//
// The packed GEMM's micro-kernel (gemm_packed.cpp) and the direct
// Cout == 1 conv kernels (direct_conv.cpp) each come in a base
// variant, compiled for the build's baseline target (SSE2 on x86-64),
// and, on x86, AVX2 and AVX-512F variants compiled per function with
// the target attribute. The host's tier is resolved once from CPUID at
// static initialization; there is no knob to choose it.
//
// Every tier computes each output float with exactly the base
// variant's operations in the same order: a vector multiply, then a
// separate vector add, never a fused multiply-add (the build passes
// -ffp-contract=off so the compiler cannot fuse them either, and the
// fused-fma lint rule keeps them out of src/). A wider tier only
// changes how many outputs one instruction computes, so results are
// bit-identical on every host and a plan's summation order does not
// depend on the ISA. The one exception is which NaN a sum of two
// different NaNs returns, which x86 takes from an operand order the
// compiler may commute; a NaN stays a NaN.
#pragma once

#include <cstdint>

#include "tensor/plan.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define FLEDA_ISA_X86 1
#else
#define FLEDA_ISA_X86 0
#endif

namespace fleda {

enum class IsaTier : std::uint8_t { kBase = 0, kAvx2 = 1, kAvx512 = 2 };

// "base", "avx2" or "avx512".
const char* to_string(IsaTier tier);

// The widest tier this host runs: kAvx512 with AVX-512F, else kAvx2
// with AVX2, else kBase (always kBase off x86). A host runs every tier
// up to its own.
IsaTier host_isa_tier();

// gemm_packed (tensor/plan.hpp) on the micro-kernels of `tier`, which
// the host must run; gemm_packed(plan, ...) is this on host_isa_tier().
void gemm_packed(IsaTier tier, const GemmPlan& plan, const float* a,
                 const float* b, float* c, bool accumulate);

}  // namespace fleda
