// Thread-local scratch buffers for kernel intermediates (im2col column
// bands, their gradients, and the packed GEMM panels). Conv2d lowers a
// band of the column matrix at a time — about 32 KB under a reference
// plan, the whole matrix under a packed one — and the batch workers of
// a layer each hold their own; ConvTranspose2d still lowers its whole
// matrix. Allocating these fresh every step would cost page faults and
// zero-fill, so buffers persist per thread and per slot, growing
// monotonically.
#pragma once

#include <cstddef>
#include <vector>

namespace fleda {

enum class ScratchSlot : int {
  kCols = 0,
  kColsGrad = 1,
  kPackA = 2,  // packed A micro-panels (gemm_packed)
  kPackB = 3,  // packed B panel block (gemm_packed)
};

inline constexpr int kNumScratchSlots = 4;

// Returns a thread-local float buffer of at least `n` elements for the
// given slot. Contents are unspecified — callers must fully overwrite
// (or explicitly zero) what they read.
float* thread_scratch(ScratchSlot slot, std::size_t n);

// Same, but the returned pointer is 64-byte aligned (cache-line /
// vector-register friendly — the packed GEMM panels want this so the
// compiler's vectorized loads never straddle lines).
float* thread_scratch_aligned(ScratchSlot slot, std::size_t n);

}  // namespace fleda
