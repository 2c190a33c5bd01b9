// Lowering-free kernels for a convolution with one output channel —
// the heads of FLNet (64->1, 9x9), RouteNet (5x5) and PROS (3x3).
//
// With Cout == 1 every GEMM of the im2col lowering is a vector
// product (forward kNN m=1, dW kBT m=1, dx kAT k=1), which the
// planner always gives the reference kernels. These kernels compute
// the same products straight from a zero-padded copy of the image, so
// no column matrix is ever built, and repeat for every output float
// the reference kernels' operations in the same order (tensor/
// matmul.cpp), so results equal the lowered path bit for bit:
//   forward  y = 0, then y += ((w0*b0 + w1*b1) + w2*b2) + w3*b3 per
//            group of 4 rows in ascending order, then y += w*b for the
//            tail rows (nn_reference's axpy4 / axpy1);
//   dW       per row, four accumulators over the pixel index p mod 4,
//            (a0 + a1) + (a2 + a3), then the tail pixels, then += into
//            dw (bt_reference);
//   dx       0 + w*dy added in ascending row order to the in-image
//            positions only (at_reference with k = 1, then col2im).
// Products with padding zeros are kept: w * 0 is NaN for a non-finite
// w, and the lowered path propagates it. Row r = (c * kh + i) * kw + j
// is channel c at kernel tap (i, j), as in im2col.
//
// The AVX2 and AVX-512 tiers (tensor/isa.hpp) run forward on groups of
// 8 or 16 pixels instead of 4 where OW is a multiple of that (stride
// 1), so the wider loads stay in one output row. For a stride-1
// geometry whose W is such a multiple they gather dx instead of
// scattering it: 8 or 16 input pixels held in a register across all
// taps, reading dy from a copy with a zero margin. A tap that meets no
// output pixel then adds 0 + w * 0 = +0, which changes no sum (see
// data_grad_gather_groups), so a channel whose weights are all finite
// gets the same bits; any other is scattered. For kernel rows of 9 to
// 16 taps (FLNet's 9 x 9 head) the AVX-512 tier runs dW with a row's
// taps across a zmm's lanes, keeping each tap's four p mod 4
// accumulators and their reduction; other dW runs the base kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/im2col.hpp"
#include "tensor/isa.hpp"

namespace fleda {

// One layer call's kernels: the geometry's tap and pixel offsets into
// the padded image, and the [1, C*kh*kw] weight row. The methods are
// const and safe to call concurrently from batch workers, each with
// its own scratch. `weight` must stay alive and unchanged while the
// object is.
class SingleOutputConv {
 public:
  // `tier` picks the kernels' instruction set (tensor/isa.hpp); every
  // tier gives the same bits.
  SingleOutputConv(const ConvGeometry& g, const float* weight,
                   IsaTier tier = host_isa_tier());

  // Scratch floats forward() needs: the padded image.
  std::size_t forward_scratch() const;
  // Scratch floats backward() needs: one padded input plane, one
  // padded gradient plane and, where dx is gathered, dy with a margin.
  std::size_t backward_scratch() const;

  // y[OH*OW] = W * cols(image), overwriting y; no bias.
  void forward(const float* image, float* scratch, float* y) const;

  // dw[C*kh*kw] += dy * cols(image)^T and, when dx is not null,
  // dx[C,H,W] = col2im(W^T * dy), overwriting dx. One channel plane
  // at a time.
  void backward(const float* image, const float* dy, float* dw, float* dx,
                float* scratch) const;

 private:
  // Writes channel plane `image` of H x W into the padded
  // (H + 2 pad_h) x (W + 2 pad_w) plane `padded`.
  void pad_plane(const float* image, float* padded) const;

  ConvGeometry g_;
  const float* weight_;
  std::int64_t taps_;       // kh * kw
  std::int64_t padded_w_;   // W + 2 pad_w
  std::int64_t plane_;      // padded plane floats
  std::int64_t pixels_;     // OH * OW
  // Every group of 4 pixels lies in one output row and reads 4
  // consecutive padded columns (stride 1, OW % 4 == 0), so its loads
  // are contiguous; otherwise the kernels gather through pix_.
  bool contiguous_;
  IsaTier tier_;
  std::vector<std::int64_t> row_off_;  // row r's tap (0,0) in the padded image
  std::vector<std::int64_t> pix_;      // pixel p's offset from its tap origin
  // Where the tier gathers dx: the row width and size of dy with a
  // margin, and tap t's offset into it from an input pixel's origin.
  std::int64_t dy_w_ = 0;
  std::int64_t dy_plane_ = 0;
  std::vector<std::int64_t> dy_tap_;
};

}  // namespace fleda
