#include "tensor/direct_conv.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/isa.hpp"

namespace fleda {
namespace {

// Four consecutive pixels: the lane count of bt_reference's
// accumulators and one SSE register of floats. The AVX2 and AVX-512
// tiers run the same templates on 8- and 16-float vectors. Vector
// arithmetic is lane-wise IEEE float arithmetic, so each lane sees
// exactly the scalar operations written, whatever the width.
constexpr std::int64_t kLanes = 4;
using Float4 = float __attribute__((vector_size(16)));
using Float8 = float __attribute__((vector_size(32)));
using Float16 = float __attribute__((vector_size(64)));

template <typename V>
constexpr std::int64_t lanes_of = sizeof(V) / sizeof(float);

// The kernels below are inlined into each tier's entry point, so the
// entry point's target attribute decides the instructions they compile
// to. No 32- or 64-byte vector ever crosses a call, so GCC's note that
// returning one without AVX would change the ABI does not apply.
#define FLEDA_KERNEL inline __attribute__((always_inline))
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

template <typename V>
FLEDA_KERNEL V load(const float* x) {
  V v;
  std::memcpy(&v, x, sizeof v);
  return v;
}

// The floats that row `x` (a row's read origin) gives the pixel group
// starting at `pix`: consecutive floats when the geometry is
// contiguous, else (4-wide groups only) gathered through the pixel
// offsets. store_pixels writes them back the same way.
template <typename V, bool kContig>
FLEDA_KERNEL V load_pixels(const float* x, const std::int64_t* pix) {
  static_assert(kContig || lanes_of<V> == kLanes);
  if constexpr (kContig) {
    return load<V>(x + pix[0]);
  } else {
    return V{x[pix[0]], x[pix[1]], x[pix[2]], x[pix[3]]};
  }
}

template <typename V, bool kContig>
FLEDA_KERNEL void store_pixels(float* x, const std::int64_t* pix, V v) {
  if constexpr (kContig) {
    std::memcpy(x + pix[0], &v, sizeof v);
  } else {
    for (int l = 0; l < kLanes; ++l) x[pix[l]] = v[l];
  }
}

// y for kGroups groups of V's lanes of consecutive pixels starting at
// pix / y, each group held in a register across all rows.
template <typename V, int kGroups, bool kContig>
FLEDA_KERNEL void forward_groups(const float* x, const std::int64_t* row_off,
                                 const float* w, std::int64_t rows,
                                 const std::int64_t* pix, float* y) {
  constexpr std::int64_t kL = lanes_of<V>;
  V acc[kGroups] = {};
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const float w0 = w[r], w1 = w[r + 1], w2 = w[r + 2], w3 = w[r + 3];
    const float* x0 = x + row_off[r];
    const float* x1 = x + row_off[r + 1];
    const float* x2 = x + row_off[r + 2];
    const float* x3 = x + row_off[r + 3];
    for (int q = 0; q < kGroups; ++q) {
      const std::int64_t* pq = pix + q * kL;
      acc[q] += w0 * load_pixels<V, kContig>(x0, pq) +
                w1 * load_pixels<V, kContig>(x1, pq) +
                w2 * load_pixels<V, kContig>(x2, pq) +
                w3 * load_pixels<V, kContig>(x3, pq);
    }
  }
  for (; r < rows; ++r) {
    const float* xr = x + row_off[r];
    for (int q = 0; q < kGroups; ++q) {
      acc[q] += w[r] * load_pixels<V, kContig>(xr, pix + q * kL);
    }
  }
  std::memcpy(y, acc, sizeof acc);
}

// y at one pixel (the last OH*OW % 4), in the same order.
float forward_pixel(const float* x, const std::int64_t* row_off,
                    const float* w, std::int64_t rows, std::int64_t at) {
  float acc = 0.0f;
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    acc += w[r] * x[row_off[r] + at] + w[r + 1] * x[row_off[r + 1] + at] +
           w[r + 2] * x[row_off[r + 2] + at] +
           w[r + 3] * x[row_off[r + 3] + at];
  }
  for (; r < rows; ++r) acc += w[r] * x[row_off[r] + at];
  return acc;
}

template <typename V, bool kContig>
FLEDA_KERNEL void forward_all(const float* x, const std::int64_t* row_off,
                              const float* w, std::int64_t rows,
                              const std::int64_t* pix, std::int64_t pixels,
                              float* y) {
  constexpr std::int64_t kL = lanes_of<V>;
  constexpr int kBlock = 4;  // groups per register block
  std::int64_t p = 0;
  for (; p + kBlock * kL <= pixels; p += kBlock * kL) {
    forward_groups<V, kBlock, kContig>(x, row_off, w, rows, pix + p, y + p);
  }
  for (; p + kL <= pixels; p += kL) {
    forward_groups<V, 1, kContig>(x, row_off, w, rows, pix + p, y + p);
  }
  for (; p < pixels; ++p) y[p] = forward_pixel(x, row_off, w, rows, pix[p]);
}

// dw[0, kRows) += the bt_reference dot product of dy with each row's
// window of `plane`, kRows rows sharing every load of dy. Lane l of a
// row's accumulator sums the pixels p with p % 4 == l.
template <int kRows, bool kContig>
void weight_grad_rows(const float* plane, const std::int64_t* row_off,
                      const float* dy, const std::int64_t* pix,
                      std::int64_t pixels, float* dw) {
  const float* src[kRows];
  for (int r = 0; r < kRows; ++r) src[r] = plane + row_off[r];
  Float4 acc[kRows] = {};
  std::int64_t p = 0;
  for (; p + kLanes <= pixels; p += kLanes) {
    const Float4 d = load<Float4>(dy + p);
    for (int r = 0; r < kRows; ++r) {
      acc[r] += d * load_pixels<Float4, kContig>(src[r], pix + p);
    }
  }
  for (int r = 0; r < kRows; ++r) {
    float a = (acc[r][0] + acc[r][1]) + (acc[r][2] + acc[r][3]);
    for (std::int64_t t = p; t < pixels; ++t) a += dy[t] * src[r][pix[t]];
    dw[r] += a;
  }
}

template <bool kContig>
void weight_grad_plane(const float* plane, const std::int64_t* row_off,
                       std::int64_t taps, const float* dy,
                       const std::int64_t* pix, std::int64_t pixels,
                       float* dw) {
  std::int64_t t = 0;
  for (; t + 4 <= taps; t += 4) {
    weight_grad_rows<4, kContig>(plane, row_off + t, dy, pix, pixels, dw + t);
  }
  for (; t < taps; ++t) {
    weight_grad_rows<1, kContig>(plane, row_off + t, dy, pix, pixels, dw + t);
  }
}

// dW of one channel plane with a kernel row's taps across V's lanes,
// for a contiguous geometry with dilation_w == 1 and kw <= lanes. For
// the kRows kernel rows from i0 and lane l = p % 4, acc[i][l] holds
// at lane j the sum of dy[p] * x at tap (i0 + i, j) over the pixels
// p % 4 == l in ascending order: weight_grad_rows's four accumulators
// of row (i0 + i) * kw + j, reduced and added to dw the same way.
// Lanes j >= kw read past the tap window (at most lanes - kw floats
// past the plane, into the gradient plane that follows it in scratch)
// and are dropped.
template <typename V, int kRows>
FLEDA_KERNEL void weight_grad_taps(const float* plane, const ConvGeometry& g,
                                   std::int64_t i0, const float* dy,
                                   float* dw) {
  const std::int64_t padded_w = g.width + 2 * g.pad_w;
  const std::int64_t oh_end = g.out_height();
  const std::int64_t ow_end = g.out_width();
  V acc[kRows][kLanes] = {};
  for (std::int64_t oh = 0; oh < oh_end; ++oh) {
    const float* d = dy + oh * ow_end;
    const float* x[kRows];
    for (int i = 0; i < kRows; ++i) {
      x[i] = plane + (oh * g.stride_h + (i0 + i) * g.dilation_h) * padded_w;
    }
    for (std::int64_t ow = 0; ow < ow_end; ow += kLanes) {
      for (int l = 0; l < kLanes; ++l) {
        const float dl = d[ow + l];
        for (int i = 0; i < kRows; ++i) {
          acc[i][l] += dl * load<V>(x[i] + ow + l);
        }
      }
    }
  }
  for (int i = 0; i < kRows; ++i) {
    const V a = (acc[i][0] + acc[i][1]) + (acc[i][2] + acc[i][3]);
    float* dw_i = dw + (i0 + i) * g.kernel_w;
    for (std::int64_t j = 0; j < g.kernel_w; ++j) dw_i[j] += a[j];
  }
}

// The kernel rows of one channel: passes of kRows rows, then halving.
template <typename V, int kRows>
FLEDA_KERNEL void weight_grad_taps_plane(const float* plane,
                                         const ConvGeometry& g,
                                         std::int64_t i0, const float* dy,
                                         float* dw) {
  for (; i0 + kRows <= g.kernel_h; i0 += kRows) {
    weight_grad_taps<V, kRows>(plane, g, i0, dy, dw);
  }
  if constexpr (kRows > 1) {
    weight_grad_taps_plane<V, kRows / 2>(plane, g, i0, dy, dw);
  }
}

// plane += col2im of the rows [0, taps) of W^T * dy, tap by tap in
// ascending order (a tap's pixels land on distinct positions).
// Out-of-image positions land in the padding, which the caller drops.
template <bool kContig>
void data_grad_plane(const float* w, const std::int64_t* row_off,
                     std::int64_t taps, const float* dy,
                     const std::int64_t* pix, std::int64_t pixels,
                     float* plane) {
  for (std::int64_t t = 0; t < taps; ++t) {
    const float wt = w[t];
    float* dst = plane + row_off[t];
    std::int64_t p = 0;
    for (; p + kLanes <= pixels; p += kLanes) {
      store_pixels<Float4, kContig>(
          dst, pix + p,
          load_pixels<Float4, kContig>(dst, pix + p) +
              (0.0f + wt * load<Float4>(dy + p)));
    }
    for (; p < pixels; ++p) dst[pix[p]] += 0.0f + wt * dy[p];
  }
}

// dx of one channel plane, gathered instead of scattered: for kGroups
// vectors of V's lanes of dx, vector v at row v / (W / lanes), each
// held in a register across all taps, dx = 0 + (0 + w[t] * dy) over
// the taps t in ascending order — the sum data_grad_plane builds in
// memory. dy_pad is dy with a zero margin, and tap t of a vector reads
// it at the vector's origin plus dy_tap[t]. Where tap t meets no
// output pixel, the term is 0 + w[t] * 0 = +0, and adding +0 changes
// no sum that is not -0; none is, since the sum starts at +0 and no
// term is -0. That holds for a finite w[t] only, so the caller
// scatters a channel with a non-finite weight.
template <typename V, int kGroups>
FLEDA_KERNEL void data_grad_gather_groups(
    const float* w, const std::int64_t* dy_tap, std::int64_t taps,
    const float* dy_pad, std::int64_t dy_w, std::int64_t width,
    std::int64_t v0, float* dx) {
  constexpr std::int64_t kL = lanes_of<V>;
  const std::int64_t per_row = width / kL;
  const float* src[kGroups];
  float* out[kGroups];
  for (int q = 0; q < kGroups; ++q) {
    const std::int64_t h = (v0 + q) / per_row;
    const std::int64_t col = (v0 + q) % per_row * kL;
    src[q] = dy_pad + h * dy_w + col;
    out[q] = dx + h * width + col;
  }
  V acc[kGroups] = {};
  for (std::int64_t t = 0; t < taps; ++t) {
    const float wt = w[t];
    for (int q = 0; q < kGroups; ++q) {
      acc[q] += 0.0f + wt * load<V>(src[q] + dy_tap[t]);
    }
  }
  for (int q = 0; q < kGroups; ++q) std::memcpy(out[q], &acc[q], sizeof(V));
}

template <typename V>
FLEDA_KERNEL void data_grad_gather(const float* w, const std::int64_t* dy_tap,
                                   std::int64_t taps, const float* dy_pad,
                                   std::int64_t dy_w, std::int64_t height,
                                   std::int64_t width, float* dx) {
  constexpr int kBlock = 4;  // vectors per register block
  const std::int64_t vectors = height * (width / lanes_of<V>);
  std::int64_t v = 0;
  for (; v + kBlock <= vectors; v += kBlock) {
    data_grad_gather_groups<V, kBlock>(w, dy_tap, taps, dy_pad, dy_w, width,
                                       v, dx);
  }
  for (; v < vectors; ++v) {
    data_grad_gather_groups<V, 1>(w, dy_tap, taps, dy_pad, dy_w, width, v,
                                  dx);
  }
}

using ForwardKernel = void (*)(const float* x, const std::int64_t* row_off,
                               const float* w, std::int64_t rows,
                               const std::int64_t* pix, std::int64_t pixels,
                               float* y);
using WeightGradKernel = void (*)(const float* plane, const ConvGeometry& g,
                                  const float* dy, float* dw);
using GatherKernel = void (*)(const float* w, const std::int64_t* dy_tap,
                              std::int64_t taps, const float* dy_pad,
                              std::int64_t dy_w, std::int64_t height,
                              std::int64_t width, float* dx);

template <bool kContig>
void forward_base(const float* x, const std::int64_t* row_off, const float* w,
                  std::int64_t rows, const std::int64_t* pix,
                  std::int64_t pixels, float* y) {
  forward_all<Float4, kContig>(x, row_off, w, rows, pix, pixels, y);
}

#if FLEDA_ISA_X86
// Each tier's entry points carry its target attribute.
#define FLEDA_TIER_KERNELS(tier, target_isa, V)                              \
  __attribute__((target(target_isa))) void forward_##tier(                   \
      const float* x, const std::int64_t* row_off, const float* w,           \
      std::int64_t rows, const std::int64_t* pix, std::int64_t pixels,       \
      float* y) {                                                            \
    forward_all<V, true>(x, row_off, w, rows, pix, pixels, y);               \
  }                                                                          \
  __attribute__((target(target_isa))) void data_grad_##tier(                 \
      const float* w, const std::int64_t* dy_tap, std::int64_t taps,         \
      const float* dy_pad, std::int64_t dy_w, std::int64_t height,           \
      std::int64_t width, float* dx) {                                       \
    data_grad_gather<V>(w, dy_tap, taps, dy_pad, dy_w, height, width, dx);   \
  }

FLEDA_TIER_KERNELS(avx2, "avx2", Float8)
FLEDA_TIER_KERNELS(avx512, "avx512f", Float16)
#undef FLEDA_TIER_KERNELS

// Three kernel rows' 3 x 4 accumulators, so a 9 x 9 kernel runs three
// passes.
__attribute__((target("avx512f"))) void weight_grad_avx512(
    const float* plane, const ConvGeometry& g, const float* dy, float* dw) {
  weight_grad_taps_plane<Float16, 3>(plane, g, 0, dy, dw);
}
#endif

// Forward on the widest pixel groups `tier` runs that keep each group
// in one output row.
ForwardKernel forward_kernel(IsaTier tier, const ConvGeometry& g,
                             bool contiguous) {
  if (!contiguous) return forward_base<false>;
#if FLEDA_ISA_X86
  const std::int64_t ow = g.out_width();
  if (tier >= IsaTier::kAvx512 && ow % lanes_of<Float16> == 0) {
    return forward_avx512;
  }
  if (tier >= IsaTier::kAvx2 && ow % lanes_of<Float8> == 0) {
    return forward_avx2;
  }
#else
  (void)tier;
  (void)g;
#endif
  return forward_base<true>;
}

// The tap-vectorized dW of `tier` for a contiguous geometry with
// dilation_w == 1; null where dW runs the base kernels. Only AVX-512
// with kernel rows of 9 to 16 taps has one: on an AVX-512 Xeon it ran
// FLNet's 9 x 9 head about 20 % faster than the base kernels, while
// narrower rows, which leave most lanes idle (5 x 5 and 3 x 3 on zmm
// or ymm), measured no faster or slower.
WeightGradKernel weight_grad_kernel(IsaTier tier, const ConvGeometry& g,
                                    bool contiguous) {
#if FLEDA_ISA_X86
  if (tier >= IsaTier::kAvx512 && contiguous && g.dilation_w == 1 &&
      g.kernel_w > lanes_of<Float8> && g.kernel_w <= lanes_of<Float16>) {
    return weight_grad_avx512;
  }
#else
  (void)tier;
  (void)g;
  (void)contiguous;
#endif
  return nullptr;
}

// The gathered dx of `tier` for a stride-1 geometry whose W is a
// multiple of its width; null where dx is scattered (the base tier,
// and every other geometry).
GatherKernel gather_kernel(IsaTier tier, const ConvGeometry& g) {
#if FLEDA_ISA_X86
  if (g.stride_h == 1 && g.stride_w == 1) {
    if (tier >= IsaTier::kAvx512 && g.width % lanes_of<Float16> == 0) {
      return data_grad_avx512;
    }
    if (tier >= IsaTier::kAvx2 && g.width % lanes_of<Float8> == 0) {
      return data_grad_avx2;
    }
  }
#else
  (void)tier;
  (void)g;
#endif
  return nullptr;
}

}  // namespace

SingleOutputConv::SingleOutputConv(const ConvGeometry& g, const float* weight,
                                   IsaTier tier)
    : g_(g),
      weight_(weight),
      taps_(g.kernel_h * g.kernel_w),
      padded_w_(g.width + 2 * g.pad_w),
      plane_((g.height + 2 * g.pad_h) * padded_w_),
      pixels_(g.col_cols()),
      contiguous_(g.stride_w == 1 && g.out_width() % kLanes == 0),
      tier_(tier),
      row_off_(static_cast<std::size_t>(g.col_rows())),
      pix_(static_cast<std::size_t>(pixels_)) {
  for (std::int64_t r = 0; r < g.col_rows(); ++r) {
    const std::int64_t c = r / taps_;
    const std::int64_t i = (r % taps_) / g.kernel_w;
    const std::int64_t j = r % g.kernel_w;
    row_off_[r] =
        c * plane_ + i * g.dilation_h * padded_w_ + j * g.dilation_w;
  }
  const std::int64_t ow = g.out_width();
  for (std::int64_t p = 0; p < pixels_; ++p) {
    pix_[p] = (p / ow) * g.stride_h * padded_w_ + (p % ow) * g.stride_w;
  }
  if (gather_kernel(tier, g) != nullptr) {
    // dy with a margin of the kernel's extent on every side. Input
    // pixel (h, w) meets output pixel (h + pad_h - i dil_h,
    // w + pad_w - j dil_w) at tap (i, j).
    const std::int64_t mh = g.dilation_h * (g.kernel_h - 1);
    const std::int64_t mw = g.dilation_w * (g.kernel_w - 1);
    dy_w_ = ow + 2 * mw;
    dy_plane_ = (g.out_height() + 2 * mh) * dy_w_;
    dy_tap_.resize(static_cast<std::size_t>(taps_));
    for (std::int64_t t = 0; t < taps_; ++t) {
      const std::int64_t i = t / g.kernel_w;
      const std::int64_t j = t % g.kernel_w;
      dy_tap_[t] = (g.pad_h + mh - i * g.dilation_h) * dy_w_ + g.pad_w + mw -
                   j * g.dilation_w;
    }
  }
}

std::size_t SingleOutputConv::forward_scratch() const {
  return static_cast<std::size_t>(g_.channels * plane_);
}

std::size_t SingleOutputConv::backward_scratch() const {
  return static_cast<std::size_t>(2 * plane_ + dy_plane_);
}

void SingleOutputConv::pad_plane(const float* image, float* padded) const {
  const std::int64_t W = g_.width;
  float* row = padded;
  std::fill(row, row + g_.pad_h * padded_w_, 0.0f);
  row += g_.pad_h * padded_w_;
  for (std::int64_t h = 0; h < g_.height; ++h, row += padded_w_) {
    std::fill(row, row + g_.pad_w, 0.0f);
    std::copy(image + h * W, image + (h + 1) * W, row + g_.pad_w);
    std::fill(row + g_.pad_w + W, row + padded_w_, 0.0f);
  }
  std::fill(row, padded + plane_, 0.0f);
}

void SingleOutputConv::forward(const float* image, float* scratch,
                               float* y) const {
  const std::int64_t HW = g_.height * g_.width;
  for (std::int64_t c = 0; c < g_.channels; ++c) {
    pad_plane(image + c * HW, scratch + c * plane_);
  }
  forward_kernel(tier_, g_, contiguous_)(scratch, row_off_.data(), weight_,
                                         g_.col_rows(), pix_.data(), pixels_,
                                         y);
}

void SingleOutputConv::backward(const float* image, const float* dy,
                                float* dw, float* dx, float* scratch) const {
  const std::int64_t HW = g_.height * g_.width;
  float* plane = scratch;
  float* grad = scratch + plane_;
  // Within a channel the tap offsets are channel 0's rows.
  const std::int64_t* tap_off = row_off_.data();
  const WeightGradKernel weight_grad =
      weight_grad_kernel(tier_, g_, contiguous_);
  const GatherKernel gather =
      dx == nullptr ? nullptr : gather_kernel(tier_, g_);
  float* dy_pad = grad + plane_;
  if (gather != nullptr) {
    const std::int64_t ow = g_.out_width();
    const std::int64_t mh = g_.dilation_h * (g_.kernel_h - 1);
    const std::int64_t mw = g_.dilation_w * (g_.kernel_w - 1);
    std::fill(dy_pad, dy_pad + dy_plane_, 0.0f);
    for (std::int64_t oh = 0; oh < g_.out_height(); ++oh) {
      std::copy(dy + oh * ow, dy + (oh + 1) * ow,
                dy_pad + (oh + mh) * dy_w_ + mw);
    }
  }
  for (std::int64_t c = 0; c < g_.channels; ++c) {
    pad_plane(image + c * HW, plane);
    float* dw_c = dw + c * taps_;
    if (weight_grad != nullptr) {
      weight_grad(plane, g_, dy, dw_c);
    } else if (contiguous_) {
      weight_grad_plane<true>(plane, tap_off, taps_, dy, pix_.data(), pixels_,
                              dw_c);
    } else {
      weight_grad_plane<false>(plane, tap_off, taps_, dy, pix_.data(),
                               pixels_, dw_c);
    }
    if (dx == nullptr) continue;
    const float* w_c = weight_ + c * taps_;
    float* out = dx + c * HW;
    if (gather != nullptr &&
        std::all_of(w_c, w_c + taps_, [](float v) { return std::isfinite(v); })) {
      gather(w_c, dy_tap_.data(), taps_, dy_pad, dy_w_, g_.height, g_.width,
             out);
      continue;
    }
    std::fill(grad, grad + plane_, 0.0f);
    if (contiguous_) {
      data_grad_plane<true>(w_c, tap_off, taps_, dy, pix_.data(), pixels_,
                            grad);
    } else {
      data_grad_plane<false>(w_c, tap_off, taps_, dy, pix_.data(), pixels_,
                             grad);
    }
    const float* src = grad + g_.pad_h * padded_w_ + g_.pad_w;
    for (std::int64_t h = 0; h < g_.height; ++h) {
      std::copy(src + h * padded_w_, src + h * padded_w_ + g_.width,
                out + h * g_.width);
    }
  }
}

}  // namespace fleda
