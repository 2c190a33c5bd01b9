#include "tensor/direct_conv.hpp"

#include <algorithm>
#include <cstring>

namespace fleda {
namespace {

// Four consecutive pixels: the lane count of bt_reference's
// accumulators and one vector register of floats. Vector arithmetic is
// lane-wise IEEE float arithmetic, so each lane sees exactly the scalar
// operations written.
constexpr std::int64_t kLanes = 4;
using Float4 = float __attribute__((vector_size(16)));

// The 4 floats that row `x` (a row's read origin) gives the pixel
// group starting at `pix`: consecutive floats when the geometry is
// contiguous, else gathered through the pixel offsets. store4 writes
// them back the same way.
template <bool kContig>
inline Float4 load4(const float* x, const std::int64_t* pix) {
  if constexpr (kContig) {
    Float4 v;
    std::memcpy(&v, x + pix[0], sizeof v);
    return v;
  } else {
    return Float4{x[pix[0]], x[pix[1]], x[pix[2]], x[pix[3]]};
  }
}

template <bool kContig>
inline void store4(float* x, const std::int64_t* pix, Float4 v) {
  if constexpr (kContig) {
    std::memcpy(x + pix[0], &v, sizeof v);
  } else {
    for (int l = 0; l < kLanes; ++l) x[pix[l]] = v[l];
  }
}

inline Float4 load4(const float* x) {
  Float4 v;
  std::memcpy(&v, x, sizeof v);
  return v;
}

// y for kGroups groups of 4 consecutive pixels starting at pix / y,
// each group held in a register across all rows.
template <int kGroups, bool kContig>
void forward_groups(const float* x, const std::int64_t* row_off,
                    const float* w, std::int64_t rows,
                    const std::int64_t* pix, float* y) {
  Float4 acc[kGroups] = {};
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const float w0 = w[r], w1 = w[r + 1], w2 = w[r + 2], w3 = w[r + 3];
    const float* x0 = x + row_off[r];
    const float* x1 = x + row_off[r + 1];
    const float* x2 = x + row_off[r + 2];
    const float* x3 = x + row_off[r + 3];
    for (int q = 0; q < kGroups; ++q) {
      const std::int64_t* pq = pix + q * kLanes;
      acc[q] += w0 * load4<kContig>(x0, pq) + w1 * load4<kContig>(x1, pq) +
                w2 * load4<kContig>(x2, pq) + w3 * load4<kContig>(x3, pq);
    }
  }
  for (; r < rows; ++r) {
    const float* xr = x + row_off[r];
    for (int q = 0; q < kGroups; ++q) {
      acc[q] += w[r] * load4<kContig>(xr, pix + q * kLanes);
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

template <bool kContig>
void forward_all(const float* x, const std::int64_t* row_off, const float* w,
                 std::int64_t rows, const std::int64_t* pix,
                 std::int64_t pixels, float* y) {
  constexpr int kBlock = 4;  // groups per register block
  std::int64_t p = 0;
  for (; p + kBlock * kLanes <= pixels; p += kBlock * kLanes) {
    forward_groups<kBlock, kContig>(x, row_off, w, rows, pix + p, y + p);
  }
  for (; p + kLanes <= pixels; p += kLanes) {
    forward_groups<1, kContig>(x, row_off, w, rows, pix + p, y + p);
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
    const Float4 d = load4(dy + p);
    for (int r = 0; r < kRows; ++r) {
      acc[r] += d * load4<kContig>(src[r], pix + p);
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
      store4<kContig>(dst, pix + p,
                      load4<kContig>(dst, pix + p) +
                          (0.0f + wt * load4(dy + p)));
    }
    for (; p < pixels; ++p) dst[pix[p]] += 0.0f + wt * dy[p];
  }
}

}  // namespace

SingleOutputConv::SingleOutputConv(const ConvGeometry& g, const float* weight)
    : g_(g),
      weight_(weight),
      taps_(g.kernel_h * g.kernel_w),
      padded_w_(g.width + 2 * g.pad_w),
      plane_((g.height + 2 * g.pad_h) * padded_w_),
      pixels_(g.col_cols()),
      contiguous_(g.stride_w == 1 && g.out_width() % kLanes == 0),
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
}

std::size_t SingleOutputConv::forward_scratch() const {
  return static_cast<std::size_t>(g_.channels * plane_);
}

std::size_t SingleOutputConv::backward_scratch() const {
  return static_cast<std::size_t>(2 * plane_);
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
  const std::int64_t rows = g_.col_rows();
  if (contiguous_) {
    forward_all<true>(scratch, row_off_.data(), weight_, rows, pix_.data(),
                      pixels_, y);
  } else {
    forward_all<false>(scratch, row_off_.data(), weight_, rows, pix_.data(),
                       pixels_, y);
  }
}

void SingleOutputConv::backward(const float* image, const float* dy,
                                float* dw, float* dx, float* scratch) const {
  const std::int64_t HW = g_.height * g_.width;
  float* plane = scratch;
  float* grad = scratch + plane_;
  // Within a channel the tap offsets are channel 0's rows.
  const std::int64_t* tap_off = row_off_.data();
  for (std::int64_t c = 0; c < g_.channels; ++c) {
    pad_plane(image + c * HW, plane);
    float* dw_c = dw + c * taps_;
    if (contiguous_) {
      weight_grad_plane<true>(plane, tap_off, taps_, dy, pix_.data(), pixels_,
                              dw_c);
    } else {
      weight_grad_plane<false>(plane, tap_off, taps_, dy, pix_.data(),
                               pixels_, dw_c);
    }
    if (dx == nullptr) continue;
    std::fill(grad, grad + plane_, 0.0f);
    const float* w_c = weight_ + c * taps_;
    if (contiguous_) {
      data_grad_plane<true>(w_c, tap_off, taps_, dy, pix_.data(), pixels_,
                            grad);
    } else {
      data_grad_plane<false>(w_c, tap_off, taps_, dy, pix_.data(), pixels_,
                             grad);
    }
    const float* src = grad + g_.pad_h * padded_w_ + g_.pad_w;
    float* out = dx + c * HW;
    for (std::int64_t h = 0; h < g_.height; ++h) {
      std::copy(src + h * padded_w_, src + h * padded_w_ + g_.width,
                out + h * g_.width);
    }
  }
}

}  // namespace fleda
