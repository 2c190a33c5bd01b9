#include "tensor/im2col.hpp"

#include <algorithm>

namespace fleda {
namespace {

// One column-matrix row: the input coordinates its output position
// (oh, ow) reads are (ih0 + oh * stride_h, iw0 + ow * stride_w), inside
// the image exactly for oh in [oh_lo, oh_hi) and ow in [ow_lo, ow_hi).
struct RowTap {
  std::int64_t channel;
  std::int64_t ih0, iw0;
  std::int64_t oh_lo, oh_hi;
  std::int64_t ow_lo, ow_hi;
};

// Output positions o in [0, count) with 0 <= o0 + o * stride < extent,
// as a (possibly empty) range [lo, hi).
void valid_range(std::int64_t o0, std::int64_t stride, std::int64_t extent,
                 std::int64_t count, std::int64_t& lo, std::int64_t& hi) {
  lo = o0 >= 0 ? 0 : (-o0 + stride - 1) / stride;
  hi = o0 >= extent ? 0 : (extent - 1 - o0) / stride + 1;
  lo = std::min(lo, count);
  hi = std::clamp(hi, lo, count);
}

RowTap row_tap(const ConvGeometry& g, std::int64_t row, std::int64_t OH,
               std::int64_t OW) {
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  const std::int64_t kh = (row % taps) / g.kernel_w;
  const std::int64_t kw = row % g.kernel_w;
  RowTap t;
  t.channel = row / taps;
  t.ih0 = kh * g.dilation_h - g.pad_h;
  t.iw0 = kw * g.dilation_w - g.pad_w;
  valid_range(t.ih0, g.stride_h, g.height, OH, t.oh_lo, t.oh_hi);
  valid_range(t.iw0, g.stride_w, g.width, OW, t.ow_lo, t.ow_hi);
  return t;
}

}  // namespace

void im2col(const float* image, const ConvGeometry& g, std::int64_t r0,
            std::int64_t r1, float* cols) {
  const std::int64_t OH = g.out_height();
  const std::int64_t OW = g.out_width();
  const std::int64_t HW = g.height * g.width;
  const std::int64_t sw = g.stride_w;

  for (std::int64_t row = r0; row < r1; ++row) {
    const RowTap t = row_tap(g, row, OH, OW);
    const float* chan = image + t.channel * HW;
    float* out = cols + (row - r0) * (OH * OW);
    std::fill(out, out + t.oh_lo * OW, 0.0f);
    for (std::int64_t oh = t.oh_lo; oh < t.oh_hi; ++oh) {
      const float* src = chan + (t.ih0 + oh * g.stride_h) * g.width;
      float* dst = out + oh * OW;
      std::fill(dst, dst + t.ow_lo, 0.0f);
      if (sw == 1) {
        for (std::int64_t ow = t.ow_lo; ow < t.ow_hi; ++ow) {
          dst[ow] = src[t.iw0 + ow];
        }
      } else {
        for (std::int64_t ow = t.ow_lo; ow < t.ow_hi; ++ow) {
          dst[ow] = src[t.iw0 + ow * sw];
        }
      }
      std::fill(dst + t.ow_hi, dst + OW, 0.0f);
    }
    std::fill(out + t.oh_hi * OW, out + OH * OW, 0.0f);
  }
}

void col2im(const float* cols, const ConvGeometry& g, std::int64_t r0,
            std::int64_t r1, float* image) {
  const std::int64_t OH = g.out_height();
  const std::int64_t OW = g.out_width();
  const std::int64_t HW = g.height * g.width;
  const std::int64_t sw = g.stride_w;

  for (std::int64_t row = r0; row < r1; ++row) {
    const RowTap t = row_tap(g, row, OH, OW);
    float* chan = image + t.channel * HW;
    const float* in = cols + (row - r0) * (OH * OW);
    for (std::int64_t oh = t.oh_lo; oh < t.oh_hi; ++oh) {
      const float* src = in + oh * OW;
      float* dst = chan + (t.ih0 + oh * g.stride_h) * g.width;
      if (sw == 1) {
        for (std::int64_t ow = t.ow_lo; ow < t.ow_hi; ++ow) {
          dst[t.iw0 + ow] += src[ow];
        }
      } else {
        for (std::int64_t ow = t.ow_lo; ow < t.ow_hi; ++ow) {
          dst[t.iw0 + ow * sw] += src[ow];
        }
      }
    }
  }
}

}  // namespace fleda
