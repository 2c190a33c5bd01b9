// im2col / col2im for strided, padded, dilated 2D convolution.
//
// im2col lowers a [C,H,W] image into a [C*kh*kw, OH*OW] column matrix
// so convolution becomes a matmul with the [Cout, C*kh*kw] weight
// matrix; col2im is its exact adjoint (scatter-add), used both for
// conv backward-data and for ConvTranspose2d forward.
//
// Both work on a row range [r0, r1) of the column matrix, so a caller
// can lower a cache-sized band at a time; the full matrix is the range
// [0, col_rows()). Row r = (c * kh + i) * kw + j reads channel c at
// kernel tap (i, j). The in-image output positions of each row are
// computed once per row, so the inner loops are a zero-fill / copy /
// zero-fill (im2col) or a plain += over the valid columns (col2im).
#pragma once

#include <cstdint>

namespace fleda {

struct ConvGeometry {
  std::int64_t channels = 0;
  std::int64_t height = 0;
  std::int64_t width = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;
  std::int64_t dilation_h = 1;
  std::int64_t dilation_w = 1;

  std::int64_t out_height() const {
    std::int64_t eff_k = dilation_h * (kernel_h - 1) + 1;
    return (height + 2 * pad_h - eff_k) / stride_h + 1;
  }
  std::int64_t out_width() const {
    std::int64_t eff_k = dilation_w * (kernel_w - 1) + 1;
    return (width + 2 * pad_w - eff_k) / stride_w + 1;
  }
  std::int64_t col_rows() const { return channels * kernel_h * kernel_w; }
  std::int64_t col_cols() const { return out_height() * out_width(); }
};

// image: [C,H,W] contiguous. cols: rows [r0, r1) of the column matrix,
// contiguous ([r1 - r0, col_cols]) and fully overwritten (padding
// positions become 0).
void im2col(const float* image, const ConvGeometry& g, std::int64_t r0,
            std::int64_t r1, float* cols);

// Adjoint of im2col over the same row range: scatter-adds the rows
// [r0, r1) held in `cols` back into image, row by row in ascending
// order, so splitting [0, col_rows()) into bands adds the same values
// to each pixel in the same order. The image buffer must be zeroed by
// the caller if overwrite semantics are desired.
void col2im(const float* cols, const ConvGeometry& g, std::int64_t r0,
            std::int64_t r1, float* image);

}  // namespace fleda
