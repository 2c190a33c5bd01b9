// 2D convolution with stride, zero padding, and dilation — the
// workhorse of FLNet / RouteNet / PROS. Weight layout is
// [Cout, Cin*kh*kw] (a GEMM-ready matrix), bias is [Cout].
//
// A conv with one output channel (the three models' heads) runs the
// direct kernels of tensor/direct_conv.hpp on a zero-padded copy of
// each sample and never lowers it: its GEMMs would all be vector
// products on reference plans, which the kernels reproduce bit for bit
// without the column matrix. Any other conv lowers each sample to its
// [Cin*kh*kw, OH*OW] im2col matrix one band of rows at a time, and the
// forward GEMM, the dW GEMM and the data-gradient GEMM + col2im
// consume each band while it is still in cache (tensor/matmul.hpp,
// gemm_band). The band height comes from the GEMM plans: the whole
// matrix when a plan is packed, otherwise the multiple of 4 rows that
// fits kLoweringBandFloats. The thread scratch holds one band. Results
// do not depend on the band height.
#pragma once

#include "nn/module.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"

namespace fleda {

struct Conv2dOptions {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 3;   // square kernel
  std::int64_t stride = 1;
  std::int64_t padding = 0;  // use `same_padding()` for odd kernels
  std::int64_t dilation = 1;
  bool bias = true;
  // false for a model's input conv: nothing reads dL/d(input), so
  // backward accumulates dW / db only, skips the data-gradient GEMM and
  // col2im, and returns an empty tensor.
  bool input_grad = true;

  // Padding that preserves H/W at stride 1 for odd kernels.
  Conv2dOptions& same_padding() {
    padding = dilation * (kernel - 1) / 2;
    return *this;
  }
};

class Conv2d : public Module {
 public:
  // `name` prefixes the parameter names ("<name>.weight").
  Conv2d(std::string name, const Conv2dOptions& opts, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string describe() const override;

  const Conv2dOptions& options() const { return opts_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

  // Output spatial size for an input of h x w.
  std::pair<std::int64_t, std::int64_t> output_hw(std::int64_t h,
                                                  std::int64_t w) const;

 private:
  ConvGeometry geometry(std::int64_t h, std::int64_t w) const;

  std::string name_;
  Conv2dOptions opts_;
  Parameter weight_;  // [Cout, Cin*k*k]
  Parameter bias_;    // [Cout] (unused when !opts_.bias)
  Tensor cached_input_;
};

}  // namespace fleda
