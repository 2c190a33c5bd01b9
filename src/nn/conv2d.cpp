#include "nn/conv2d.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "nn/init.hpp"
#include "tensor/direct_conv.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace fleda {

Conv2d::Conv2d(std::string name, const Conv2dOptions& opts, Rng& rng)
    : name_(std::move(name)),
      opts_(opts),
      weight_(name_ + ".weight",
              Shape::of(opts.out_channels,
                        opts.in_channels * opts.kernel * opts.kernel)),
      bias_(name_ + ".bias", Shape::of(opts.out_channels)) {
  if (opts.in_channels <= 0 || opts.out_channels <= 0 || opts.kernel <= 0) {
    throw std::invalid_argument("Conv2d: bad options for " + name_);
  }
  kaiming_uniform(weight_.value,
                  /*fan_in=*/opts.in_channels * opts.kernel * opts.kernel, rng);
  // bias stays zero-initialized
}

ConvGeometry Conv2d::geometry(std::int64_t h, std::int64_t w) const {
  ConvGeometry g;
  g.channels = opts_.in_channels;
  g.height = h;
  g.width = w;
  g.kernel_h = g.kernel_w = opts_.kernel;
  g.pad_h = g.pad_w = opts_.padding;
  g.stride_h = g.stride_w = opts_.stride;
  g.dilation_h = g.dilation_w = opts_.dilation;
  return g;
}

std::pair<std::int64_t, std::int64_t> Conv2d::output_hw(std::int64_t h,
                                                        std::int64_t w) const {
  ConvGeometry g = geometry(h, w);
  return {g.out_height(), g.out_width()};
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  if (input.shape().rank() != 4 || input.shape().dim(1) != opts_.in_channels) {
    throw std::invalid_argument("Conv2d " + name_ + ": bad input shape " +
                                input.shape().to_string());
  }
  const std::int64_t N = input.shape().dim(0);
  const std::int64_t H = input.shape().dim(2);
  const std::int64_t W = input.shape().dim(3);
  ConvGeometry g = geometry(H, W);
  const std::int64_t OH = g.out_height();
  const std::int64_t OW = g.out_width();
  if (OH <= 0 || OW <= 0) {
    throw std::invalid_argument("Conv2d " + name_ + ": non-positive output");
  }

  // Only a training pass needs the input for backward; an evaluation
  // pass must not pin a batch-sized activation on the layer (at
  // K = 1000 every client evaluates, and those tensors add up).
  cached_input_ = training ? input : Tensor();
  Tensor output(Shape::of(N, opts_.out_channels, OH, OW));

  // y = W [Cout x rows] * cols [rows x OHW]. A single-output-channel
  // conv runs the direct kernels on a padded copy of the image; any
  // other lowers the columns band by band, summed over the bands, with
  // the weight packed (when the plan says so) once for the whole batch.
  const std::int64_t rows = g.col_rows();
  std::optional<SingleOutputConv> direct;
  std::optional<WeightGemm> gemm;
  std::int64_t band = 0;
  std::size_t scratch_floats = 0;
  if (opts_.out_channels == 1) {
    direct.emplace(g, weight_.value.data());
    scratch_floats = direct->forward_scratch();
  } else {
    gemm.emplace(
        gemm_plan(GemmOp::kNN, opts_.out_channels, rows, g.col_cols()),
        weight_.value.data());
    band = lowering_band_rows(gemm->plan());
    scratch_floats = static_cast<std::size_t>(band * g.col_cols());
  }

  const std::int64_t in_stride = opts_.in_channels * H * W;
  const std::int64_t out_stride = opts_.out_channels * OH * OW;
  // Batch-parallel: output slices are disjoint, scratch is per-chunk.
  // Under an outer parallel region this degrades to the serial loop.
  parallel_for(static_cast<std::size_t>(N), [&](std::size_t nb,
                                                std::size_t ne) {
    float* scratch = thread_scratch(ScratchSlot::kCols, scratch_floats);
    for (std::size_t n = nb; n < ne; ++n) {
      const float* x = input.data() + static_cast<std::int64_t>(n) * in_stride;
      float* out = output.data() + static_cast<std::int64_t>(n) * out_stride;
      if (direct) {
        direct->forward(x, scratch, out);
      } else {
        for (std::int64_t r0 = 0; r0 < rows; r0 += band) {
          const std::int64_t r1 = std::min(rows, r0 + band);
          im2col(x, g, r0, r1, scratch);
          gemm->run_band(r0, r1, scratch, out, /*accumulate=*/r0 > 0);
        }
      }
      if (opts_.bias) {
        for (std::int64_t co = 0; co < opts_.out_channels; ++co) {
          const float b = bias_.value[co];
          float* chan = out + co * OH * OW;
          for (std::int64_t i = 0; i < OH * OW; ++i) chan[i] += b;
        }
      }
    }
  });
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  if (input.empty()) {
    throw std::logic_error("Conv2d " + name_ + ": backward before forward");
  }
  const std::int64_t N = input.shape().dim(0);
  const std::int64_t H = input.shape().dim(2);
  const std::int64_t W = input.shape().dim(3);
  ConvGeometry g = geometry(H, W);
  const std::int64_t OH = g.out_height();
  const std::int64_t OW = g.out_width();
  if (grad_output.shape() != Shape::of(N, opts_.out_channels, OH, OW)) {
    throw std::invalid_argument("Conv2d " + name_ + ": bad grad shape " +
                                grad_output.shape().to_string());
  }

  const bool input_grad = opts_.input_grad;
  Tensor grad_input = input_grad ? Tensor(input.shape()) : Tensor();
  const std::int64_t in_stride = opts_.in_channels * H * W;
  const std::int64_t out_stride = opts_.out_channels * OH * OW;
  const std::int64_t rows = g.col_rows();

  // A single-output-channel conv runs the direct kernels, one padded
  // channel plane at a time. Any other, per band of the column matrix:
  // dW[:, band] += dy [Cout x OHW] * cols_band^T, and (when the input
  // gradient is wanted) dcols_band = W[:, band]^T * dy, scattered back
  // by col2im. dW's GEMM has a per-sample A (dy), so it runs as a plain
  // gemm_band; dcols reuses the weight across the whole batch. A packed
  // plan takes the whole matrix as one band and reference plans over
  // the same columns agree, so the larger of the two heights serves
  // both.
  std::optional<SingleOutputConv> direct;
  GemmPlan dw_plan;
  std::int64_t band = 0;
  std::optional<WeightGemm> dx_gemm;
  if (opts_.out_channels == 1) {
    direct.emplace(g, weight_.value.data());
  } else {
    dw_plan = gemm_plan(GemmOp::kBT, opts_.out_channels, g.col_cols(), rows);
    band = lowering_band_rows(dw_plan);
    if (input_grad) {
      dx_gemm.emplace(
          gemm_plan(GemmOp::kAT, rows, opts_.out_channels, g.col_cols()),
          weight_.value.data());
      band = std::max(band, lowering_band_rows(dx_gemm->plan()));
    }
  }
  const std::size_t band_elems = static_cast<std::size_t>(band * g.col_cols());

  // Batch-parallel over a FIXED number of slices (independent of the
  // thread-pool size), each with its own dW/db partial, reduced
  // serially in slice order below. Both properties matter: a per-chunk
  // mutex merge would make the float sums depend on chunk boundaries
  // (pool size) and completion order — the determinism tests compare
  // runs across pool sizes bit-for-bit.
  const std::size_t batch = static_cast<std::size_t>(N);
  const std::size_t slices = std::min<std::size_t>(batch, 16);
  const std::size_t span = (batch + slices - 1) / slices;
  std::vector<Tensor> dw_partial(slices, Tensor(weight_.grad.shape()));
  std::vector<Tensor> db_partial(opts_.bias ? slices : 0,
                                 Tensor(bias_.grad.shape()));
  parallel_for(slices, [&](std::size_t sb, std::size_t se) {
    float* cols = thread_scratch(
        ScratchSlot::kCols, direct ? direct->backward_scratch() : band_elems);
    float* dcols = dx_gemm ? thread_scratch(ScratchSlot::kColsGrad, band_elems)
                           : nullptr;
    for (std::size_t s = sb; s < se; ++s) {
      for (std::size_t n = s * span; n < std::min(batch, (s + 1) * span);
           ++n) {
        const float* x =
            input.data() + static_cast<std::int64_t>(n) * in_stride;
        const float* dy =
            grad_output.data() + static_cast<std::int64_t>(n) * out_stride;
        float* dx = input_grad ? grad_input.data() +
                                     static_cast<std::int64_t>(n) * in_stride
                               : nullptr;
        if (direct) {
          direct->backward(x, dy, dw_partial[s].data(), dx, cols);
        } else {
          for (std::int64_t r0 = 0; r0 < rows; r0 += band) {
            const std::int64_t r1 = std::min(rows, r0 + band);
            // Recompute the columns (cheaper than caching per sample).
            im2col(x, g, r0, r1, cols);
            gemm_band(dw_plan, dy, cols, dw_partial[s].data(), r0, r1,
                      /*accumulate=*/true);
            if (dx_gemm) {
              dx_gemm->run_band(r0, r1, dy, dcols, /*accumulate=*/false);
              col2im(dcols, g, r0, r1, dx);
            }
          }
        }
        if (opts_.bias) {
          for (std::int64_t co = 0; co < opts_.out_channels; ++co) {
            const float* chan = dy + co * OH * OW;
            double acc = 0.0;
            for (std::int64_t i = 0; i < OH * OW; ++i) acc += chan[i];
            db_partial[s][co] += static_cast<float>(acc);
          }
        }
      }
    }
  });
  for (std::size_t s = 0; s < slices; ++s) {
    add_inplace(weight_.grad, dw_partial[s]);
    if (opts_.bias) add_inplace(bias_.grad, db_partial[s]);
  }
  return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
  if (opts_.bias) return {&weight_, &bias_};
  return {&weight_};
}

std::string Conv2d::describe() const {
  return "Conv2d(" + name_ + ", " + std::to_string(opts_.in_channels) + "->" +
         std::to_string(opts_.out_channels) + ", k=" +
         std::to_string(opts_.kernel) + ", s=" + std::to_string(opts_.stride) +
         ", p=" + std::to_string(opts_.padding) + ", d=" +
         std::to_string(opts_.dilation) +
         (opts_.input_grad ? "" : ", no input grad") + ")";
}

}  // namespace fleda
