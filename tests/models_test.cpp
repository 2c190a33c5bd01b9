// Tests for the three routability models: Table 1 conformance for
// FLNet, shape contracts, gradient flow (skipping the first conv's
// data gradient leaves every parameter gradient bitwise unchanged),
// parameter-count ordering (FLNet << RouteNet < PROS per the paper's
// robustness argument), the registry, and shortcut gradient
// correctness in RouteNet.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>

#include "models/flnet.hpp"
#include "models/pros.hpp"
#include "models/registry.hpp"
#include "models/routenet.hpp"
#include "nn/batchnorm2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/pixel_shuffle.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace fleda {
namespace {

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

TEST(FLNetTable1, ArchitectureMatchesPaper) {
  Rng rng(1);
  FLNetOptions opts;
  opts.in_channels = 6;
  FLNet net(opts, rng);
  auto params = net.parameters();
  ASSERT_EQ(params.size(), 4u);  // 2 conv layers x (weight, bias)
  // input_conv: 9x9, 64 filters.
  EXPECT_EQ(params[0]->name, "input_conv.weight");
  EXPECT_EQ(params[0]->value.shape(), (Shape{64, 6 * 81}));
  EXPECT_EQ(params[1]->value.shape(), (Shape{64}));
  // output_conv: 9x9, 1 filter, no activation after it.
  EXPECT_EQ(params[2]->name, "output_conv.weight");
  EXPECT_EQ(params[2]->value.shape(), (Shape{1, 64 * 81}));
  // No BatchNorm -> no buffers.
  EXPECT_TRUE(net.buffers().empty());
}

TEST(FLNetTable1, OutputIsUnactivated) {
  // With a negative output bias, predictions must go negative — no
  // output activation (Table 1: Activation "None").
  Rng rng(2);
  FLNetOptions opts;
  opts.in_channels = 2;
  FLNet net(opts, rng);
  net.parameters()[3]->value.fill(-5.0f);  // output bias
  Tensor out = net.forward(Tensor(Shape{1, 2, 12, 12}), false);
  EXPECT_LT(min_value(out), 0.0f);
}

class AllModels : public ::testing::TestWithParam<ModelKind> {};

TEST_P(AllModels, PreservesSpatialShape) {
  Rng rng(3);
  RoutabilityModelPtr model = make_model(GetParam(), 6, rng);
  Tensor x = random_tensor(Shape::of(2, 6, 16, 16), rng);
  Tensor y = model->forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 1, 16, 16})) << model->model_name();
}

// ---- Full-backward twins ----
// Each model rebuilt from its public layers, under the model's layer
// names, with every conv computing its input gradient: the backward the
// models ran before their first conv stopped computing dL/d(input).

Conv2dOptions twin_conv(std::int64_t cin, std::int64_t cout,
                        std::int64_t kernel, std::int64_t stride = 1,
                        std::int64_t dilation = 1) {
  Conv2dOptions c;
  c.in_channels = cin;
  c.out_channels = cout;
  c.kernel = kernel;
  c.stride = stride;
  c.dilation = dilation;
  return c.same_padding();
}

void twin_conv_bn_relu(Sequential& net, const std::string& name,
                       const Conv2dOptions& c, Rng& rng) {
  net.emplace<Conv2d>(name, c, rng);
  net.emplace<BatchNorm2d>(name + "_bn", BatchNorm2dOptions{c.out_channels});
  net.emplace<ReLU>(name + "_relu");
}

class RouteNetTwin : public Module {
 public:
  RouteNetTwin(std::int64_t cin, std::int64_t f, Rng& rng)
      : conv1_("conv1", twin_conv(cin, f, 9), rng),
        conv2_("conv2", twin_conv(f, 2 * f, 7), rng),
        conv3_("conv3", twin_conv(2 * f, f, 9), rng),
        conv4_("conv4", twin_conv(f, f, 7), rng),
        deconv_("deconv", ConvTranspose2dOptions{f, f, 4, 2, 1, true}, rng),
        output_conv_("output_conv", twin_conv(f, 1, 5), rng) {}

  Tensor forward(const Tensor& x, bool t) override {
    Tensor a = relu1_.forward(conv1_.forward(x, t), t);
    Tensor b = relu2_.forward(conv2_.forward(a, t), t);
    Tensor c = relu3_.forward(conv3_.forward(pool_.forward(b, t), t), t);
    Tensor d = relu4_.forward(conv4_.forward(c, t), t);
    Tensor u = relu5_.forward(deconv_.forward(d, t), t);
    return output_conv_.forward(add(u, a), t);
  }
  Tensor backward(const Tensor& g) override {
    Tensor gs = output_conv_.backward(g);
    Tensor gu = deconv_.backward(relu5_.backward(gs));
    gu = conv3_.backward(relu3_.backward(conv4_.backward(relu4_.backward(gu))));
    Tensor ga = conv2_.backward(relu2_.backward(pool_.backward(gu)));
    add_inplace(ga, gs);
    return conv1_.backward(relu1_.backward(ga));
  }
  std::vector<Parameter*> parameters() override {
    std::vector<Parameter*> params;
    for (Module* m : std::initializer_list<Module*>{
             &conv1_, &conv2_, &conv3_, &conv4_, &output_conv_, &deconv_}) {
      for (Parameter* p : m->parameters()) params.push_back(p);
    }
    return params;
  }
  std::string describe() const override { return "RouteNet twin"; }

 private:
  Conv2d conv1_, conv2_, conv3_, conv4_;
  ConvTranspose2d deconv_;
  Conv2d output_conv_;
  ReLU relu1_{"relu1"}, relu2_{"relu2"}, relu3_{"relu3"}, relu4_{"relu4"},
      relu5_{"relu5"};
  MaxPool2d pool_{"pool", MaxPool2dOptions{2, 2}};
};

std::unique_ptr<Module> full_backward_twin(ModelKind kind, std::int64_t cin,
                                           Rng& rng) {
  if (kind == ModelKind::kRouteNet) {
    return std::make_unique<RouteNetTwin>(cin, RouteNetOptions{}.base_filters,
                                          rng);
  }
  auto net = std::make_unique<Sequential>("twin");
  if (kind == ModelKind::kFLNet) {
    const FLNetOptions o;
    const std::int64_t f = o.hidden_filters;
    net->emplace<Conv2d>("input_conv", twin_conv(cin, f, o.kernel), rng);
    net->emplace<ReLU>("relu");
    net->emplace<Conv2d>("output_conv", twin_conv(f, 1, o.kernel), rng);
    return net;
  }
  const PROSOptions o;
  const std::int64_t f = o.base_filters;
  twin_conv_bn_relu(*net, "enc1", twin_conv(cin, f, 3, 2), rng);
  twin_conv_bn_relu(*net, "enc2", twin_conv(f, 2 * f, 3, 2), rng);
  for (std::size_t i = 0; i < o.dilations.size(); ++i) {
    twin_conv_bn_relu(*net, "dil" + std::to_string(i + 1),
                      twin_conv(2 * f, 2 * f, 3, 1, o.dilations[i]), rng);
  }
  net->emplace<Conv2d>("up1", twin_conv(2 * f, f * 4, 3), rng);
  net->emplace<PixelShuffle>("up1_shuffle", 2);
  net->emplace<BatchNorm2d>("up1_bn", BatchNorm2dOptions{f});
  net->emplace<ReLU>("up1_relu");
  twin_conv_bn_relu(*net, "refine1", twin_conv(f, f, 3), rng);
  net->emplace<Conv2d>("up2", twin_conv(f, (f / 2) * 4, 3), rng);
  net->emplace<PixelShuffle>("up2_shuffle", 2);
  net->emplace<BatchNorm2d>("up2_bn", BatchNorm2dOptions{f / 2});
  net->emplace<ReLU>("up2_relu");
  twin_conv_bn_relu(*net, "refine2", twin_conv(f / 2, f / 2, 3), rng);
  net->emplace<Conv2d>("output_conv", twin_conv(f / 2, 1, 3), rng);
  return net;
}

// The models' first conv computes no data gradient; every parameter
// gradient must still be bit for bit that of the full backward.
TEST_P(AllModels, FirstConvSkipsDataGradientWithIdenticalParameterGrads) {
  Rng rng(4);
  RoutabilityModelPtr model = make_model(GetParam(), 6, rng);
  Rng twin_rng(4);
  std::unique_ptr<Module> twin = full_backward_twin(GetParam(), 6, twin_rng);
  std::map<std::string, Parameter*> twin_params;
  for (Parameter* p : twin->parameters()) twin_params[p->name] = p;
  ASSERT_EQ(twin_params.size(), model->parameters().size());
  for (Parameter* p : model->parameters()) {
    ASSERT_EQ(twin_params.count(p->name), 1u) << p->name;
    twin_params[p->name]->value = p->value;
  }

  Tensor x = random_tensor(Shape::of(2, 6, 16, 16), rng);
  Tensor g = random_tensor(Shape::of(2, 1, 16, 16), rng);
  model->zero_grad();
  twin->zero_grad();
  model->forward(x, true);
  twin->forward(x, true);
  EXPECT_TRUE(model->backward(g).empty());
  EXPECT_EQ(twin->backward(g).shape(), x.shape());
  for (Parameter* p : model->parameters()) {
    const Tensor& want = twin_params[p->name]->grad;
    EXPECT_EQ(0, std::memcmp(p->grad.data(), want.data(),
                             static_cast<std::size_t>(want.numel()) *
                                 sizeof(float)))
        << model->model_name() << ": " << p->name;
  }
}

TEST_P(AllModels, AllParametersReceiveGradient) {
  Rng rng(5);
  RoutabilityModelPtr model = make_model(GetParam(), 6, rng);
  model->zero_grad();
  Tensor x = random_tensor(Shape::of(2, 6, 16, 16), rng);
  Tensor y = model->forward(x, true);
  Tensor g = random_tensor(y.shape(), rng);
  model->backward(g);
  for (Parameter* p : model->parameters()) {
    EXPECT_GT(squared_norm(p->grad), 0.0)
        << model->model_name() << ": dead parameter " << p->name;
  }
}

TEST_P(AllModels, ParameterNamesAreUnique) {
  Rng rng(6);
  RoutabilityModelPtr model = make_model(GetParam(), 6, rng);
  std::set<std::string> names;
  for (Parameter* p : model->parameters()) {
    EXPECT_TRUE(names.insert(p->name).second)
        << "duplicate parameter name " << p->name;
  }
  for (NamedBuffer b : model->buffers()) {
    EXPECT_TRUE(names.insert(b.name).second)
        << "duplicate buffer name " << b.name;
  }
}

TEST_P(AllModels, HasOutputConvForLGSplit) {
  Rng rng(7);
  RoutabilityModelPtr model = make_model(GetParam(), 6, rng);
  int output_params = 0;
  for (Parameter* p : model->parameters()) {
    if (p->name.rfind("output_conv", 0) == 0) ++output_params;
  }
  EXPECT_EQ(output_params, 2) << model->model_name();
}

TEST_P(AllModels, TrainingStepReducesLossOnFixedBatch) {
  Rng rng(8);
  RoutabilityModelPtr model = make_model(GetParam(), 6, rng);
  Tensor x = random_tensor(Shape::of(2, 6, 16, 16), rng);
  // Smooth learnable target: mean of two input channels.
  Tensor y(Shape{2, 1, 16, 16});
  for (std::int64_t n = 0; n < 2; ++n) {
    for (std::int64_t i = 0; i < 256; ++i) {
      y[n * 256 + i] = 0.5f * (x[(n * 6) * 256 + i] + x[(n * 6 + 1) * 256 + i]);
    }
  }
  AdamOptions aopts;
  aopts.lr = 1e-3;
  aopts.weight_decay = 0.0;
  Adam adam(model->parameters(), aopts);
  float first = -1, last = -1;
  for (int step = 0; step < 60; ++step) {
    adam.zero_grad();
    Tensor pred = model->forward(x, true);
    LossResult loss = mse_loss(pred, y);
    if (step == 0) first = loss.value;
    last = loss.value;
    model->backward(loss.grad);
    adam.step();
  }
  EXPECT_LT(last, first) << model->model_name();
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllModels,
                         ::testing::Values(ModelKind::kFLNet,
                                           ModelKind::kRouteNet,
                                           ModelKind::kPROS),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(ModelComplexity, FLNetIsSmallestRouteNetBiggerProsHasBN) {
  Rng rng(9);
  RoutabilityModelPtr flnet = make_model(ModelKind::kFLNet, 6, rng);
  RoutabilityModelPtr routenet = make_model(ModelKind::kRouteNet, 6, rng);
  RoutabilityModelPtr pros = make_model(ModelKind::kPROS, 6, rng);

  // The paper's §4.2 premise: FLNet has much fewer parameters.
  EXPECT_LT(flnet->num_parameters(), routenet->num_parameters() / 5);
  EXPECT_LT(flnet->num_parameters(), pros->num_parameters());

  // PROS is the only model with BatchNorm state.
  EXPECT_TRUE(flnet->buffers().empty());
  EXPECT_TRUE(routenet->buffers().empty());
  EXPECT_FALSE(pros->buffers().empty());
}

TEST(RouteNetShortcut, GradientMatchesFiniteDifference) {
  // Spot finite-difference check through the shortcut junction: pick a
  // few weights of conv1 (feeding both branches) and compare.
  Rng rng(10);
  RouteNetOptions opts;
  opts.in_channels = 2;
  opts.base_filters = 4;
  RouteNet net(opts, rng);

  Tensor x = random_tensor(Shape::of(1, 2, 8, 8), rng);
  Tensor g = random_tensor(Shape::of(1, 1, 8, 8), rng);

  auto loss = [&]() {
    Tensor out = net.forward(x, true);
    return dot(out, g);
  };
  net.zero_grad();
  net.forward(x, true);
  net.backward(g);
  Parameter* conv1_w = net.parameters()[0];
  ASSERT_EQ(conv1_w->name, "conv1.weight");
  Tensor analytic = conv1_w->grad;

  const double eps = 1e-2;
  double max_err = 0.0, max_ref = 1e-6;
  for (std::int64_t i = 0; i < std::min<std::int64_t>(20, conv1_w->value.numel());
       ++i) {
    const float orig = conv1_w->value[i];
    conv1_w->value[i] = orig + static_cast<float>(eps);
    const double lp = loss();
    conv1_w->value[i] = orig - static_cast<float>(eps);
    const double lm = loss();
    conv1_w->value[i] = orig;
    const double numeric = (lp - lm) / (2 * eps);
    max_err = std::max(max_err, std::fabs(numeric - analytic[i]));
    max_ref = std::max(max_ref, std::fabs(numeric));
  }
  EXPECT_LT(max_err / max_ref, 5e-2);
}

TEST(PROSStructure, UsesDilatedConvsAndPixelShuffle) {
  Rng rng(11);
  PROSOptions opts;
  opts.in_channels = 6;
  PROS net(opts, rng);
  const std::string desc = net.describe();
  EXPECT_NE(desc.find("dilated"), std::string::npos);
  EXPECT_NE(desc.find("sub-pixel"), std::string::npos);
  // Input must be divisible by 4 (two stride-2 encoders); 16 works.
  Tensor out = net.forward(Tensor(Shape{1, 6, 16, 16}), true);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 16, 16}));
}

TEST(Registry, ParseAndToStringRoundTrip) {
  for (ModelKind kind :
       {ModelKind::kFLNet, ModelKind::kRouteNet, ModelKind::kPROS}) {
    EXPECT_EQ(parse_model_kind(to_string(kind)), kind);
  }
  EXPECT_THROW(parse_model_kind("resnet"), std::invalid_argument);
}

TEST(Registry, FactoryProducesIndependentInstances) {
  Rng rng(12);
  ModelFactory factory = make_model_factory(ModelKind::kFLNet, 6);
  RoutabilityModelPtr a = factory(rng);
  RoutabilityModelPtr b = factory(rng);
  // Different random init (rng advanced between calls).
  EXPECT_GT(max_abs_diff(a->parameters()[0]->value,
                         b->parameters()[0]->value),
            0.0f);
  // Mutating one must not affect the other.
  a->parameters()[0]->value.fill(0.0f);
  EXPECT_GT(squared_norm(b->parameters()[0]->value), 0.0);
}

}  // namespace
}  // namespace fleda
