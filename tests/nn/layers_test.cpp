#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/noise.hpp"
#include "nn/pooling.hpp"
#include "tensor/ops.hpp"

namespace ens::nn {
namespace {

TEST(Linear, OutputShapeAndBias) {
    Rng rng(1);
    Linear layer(4, 3, rng);
    layer.bias().value.fill(0.5f);
    const Tensor x = Tensor::zeros(Shape{2, 4});
    const Tensor y = layer.forward(x);
    EXPECT_EQ(y.shape(), Shape({2, 3}));
    for (std::int64_t i = 0; i < y.numel(); ++i) {
        EXPECT_FLOAT_EQ(y.at(i), 0.5f);  // zero input -> bias only
    }
}

TEST(Linear, RejectsWrongWidth) {
    Rng rng(1);
    Linear layer(4, 3, rng);
    EXPECT_THROW(layer.forward(Tensor(Shape{2, 5})), std::invalid_argument);
}

TEST(Conv2d, OutputGeometry) {
    Rng rng(2);
    Conv2d same(3, 8, 3, 1, 1, rng);
    EXPECT_EQ(same.forward(Tensor(Shape{2, 3, 16, 16})).shape(), Shape({2, 8, 16, 16}));
    Conv2d strided(3, 8, 3, 2, 1, rng);
    EXPECT_EQ(strided.forward(Tensor(Shape{2, 3, 16, 16})).shape(), Shape({2, 8, 8, 8}));
    Conv2d pointwise(8, 4, 1, 1, 0, rng);
    EXPECT_EQ(pointwise.forward(Tensor(Shape{1, 8, 5, 5})).shape(), Shape({1, 4, 5, 5}));
}

TEST(Conv2d, KnownConvolution) {
    Rng rng(3);
    Conv2d conv(1, 1, 3, 1, 1, rng);
    conv.weight().value.fill(1.0f);  // 3x3 box filter
    const Tensor x = Tensor::ones(Shape{1, 1, 3, 3});
    const Tensor y = conv.forward(x);
    // Center sees 9 ones, corners see 4, edges see 6.
    EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 9.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 6.0f);
}

TEST(Conv2d, FrozenWeightsSkipGradientAccumulation) {
    Rng rng(4);
    Conv2d conv(2, 2, 3, 1, 1, rng);
    set_requires_grad(conv, false);
    const Tensor x = Tensor::randn(Shape{1, 2, 4, 4}, rng);
    const Tensor y = conv.forward(x);
    conv.backward(Tensor::ones(y.shape()));
    EXPECT_FLOAT_EQ(squared_norm(conv.weight().grad), 0.0f);
}

TEST(Conv2d, BatchBackwardInputGradIsBitIdenticalToPerImageBackwards) {
    // Conv2d::backward reads each image's output gradient in place; image b
    // of a batch must get exactly the input gradient it gets on its own.
    Rng rng(0xBAC4);
    Conv2d conv(3, 8, 3, 2, 1, rng, /*with_bias=*/true);
    const std::int64_t batch = 3;
    const Tensor x = Tensor::randn(Shape{batch, 3, 6, 6}, rng);
    const Tensor y = conv.forward(x);
    const Tensor dy = Tensor::randn(y.shape(), rng);
    const Tensor dx = conv.backward(dy);
    const std::int64_t in_plane = x.numel() / batch;
    const std::int64_t out_plane = y.numel() / batch;
    for (std::int64_t b = 0; b < batch; ++b) {
        const Tensor xb = Tensor::from_vector(
            Shape{1, 3, 6, 6},
            std::vector<float>(x.data() + b * in_plane, x.data() + (b + 1) * in_plane));
        const Tensor dyb = Tensor::from_vector(
            Shape{1, 8, 3, 3},
            std::vector<float>(dy.data() + b * out_plane, dy.data() + (b + 1) * out_plane));
        (void)conv.forward(xb);
        const std::vector<float> expected = conv.backward(dyb).to_vector();
        const std::vector<float> got(dx.data() + b * in_plane, dx.data() + (b + 1) * in_plane);
        EXPECT_EQ(got, expected) << "image " << b;
    }
}

/// Conv2d folds g = clamp(out / positions, 1, batch) images into one GEMM.
/// Each case notes its g; batches 1-5 then cover unfolded, whole-batch and
/// ragged last groups.
struct FoldCase {
    std::int64_t in, out, kernel, stride, padding, hw;
};

class Conv2dFold : public ::testing::TestWithParam<FoldCase> {};

INSTANTIATE_TEST_SUITE_P(
    Geometries, Conv2dFold,
    ::testing::Values(FoldCase{3, 32, 3, 1, 1, 8},    // 64 positions, g = 1
                      FoldCase{8, 32, 3, 2, 1, 8},    // stride 2, 16 positions, g = 2
                      FoldCase{8, 32, 3, 1, 1, 2},    // 4 positions, g = 8
                      FoldCase{8, 12, 3, 1, 1, 2},    // 4 positions, g = 3
                      FoldCase{16, 24, 1, 2, 0, 4},   // 1x1 projection, 4 positions, g = 6
                      FoldCase{8, 16, 3, 1, 1, 1},    // 1 position, g = 16
                      FoldCase{4, 3, 3, 2, 1, 2},     // 1 position, g = 3
                      // 4 positions, g = batch: one group large enough that
                      // its GEMM splits its row strips over the pool.
                      FoldCase{64, 512, 3, 1, 1, 2}));

TEST_P(Conv2dFold, BatchForwardIsBitIdenticalToPerImageForwards) {
    const FoldCase p = GetParam();
    Rng rng(0xF01D + static_cast<std::uint64_t>(p.out * 100 + p.hw * 10 + p.kernel));
    Conv2d conv(p.in, p.out, p.kernel, p.stride, p.padding, rng, /*with_bias=*/true);
    const Tensor bias = Tensor::randn(Shape{p.out}, rng);
    conv.assign_parameters(conv.weight().value.clone(), &bias);
    conv.set_epilogue(Epilogue::relu);

    for (const bool training : {true, false}) {
        conv.set_training(training);
        for (std::int64_t batch = 1; batch <= 5; ++batch) {
            SCOPED_TRACE(std::string(training ? "training" : "eval") + ", batch " +
                         std::to_string(batch));
            const Tensor x = Tensor::randn(Shape{batch, p.in, p.hw, p.hw}, rng);
            const Tensor y = conv.forward(x);
            const std::int64_t in_plane = p.in * p.hw * p.hw;
            const std::int64_t out_plane = y.numel() / batch;
            for (std::int64_t b = 0; b < batch; ++b) {
                const Tensor xb = Tensor::from_vector(
                    Shape{1, p.in, p.hw, p.hw},
                    std::vector<float>(x.data() + b * in_plane, x.data() + (b + 1) * in_plane));
                const std::vector<float> expected = conv.forward(xb).to_vector();
                const std::vector<float> got(y.data() + b * out_plane,
                                             y.data() + (b + 1) * out_plane);
                EXPECT_EQ(got, expected) << "image " << b;
            }
        }
    }
}

TEST(BatchNorm2d, NormalizesBatchInTraining) {
    BatchNorm2d bn(2);
    bn.set_training(true);
    Rng rng(5);
    const Tensor x = Tensor::randn(Shape{8, 2, 4, 4}, rng, 3.0f, 2.0f);
    const Tensor y = bn.forward(x);
    // With gamma=1, beta=0 the per-channel output stats are ~N(0,1).
    for (std::int64_t c = 0; c < 2; ++c) {
        double sum = 0.0;
        double sq = 0.0;
        std::int64_t count = 0;
        for (std::int64_t n = 0; n < 8; ++n) {
            for (std::int64_t h = 0; h < 4; ++h) {
                for (std::int64_t w = 0; w < 4; ++w) {
                    const float v = y.at(n, c, h, w);
                    sum += v;
                    sq += static_cast<double>(v) * v;
                    ++count;
                }
            }
        }
        EXPECT_NEAR(sum / count, 0.0, 1e-4);
        EXPECT_NEAR(sq / count, 1.0, 1e-2);
    }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
    BatchNorm2d bn(1);
    bn.set_training(true);
    Rng rng(6);
    // Feed several batches so the running stats converge toward (3, 4).
    for (int i = 0; i < 60; ++i) {
        bn.forward(Tensor::randn(Shape{16, 1, 2, 2}, rng, 3.0f, 2.0f));
    }
    bn.set_training(false);
    const Tensor x = Tensor::full(Shape{1, 1, 1, 1}, 3.0f);
    const Tensor y = bn.forward(x);
    EXPECT_NEAR(y.at(0), 0.0f, 0.2f);  // mean input -> ~0 output
}

TEST(BatchNorm2d, RunningVarUsesBesselCorrection) {
    // PyTorch semantics: normalization uses the BIASED batch variance, but
    // the running estimate accumulates the UNBIASED one (n/(n-1)). With
    // momentum 1 the running stats equal the last batch's exactly, so the
    // hand-computed reference pins both at once.
    BatchNorm2d bn(1, 1e-5f, /*momentum=*/1.0f);
    bn.set_training(true);
    const Tensor x = Tensor::from_vector(Shape{4, 1, 1, 1}, {1.0f, 2.0f, 3.0f, 6.0f});
    bn.forward(x);

    const double mean = 3.0;                             // (1+2+3+6)/4
    const double biased_var = (4.0 + 1.0 + 0.0 + 9.0) / 4.0;
    const double unbiased_var = biased_var * 4.0 / 3.0;  // Bessel: n/(n-1)
    EXPECT_NEAR(bn.running_mean().at(0), mean, 1e-6);
    EXPECT_NEAR(bn.running_var().at(0), unbiased_var, 1e-6);

    // Eval-mode parity against the running stats the layer just wrote:
    // y = gamma * (x - rmean) / sqrt(rvar + eps) + beta.
    bn.set_training(false);
    const Tensor y = bn.forward(x);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
        const double expected = (x.at(i) - mean) / std::sqrt(unbiased_var + 1e-5);
        EXPECT_NEAR(y.at(i), expected, 1e-6);
    }
}

TEST(BatchNorm2d, EvalBackwardIsScale) {
    BatchNorm2d bn(1);
    bn.set_training(false);
    bn.running_var().fill(3.0f);
    bn.gamma().value.fill(2.0f);
    Rng rng(7);
    const Tensor x = Tensor::randn(Shape{2, 1, 2, 2}, rng);
    bn.forward(x);
    const Tensor dy = Tensor::ones(Shape{2, 1, 2, 2});
    const Tensor dx = bn.backward(dy);
    const float expected = 2.0f / std::sqrt(3.0f + 1e-5f);
    for (std::int64_t i = 0; i < dx.numel(); ++i) {
        EXPECT_NEAR(dx.at(i), expected, 1e-5f);
    }
}

TEST(ReLU, ZeroesNegatives) {
    ReLU relu;
    const Tensor x = Tensor::from_vector(Shape{1, 4}, {-1, 0, 2, -3});
    EXPECT_EQ(relu.forward(x).to_vector(), (std::vector<float>{0, 0, 2, 0}));
    const Tensor dx = relu.backward(Tensor::ones(Shape{1, 4}));
    EXPECT_EQ(dx.to_vector(), (std::vector<float>{0, 0, 1, 0}));
}

TEST(Sigmoid, RangeAndMidpoint) {
    Sigmoid sig;
    const Tensor x = Tensor::from_vector(Shape{1, 3}, {-100, 0, 100});
    const Tensor y = sig.forward(x);
    EXPECT_NEAR(y.at(0), 0.0f, 1e-6f);
    EXPECT_FLOAT_EQ(y.at(1), 0.5f);
    EXPECT_NEAR(y.at(2), 1.0f, 1e-6f);
}

TEST(MaxPool2d, SelectsMaxima) {
    MaxPool2d pool(2);
    const Tensor x =
        Tensor::from_vector(Shape{1, 1, 4, 4}, {1, 2, 5, 3,   //
                                                4, 0, 1, 1,   //
                                                9, 2, 0, 0,   //
                                                1, 1, 0, 7});
    const Tensor y = pool.forward(x);
    EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
    EXPECT_EQ(y.to_vector(), (std::vector<float>{4, 5, 9, 7}));

    const Tensor dx = pool.backward(Tensor::ones(y.shape()));
    EXPECT_FLOAT_EQ(dx.at(0, 0, 1, 0), 1.0f);  // the "4"
    EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(sum(dx), 4.0f);
}

TEST(GlobalAvgPool, AveragesPlanes) {
    GlobalAvgPool gap;
    const Tensor x = Tensor::from_vector(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
    const Tensor y = gap.forward(x);
    EXPECT_EQ(y.shape(), Shape({1, 2}));
    EXPECT_FLOAT_EQ(y.at(0, 0), 2.5f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 25.0f);
}

TEST(UpsampleNearest2d, RepeatsPixels) {
    UpsampleNearest2d up(2);
    const Tensor x = Tensor::from_vector(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
    const Tensor y = up.forward(x);
    EXPECT_EQ(y.shape(), Shape({1, 1, 4, 4}));
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 1.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 3, 3), 4.0f);
}

TEST(Dropout, EvalIdentityWhenNotAlwaysOn) {
    Dropout drop(0.5f, Rng(1), /*active_in_eval=*/false);
    drop.set_training(false);
    Rng rng(8);
    const Tensor x = Tensor::randn(Shape{4, 4}, rng);
    EXPECT_EQ(drop.forward(x).to_vector(), x.to_vector());
}

TEST(Dropout, ActiveInEvalMasks) {
    Dropout drop(0.5f, Rng(2), /*active_in_eval=*/true);
    drop.set_training(false);
    const Tensor x = Tensor::ones(Shape{64, 64});
    const Tensor y = drop.forward(x);
    std::int64_t zeros = 0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
        if (y.at(i) == 0.0f) {
            ++zeros;
        } else {
            EXPECT_FLOAT_EQ(y.at(i), 2.0f);  // inverted scaling 1/(1-p)
        }
    }
    const double rate = static_cast<double>(zeros) / y.numel();
    EXPECT_NEAR(rate, 0.5, 0.05);
}

TEST(Dropout, TrainingPreservesExpectation) {
    Dropout drop(0.3f, Rng(3));
    drop.set_training(true);
    const Tensor x = Tensor::ones(Shape{128, 128});
    EXPECT_NEAR(mean(drop.forward(x)), 1.0f, 0.03f);
}

TEST(FixedNoise, BroadcastsMaskOverBatch) {
    Rng rng(9);
    FixedNoise noise(Shape{2, 3, 3}, 0.5f, rng);
    const Tensor x = Tensor::zeros(Shape{4, 2, 3, 3});
    const Tensor y = noise.forward(x);
    for (std::int64_t n = 1; n < 4; ++n) {
        for (std::int64_t i = 0; i < 18; ++i) {
            EXPECT_FLOAT_EQ(y.at(n * 18 + i), y.at(i));  // same mask every sample
        }
    }
    EXPECT_GT(squared_norm(y), 0.0f);
}

TEST(FixedNoise, MaskIsFixedAcrossCalls) {
    Rng rng(10);
    FixedNoise noise(Shape{1, 2, 2}, 0.5f, rng);
    const Tensor x = Tensor::zeros(Shape{1, 1, 2, 2});
    EXPECT_EQ(noise.forward(x).to_vector(), noise.forward(x).to_vector());
}

TEST(FixedNoise, NonTrainableExposesNoParams) {
    Rng rng(11);
    FixedNoise fixed(Shape{1, 2, 2}, 0.1f, rng);
    EXPECT_TRUE(fixed.parameters().empty());
    FixedNoise learned(Shape{1, 2, 2}, 0.1f, rng, true);
    EXPECT_EQ(learned.parameters().size(), 1u);
}

TEST(Flatten, RoundTrip) {
    Flatten flatten;
    Rng rng(12);
    const Tensor x = Tensor::randn(Shape{2, 3, 4, 5}, rng);
    const Tensor y = flatten.forward(x);
    EXPECT_EQ(y.shape(), Shape({2, 60}));
    const Tensor dx = flatten.backward(Tensor::ones(y.shape()));
    EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Reshape, AddsSpatialAxes) {
    Reshape reshape(Shape{3, 2, 2});
    const Tensor x = Tensor::zeros(Shape{4, 12});
    EXPECT_EQ(reshape.forward(x).shape(), Shape({4, 3, 2, 2}));
}

}  // namespace
}  // namespace ens::nn
