#include "tensor/im2col.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace ens {
namespace {

TEST(Im2col, Identity1x1) {
    ConvGeometry geom;
    geom.in_channels = 2;
    geom.in_h = 3;
    geom.in_w = 3;
    geom.kernel_h = 1;
    geom.kernel_w = 1;
    Rng rng(1);
    const Tensor x = Tensor::randn(Shape{2, 3, 3}, rng);
    Tensor col(Shape{geom.patch_size(), geom.out_positions()});
    im2col(x.data(), geom, col.data());
    EXPECT_EQ(col.to_vector(), x.to_vector());
}

TEST(Im2col, KnownPatch3x3) {
    ConvGeometry geom;
    geom.in_channels = 1;
    geom.in_h = 3;
    geom.in_w = 3;
    geom.kernel_h = 2;
    geom.kernel_w = 2;
    const Tensor x = Tensor::from_vector(Shape{1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
    Tensor col(Shape{geom.patch_size(), geom.out_positions()});
    im2col(x.data(), geom, col.data());
    // Rows are kernel offsets, columns are the 4 output positions.
    EXPECT_EQ(col.to_vector(),
              (std::vector<float>{1, 2, 4, 5,   // k(0,0)
                                  2, 3, 5, 6,   // k(0,1)
                                  4, 5, 7, 8,   // k(1,0)
                                  5, 6, 8, 9}));  // k(1,1)
}

TEST(Im2col, PaddingFillsZeros) {
    ConvGeometry geom;
    geom.in_channels = 1;
    geom.in_h = 2;
    geom.in_w = 2;
    geom.kernel_h = 3;
    geom.kernel_w = 3;
    geom.padding = 1;
    const Tensor x = Tensor::from_vector(Shape{1, 2, 2}, {1, 2, 3, 4});
    Tensor col(Shape{geom.patch_size(), geom.out_positions()});
    im2col(x.data(), geom, col.data());
    // k(0,0) looks up-left: only the bottom-right output position sees x[0].
    EXPECT_EQ(col.at(0 * 4 + 0), 0.0f);
    EXPECT_EQ(col.at(0 * 4 + 3), 1.0f);
    // Center tap k(1,1) reproduces the image.
    EXPECT_EQ(col.at(4 * 4 + 0), 1.0f);
    EXPECT_EQ(col.at(4 * 4 + 3), 4.0f);
}

TEST(Im2col, StrideSkipsPositions) {
    ConvGeometry geom;
    geom.in_channels = 1;
    geom.in_h = 4;
    geom.in_w = 4;
    geom.kernel_h = 2;
    geom.kernel_w = 2;
    geom.stride = 2;
    EXPECT_EQ(geom.out_h(), 2);
    EXPECT_EQ(geom.out_w(), 2);
}

TEST(Im2col, LeadingDimensionWritesOnlyItsColumnBlock) {
    // Conv2d's batch fold: image b writes its [patch, positions] block at
    // column offset b * positions of a wider matrix.
    ConvGeometry geom;
    geom.in_channels = 3;
    geom.in_h = 5;
    geom.in_w = 4;
    geom.kernel_h = 3;
    geom.kernel_w = 3;
    geom.stride = 2;
    geom.padding = 1;
    Rng rng(13);
    const Tensor x = Tensor::randn(Shape{3, 5, 4}, rng);
    const std::int64_t positions = geom.out_positions();
    const std::int64_t rows = geom.patch_size();
    Tensor block(Shape{rows, positions});
    im2col(x.data(), geom, block.data());

    const std::int64_t ld = 3 * positions + 1;
    const std::int64_t offset = positions + 1;
    constexpr float kSentinel = -1234.5f;
    Tensor wide(Shape{rows, ld});
    wide.fill(kSentinel);
    im2col(x.data(), geom, wide.data() + offset, ld);
    for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t j = 0; j < ld; ++j) {
            const float got = wide.data()[r * ld + j];
            if (j >= offset && j < offset + positions) {
                ASSERT_EQ(got, block.data()[r * positions + (j - offset)])
                    << "row " << r << " col " << j;
            } else {
                ASSERT_EQ(got, kSentinel) << "wrote outside its block: row " << r << " col " << j;
            }
        }
    }
}

/// col2im must be the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.
TEST(Im2col, Col2imIsAdjoint) {
    ConvGeometry geom;
    geom.in_channels = 3;
    geom.in_h = 6;
    geom.in_w = 5;
    geom.kernel_h = 3;
    geom.kernel_w = 3;
    geom.stride = 2;
    geom.padding = 1;

    Rng rng(7);
    const Tensor x = Tensor::randn(Shape{geom.in_channels, geom.in_h, geom.in_w}, rng);
    const Tensor y = Tensor::randn(Shape{geom.patch_size(), geom.out_positions()}, rng);

    Tensor col(Shape{geom.patch_size(), geom.out_positions()});
    im2col(x.data(), geom, col.data());

    Tensor back(Shape{geom.in_channels, geom.in_h, geom.in_w});
    col2im(y.data(), geom, back.data());

    EXPECT_NEAR(dot(col, y), dot(x, back), 1e-3f);
}

}  // namespace
}  // namespace ens
