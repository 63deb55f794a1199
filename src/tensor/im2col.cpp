#include "tensor/im2col.hpp"

#include "common/error.hpp"
#include "tensor/gemm_kernel.hpp"  // ENS_RESTRICT

namespace ens {

// src/col (and col/dst below) are disjoint by contract (see im2col.hpp);
// the restrict qualification is what lets the compiler vectorize the
// stride-1 gather/scatter rows.
void im2col(const float* ENS_RESTRICT src, const ConvGeometry& geom, float* ENS_RESTRICT col,
            std::int64_t ld) {
    const std::int64_t out_h = geom.out_h();
    const std::int64_t out_w = geom.out_w();
    ENS_REQUIRE(out_h > 0 && out_w > 0, "im2col produces empty output");
    ENS_REQUIRE(ld >= out_h * out_w, "im2col: ld is shorter than a patch row");

    std::int64_t row = 0;
    for (std::int64_t c = 0; c < geom.in_channels; ++c) {
        const float* plane = src + c * geom.in_h * geom.in_w;
        for (std::int64_t kh = 0; kh < geom.kernel_h; ++kh) {
            for (std::int64_t kw = 0; kw < geom.kernel_w; ++kw, ++row) {
                float* out_row = col + row * ld;
                for (std::int64_t oh = 0; oh < out_h; ++oh) {
                    const std::int64_t ih = oh * geom.stride - geom.padding + kh;
                    if (ih < 0 || ih >= geom.in_h) {
                        for (std::int64_t ow = 0; ow < out_w; ++ow) {
                            out_row[oh * out_w + ow] = 0.0f;
                        }
                        continue;
                    }
                    const float* src_row = plane + ih * geom.in_w;
                    for (std::int64_t ow = 0; ow < out_w; ++ow) {
                        const std::int64_t iw = ow * geom.stride - geom.padding + kw;
                        out_row[oh * out_w + ow] =
                            (iw >= 0 && iw < geom.in_w) ? src_row[iw] : 0.0f;
                    }
                }
            }
        }
    }
}

void col2im(const float* ENS_RESTRICT col, const ConvGeometry& geom, float* ENS_RESTRICT dst) {
    const std::int64_t out_h = geom.out_h();
    const std::int64_t out_w = geom.out_w();
    const std::int64_t positions = out_h * out_w;

    std::int64_t row = 0;
    for (std::int64_t c = 0; c < geom.in_channels; ++c) {
        float* plane = dst + c * geom.in_h * geom.in_w;
        for (std::int64_t kh = 0; kh < geom.kernel_h; ++kh) {
            for (std::int64_t kw = 0; kw < geom.kernel_w; ++kw, ++row) {
                const float* in_row = col + row * positions;
                for (std::int64_t oh = 0; oh < out_h; ++oh) {
                    const std::int64_t ih = oh * geom.stride - geom.padding + kh;
                    if (ih < 0 || ih >= geom.in_h) {
                        continue;
                    }
                    float* dst_row = plane + ih * geom.in_w;
                    for (std::int64_t ow = 0; ow < out_w; ++ow) {
                        const std::int64_t iw = ow * geom.stride - geom.padding + kw;
                        if (iw >= 0 && iw < geom.in_w) {
                            dst_row[iw] += in_row[oh * out_w + ow];
                        }
                    }
                }
            }
        }
    }
}

}  // namespace ens
