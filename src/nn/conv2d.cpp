#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "tensor/ops.hpp"

namespace ens::nn {

void apply_epilogue(Epilogue epilogue, float slope, float* data, std::int64_t n) {
    switch (epilogue) {
        case Epilogue::none:
            return;
        case Epilogue::relu:
            for (std::int64_t i = 0; i < n; ++i) {
                data[i] = data[i] > 0.0f ? data[i] : 0.0f;
            }
            return;
        case Epilogue::leaky_relu:
            for (std::int64_t i = 0; i < n; ++i) {
                data[i] = data[i] > 0.0f ? data[i] : slope * data[i];
            }
            return;
    }
}

std::string epilogue_suffix(Epilogue epilogue, float slope) {
    switch (epilogue) {
        case Epilogue::none: return "";
        case Epilogue::relu: return "+relu";
        case Epilogue::leaky_relu: return "+leaky_relu(" + std::to_string(slope) + ")";
    }
    return "";
}

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t padding, Rng& rng, bool with_bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      with_bias_(with_bias) {
    ENS_REQUIRE(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0 && padding >= 0,
                "Conv2d: bad geometry");
    const std::int64_t fan_in = in_channels * kernel * kernel;
    const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
    weight_ = Parameter("weight", Tensor::randn(Shape{out_channels, fan_in}, rng, 0.0f, stddev));
    if (with_bias_) {
        bias_ = Parameter("bias", Tensor::zeros(Shape{out_channels}));
    }
}

ConvGeometry Conv2d::geometry_for(const Tensor& input) const {
    ENS_REQUIRE(input.rank() == 4 && input.dim(1) == in_channels_,
                "Conv2d: input shape mismatch, got " + input.shape().to_string());
    ConvGeometry geom;
    geom.in_channels = in_channels_;
    geom.in_h = input.dim(2);
    geom.in_w = input.dim(3);
    geom.kernel_h = kernel_;
    geom.kernel_w = kernel_;
    geom.stride = stride_;
    geom.padding = padding_;
    ENS_REQUIRE(geom.out_h() > 0 && geom.out_w() > 0, "Conv2d: output collapses to zero size");
    return geom;
}

namespace {

/// `buffer` with room for at least `floats` floats. Forward scratch is
/// thread-local and only ever grows, so steady-state forwards allocate none;
/// each thread keeps the largest patch matrix (and folded output) it has
/// needed resident for its lifetime.
float* grown(std::vector<float>& buffer, std::int64_t floats) {
    if (buffer.size() < static_cast<std::size_t>(floats)) {
        buffer.resize(static_cast<std::size_t>(floats));
    }
    return buffer.data();
}

}  // namespace

Tensor Conv2d::forward(const Tensor& input) {
    const ConvGeometry geom = geometry_for(input);
    cached_input_ = input;
    const std::int64_t batch = input.dim(0);
    const std::int64_t positions = geom.out_positions();
    const std::int64_t patch = geom.patch_size();
    Tensor output(Shape{batch, out_channels_, geom.out_h(), geom.out_w()});

    const std::int64_t in_plane = in_channels_ * geom.in_h * geom.in_w;
    const std::int64_t out_plane = out_channels_ * positions;

    // Eval mode reuses a packed copy of the weight across every group (and
    // every request — the pack survives between forwards). The packed and
    // unpacked paths are bit-identical (see gemm_kernel.hpp), so toggling
    // modes never changes outputs.
    const bool use_packed = !training_;
    if (use_packed && !packed_weight_.defined()) {
        kernel::pack_a_into(packed_weight_, weight_.value.data(), weight_.value.dim(1),
                            /*trans_a=*/false, out_channels_, weight_.value.dim(1));
    }

    // Fold `group` images into one GEMM, [O, K] @ [K, group * P], so the
    // weight streams through the cache once per group instead of once per
    // image. group * P <= O keeps the patch matrix no larger than the
    // weight, so scratch stays bounded at any batch. Each C element is
    // computed on its own (gemm_kernel.hpp), so folding changes no bit.
    const std::int64_t group =
        std::max<std::int64_t>(1, std::min(out_channels_ / positions, batch));
    const std::int64_t groups = (batch + group - 1) / group;
    // Folding a whole batch into one group leaves the loop below nothing to
    // spread, so that GEMM splits its row strips over the pool instead. A
    // batch of one stays serial: splitting a batch-1 client head costs more
    // pool hand-offs than it saves. On a pool worker or a fan-out lane both
    // run inline.
    const bool gemm_parallel = groups == 1 && batch > 1;

    parallel_for(0, static_cast<std::size_t>(groups), [&](std::size_t lo, std::size_t hi) {
        thread_local std::vector<float> col_scratch;
        thread_local std::vector<float> out_scratch;
        for (std::size_t g = lo; g < hi; ++g) {
            const std::int64_t first = static_cast<std::int64_t>(g) * group;
            const std::int64_t count = std::min(group, batch - first);
            const std::int64_t cols = count * positions;
            float* col = grown(col_scratch, patch * cols);
            // A lone image's C[O, P] already is its NCHW plane: the GEMM
            // writes it in place and only folded groups need scattering.
            float* const first_dst = output.data() + first * out_plane;
            float* out = count == 1 ? first_dst : grown(out_scratch, out_channels_ * cols);
            for (std::int64_t b = 0; b < count; ++b) {
                im2col(input.data() + (first + b) * in_plane, geom, col + b * positions, cols);
            }
            if (use_packed) {
                kernel::gemm_packed_a(packed_weight_, col, cols, /*trans_b=*/false, cols, out,
                                      cols, 1.0f, 0.0f, gemm_parallel);
            } else {
                kernel::gemm_blocked(out_channels_, cols, patch, weight_.value.data(), patch,
                                     /*trans_a=*/false, col, cols, /*trans_b=*/false, out, cols,
                                     1.0f, 0.0f, gemm_parallel);
            }
            // Scatter C[O, count * P] back to NCHW, adding the bias.
            for (std::int64_t b = 0; b < count; ++b) {
                float* dst = first_dst + b * out_plane;
                for (std::int64_t c = 0; c < out_channels_; ++c) {
                    const float* src = out + c * cols + b * positions;
                    float* dst_row = dst + c * positions;
                    if (with_bias_) {
                        const float bc = bias_.value.data()[c];
                        for (std::int64_t p = 0; p < positions; ++p) {
                            dst_row[p] = src[p] + bc;
                        }
                    } else if (src != dst_row) {
                        std::copy(src, src + positions, dst_row);
                    }
                }
                apply_epilogue(epilogue_, epilogue_slope_, dst, out_plane);
            }
        }
    });
    return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
    ENS_CHECK(epilogue_ == Epilogue::none,
              "Conv2d::backward: layer has a fused activation epilogue (compiled, "
              "inference-only)");
    ENS_CHECK(cached_input_.defined(), "Conv2d::backward before forward");
    const ConvGeometry geom = geometry_for(cached_input_);
    const std::int64_t batch = cached_input_.dim(0);
    const std::int64_t positions = geom.out_positions();
    const std::int64_t patch = geom.patch_size();
    ENS_REQUIRE(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
                    grad_output.dim(1) == out_channels_ && grad_output.dim(2) == geom.out_h() &&
                    grad_output.dim(3) == geom.out_w(),
                "Conv2d: grad shape mismatch");

    Tensor grad_input(cached_input_.shape());
    const std::int64_t in_plane = in_channels_ * geom.in_h * geom.in_w;
    const std::int64_t out_plane = out_channels_ * positions;
    const bool want_wgrad = weight_.requires_grad;

    // Per-chunk weight-gradient partials, keyed by chunk start so the final
    // reduction below runs in a deterministic order regardless of thread
    // scheduling (float addition is not associative).
    std::mutex accum_mutex;
    std::map<std::size_t, std::pair<Tensor, Tensor>> partials;
    parallel_for(0, static_cast<std::size_t>(batch), [&](std::size_t lo, std::size_t hi) {
        Tensor col(Shape{patch, positions});
        Tensor dcol(Shape{patch, positions});
        Tensor local_wgrad = want_wgrad ? Tensor::zeros(weight_.value.shape()) : Tensor();
        Tensor local_bgrad =
            (want_wgrad && with_bias_) ? Tensor::zeros(Shape{out_channels_}) : Tensor();

        for (std::size_t n = lo; n < hi; ++n) {
            const float* x_n = cached_input_.data() + static_cast<std::int64_t>(n) * in_plane;
            // dY_n [O, P], read in place.
            const float* dy = grad_output.data() + static_cast<std::int64_t>(n) * out_plane;

            if (want_wgrad) {
                // dW += dY_n @ col_n^T  (recompute col; cheaper than caching
                // the whole batch of patch matrices)
                im2col(x_n, geom, col.data());
                kernel::gemm_blocked(out_channels_, patch, positions, dy, positions,
                                     /*trans_a=*/false, col.data(), positions, /*trans_b=*/true,
                                     local_wgrad.data(), patch, 1.0f, 1.0f, /*parallel=*/false);
                if (with_bias_) {
                    float* db = local_bgrad.data();
                    for (std::int64_t c = 0; c < out_channels_; ++c) {
                        for (std::int64_t p = 0; p < positions; ++p) {
                            db[c] += dy[c * positions + p];
                        }
                    }
                }
            }

            // dcol = W^T @ dY_n ; scatter back to the input gradient.
            kernel::gemm_blocked(patch, positions, out_channels_, weight_.value.data(), patch,
                                 /*trans_a=*/true, dy, positions, /*trans_b=*/false, dcol.data(),
                                 positions, 1.0f, 0.0f, /*parallel=*/false);
            col2im(dcol.data(), geom, grad_input.data() + static_cast<std::int64_t>(n) * in_plane);
        }

        if (want_wgrad) {
            const std::lock_guard<std::mutex> lock(accum_mutex);
            partials.emplace(lo, std::make_pair(std::move(local_wgrad), std::move(local_bgrad)));
        }
    });
    for (auto& [lo, grads] : partials) {
        weight_.grad.add_(grads.first);
        if (with_bias_) {
            bias_.grad.add_(grads.second);
        }
    }
    return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
    if (with_bias_) {
        return {&weight_, &bias_};
    }
    return {&weight_};
}

void Conv2d::set_training(bool training) {
    Layer::set_training(training);
    if (training) {
        packed_weight_.clear();
    }
}

void Conv2d::on_parameters_changed() { packed_weight_.clear(); }

void Conv2d::assign_parameters(const Tensor& weight, const Tensor* bias) {
    ENS_REQUIRE(weight.shape() == weight_.value.shape(),
                "Conv2d::assign_parameters: weight shape " + weight.shape().to_string() +
                    " != " + weight_.value.shape().to_string());
    ENS_REQUIRE((bias != nullptr) == with_bias_,
                "Conv2d::assign_parameters: bias presence must match with_bias");
    weight_.value.copy_from(weight);
    if (bias != nullptr) {
        ENS_REQUIRE(bias->shape() == bias_.value.shape(),
                    "Conv2d::assign_parameters: bias shape mismatch");
        bias_.value.copy_from(*bias);
    }
    on_parameters_changed();
}

void Conv2d::set_epilogue(Epilogue epilogue, float slope) {
    epilogue_ = epilogue;
    epilogue_slope_ = slope;
}

void Conv2d::prepare_inference() {
    set_training(false);
    kernel::pack_a_into(packed_weight_, weight_.value.data(), weight_.value.dim(1),
                        /*trans_a=*/false, out_channels_, weight_.value.dim(1));
}

std::string Conv2d::name() const {
    return "Conv2d(" + std::to_string(in_channels_) + "->" + std::to_string(out_channels_) +
           ", k" + std::to_string(kernel_) + " s" + std::to_string(stride_) + " p" +
           std::to_string(padding_) + ")" + epilogue_suffix(epilogue_, epilogue_slope_);
}

}  // namespace ens::nn
