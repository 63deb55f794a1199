// GEMM micro-kernel trajectory: naive reference vs the blocked/packed
// kernel, across square sizes and the GEMM shapes the split-ResNet bodies
// actually run (conv-as-GEMM is [out_ch, patch] @ [patch, positions]; the
// tail Linear is [batch, features] @ [features, classes]^T).
//
// Emits BENCH_kernels.json (schema in docs/BENCHMARKS.md):
//   row = {shape, variant, m, n, k, reps, ms, gflops, speedup_naive}
// Variants:
//   naive      - retained i-k-j reference (ens::gemm_naive), serial
//   blocked    - blocked/register-tiled kernel, serial, packs per call
//   blocked_mt - same kernel with parallel i-strip tiling on the pool
//   packed     - weights pre-packed once (the serving path after
//                prepare_inference), activations packed per call, parallel
//
// The CI acceptance signal is speedup_naive of blocked/packed at the
// >= 256^3 shapes, so every scale (including tiny, which the Release smoke
// runs) keeps the 256^3 row.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace {

using ens::Rng;
using ens::Shape;
using ens::Tensor;
namespace kernel = ens::kernel;

struct ShapeSpec {
    std::string label;
    std::int64_t m, n, k;
};

std::vector<ShapeSpec> shapes_for(ens::bench::Scale scale) {
    // Body shapes: width-w ResNet body conv3x3 at its wire feature map
    // ([w, 16, 16] at the paper's CIFAR split) and the tail Linear over a
    // coalesced batch. Square shapes anchor the scaling curve; 256^3 is the
    // acceptance gate and survives every scale. One row per paper-geometry
    // body stage, as Conv2d folds it (group = out_channels / positions
    // images per GEMM): stage 1 (64 ch, 16x16) runs one image per GEMM;
    // stage 2 (128 ch, 8x8) folds 2 images and stage 3 (256 ch, 4x4) folds
    // 4; stage 4 (512 ch, 2x2) at batch 1 (n = 4, the narrow tile) and a
    // batch of 4 folded into one GEMM (n = 16).
    std::vector<ShapeSpec> shapes = {
        {"conv3x3-w8", 8, 256, 72},        // [8, 8*9] @ [72, 16*16]
        {"conv3x3-w64", 64, 256, 576},     // [64, 64*9] @ [576, 16*16]
        {"conv3x3-w128-8x8-b2", 128, 128, 1152},  // [128, 128*9] @ [1152, 2*8*8]
        {"conv3x3-w256-4x4-b4", 256, 64, 2304},   // [256, 256*9] @ [2304, 4*4*4]
        {"conv3x3-w512-2x2", 512, 4, 4608},      // [512, 512*9] @ [4608, 2*2]
        {"conv3x3-w512-2x2-b4", 512, 16, 4608},  // [512, 512*9] @ [4608, 4*2*2]
        {"tail-linear", 32, 10, 640},      // [batch, 10*width] @ W^T
        {"square-64", 64, 64, 64},
        {"square-128", 128, 128, 128},
        {"square-256", 256, 256, 256},
    };
    if (scale != ens::bench::Scale::kTiny) {
        shapes.push_back({"conv3x3-w64-32px", 64, 1024, 576});
        shapes.push_back({"square-384", 384, 384, 384});
        shapes.push_back({"square-512", 512, 512, 512});
    }
    return shapes;
}

double time_ms(int reps, const std::function<void()>& fn) {
    fn();  // warm-up (first-touch, pack scratch growth, pool spin-up)
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
        fn();
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
}

}  // namespace

int main() {
    const ens::bench::Scale scale = ens::bench::current_scale();
    ens::bench::JsonRows json("kernels");
    json.meta("isa", kernel::kernel_isa());
    json.meta("mr", static_cast<double>(kernel::kMR));
    json.meta("nr", static_cast<double>(kernel::kNR));

    std::printf("GEMM micro-kernel bench (isa=%s, scale=%s)\n", kernel::kernel_isa(),
                ens::bench::scale_name(scale));
    std::printf("| shape | variant | m | n | k | ms | GFLOP/s | vs naive |\n");
    ens::bench::print_rule(8);

    Rng rng(0xBE9C);
    for (const ShapeSpec& s : shapes_for(scale)) {
        const Tensor a = Tensor::randn(Shape{s.m, s.k}, rng, 0.0f, 1.0f);
        const Tensor b = Tensor::randn(Shape{s.k, s.n}, rng, 0.0f, 1.0f);
        Tensor c(Shape{s.m, s.n});
        const double flop = 2.0 * static_cast<double>(s.m) * static_cast<double>(s.n) *
                            static_cast<double>(s.k);
        // Budget ~80 MFLOP of naive work per variant (a few repetitions of
        // the largest shapes, many of the small ones), min 2 reps.
        const int reps = std::max(2, static_cast<int>(8.0e7 / flop));

        const kernel::PackedMatrix packed_a =
            kernel::pack_a(a.data(), s.k, /*trans_a=*/false, s.m, s.k);

        struct Variant {
            const char* name;
            std::function<void()> run;
        };
        const std::vector<Variant> variants = {
            {"naive", [&] { ens::gemm_naive(a, false, b, false, c); }},
            {"blocked",
             [&] {
                 kernel::gemm_blocked(s.m, s.n, s.k, a.data(), s.k, false, b.data(), s.n, false,
                                      c.data(), s.n, 1.0f, 0.0f, /*parallel=*/false);
             }},
            {"blocked_mt",
             [&] {
                 kernel::gemm_blocked(s.m, s.n, s.k, a.data(), s.k, false, b.data(), s.n, false,
                                      c.data(), s.n, 1.0f, 0.0f, /*parallel=*/true);
             }},
            {"packed",
             [&] {
                 kernel::gemm_packed_a(packed_a, b.data(), s.n, false, s.n, c.data(), s.n, 1.0f,
                                       0.0f, /*parallel=*/true);
             }},
        };

        double naive_ms = 0.0;
        for (const Variant& v : variants) {
            const double ms = time_ms(reps, v.run);
            if (std::string(v.name) == "naive") {
                naive_ms = ms;
            }
            const double gflops = flop / (ms * 1.0e6);
            const double speedup = naive_ms > 0.0 ? naive_ms / ms : 0.0;
            std::printf("| %s | %s | %lld | %lld | %lld | %.3f | %.2f | %.2fx |\n",
                        s.label.c_str(), v.name, static_cast<long long>(s.m),
                        static_cast<long long>(s.n), static_cast<long long>(s.k), ms, gflops,
                        speedup);
            json.row()
                .field("shape", s.label)
                .field("variant", std::string(v.name))
                .field("m", static_cast<double>(s.m))
                .field("n", static_cast<double>(s.n))
                .field("k", static_cast<double>(s.k))
                .field("reps", static_cast<double>(reps))
                .field("ms", ms)
                .field("gflops", gflops)
                .field("speedup_naive", speedup);
        }
    }

    json.write("BENCH_kernels.json");
    return 0;
}
