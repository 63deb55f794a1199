#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "common/threadpool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ENS_KERNEL_X86 1
#endif
#if defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define ENS_KERNEL_NEON 1
#endif

namespace ens::kernel {

namespace {

constexpr std::size_t kPanelAlignment = 64;

/// Below this flop count the fork/join of parallel_for costs more than the
/// multiply (matches the historical ops.cpp threshold).
constexpr std::int64_t kParallelMinFlops = 1 << 20;

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

// ------------------------------------------------------------ micro-kernels
//
// Every micro-kernel computes acc[kMR][kNR] = op(A)-strip @ op(B)-strip
// over one kc-deep slab, reading the packed panels at stride 1: ap is
// kc steps of kMR floats (one column of the A strip each), bp is kc steps
// of kNR floats (one row of the B strip each). acc is kNR-strided,
// 64-byte aligned, overwritten (not accumulated — the driver merges slabs
// into C so the slab order, and therefore the rounding, is fixed).

using MicroFn = void (*)(std::int64_t kc, const float* ENS_RESTRICT ap,
                         const float* ENS_RESTRICT bp, float* ENS_RESTRICT acc);

void micro_portable(std::int64_t kc, const float* ENS_RESTRICT ap, const float* ENS_RESTRICT bp,
                    float* ENS_RESTRICT acc) {
    float tile[kMR * kNR] = {};
    for (std::int64_t p = 0; p < kc; ++p) {
        const float* ENS_RESTRICT b = bp + p * kNR;
        const float* ENS_RESTRICT a = ap + p * kMR;
        for (int i = 0; i < kMR; ++i) {
            const float av = a[i];
            float* ENS_RESTRICT row = tile + i * kNR;
            for (int j = 0; j < kNR; ++j) {
                row[j] += av * b[j];
            }
        }
    }
    std::memcpy(acc, tile, sizeof(tile));
}

#if defined(ENS_KERNEL_X86)
__attribute__((target("avx2,fma"))) void micro_avx2(std::int64_t kc,
                                                    const float* ENS_RESTRICT ap,
                                                    const float* ENS_RESTRICT bp,
                                                    float* ENS_RESTRICT acc) {
    // 6 x 16 = twelve 8-lane accumulators + two B vectors + one broadcast,
    // exactly the 16 architectural YMM registers.
    __m256 c_lo[kMR];
    __m256 c_hi[kMR];
    for (int i = 0; i < kMR; ++i) {
        c_lo[i] = _mm256_setzero_ps();
        c_hi[i] = _mm256_setzero_ps();
    }
    for (std::int64_t p = 0; p < kc; ++p) {
        const __m256 b0 = _mm256_load_ps(bp);
        const __m256 b1 = _mm256_load_ps(bp + 8);
        bp += kNR;
        for (int i = 0; i < kMR; ++i) {
            const __m256 av = _mm256_broadcast_ss(ap + i);
            c_lo[i] = _mm256_fmadd_ps(av, b0, c_lo[i]);
            c_hi[i] = _mm256_fmadd_ps(av, b1, c_hi[i]);
        }
        ap += kMR;
    }
    for (int i = 0; i < kMR; ++i) {
        _mm256_store_ps(acc + i * kNR, c_lo[i]);
        _mm256_store_ps(acc + i * kNR + 8, c_hi[i]);
    }
}
#endif  // ENS_KERNEL_X86

#if defined(ENS_KERNEL_NEON)
void micro_neon(std::int64_t kc, const float* ENS_RESTRICT ap, const float* ENS_RESTRICT bp,
                float* ENS_RESTRICT acc) {
    // 6 x 16 = twenty-four 4-lane accumulators + four B vectors + one
    // broadcast out of AArch64's 32 SIMD registers.
    float32x4_t c[kMR][4];
    for (int i = 0; i < kMR; ++i) {
        for (int q = 0; q < 4; ++q) {
            c[i][q] = vdupq_n_f32(0.0f);
        }
    }
    for (std::int64_t p = 0; p < kc; ++p) {
        float32x4_t b[4];
        for (int q = 0; q < 4; ++q) {
            b[q] = vld1q_f32(bp + 4 * q);
        }
        bp += kNR;
        for (int i = 0; i < kMR; ++i) {
            const float32x4_t av = vdupq_n_f32(ap[i]);
            for (int q = 0; q < 4; ++q) {
                c[i][q] = vfmaq_f32(c[i][q], av, b[q]);
            }
        }
        ap += kMR;
    }
    for (int i = 0; i < kMR; ++i) {
        for (int q = 0; q < 4; ++q) {
            vst1q_f32(acc + i * kNR + 4 * q, c[i][q]);
        }
    }
}
#endif  // ENS_KERNEL_NEON

// ------------------------------------------------------- narrow micro-kernel
//
// For n <= kNarrowN the 6x16 tile wastes most of its lanes on B's zero
// padding (n = 4 fills a quarter of it). The narrow kernel turns the tile
// around: vectors run along m over the same packed A strips, and each of
// the kNarrowN B columns is broadcast. Two strips go through each call
// (ap1 may equal ap0 for a lone strip; acc1 is then discarded), and the
// results land in the same kMR x kNR acc layout gemm_packed's write_tile
// reads. Every C element gets the same FMA chain in the same k order as in
// micro_avx2, so the two paths are bit-identical. Only AVX2 has one; on
// other ISAs narrow problems run the 6x16 tile.

using NarrowFn = void (*)(std::int64_t kc, const float* ENS_RESTRICT ap0,
                          const float* ENS_RESTRICT ap1, const float* ENS_RESTRICT bp,
                          float* ENS_RESTRICT acc0, float* ENS_RESTRICT acc1);

#if defined(ENS_KERNEL_X86)
__attribute__((target("avx2,fma"))) void narrow_avx2(std::int64_t kc,
                                                     const float* ENS_RESTRICT ap0,
                                                     const float* ENS_RESTRICT ap1,
                                                     const float* ENS_RESTRICT bp,
                                                     float* ENS_RESTRICT acc0,
                                                     float* ENS_RESTRICT acc1) {
    // A strip column is kMR = 6 floats: a masked 6-lane load keeps the
    // read inside the strip. 2 strips x 4 columns = eight accumulators.
    const __m256i mask = _mm256_setr_epi32(-1, -1, -1, -1, -1, -1, 0, 0);
    __m256 c0[kNarrowN];
    __m256 c1[kNarrowN];
    for (int q = 0; q < kNarrowN; ++q) {
        c0[q] = _mm256_setzero_ps();
        c1[q] = _mm256_setzero_ps();
    }
    for (std::int64_t p = 0; p < kc; ++p) {
        const __m256 av0 = _mm256_maskload_ps(ap0, mask);
        const __m256 av1 = _mm256_maskload_ps(ap1, mask);
        for (int q = 0; q < kNarrowN; ++q) {
            const __m256 bv = _mm256_broadcast_ss(bp + q);
            c0[q] = _mm256_fmadd_ps(av0, bv, c0[q]);
            c1[q] = _mm256_fmadd_ps(av1, bv, c1[q]);
        }
        ap0 += kMR;
        ap1 += kMR;
        bp += kNR;
    }
    alignas(32) float lanes0[8];
    alignas(32) float lanes1[8];
    for (int q = 0; q < kNarrowN; ++q) {
        _mm256_store_ps(lanes0, c0[q]);
        _mm256_store_ps(lanes1, c1[q]);
        for (int i = 0; i < kMR; ++i) {
            acc0[i * kNR + q] = lanes0[i];
            acc1[i * kNR + q] = lanes1[i];
        }
    }
}
#endif  // ENS_KERNEL_X86

struct Dispatch {
    MicroFn fn = micro_portable;
    NarrowFn narrow = nullptr;  // no narrow tile: run the 6x16 one
    const char* name = "portable";
};

const Dispatch& dispatch() {
    static const Dispatch selected = [] {
        Dispatch d;
#if defined(ENS_KERNEL_X86)
        if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
            d.fn = micro_avx2;
            d.narrow = narrow_avx2;
            d.name = "avx2";
            return d;
        }
#endif
#if defined(ENS_KERNEL_NEON)
        d.fn = micro_neon;
        d.name = "neon";
        return d;
#endif
        return d;
    }();
    return selected;
}

/// Merges one slab's register tile into C. `first_slab` applies beta
/// (assignment when beta == 0, so C may start uninitialized / NaN);
/// later slabs accumulate. mr/nr clip the zero-padded tile edge.
inline void write_tile(float* ENS_RESTRICT c, std::int64_t ldc, const float* ENS_RESTRICT acc,
                       std::int64_t mr, std::int64_t nr, float alpha, float beta,
                       bool first_slab) {
    for (std::int64_t i = 0; i < mr; ++i) {
        float* ENS_RESTRICT crow = c + i * ldc;
        const float* ENS_RESTRICT arow = acc + i * kNR;
        if (!first_slab) {
            for (std::int64_t j = 0; j < nr; ++j) {
                crow[j] += alpha * arow[j];
            }
        } else if (beta == 0.0f) {
            for (std::int64_t j = 0; j < nr; ++j) {
                crow[j] = alpha * arow[j];
            }
        } else {
            for (std::int64_t j = 0; j < nr; ++j) {
                crow[j] = beta * crow[j] + alpha * arow[j];
            }
        }
    }
}

PackedMatrix& tls_scratch_a() {
    thread_local PackedMatrix scratch;
    return scratch;
}

PackedMatrix& tls_scratch_b() {
    thread_local PackedMatrix scratch;
    return scratch;
}

}  // namespace

void PackedMatrix::FreeDeleter::operator()(float* p) const noexcept { std::free(p); }

void PackedMatrix::reserve(std::size_t floats) {
    if (floats <= capacity_) {
        return;
    }
    std::size_t bytes = floats * sizeof(float);
    bytes = (bytes + kPanelAlignment - 1) / kPanelAlignment * kPanelAlignment;
    float* raw = static_cast<float*>(std::aligned_alloc(kPanelAlignment, bytes));
    ENS_CHECK(raw != nullptr, "PackedMatrix: panel allocation failed");
    data_.reset(raw);
    capacity_ = bytes / sizeof(float);
}

void pack_a_into(PackedMatrix& dst, const float* a, std::int64_t lda, bool trans_a,
                 std::int64_t m, std::int64_t k) {
    ENS_REQUIRE(m > 0 && k > 0 && lda > 0, "pack_a: bad geometry");
    const std::int64_t strips = ceil_div(m, kMR);
    dst.reserve(static_cast<std::size_t>(strips * kMR * k));
    dst.rows_ = m;
    dst.cols_ = k;
    dst.is_a_ = true;
    float* out = dst.data_.get();
    for (std::int64_t k0 = 0; k0 < k; k0 += kKC) {
        const std::int64_t kc = std::min(kKC, k - k0);
        for (std::int64_t s = 0; s < strips; ++s) {
            const std::int64_t i0 = s * kMR;
            const std::int64_t mr = std::min(kMR, m - i0);
            if (!trans_a) {
                // op(A)[i][p] = a[i * lda + p]: strip columns gather down
                // the source rows.
                for (std::int64_t p = 0; p < kc; ++p) {
                    const float* src = a + i0 * lda + (k0 + p);
                    for (std::int64_t r = 0; r < mr; ++r) {
                        out[r] = src[r * lda];
                    }
                    for (std::int64_t r = mr; r < kMR; ++r) {
                        out[r] = 0.0f;
                    }
                    out += kMR;
                }
            } else {
                // op(A)[i][p] = a[p * lda + i]: each p reads contiguously.
                for (std::int64_t p = 0; p < kc; ++p) {
                    const float* src = a + (k0 + p) * lda + i0;
                    std::memcpy(out, src, static_cast<std::size_t>(mr) * sizeof(float));
                    for (std::int64_t r = mr; r < kMR; ++r) {
                        out[r] = 0.0f;
                    }
                    out += kMR;
                }
            }
        }
    }
}

void pack_b_into(PackedMatrix& dst, const float* b, std::int64_t ldb, bool trans_b,
                 std::int64_t k, std::int64_t n) {
    ENS_REQUIRE(k > 0 && n > 0 && ldb > 0, "pack_b: bad geometry");
    const std::int64_t jstrips = ceil_div(n, kNR);
    dst.reserve(static_cast<std::size_t>(jstrips * kNR * k));
    dst.rows_ = k;
    dst.cols_ = n;
    dst.is_a_ = false;
    float* out = dst.data_.get();
    for (std::int64_t k0 = 0; k0 < k; k0 += kKC) {
        const std::int64_t kc = std::min(kKC, k - k0);
        for (std::int64_t s = 0; s < jstrips; ++s) {
            const std::int64_t j0 = s * kNR;
            const std::int64_t nr = std::min(kNR, n - j0);
            if (!trans_b) {
                // op(B)[p][j] = b[p * ldb + j]: each p copies a contiguous
                // run of nr floats.
                for (std::int64_t p = 0; p < kc; ++p) {
                    const float* src = b + (k0 + p) * ldb + j0;
                    std::memcpy(out, src, static_cast<std::size_t>(nr) * sizeof(float));
                    for (std::int64_t j = nr; j < kNR; ++j) {
                        out[j] = 0.0f;
                    }
                    out += kNR;
                }
            } else {
                // op(B)[p][j] = b[j * ldb + p]: gather down source rows.
                for (std::int64_t p = 0; p < kc; ++p) {
                    const float* src = b + j0 * ldb + (k0 + p);
                    for (std::int64_t j = 0; j < nr; ++j) {
                        out[j] = src[j * ldb];
                    }
                    for (std::int64_t j = nr; j < kNR; ++j) {
                        out[j] = 0.0f;
                    }
                    out += kNR;
                }
            }
        }
    }
}

PackedMatrix pack_a(const float* a, std::int64_t lda, bool trans_a, std::int64_t m,
                    std::int64_t k) {
    PackedMatrix packed;
    pack_a_into(packed, a, lda, trans_a, m, k);
    return packed;
}

PackedMatrix pack_b(const float* b, std::int64_t ldb, bool trans_b, std::int64_t k,
                    std::int64_t n) {
    PackedMatrix packed;
    pack_b_into(packed, b, ldb, trans_b, k, n);
    return packed;
}

void gemm_packed(const PackedMatrix& a, const PackedMatrix& b, float* c, std::int64_t ldc,
                 float alpha, float beta, bool parallel) {
    ENS_REQUIRE(a.defined() && b.defined(), "gemm_packed: undefined operand pack");
    ENS_REQUIRE(a.is_a() && !b.is_a(), "gemm_packed: operands packed for the wrong side");
    ENS_REQUIRE(a.cols() == b.rows(), "gemm_packed: inner dimension mismatch");
    const std::int64_t m = a.rows();
    const std::int64_t n = b.cols();
    const std::int64_t k = a.cols();
    ENS_REQUIRE(ldc >= n, "gemm_packed: ldc too small");

    const std::int64_t strips = ceil_div(m, kMR);
    const std::int64_t jstrips = ceil_div(n, kNR);
    const std::int64_t strips_per_mc = kMC / kMR;
    const float* ENS_RESTRICT apack = a.data_.get();
    const float* ENS_RESTRICT bpack = b.data_.get();
    const MicroFn micro = dispatch().fn;
    const NarrowFn narrow = n <= kNarrowN ? dispatch().narrow : nullptr;

    // One task owns the C tiles of i-strips [lo, hi) outright and walks the
    // k slabs in a fixed serial order, so the result is bit-identical for
    // every chunking parallel_for picks (and for the serial path).
    const auto run_strips = [&](std::size_t lo_s, std::size_t hi_s) {
        const std::int64_t lo = static_cast<std::int64_t>(lo_s);
        const std::int64_t hi = static_cast<std::int64_t>(hi_s);
        alignas(kPanelAlignment) float acc[kMR * kNR];
        alignas(kPanelAlignment) float acc1[kMR * kNR];
        for (std::int64_t k0 = 0; k0 < k; k0 += kKC) {
            const std::int64_t kc = std::min(kKC, k - k0);
            const float* aslab = apack + strips * kMR * k0;
            const float* bslab = bpack + jstrips * kNR * k0;
            const bool first_slab = (k0 == 0);
            if (narrow != nullptr) {
                // One B strip (n <= kNarrowN): strips go through in pairs.
                for (std::int64_t is = lo; is < hi; is += 2) {
                    const bool pair = is + 1 < hi;
                    const float* a0 = aslab + is * kMR * kc;
                    narrow(kc, a0, pair ? a0 + kMR * kc : a0, bslab, acc, acc1);
                    write_tile(c + is * kMR * ldc, ldc, acc, std::min(kMR, m - is * kMR), n,
                               alpha, beta, first_slab);
                    if (pair) {
                        write_tile(c + (is + 1) * kMR * ldc, ldc, acc1,
                                   std::min(kMR, m - (is + 1) * kMR), n, alpha, beta,
                                   first_slab);
                    }
                }
                continue;
            }
            for (std::int64_t ic = lo; ic < hi; ic += strips_per_mc) {
                const std::int64_t ic_end = std::min(hi, ic + strips_per_mc);
                for (std::int64_t js = 0; js < jstrips; ++js) {
                    const float* bpanel = bslab + js * kNR * kc;
                    const std::int64_t nr = std::min(kNR, n - js * kNR);
                    for (std::int64_t is = ic; is < ic_end; ++is) {
                        micro(kc, aslab + is * kMR * kc, bpanel, acc);
                        write_tile(c + is * kMR * ldc + js * kNR, ldc, acc,
                                   std::min(kMR, m - is * kMR), nr, alpha, beta, first_slab);
                    }
                }
            }
        }
    };

    const std::int64_t flops = 2 * m * n * k;
    if (parallel && strips > 1 && flops >= kParallelMinFlops) {
        parallel_for(0, static_cast<std::size_t>(strips), run_strips);
    } else {
        run_strips(0, static_cast<std::size_t>(strips));
    }
}

void gemm_packed_a(const PackedMatrix& a, const float* b, std::int64_t ldb, bool trans_b,
                   std::int64_t n, float* c, std::int64_t ldc, float alpha, float beta,
                   bool parallel) {
    ENS_REQUIRE(a.defined() && a.is_a(), "gemm_packed_a: operand is not an A pack");
    PackedMatrix& scratch = tls_scratch_b();
    pack_b_into(scratch, b, ldb, trans_b, /*k=*/a.cols(), n);
    gemm_packed(a, scratch, c, ldc, alpha, beta, parallel);
}

void gemm_packed_b(const float* a, std::int64_t lda, bool trans_a, std::int64_t m,
                   const PackedMatrix& b, float* c, std::int64_t ldc, float alpha, float beta,
                   bool parallel) {
    ENS_REQUIRE(b.defined() && !b.is_a(), "gemm_packed_b: operand is not a B pack");
    PackedMatrix& scratch = tls_scratch_a();
    pack_a_into(scratch, a, lda, trans_a, m, /*k=*/b.rows());
    gemm_packed(scratch, b, c, ldc, alpha, beta, parallel);
}

void gemm_blocked(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
                  std::int64_t lda, bool trans_a, const float* b, std::int64_t ldb, bool trans_b,
                  float* c, std::int64_t ldc, float alpha, float beta, bool parallel) {
    PackedMatrix& sa = tls_scratch_a();
    PackedMatrix& sb = tls_scratch_b();
    pack_a_into(sa, a, lda, trans_a, m, k);
    pack_b_into(sb, b, ldb, trans_b, k, n);
    gemm_packed(sa, sb, c, ldc, alpha, beta, parallel);
}

const char* kernel_isa() { return dispatch().name; }

}  // namespace ens::kernel
