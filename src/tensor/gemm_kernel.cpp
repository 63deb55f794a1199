#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

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

// ------------------------------------------------------------------ tiles
//
// Every tile has one signature: two A strips against one B strip over one
// kc-deep slab, acc0 = strip ap0 @ bp and acc1 = strip ap1 @ bp. The
// panels are read at stride 1: ap0/ap1 are kc steps of kMR floats (one
// column of the A strip each), bp is kc steps of kNR floats (one row of the
// B strip each). ap1 == ap0 marks a lone strip; acc1 is then scratch
// run_tile discards. acc0/acc1 are kNR-strided, 64-byte aligned, overwritten
// (not accumulated — run_tile merges slabs into C so the slab order, and
// therefore the rounding, is fixed).
//
// Accumulators are named locals, never arrays: GCC 12 -O3 keeps a
// `__m256 c[kMR]` array in registers but also stores every element to the
// stack on each k step (12 vmovaps per step in the AVX2 6x16 tile), which
// halves the tile's rate.

using TileFn = void (*)(std::int64_t kc, const float* ENS_RESTRICT ap0,
                        const float* ENS_RESTRICT ap1, const float* ENS_RESTRICT bp,
                        float* ENS_RESTRICT acc0, float* ENS_RESTRICT acc1);

using StripFn = void (*)(std::int64_t kc, const float* ENS_RESTRICT ap,
                         const float* ENS_RESTRICT bp, float* ENS_RESTRICT acc);

/// A one-strip kMR x kNR kernel run as a tile: once per strip of the pair.
template <StripFn strip>
void strip_pair(std::int64_t kc, const float* ENS_RESTRICT ap0, const float* ENS_RESTRICT ap1,
                const float* ENS_RESTRICT bp, float* ENS_RESTRICT acc0,
                float* ENS_RESTRICT acc1) {
    strip(kc, ap0, bp, acc0);
    if (ap1 != ap0) {
        strip(kc, ap1, bp, acc1);
    }
}

void strip_portable(std::int64_t kc, const float* ENS_RESTRICT ap, const float* ENS_RESTRICT bp,
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
__attribute__((target("avx2,fma"))) void strip_avx2(std::int64_t kc,
                                                    const float* ENS_RESTRICT ap,
                                                    const float* ENS_RESTRICT bp,
                                                    float* ENS_RESTRICT acc) {
    // 6 x 16 = twelve 8-lane accumulators + two B vectors + one broadcast,
    // exactly the 16 architectural YMM registers.
    __m256 c0l = _mm256_setzero_ps(), c0h = _mm256_setzero_ps();
    __m256 c1l = _mm256_setzero_ps(), c1h = _mm256_setzero_ps();
    __m256 c2l = _mm256_setzero_ps(), c2h = _mm256_setzero_ps();
    __m256 c3l = _mm256_setzero_ps(), c3h = _mm256_setzero_ps();
    __m256 c4l = _mm256_setzero_ps(), c4h = _mm256_setzero_ps();
    __m256 c5l = _mm256_setzero_ps(), c5h = _mm256_setzero_ps();
    for (std::int64_t p = 0; p < kc; ++p) {
        const __m256 b0 = _mm256_load_ps(bp);
        const __m256 b1 = _mm256_load_ps(bp + 8);
        __m256 av = _mm256_broadcast_ss(ap + 0);
        c0l = _mm256_fmadd_ps(av, b0, c0l);
        c0h = _mm256_fmadd_ps(av, b1, c0h);
        av = _mm256_broadcast_ss(ap + 1);
        c1l = _mm256_fmadd_ps(av, b0, c1l);
        c1h = _mm256_fmadd_ps(av, b1, c1h);
        av = _mm256_broadcast_ss(ap + 2);
        c2l = _mm256_fmadd_ps(av, b0, c2l);
        c2h = _mm256_fmadd_ps(av, b1, c2h);
        av = _mm256_broadcast_ss(ap + 3);
        c3l = _mm256_fmadd_ps(av, b0, c3l);
        c3h = _mm256_fmadd_ps(av, b1, c3h);
        av = _mm256_broadcast_ss(ap + 4);
        c4l = _mm256_fmadd_ps(av, b0, c4l);
        c4h = _mm256_fmadd_ps(av, b1, c4h);
        av = _mm256_broadcast_ss(ap + 5);
        c5l = _mm256_fmadd_ps(av, b0, c5l);
        c5h = _mm256_fmadd_ps(av, b1, c5h);
        ap += kMR;
        bp += kNR;
    }
    _mm256_store_ps(acc + 0 * kNR, c0l);
    _mm256_store_ps(acc + 0 * kNR + 8, c0h);
    _mm256_store_ps(acc + 1 * kNR, c1l);
    _mm256_store_ps(acc + 1 * kNR + 8, c1h);
    _mm256_store_ps(acc + 2 * kNR, c2l);
    _mm256_store_ps(acc + 2 * kNR + 8, c2h);
    _mm256_store_ps(acc + 3 * kNR, c3l);
    _mm256_store_ps(acc + 3 * kNR + 8, c3h);
    _mm256_store_ps(acc + 4 * kNR, c4l);
    _mm256_store_ps(acc + 4 * kNR + 8, c4h);
    _mm256_store_ps(acc + 5 * kNR, c5l);
    _mm256_store_ps(acc + 5 * kNR + 8, c5h);
}

// For n <= kNarrowN the 6x16 tile wastes most of its lanes on B's zero
// padding (n = 4 fills a quarter of it). The narrow tile turns it around:
// vectors run along m over the same packed A strips, and each of the
// kNarrowN B columns is broadcast. Its results land in the same acc layout
// (columns 0..kNarrowN-1) write_tile reads.
__attribute__((target("avx2,fma"))) void narrow_avx2(std::int64_t kc,
                                                     const float* ENS_RESTRICT ap0,
                                                     const float* ENS_RESTRICT ap1,
                                                     const float* ENS_RESTRICT bp,
                                                     float* ENS_RESTRICT acc0,
                                                     float* ENS_RESTRICT acc1) {
    // A strip column is kMR = 6 floats: a masked 6-lane load keeps the
    // read inside the strip. 2 strips x 4 columns = eight accumulators.
    static_assert(kNarrowN == 4, "narrow_avx2 names one accumulator per column");
    const __m256i mask = _mm256_setr_epi32(-1, -1, -1, -1, -1, -1, 0, 0);
    __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
    __m256 c02 = _mm256_setzero_ps(), c03 = _mm256_setzero_ps();
    __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
    __m256 c12 = _mm256_setzero_ps(), c13 = _mm256_setzero_ps();
    for (std::int64_t p = 0; p < kc; ++p) {
        const __m256 av0 = _mm256_maskload_ps(ap0, mask);
        const __m256 av1 = _mm256_maskload_ps(ap1, mask);
        __m256 bv = _mm256_broadcast_ss(bp + 0);
        c00 = _mm256_fmadd_ps(av0, bv, c00);
        c10 = _mm256_fmadd_ps(av1, bv, c10);
        bv = _mm256_broadcast_ss(bp + 1);
        c01 = _mm256_fmadd_ps(av0, bv, c01);
        c11 = _mm256_fmadd_ps(av1, bv, c11);
        bv = _mm256_broadcast_ss(bp + 2);
        c02 = _mm256_fmadd_ps(av0, bv, c02);
        c12 = _mm256_fmadd_ps(av1, bv, c12);
        bv = _mm256_broadcast_ss(bp + 3);
        c03 = _mm256_fmadd_ps(av0, bv, c03);
        c13 = _mm256_fmadd_ps(av1, bv, c13);
        ap0 += kMR;
        ap1 += kMR;
        bp += kNR;
    }
    alignas(32) float lanes[2][kNarrowN][8];
    _mm256_store_ps(lanes[0][0], c00);
    _mm256_store_ps(lanes[0][1], c01);
    _mm256_store_ps(lanes[0][2], c02);
    _mm256_store_ps(lanes[0][3], c03);
    _mm256_store_ps(lanes[1][0], c10);
    _mm256_store_ps(lanes[1][1], c11);
    _mm256_store_ps(lanes[1][2], c12);
    _mm256_store_ps(lanes[1][3], c13);
    for (int q = 0; q < kNarrowN; ++q) {
        for (int i = 0; i < kMR; ++i) {
            acc0[i * kNR + q] = lanes[0][q][i];
            acc1[i * kNR + q] = lanes[1][q][i];
        }
    }
}

// 12 x 16: both strips of the pair at once, one zmm accumulator per row
// (12 of AVX-512's 32 registers), one B vector per k step, and the A
// broadcasts folded into the FMAs' memory operands.
__attribute__((target("avx512f"))) void tile_avx512(std::int64_t kc,
                                                    const float* ENS_RESTRICT ap0,
                                                    const float* ENS_RESTRICT ap1,
                                                    const float* ENS_RESTRICT bp,
                                                    float* ENS_RESTRICT acc0,
                                                    float* ENS_RESTRICT acc1) {
    static_assert(kNR == 16, "tile_avx512 holds one B row in one zmm");
    __m512 c00 = _mm512_setzero_ps(), c01 = _mm512_setzero_ps(), c02 = _mm512_setzero_ps();
    __m512 c03 = _mm512_setzero_ps(), c04 = _mm512_setzero_ps(), c05 = _mm512_setzero_ps();
    __m512 c10 = _mm512_setzero_ps(), c11 = _mm512_setzero_ps(), c12 = _mm512_setzero_ps();
    __m512 c13 = _mm512_setzero_ps(), c14 = _mm512_setzero_ps(), c15 = _mm512_setzero_ps();
    for (std::int64_t p = 0; p < kc; ++p) {
        const __m512 b = _mm512_load_ps(bp);
        c00 = _mm512_fmadd_ps(_mm512_set1_ps(ap0[0]), b, c00);
        c01 = _mm512_fmadd_ps(_mm512_set1_ps(ap0[1]), b, c01);
        c02 = _mm512_fmadd_ps(_mm512_set1_ps(ap0[2]), b, c02);
        c03 = _mm512_fmadd_ps(_mm512_set1_ps(ap0[3]), b, c03);
        c04 = _mm512_fmadd_ps(_mm512_set1_ps(ap0[4]), b, c04);
        c05 = _mm512_fmadd_ps(_mm512_set1_ps(ap0[5]), b, c05);
        c10 = _mm512_fmadd_ps(_mm512_set1_ps(ap1[0]), b, c10);
        c11 = _mm512_fmadd_ps(_mm512_set1_ps(ap1[1]), b, c11);
        c12 = _mm512_fmadd_ps(_mm512_set1_ps(ap1[2]), b, c12);
        c13 = _mm512_fmadd_ps(_mm512_set1_ps(ap1[3]), b, c13);
        c14 = _mm512_fmadd_ps(_mm512_set1_ps(ap1[4]), b, c14);
        c15 = _mm512_fmadd_ps(_mm512_set1_ps(ap1[5]), b, c15);
        ap0 += kMR;
        ap1 += kMR;
        bp += kNR;
    }
    _mm512_store_ps(acc0 + 0 * kNR, c00);
    _mm512_store_ps(acc0 + 1 * kNR, c01);
    _mm512_store_ps(acc0 + 2 * kNR, c02);
    _mm512_store_ps(acc0 + 3 * kNR, c03);
    _mm512_store_ps(acc0 + 4 * kNR, c04);
    _mm512_store_ps(acc0 + 5 * kNR, c05);
    _mm512_store_ps(acc1 + 0 * kNR, c10);
    _mm512_store_ps(acc1 + 1 * kNR, c11);
    _mm512_store_ps(acc1 + 2 * kNR, c12);
    _mm512_store_ps(acc1 + 3 * kNR, c13);
    _mm512_store_ps(acc1 + 4 * kNR, c14);
    _mm512_store_ps(acc1 + 5 * kNR, c15);
}

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"); }
bool cpu_has_avx512() { return cpu_has_avx2() && __builtin_cpu_supports("avx512f"); }
#endif  // ENS_KERNEL_X86

#if defined(ENS_KERNEL_NEON)
void strip_neon(std::int64_t kc, const float* ENS_RESTRICT ap, const float* ENS_RESTRICT bp,
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

bool always() { return true; }

/// Every tile compiled into this build. max_n bounds the problems a tile
/// covers: the narrow tile reads only the first kNarrowN columns of its
/// B strip.
struct Tile {
    const char* name;
    TileFn fn;
    std::int64_t max_n;
    bool (*supported)();
};

constexpr std::int64_t kAnyN = std::numeric_limits<std::int64_t>::max();

constexpr Tile kTiles[] = {
    {"portable-6x16", strip_pair<strip_portable>, kAnyN, always},
#if defined(ENS_KERNEL_X86)
    {"avx2-6x16", strip_pair<strip_avx2>, kAnyN, cpu_has_avx2},
    {"avx2-narrow", narrow_avx2, kNarrowN, cpu_has_avx2},
    {"avx512-12x16", tile_avx512, kAnyN, cpu_has_avx512},
#endif
#if defined(ENS_KERNEL_NEON)
    {"neon-6x16", strip_pair<strip_neon>, kAnyN, always},
#endif
};

struct Dispatch {
    TileFn wide = strip_pair<strip_portable>;
    TileFn narrow = nullptr;  // no narrow tile: n <= kNarrowN runs the wide one
    const char* name = "portable";
};

const Dispatch& dispatch() {
    static const Dispatch selected = [] {
        Dispatch d;
#if defined(ENS_KERNEL_X86)
        if (cpu_has_avx512()) {
            d.wide = tile_avx512;
            d.narrow = narrow_avx2;
            d.name = "avx512";
            return d;
        }
        if (cpu_has_avx2()) {
            d.wide = strip_pair<strip_avx2>;
            d.narrow = narrow_avx2;
            d.name = "avx2";
            return d;
        }
#endif
#if defined(ENS_KERNEL_NEON)
        d.wide = strip_pair<strip_neon>;
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

namespace {

/// The blocked GEMM loop over validated packs, on one tile.
void run_tile(TileFn tile, const float* ENS_RESTRICT apack, const float* ENS_RESTRICT bpack,
              std::int64_t m, std::int64_t n, std::int64_t k, float* c, std::int64_t ldc,
              float alpha, float beta, bool parallel) {
    const std::int64_t strips = ceil_div(m, kMR);
    const std::int64_t pairs = ceil_div(strips, 2);
    const std::int64_t jstrips = ceil_div(n, kNR);
    const std::int64_t strips_per_mc = kMC / kMR;
    static_assert((kMC / kMR) % 2 == 0, "an m block must hold whole strip pairs");

    // One task owns the C tiles of strip pairs [lo, hi) outright and walks
    // the k slabs in a fixed serial order, so the result is bit-identical
    // for every chunking parallel_for picks (and for the serial path). Only
    // an odd last strip runs alone in a pair slot.
    const auto run_pairs = [&](std::size_t lo_p, std::size_t hi_p) {
        const std::int64_t lo = 2 * static_cast<std::int64_t>(lo_p);
        const std::int64_t hi = std::min(strips, 2 * static_cast<std::int64_t>(hi_p));
        alignas(kPanelAlignment) float acc0[kMR * kNR];
        alignas(kPanelAlignment) float acc1[kMR * kNR];
        for (std::int64_t k0 = 0; k0 < k; k0 += kKC) {
            const std::int64_t kc = std::min(kKC, k - k0);
            const float* aslab = apack + strips * kMR * k0;
            const float* bslab = bpack + jstrips * kNR * k0;
            const bool first_slab = (k0 == 0);
            for (std::int64_t ic = lo; ic < hi; ic += strips_per_mc) {
                const std::int64_t ic_end = std::min(hi, ic + strips_per_mc);
                for (std::int64_t js = 0; js < jstrips; ++js) {
                    const float* bpanel = bslab + js * kNR * kc;
                    const std::int64_t nr = std::min(kNR, n - js * kNR);
                    float* cpanel = c + js * kNR;
                    for (std::int64_t is = ic; is < ic_end; is += 2) {
                        const bool pair = is + 1 < ic_end;
                        const float* a0 = aslab + is * kMR * kc;
                        tile(kc, a0, pair ? a0 + kMR * kc : a0, bpanel, acc0, acc1);
                        write_tile(cpanel + is * kMR * ldc, ldc, acc0,
                                   std::min(kMR, m - is * kMR), nr, alpha, beta, first_slab);
                        if (pair) {
                            write_tile(cpanel + (is + 1) * kMR * ldc, ldc, acc1,
                                       std::min(kMR, m - (is + 1) * kMR), nr, alpha, beta,
                                       first_slab);
                        }
                    }
                }
            }
        }
    };

    const std::int64_t flops = 2 * m * n * k;
    if (parallel && pairs > 1 && flops >= kParallelMinFlops) {
        parallel_for(0, static_cast<std::size_t>(pairs), run_pairs);
    } else {
        run_pairs(0, static_cast<std::size_t>(pairs));
    }
}

void check_packs(const PackedMatrix& a, const PackedMatrix& b, std::int64_t ldc) {
    ENS_REQUIRE(a.defined() && b.defined(), "gemm_packed: undefined operand pack");
    ENS_REQUIRE(a.is_a() && !b.is_a(), "gemm_packed: operands packed for the wrong side");
    ENS_REQUIRE(a.cols() == b.rows(), "gemm_packed: inner dimension mismatch");
    ENS_REQUIRE(ldc >= b.cols(), "gemm_packed: ldc too small");
}

}  // namespace

void gemm_packed(const PackedMatrix& a, const PackedMatrix& b, float* c, std::int64_t ldc,
                 float alpha, float beta, bool parallel) {
    check_packs(a, b, ldc);
    const Dispatch& d = dispatch();
    const TileFn tile = b.cols() <= kNarrowN && d.narrow != nullptr ? d.narrow : d.wide;
    run_tile(tile, a.data_.get(), b.data_.get(), a.rows(), b.cols(), a.cols(), c, ldc, alpha,
             beta, parallel);
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

namespace detail {

std::vector<std::string> supported_tiles() {
    std::vector<std::string> names;
    for (const Tile& t : kTiles) {
        if (t.supported()) {
            names.emplace_back(t.name);
        }
    }
    return names;
}

void gemm_packed_on(const std::string& tile, const PackedMatrix& a, const PackedMatrix& b,
                    float* c, std::int64_t ldc, float alpha, float beta, bool parallel) {
    check_packs(a, b, ldc);
    const Tile* t = std::find_if(std::begin(kTiles), std::end(kTiles),
                                 [&](const Tile& candidate) { return tile == candidate.name; });
    ENS_REQUIRE(t != std::end(kTiles), "gemm_packed_on: unknown tile " + tile);
    ENS_REQUIRE(t->supported(), "gemm_packed_on: this CPU cannot run tile " + tile);
    ENS_REQUIRE(b.cols() <= t->max_n, "gemm_packed_on: n too wide for tile " + tile);
    run_tile(t->fn, a.data_.get(), b.data_.get(), a.rows(), b.cols(), a.cols(), c, ldc, alpha,
             beta, parallel);
}

}  // namespace detail

}  // namespace ens::kernel
