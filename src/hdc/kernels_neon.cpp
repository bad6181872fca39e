/**
 * @file
 * NEON (aarch64) kernel implementations (integer kernels only).
 *
 * Self-gated on __aarch64__ && __ARM_NEON (NEON is mandatory on
 * AArch64, so no runtime CPU probe is needed; on every other target
 * this TU compiles to an always-null neonTable()). CI keeps this
 * from rotting with a qemu-less aarch64 cross-compile job; it cannot
 * be executed in the x86 test environment, which is why every kernel
 * here is either exact integer arithmetic (bit-identical to the
 * scalar reference by construction) or literally the scalar
 * reference itself: the double kernels are copied from the scalar
 * table so the 4-lane float accumulation contract stays
 * single-sourced rather than hand-ported to float64x2 lanes.
 */

#include "hdc/kernels.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace lookhd::hdc::kernels {

namespace {

std::int64_t
dotIntNeon(const std::int32_t *a, const std::int32_t *b,
           std::size_t n)
{
    int64x2_t accLo = vdupq_n_s64(0);
    int64x2_t accHi = vdupq_n_s64(0);
    std::size_t i = 0;
    const std::size_t n4 = n & ~std::size_t{3};
    for (; i < n4; i += 4) {
        const int32x4_t av = vld1q_s32(a + i);
        const int32x4_t bv = vld1q_s32(b + i);
        accLo = vaddq_s64(accLo,
                          vmull_s32(vget_low_s32(av),
                                    vget_low_s32(bv)));
        accHi = vaddq_s64(accHi,
                          vmull_s32(vget_high_s32(av),
                                    vget_high_s32(bv)));
    }
    std::int64_t sum = vaddvq_s64(vaddq_s64(accLo, accHi));
    for (; i < n; ++i)
        sum += static_cast<std::int64_t>(a[i]) * b[i];
    return sum;
}

std::int64_t
dotIntI8Neon(const std::int32_t *a, const std::int8_t *signs,
             std::size_t n)
{
    int64x2_t accLo = vdupq_n_s64(0);
    int64x2_t accHi = vdupq_n_s64(0);
    std::size_t i = 0;
    const std::size_t n8 = n & ~std::size_t{7};
    for (; i < n8; i += 8) {
        const int16x8_t s16 = vmovl_s8(vld1_s8(signs + i));
        const int32x4_t s0 = vmovl_s16(vget_low_s16(s16));
        const int32x4_t s1 = vmovl_s16(vget_high_s16(s16));
        const int32x4_t a0 = vld1q_s32(a + i);
        const int32x4_t a1 = vld1q_s32(a + i + 4);
        accLo = vaddq_s64(accLo, vmull_s32(vget_low_s32(a0),
                                           vget_low_s32(s0)));
        accHi = vaddq_s64(accHi, vmull_s32(vget_high_s32(a0),
                                           vget_high_s32(s0)));
        accLo = vaddq_s64(accLo, vmull_s32(vget_low_s32(a1),
                                           vget_low_s32(s1)));
        accHi = vaddq_s64(accHi, vmull_s32(vget_high_s32(a1),
                                           vget_high_s32(s1)));
    }
    std::int64_t sum = vaddvq_s64(vaddq_s64(accLo, accHi));
    for (; i < n; ++i)
        sum += static_cast<std::int64_t>(a[i]) * signs[i];
    return sum;
}

std::int64_t
dotI8I8Neon(const std::int8_t *a, const std::int8_t *b,
            std::size_t n)
{
    // 16 int8 per step: vmull_s8 gives exact int16 products, the
    // pairwise-add-accumulate widens into int32 lanes (each gains at
    // most 4 * 127 * 127 per step), and the int32 accumulator drains
    // into the int64 total every kBlock steps, well clear of
    // overflow (INT32_MAX / 64516 ~ 33288 steps).
    constexpr std::size_t kBlock = 8192;
    std::int64_t sum = 0;
    std::size_t i = 0;
    const std::size_t n16 = n & ~std::size_t{15};
    while (i < n16) {
        const std::size_t stop =
            i + (n16 - i < kBlock * std::size_t{16}
                     ? n16 - i
                     : kBlock * std::size_t{16});
        int32x4_t acc = vdupq_n_s32(0);
        for (; i < stop; i += 16) {
            const int8x16_t av = vld1q_s8(a + i);
            const int8x16_t bv = vld1q_s8(b + i);
            acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(av),
                                            vget_low_s8(bv)));
            acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(av),
                                            vget_high_s8(bv)));
        }
        sum += vaddlvq_s32(acc);
    }
    for (; i < n; ++i)
        sum += static_cast<std::int64_t>(a[i]) * b[i];
    return sum;
}

std::int64_t
dotIntPackedWordsNeon(const std::int32_t *q,
                      const std::uint64_t *words, std::size_t n)
{
    // Scalar word loop (the sign-select does not vectorize cleanly
    // without SVE); exactness is what matters for this entry.
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const bool positive = (words[i / 64] >> (i % 64)) & 1u;
        sum += positive ? q[i] : -static_cast<std::int64_t>(q[i]);
    }
    return sum;
}

void
addSignedI8I8Neon(std::int32_t *acc, const std::int8_t *row,
                  const std::int8_t *signs, std::size_t n)
{
    // 16 elements per step: vmull_s8 forms exact int16 products and
    // vaddw_s16 widens them straight into the int32 accumulator.
    std::size_t i = 0;
    const std::size_t n16 = n & ~std::size_t{15};
    for (; i < n16; i += 16) {
        const int8x16_t rv = vld1q_s8(row + i);
        const int8x16_t sv = vld1q_s8(signs + i);
        const int16x8_t p0 = vmull_s8(vget_low_s8(rv), vget_low_s8(sv));
        const int16x8_t p1 =
            vmull_s8(vget_high_s8(rv), vget_high_s8(sv));
        vst1q_s32(acc + i,
                  vaddw_s16(vld1q_s32(acc + i), vget_low_s16(p0)));
        vst1q_s32(acc + i + 4,
                  vaddw_s16(vld1q_s32(acc + i + 4), vget_high_s16(p0)));
        vst1q_s32(acc + i + 8,
                  vaddw_s16(vld1q_s32(acc + i + 8), vget_low_s16(p1)));
        vst1q_s32(acc + i + 12, vaddw_s16(vld1q_s32(acc + i + 12),
                                          vget_high_s16(p1)));
    }
    for (; i < n; ++i)
        acc[i] += static_cast<std::int32_t>(row[i]) * signs[i];
}

std::size_t
matchCountWordsNeon(const std::uint64_t *a, const std::uint64_t *b,
                    std::size_t words, std::size_t dim)
{
    if (words == 0)
        return 0;
    const std::size_t body = words - 1;
    uint64x2_t acc = vdupq_n_u64(0);
    std::size_t w = 0;
    const std::size_t w2 = body & ~std::size_t{1};
    for (; w < w2; w += 2) {
        const uint64x2_t av = vld1q_u64(a + w);
        const uint64x2_t bv = vld1q_u64(b + w);
        // No vmvnq_u64 exists; NOT via the u32 view (bitwise op, the
        // lane width is irrelevant).
        const uint8x16_t xnor = vmvnq_u8(
            vreinterpretq_u8_u64(veorq_u64(av, bv)));
        acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(
                                 vpaddlq_u8(vcntq_u8(xnor)))));
    }
    std::uint64_t matches = vaddvq_u64(acc);
    for (; w < body; ++w)
        matches += static_cast<std::uint64_t>(
            __builtin_popcountll(~(a[w] ^ b[w])));
    matches += static_cast<std::uint64_t>(__builtin_popcountll(
        ~(a[words - 1] ^ b[words - 1]) & tailMask64(dim)));
    return static_cast<std::size_t>(matches);
}

void
scoresBatchI8Neon(const std::int8_t *const *queries,
                  std::size_t numQueries,
                  const std::int8_t *const *rows, std::size_t numRows,
                  std::size_t n, std::int64_t *out)
{
    for (std::size_t q = 0; q < numQueries; ++q)
        for (std::size_t r = 0; r < numRows; ++r)
            out[q * numRows + r] = dotI8I8Neon(queries[q], rows[r], n);
}

} // namespace

const detail::KernelTable *
detail::neonTable()
{
    static const detail::KernelTable *table = [] {
        static detail::KernelTable t = *detail::scalarTable();
        t.impl = Impl::kNeon;
        t.dotInt = dotIntNeon;
        t.dotIntI8 = dotIntI8Neon;
        t.dotI8I8 = dotI8I8Neon;
        t.dotIntPackedWords = dotIntPackedWordsNeon;
        t.addSignedI8I8 = addSignedI8I8Neon;
        t.matchCountWords = matchCountWordsNeon;
        t.scoresBatchI8 = scoresBatchI8Neon;
        return &t;
    }();
    return table;
}

} // namespace lookhd::hdc::kernels

#else // not aarch64 NEON

namespace lookhd::hdc::kernels {

const detail::KernelTable *
detail::neonTable()
{
    return nullptr;
}

} // namespace lookhd::hdc::kernels

#endif
