/**
 * @file
 * AVX-512 kernel implementations (integer kernels only).
 *
 * Every function carries its own __attribute__((target(...))) so the
 * TU is built WITHOUT -mavx512* command-line flags: the compiler can
 * then never auto-vectorize ordinary code here into AVX-512
 * instructions that would fault on narrower hosts, and the binary
 * stays runnable anywhere (dispatch alone decides what executes).
 *
 * Scope: only the exact integer kernels (dotInt, dotIntI8, dotI8I8,
 * dotIntPackedWords, addSignedI8I8, matchCountWords, scoresBatchI8)
 * get 512-bit bodies. The double kernels are copied verbatim from the
 * AVX2 table so there is exactly one float accumulation order per ISA
 * family and the 4-lane determinism contract stays single-sourced; as a
 * consequence the AVX-512 table exists only when the AVX2 table does
 * (true on every AVX-512 CPU).
 *
 * matchCountWords has two variants: a VPOPCNTDQ 512-bit popcount and
 * a hardware-popcnt word loop. The table picks at construction time
 * based on __builtin_cpu_supports("avx512vpopcntdq"); both are
 * integer-exact, so the choice is invisible in results - which is
 * also why the rest of the table is NOT gated on VPOPCNTDQ (common
 * Skylake-SP/Cascade Lake parts lack it but still benefit from the
 * 512-bit int8 path).
 */

#include "hdc/kernels.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(LOOKHD_NO_AVX512)

#include <algorithm>
#include <immintrin.h>

// GCC's avx512 headers build masked intrinsics on top of
// _mm512_undefined_epi32(), which trips -Wmaybe-uninitialized at
// every inline-expansion site when the headers are entered through
// per-function target attributes (GCC bug 105593). False positive;
// TU-local silence.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#define LOOKHD_AVX512_TARGET                                          \
    __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl,popcnt")))
#define LOOKHD_AVX512_VPOPCNT_TARGET                                  \
    __attribute__((                                                   \
        target("avx512f,avx512bw,avx512dq,avx512vl,avx512vpopcntdq")))

namespace lookhd::hdc::kernels {

namespace {

LOOKHD_AVX512_TARGET std::int64_t
reduceLanes64(__m512i acc)
{
    return _mm512_reduce_add_epi64(acc);
}

LOOKHD_AVX512_TARGET std::int64_t
dotIntAvx512(const std::int32_t *a, const std::int32_t *b,
             std::size_t n)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t i = 0;
    const std::size_t n8 = n & ~std::size_t{7};
    for (; i < n8; i += 8) {
        // Widen to int64 lanes; vpmuldq multiplies each lane's low 32
        // bits as signed, giving the exact 64-bit product.
        const __m512i a64 = _mm512_cvtepi32_epi64(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i)));
        const __m512i b64 = _mm512_cvtepi32_epi64(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i)));
        acc = _mm512_add_epi64(acc, _mm512_mul_epi32(a64, b64));
    }
    std::int64_t sum = reduceLanes64(acc);
    for (; i < n; ++i)
        sum += static_cast<std::int64_t>(a[i]) * b[i];
    return sum;
}

LOOKHD_AVX512_TARGET std::int64_t
dotIntI8Avx512(const std::int32_t *a, const std::int8_t *signs,
               std::size_t n)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t i = 0;
    const std::size_t n8 = n & ~std::size_t{7};
    for (; i < n8; i += 8) {
        const __m512i a64 = _mm512_cvtepi32_epi64(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i)));
        const __m512i s64 = _mm512_cvtepi8_epi64(_mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(signs + i)));
        acc = _mm512_add_epi64(acc, _mm512_mul_epi32(a64, s64));
    }
    std::int64_t sum = reduceLanes64(acc);
    for (; i < n; ++i)
        sum += static_cast<std::int64_t>(a[i]) * signs[i];
    return sum;
}

LOOKHD_AVX512_TARGET std::int64_t
dotI8I8Avx512(const std::int8_t *a, const std::int8_t *b,
              std::size_t n)
{
    // 32 int8 per step: sign-extend to int16, vpmaddwd pair-sums into
    // sixteen int32 lanes (each at most 2 * 127 * 127 = 32258); the
    // accumulator is widened into the int64 total every kBlock steps,
    // far below the ~66570 steps a lane needs to reach INT32_MAX.
    constexpr std::size_t kBlock = 8192;
    std::int64_t sum = 0;
    std::size_t i = 0;
    const std::size_t n32 = n & ~std::size_t{31};
    while (i < n32) {
        const std::size_t stop =
            std::min(n32, i + kBlock * std::size_t{32});
        __m512i acc = _mm512_setzero_si512();
        for (; i < stop; i += 32) {
            const __m512i a16 =
                _mm512_cvtepi8_epi16(_mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(a + i)));
            const __m512i b16 =
                _mm512_cvtepi8_epi16(_mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(b + i)));
            acc = _mm512_add_epi32(acc, _mm512_madd_epi16(a16, b16));
        }
        sum += _mm512_reduce_add_epi32(acc);
    }
    for (; i < n; ++i)
        sum += static_cast<std::int64_t>(a[i]) * b[i];
    return sum;
}

LOOKHD_AVX512_TARGET std::int64_t
dotIntPackedWordsAvx512(const std::int32_t *q,
                        const std::uint64_t *words, std::size_t n)
{
    // Eight elements per step: the byte of packed sign bits becomes
    // the lane mask directly; lanes with a clear bit take the 64-bit
    // negation, so -INT32_MIN is exact like the scalar reference.
    __m512i acc = _mm512_setzero_si512();
    const __m512i zero = _mm512_setzero_si512();
    std::size_t i = 0;
    const std::size_t n8 = n & ~std::size_t{7};
    for (; i < n8; i += 8) {
        const __mmask8 set = static_cast<__mmask8>(
            words[i / 64] >> (i % 64));
        const __m512i q64 = _mm512_cvtepi32_epi64(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(q + i)));
        const __m512i neg = _mm512_sub_epi64(zero, q64);
        acc = _mm512_add_epi64(acc,
                               _mm512_mask_blend_epi64(set, neg, q64));
    }
    std::int64_t sum = reduceLanes64(acc);
    for (; i < n; ++i) {
        const bool positive = (words[i / 64] >> (i % 64)) & 1u;
        sum += positive ? q[i] : -static_cast<std::int64_t>(q[i]);
    }
    return sum;
}

LOOKHD_AVX512_TARGET void
addSignedI8I8Avx512(std::int32_t *acc, const std::int8_t *row,
                    const std::int8_t *signs, std::size_t n)
{
    // 32 elements per step: the AVX2 widening scheme at twice the
    // width (int8 -> int16 exact product -> two int32 halves).
    std::size_t i = 0;
    const std::size_t n32 = n & ~std::size_t{31};
    for (; i < n32; i += 32) {
        const __m512i r16 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(row + i)));
        const __m512i s16 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(signs + i)));
        const __m512i p16 = _mm512_mullo_epi16(r16, s16);
        const __m512i lo =
            _mm512_cvtepi16_epi32(_mm512_castsi512_si256(p16));
        const __m512i hi =
            _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64(p16, 1));
        _mm512_storeu_si512(
            acc + i, _mm512_add_epi32(_mm512_loadu_si512(acc + i), lo));
        _mm512_storeu_si512(
            acc + i + 16,
            _mm512_add_epi32(_mm512_loadu_si512(acc + i + 16), hi));
    }
    for (; i < n; ++i)
        acc[i] += static_cast<std::int32_t>(row[i]) * signs[i];
}

LOOKHD_AVX512_TARGET std::size_t
matchCountWordsAvx512(const std::uint64_t *a, const std::uint64_t *b,
                      std::size_t words, std::size_t dim)
{
    if (words == 0)
        return 0;
    std::uint64_t matches = 0;
    for (std::size_t w = 0; w + 1 < words; ++w)
        matches += static_cast<std::uint64_t>(
            _mm_popcnt_u64(~(a[w] ^ b[w])));
    matches += static_cast<std::uint64_t>(_mm_popcnt_u64(
        ~(a[words - 1] ^ b[words - 1]) & tailMask64(dim)));
    return static_cast<std::size_t>(matches);
}

LOOKHD_AVX512_VPOPCNT_TARGET std::size_t
matchCountWordsVpopcnt(const std::uint64_t *a, const std::uint64_t *b,
                       std::size_t words, std::size_t dim)
{
    if (words == 0)
        return 0;
    const std::size_t body = words - 1;
    __m512i acc = _mm512_setzero_si512();
    std::size_t w = 0;
    const std::size_t w8 = body & ~std::size_t{7};
    for (; w < w8; w += 8) {
        const __m512i av = _mm512_loadu_si512(a + w);
        const __m512i bv = _mm512_loadu_si512(b + w);
        // XNOR via vpternlogq (0x99 = ~(A ^ B)), then per-lane
        // popcount.
        const __m512i xnor =
            _mm512_ternarylogic_epi64(av, bv, av, 0x99);
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(xnor));
    }
    std::uint64_t matches =
        static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
    for (; w < body; ++w)
        matches += static_cast<std::uint64_t>(
            _mm_popcnt_u64(~(a[w] ^ b[w])));
    matches += static_cast<std::uint64_t>(_mm_popcnt_u64(
        ~(a[words - 1] ^ b[words - 1]) & tailMask64(dim)));
    return static_cast<std::size_t>(matches);
}

LOOKHD_AVX512_TARGET void
scoresBatchI8Avx512(const std::int8_t *const *queries,
                    std::size_t numQueries,
                    const std::int8_t *const *rows,
                    std::size_t numRows, std::size_t n,
                    std::int64_t *out)
{
    for (std::size_t q = 0; q < numQueries; ++q)
        for (std::size_t r = 0; r < numRows; ++r)
            out[q * numRows + r] =
                dotI8I8Avx512(queries[q], rows[r], n);
}

bool
cpuSupported()
{
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512bw") != 0 &&
           __builtin_cpu_supports("avx512dq") != 0 &&
           __builtin_cpu_supports("avx512vl") != 0 &&
           __builtin_cpu_supports("popcnt") != 0;
}

} // namespace

const detail::KernelTable *
detail::avx512Table()
{
    static const detail::KernelTable *table = []()
        -> const detail::KernelTable * {
        const detail::KernelTable *avx2 = detail::avx2Table();
        if (avx2 == nullptr || !cpuSupported())
            return nullptr;
        static detail::KernelTable t = *avx2;
        t.impl = Impl::kAvx512;
        t.dotInt = dotIntAvx512;
        t.dotIntI8 = dotIntI8Avx512;
        t.dotI8I8 = dotI8I8Avx512;
        t.dotIntPackedWords = dotIntPackedWordsAvx512;
        t.addSignedI8I8 = addSignedI8I8Avx512;
        t.matchCountWords =
            __builtin_cpu_supports("avx512vpopcntdq") != 0
                ? matchCountWordsVpopcnt
                : matchCountWordsAvx512;
        t.scoresBatchI8 = scoresBatchI8Avx512;
        return &t;
    }();
    return table;
}

} // namespace lookhd::hdc::kernels

#else // not x86-64 GCC/clang (or explicitly disabled)

namespace lookhd::hdc::kernels {

const detail::KernelTable *
detail::avx512Table()
{
    return nullptr;
}

} // namespace lookhd::hdc::kernels

#endif
