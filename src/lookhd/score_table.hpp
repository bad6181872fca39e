/**
 * @file
 * Feature-space serving: the class score each feature level adds.
 *
 * Eqs. 2-3 make the LookHD query a sum of position-bound, rotated
 * level vectors: feature f, at position j(f) of chunk c(f), adds
 * P_c(f) * rho^j(f) L(l_f). Every non-binary scorer is linear in the
 * query - the float64 dot with a class row, compressed unbinding
 * (a dot with P'_c * C_g), the int8 class rows before their scale -
 * so with E_c the row class c is scored against,
 *
 *   score_c(x) = sum_f R[f][l_f(x)][c],
 *   R[f][l][c] = < E_c, P_c(f) * rho^j(f) L(l) >.
 *
 * The table stores R: n x q rows of k class entries, classes
 * innermost, each row padded to whole 64-byte blocks. Serving a
 * query is one pass over its features: quantize, pick the level's
 * row, add it into k accumulators. No hypervector, level vector or
 * address vector exists at request time - the paper's lookup as
 * computation reuse (Sec. III) carried through the associative
 * search instead of stopping at the chunk rows.
 *
 * Two precisions:
 *  - float64: double entries from double class rows; scores equal
 *    the encode-path scores up to summation order (the same terms,
 *    regrouped per feature instead of per dimension).
 *  - int8: exact int32 entries from the int8 class rows; a score is
 *    scale_c * sum_f R[f][l_f][c] = scale_c * sum_d row_c[d] H_d, with
 *    no per-query quantization.
 *
 * The table is built from the level vectors and position keys (never
 * from the chunk tables) on the dispatched exact/4-lane kernels, so
 * every entry - and every score - is bit-identical across kernel
 * Impls and build thread counts.
 */

#ifndef LOOKHD_LOOKHD_SCORE_TABLE_HPP
#define LOOKHD_LOOKHD_SCORE_TABLE_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lookhd/lookup_encoder.hpp"
#include "lookhd/quantized_inference.hpp"

namespace lookhd {

/** The n x q x k per-feature class-score table of one model. */
class ScoreTable
{
  public:
    /**
     * float64 table for scoring against @p rows (one double row of
     * encoder.dim() elements per class).
     * @return nullopt when the table would exceed @p budget_bytes.
     * @param threads Most build threads (0 = one per hardware
     *        thread); small tables build on the calling thread.
     */
    static std::optional<ScoreTable>
    fromRealRows(const LookupEncoder &encoder,
                 std::span<const hdc::RealHv> rows,
                 std::size_t budget_bytes, std::size_t threads = 0);

    /**
     * int8 table for scoring against @p model's int8 rows and scales.
     * @return nullopt when the table would exceed @p budget_bytes, or
     *         when n * max_c ||row_c||_1 (a bound on n * max|R|)
     *         exceeds the int32 range of the accumulators.
     * @param threads Most build threads (0 = one per hardware
     *        thread); small tables build on the calling thread.
     */
    static std::optional<ScoreTable>
    fromInt8Rows(const LookupEncoder &encoder,
                 const QuantizedServingModel &model,
                 std::size_t budget_bytes, std::size_t threads = 0);

    /** kFloat64 or kInt8. */
    Precision precision() const { return precision_; }

    /**
     * Per-class scores of a raw feature vector in one quantize-and-
     * lookup pass. @pre one value per feature of the encoder.
     */
    std::vector<double> scores(std::span<const double> features) const;

    /**
     * The exact per-class sums sum_f R[f][l_f][c] of an int8 table:
     * sum_d row_c[d] * encode(features)_d. @pre precision() == kInt8.
     */
    std::vector<std::int64_t>
    integerSums(std::span<const double> features) const;

  private:
    /** One cache line of entries; rows are whole blocks. */
    template <class Entry>
    struct alignas(64) Block
    {
        static constexpr std::size_t kLanes = 64 / sizeof(Entry);
        Entry lane[kLanes];
    };

    ScoreTable(const LookupEncoder &encoder, Precision precision,
               std::size_t classes);

    /** acc[c] += R[f][l_f][c] over every feature, in feature order. */
    template <class Entry>
    void accumulate(const std::vector<Block<Entry>> &entries,
                    std::span<const double> features,
                    Entry *acc) const;

    quant::Quantizer quantizer_;
    Precision precision_;
    std::size_t n_;
    std::size_t q_;
    std::size_t k_;
    std::size_t blocksPerRow_ = 0;
    /** float64 entries, row (f * q + l). */
    std::vector<Block<double>> reals_;
    /** int8-table entries, row (f * q + l). */
    std::vector<Block<std::int32_t>> sums_;
    /** int8-table class scales. */
    std::vector<double> scales_;
};

} // namespace lookhd

#endif // LOOKHD_LOOKHD_SCORE_TABLE_HPP
