/**
 * @file
 * LookHD lookup-based encoder (paper Sec. III, Eqs. 2-3, Fig. 5).
 *
 * Pipeline per data point:
 *   1. quantize each feature to a level (codebook),
 *   2. concatenate each chunk's codebooks into a direct address,
 *   3. fetch the pre-stored encoded chunk hypervector (an int8 row),
 *   4. bind each chunk hypervector with its position key P_i and sum
 *      into an int32 accumulator (widening kernel).
 *
 * The result is bit-exact with encoding each chunk through Eq. 2
 * directly - the lookup is pure computation reuse.
 *
 * The chunk tables are built on first use (the first encode, or a
 * tableFor() / materializedBytes() call), so a classifier that
 * serves only through its score table never pays for them.
 */

#ifndef LOOKHD_LOOKHD_LOOKUP_ENCODER_HPP
#define LOOKHD_LOOKHD_LOOKUP_ENCODER_HPP

#include <memory>
#include <span>

#include "hdc/encoder.hpp"
#include "hdc/item_memory.hpp"
#include "lookhd/chunking.hpp"
#include "lookhd/lookup_table.hpp"
#include "quant/quantizer.hpp"
#include "util/thread_annotations.hpp" // std::once_flag

namespace lookhd {

/** Tunables of the lookup encoder. */
struct LookupEncoderConfig
{
    /**
     * Memory budget for materializing dense tables: chunk tables
     * beyond it fall back to on-the-fly row computation (identical
     * results, no reuse), and a classifier whose score table
     * (score_table.hpp) would exceed it serves through encode +
     * score instead.
     */
    std::size_t materializeBudgetBytes = std::size_t{64} << 20;
};

/** Chunked, lookup-backed encoder with position-key aggregation. */
class LookupEncoder
{
  public:
    /**
     * @param levels Shared level memory (same alphabets as baseline).
     * @param quantizer Quantizer with levels() == levels->levels(),
     *        global or with one boundary set per feature of @p chunks.
     * @param chunks Chunking of the feature vector.
     * @param rng Source for the m position hypervectors P_1..P_m.
     */
    LookupEncoder(std::shared_ptr<const hdc::LevelMemory> levels,
                  quant::Quantizer quantizer, ChunkSpec chunks,
                  util::Rng &rng, LookupEncoderConfig config = {});

    /**
     * Restore variant (deserialization): position keys are supplied
     * explicitly instead of generated. @pre positions.count() ==
     * chunks.numChunks() and positions.dim() == levels->dim().
     */
    LookupEncoder(std::shared_ptr<const hdc::LevelMemory> levels,
                  quant::Quantizer quantizer, ChunkSpec chunks,
                  hdc::KeyMemory positions,
                  LookupEncoderConfig config = {});

    hdc::Dim dim() const { return levels_->dim(); }
    const ChunkSpec &chunks() const { return chunks_; }
    std::size_t quantLevels() const { return levels_->levels(); }

    /** Quantize a raw feature vector into level indices. */
    std::vector<std::size_t>
    quantize(std::span<const double> features) const;

    /** Per-chunk direct addresses of a raw feature vector. */
    std::vector<Address>
    chunkAddresses(std::span<const double> features) const;

    /**
     * Full LookHD encoding (Eq. 3) of a raw feature vector: quantize,
     * address and accumulate in one pass over the features, with no
     * intermediate level or address vector.
     */
    hdc::IntHv encode(std::span<const double> features) const;

    /** Eq. 3 aggregation from per-chunk addresses. */
    hdc::IntHv
    encodeFromAddresses(std::span<const Address> addresses) const;

    /** The lookup table serving chunk @p c (built on first use). */
    const ChunkLookupTable &tableFor(std::size_t c) const;

    /** Position hypervectors P_1..P_m. */
    const hdc::KeyMemory &positionKeys() const { return positions_; }

    const hdc::LevelMemory &levelMemory() const { return *levels_; }

    const quant::Quantizer &quantizer() const { return quantizer_; }

    /**
     * Total bytes of all materialized chunk tables, building them
     * first if nothing has encoded yet.
     */
    std::size_t materializedBytes() const;

  private:
    /**
     * The shared quantize -> address step: calls visit(c, address)
     * for every chunk c in order.
     */
    template <class Visit>
    void forEachAddress(std::span<const double> features,
                        Visit &&visit) const;

    /**
     * acc += P_c * Table_c[addr]: the widening int8 accumulate of
     * one chunk row. @p scratch backs rows of over-budget tables.
     */
    void accumulate(std::size_t c, Address addr, std::int32_t *acc,
                    std::vector<std::int8_t> &scratch) const;

    /** The chunk tables, built once on first use. */
    struct Tables
    {
        std::once_flag built;
        /** Table for full-size chunks (shared by all of them). */
        std::unique_ptr<const ChunkLookupTable> full;
        /** Table for the trailing short chunk, if n % r != 0. */
        std::unique_ptr<const ChunkLookupTable> tail;
    };

    /** The chunk tables, building them on the first call. */
    const Tables &tables() const;

    std::shared_ptr<const hdc::LevelMemory> levels_;
    quant::Quantizer quantizer_;
    ChunkSpec chunks_;
    hdc::KeyMemory positions_;
    std::size_t budgetBytes_;
    /** Shared by copies, like the tables it holds. */
    std::shared_ptr<Tables> tables_ = std::make_shared<Tables>();
};

} // namespace lookhd

#endif // LOOKHD_LOOKHD_LOOKUP_ENCODER_HPP
