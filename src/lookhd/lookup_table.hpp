/**
 * @file
 * Pre-stored encoded chunk hypervectors (paper Sec. III-C).
 *
 * The lookup table holds, for every possible address (every base-q
 * level combination of a chunk), the chunk's Eq. 2 encoding
 * H = L(l_0) + rho L(l_1) + ... + rho^{s-1} L(l_{s-1}). In hardware it
 * lives in BRAM; here it is one contiguous slab of q^s x D int8
 * elements. Every element is a sum of s bipolar values, so it lies in
 * [-s, s]; q >= 2 and q^s < 2^64 force s <= 63, so int8 always holds
 * a row exactly (checked when the table is built).
 *
 * The table is only materialized when q^s rows fit a memory budget;
 * encodeAddress() computes the identical row on the fly otherwise, so
 * experiments can sweep chunk sizes past what any real table would
 * hold while staying bit-exact with the lookup semantics.
 */

#ifndef LOOKHD_LOOKHD_LOOKUP_TABLE_HPP
#define LOOKHD_LOOKHD_LOOKUP_TABLE_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hdc/item_memory.hpp"
#include "lookhd/codebook.hpp"

namespace lookhd {

/** Encoded-chunk store for one chunk length. */
class ChunkLookupTable
{
  public:
    /**
     * @param levels Level memory the encodings draw from.
     * @param chunk_len Number of features in this chunk (s).
     * @param materialize_budget_bytes Materialize the dense table only
     *        if it fits this budget; 0 forces on-the-fly computation.
     */
    ChunkLookupTable(std::shared_ptr<const hdc::LevelMemory> levels,
                     std::size_t chunk_len,
                     std::size_t materialize_budget_bytes);

    hdc::Dim dim() const { return levels_->dim(); }
    std::size_t chunkLen() const { return chunkLen_; }
    std::size_t quantLevels() const { return levels_->levels(); }

    /** Number of addresses q^s. */
    Address addressSpaceSize() const { return space_; }

    /** Whether the dense table is resident in memory. */
    bool materialized() const { return !slab_.empty(); }

    /** Bytes of the dense int8 table (whether or not materialized). */
    std::size_t tableBytes() const;

    /**
     * The encoded chunk hypervector at @p addr, D int8 elements.
     * Returns a view into the dense slab when materialized; otherwise
     * fills @p scratch (resized to D) and returns a view of it.
     */
    std::span<const std::int8_t>
    row(Address addr, std::vector<std::int8_t> &scratch) const;

    /**
     * Write the Eq. 2 encoding of @p addr, computed from the level
     * memory, into @p out. @pre out.size() == dim().
     */
    void encodeAddress(Address addr, std::span<std::int8_t> out) const;

  private:
    /** Materialize every row into the slab and range-check it. */
    void buildSlab();

    std::shared_ptr<const hdc::LevelMemory> levels_;
    std::size_t chunkLen_;
    Address space_;
    /** Dense table, row-major: row a is [a * D, (a + 1) * D). */
    std::vector<std::int8_t> slab_;
};

} // namespace lookhd

#endif // LOOKHD_LOOKHD_LOOKUP_TABLE_HPP
