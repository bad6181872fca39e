#include "lookhd/lookup_table.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/check.hpp"

namespace lookhd {

namespace {

/**
 * dst[i] += add[i] over int8. The fixed-length inner block lets the
 * compiler vectorize it at -O2; row sums stay in [-s, s], so the
 * narrowing casts never wrap.
 */
void
addInPlaceI8(std::int8_t *__restrict dst,
             const std::int8_t *__restrict add, std::size_t n)
{
    constexpr std::size_t kBlock = 64;
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock)
        for (std::size_t t = 0; t < kBlock; ++t)
            dst[i + t] = static_cast<std::int8_t>(dst[i + t] + add[i + t]);
    for (; i < n; ++i)
        dst[i] = static_cast<std::int8_t>(dst[i] + add[i]);
}

/** out[(i + shift) % d] += hv[i]: Eq. 2's rho^shift, in int8. */
void
addRotatedI8(std::int8_t *out, const hdc::BipolarHv &hv, std::size_t d,
             std::size_t shift)
{
    shift %= d;
    addInPlaceI8(out + shift, hv.data(), d - shift);
    addInPlaceI8(out, hv.data() + (d - shift), shift);
}

} // namespace

ChunkLookupTable::ChunkLookupTable(
    std::shared_ptr<const hdc::LevelMemory> levels, std::size_t chunk_len,
    std::size_t materialize_budget_bytes)
    : levels_(std::move(levels)), chunkLen_(chunk_len)
{
    LOOKHD_CHECK(levels_, "lookup table needs a level memory");
    LOOKHD_CHECK(chunk_len != 0, "chunk length must be nonzero");
    space_ = addressSpace(levels_->levels(), chunkLen_);
    // q >= 2 and q^s < 2^64 give s <= 63, so a sum of s bipolar
    // values never leaves int8.
    LOOKHD_CHECK(chunkLen_ <= std::numeric_limits<std::int8_t>::max(),
                 "chunk too long for int8 table rows");

    if (materialize_budget_bytes > 0 &&
        tableFits(levels_->levels(), chunkLen_, dim(),
                  materialize_budget_bytes)) {
        buildSlab();
    }
}

void
ChunkLookupTable::buildSlab()
{
    // Eq. 2 digit by digit, sharing partial sums: after step j, rows
    // [0, q^(j+1)) hold the sums over digits 0..j. Row l * q^j + b
    // (b < q^j) is row b plus digit j's rotated level l, so each step
    // copies block 0 into blocks 1..q-1, adds the level to every
    // block (block 0 last, once it has been copied), and costs
    // q^(j+1) row adds: about q^s * q / (q - 1) in all instead of
    // q^s * s.
    const std::size_t d = dim();
    const std::size_t q = levels_->levels();
    slab_.assign(static_cast<std::size_t>(space_) * d, 0);
    std::int8_t *slab = slab_.data();
    std::size_t built = 1; // q^j rows
    for (std::size_t j = 0; j < chunkLen_; ++j, built *= q) {
        for (std::size_t l = q; l-- > 0;) {
            std::int8_t *block = slab + l * built * d;
            if (l != 0)
                std::memcpy(block, slab, built * d);
            const hdc::BipolarHv &level = levels_->at(l);
            for (std::size_t b = 0; b < built; ++b)
                addRotatedI8(block + b * d, level, d, j);
        }
    }
    const auto r = static_cast<int>(chunkLen_);
    bool inRange = true;
    for (const std::int8_t v : slab_)
        inRange &= v >= -r && v <= r;
    LOOKHD_CHECK(inRange, "lookup table element outside [-s, s]");
}

std::size_t
ChunkLookupTable::tableBytes() const
{
    return static_cast<std::size_t>(util::checkedMul(
        util::checkedMul(space_, dim()), sizeof(std::int8_t)));
}

std::span<const std::int8_t>
ChunkLookupTable::row(Address addr, std::vector<std::int8_t> &scratch) const
{
    LOOKHD_CHECK_BOUNDS(addr, space_);
    const std::size_t d = dim();
    if (!slab_.empty())
        return {slab_.data() + addr * d, d};
    scratch.resize(d);
    encodeAddress(addr, scratch);
    return scratch;
}

void
ChunkLookupTable::encodeAddress(Address addr,
                                std::span<std::int8_t> out) const
{
    LOOKHD_CHECK(out.size() == dim(), "row buffer size mismatch");
    std::fill(out.begin(), out.end(), std::int8_t{0});
    const std::size_t q = levels_->levels();
    // Level j is base-q digit j of the address (addressOf's order).
    for (std::size_t j = 0; j < chunkLen_; ++j) {
        addRotatedI8(out.data(),
                     levels_->at(static_cast<std::size_t>(addr % q)),
                     out.size(), j);
        addr /= q;
    }
    LOOKHD_CHECK(addr == 0, "address out of range for chunk");
}

} // namespace lookhd
