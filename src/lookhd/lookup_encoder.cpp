#include "lookhd/lookup_encoder.hpp"

#include <algorithm>

#include "hdc/kernels.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace lookhd {

LookupEncoder::LookupEncoder(
    std::shared_ptr<const hdc::LevelMemory> levels,
    quant::Quantizer quantizer, ChunkSpec chunks, util::Rng &rng,
    LookupEncoderConfig config)
    : LookupEncoder(levels, std::move(quantizer), chunks,
                    hdc::KeyMemory(levels ? levels->dim() : 0,
                                   chunks.numChunks(), rng),
                    config)
{
}

LookupEncoder::LookupEncoder(
    std::shared_ptr<const hdc::LevelMemory> levels,
    quant::Quantizer quantizer, ChunkSpec chunks,
    hdc::KeyMemory positions, LookupEncoderConfig config)
    : levels_(std::move(levels)), quantizer_(std::move(quantizer)),
      chunks_(chunks), positions_(std::move(positions)),
      budgetBytes_(config.materializeBudgetBytes)
{
    LOOKHD_CHECK(levels_, "encoder needs levels");
    LOOKHD_CHECK(quantizer_.levels() == levels_->levels(),
                 "quantizer levels do not match level memory");
    LOOKHD_CHECK(!quantizer_.perFeature() ||
                     quantizer_.numFeatures() == chunks_.numFeatures(),
                 "quantizer feature count does not match chunk spec");
    LOOKHD_CHECK(positions_.count() == chunks_.numChunks(),
                 "position key count does not match chunk count");
    LOOKHD_CHECK(positions_.dim() == levels_->dim(),
                 "position key dimensionality mismatch");
    // q^r must fit an address: the same check the table build makes,
    // here so a bad chunking fails at construction, not first encode.
    addressSpace(levels_->levels(),
                 std::min(chunks_.chunkSize(), chunks_.numFeatures()));
}

namespace {

/** Bytes of @p table's dense slab; 0 when absent or on the fly. */
std::size_t
residentBytes(const ChunkLookupTable *table)
{
    return table && table->materialized() ? table->tableBytes() : 0;
}

} // namespace

const LookupEncoder::Tables &
LookupEncoder::tables() const
{
    std::call_once(tables_->built, [this] {
        Tables &t = *tables_;
        const std::size_t full_len =
            std::min(chunks_.chunkSize(), chunks_.numFeatures());
        t.full = std::make_unique<const ChunkLookupTable>(
            levels_, full_len, budgetBytes_);
        const std::size_t tail_len =
            chunks_.length(chunks_.numChunks() - 1);
        if (tail_len != full_len) {
            t.tail = std::make_unique<const ChunkLookupTable>(
                levels_, tail_len, budgetBytes_);
        }
        LOOKHD_COUNT_ADD("lookhd.table.builds", 1);
        LOOKHD_GAUGE_SET("lookhd.table.address_space",
                         t.full->addressSpaceSize());
        LOOKHD_GAUGE_SET("lookhd.table.materialized_bytes",
                         residentBytes(t.full.get()) +
                             residentBytes(t.tail.get()));
    });
    return *tables_;
}

template <class Visit>
void
LookupEncoder::forEachAddress(std::span<const double> features,
                              Visit &&visit) const
{
    LOOKHD_CHECK(features.size() == chunks_.numFeatures(),
                 "feature vector width mismatch");
    const std::size_t q = levels_->levels();
    const std::size_t top = q - 1;
    std::size_t saturated = 0;
    for (std::size_t c = 0; c < chunks_.numChunks(); ++c) {
        // addressOf's digit order (feature j of the chunk is base-q
        // digit j), by Horner's rule from the most significant digit.
        // addressSpace() proved q^length fits in 64 bits when the
        // table was built, so no step can overflow.
        const std::size_t first = chunks_.begin(c);
        Address addr = 0;
        for (std::size_t f = first + chunks_.length(c); f-- > first;) {
            const std::size_t lvl = quantizer_.level(f, features[f]);
            saturated += (lvl == 0) | (lvl == top);
            addr = addr * q + lvl;
        }
        visit(c, addr);
    }
    quant::recordSaturation(features.size(), saturated);
}

std::vector<std::size_t>
LookupEncoder::quantize(std::span<const double> features) const
{
    LOOKHD_CHECK(features.size() == chunks_.numFeatures(),
                 "feature vector width mismatch");
    const std::size_t top = levels_->levels() - 1;
    std::vector<std::size_t> out(features.size());
    std::size_t saturated = 0;
    for (std::size_t f = 0; f < features.size(); ++f) {
        out[f] = quantizer_.level(f, features[f]);
        saturated += (out[f] == 0) | (out[f] == top);
    }
    quant::recordSaturation(out.size(), saturated);
    return out;
}

std::vector<Address>
LookupEncoder::chunkAddresses(std::span<const double> features) const
{
    std::vector<Address> out(chunks_.numChunks());
    forEachAddress(features,
                   [&](std::size_t c, Address addr) { out[c] = addr; });
    return out;
}

void
LookupEncoder::accumulate(std::size_t c, Address addr, std::int32_t *acc,
                          std::vector<std::int8_t> &scratch) const
{
    const std::span<const std::int8_t> row = tableFor(c).row(addr, scratch);
    hdc::kernels::addSignedI8I8(acc, row.data(), positions_.at(c).data(),
                                row.size());
}

hdc::IntHv
LookupEncoder::encode(std::span<const double> features) const
{
    LOOKHD_SPAN("lookhd.encode", "encode");
    LOOKHD_COUNT_ADD("lookhd.encode.calls", 1);
    hdc::IntHv acc(dim(), 0);
    std::vector<std::int8_t> scratch;
    forEachAddress(features, [&](std::size_t c, Address addr) {
        accumulate(c, addr, acc.data(), scratch);
    });
    return acc;
}

hdc::IntHv
LookupEncoder::encodeFromAddresses(
    std::span<const Address> addresses) const
{
    LOOKHD_CHECK(addresses.size() == chunks_.numChunks(),
                 "address count mismatch");
    hdc::IntHv acc(dim(), 0);
    std::vector<std::int8_t> scratch;
    for (std::size_t c = 0; c < addresses.size(); ++c)
        accumulate(c, addresses[c], acc.data(), scratch);
    return acc;
}

const ChunkLookupTable &
LookupEncoder::tableFor(std::size_t c) const
{
    LOOKHD_CHECK_BOUNDS(c, chunks_.numChunks());
    const Tables &t = tables();
    if (t.tail && c == chunks_.numChunks() - 1)
        return *t.tail;
    return *t.full;
}

std::size_t
LookupEncoder::materializedBytes() const
{
    const Tables &t = tables();
    return residentBytes(t.full.get()) + residentBytes(t.tail.get());
}

} // namespace lookhd
