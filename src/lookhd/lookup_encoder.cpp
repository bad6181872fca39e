#include "lookhd/lookup_encoder.hpp"

#include <stdexcept>

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
      chunks_(chunks), positions_(std::move(positions))
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

    const std::size_t full_len =
        std::min(chunks_.chunkSize(), chunks_.numFeatures());
    fullTable_ = std::make_shared<ChunkLookupTable>(
        levels_, full_len, config.materializeBudgetBytes);
    if (!chunks_.uniform()) {
        const std::size_t tail_len =
            chunks_.length(chunks_.numChunks() - 1);
        if (tail_len != full_len) {
            tailTable_ = std::make_shared<ChunkLookupTable>(
                levels_, tail_len, config.materializeBudgetBytes);
        }
    }
    LOOKHD_COUNT_ADD("lookhd.table.builds", 1);
    LOOKHD_GAUGE_SET("lookhd.table.address_space",
                     fullTable_->addressSpaceSize());
    LOOKHD_GAUGE_SET("lookhd.table.materialized_bytes",
                     materializedBytes());
}

namespace {

/**
 * Saturation telemetry: how many values land in the edge levels
 * (0 and q-1). Under linear quantization, out-of-range test values
 * clamp to the edges; a high saturation fraction is the failure mode
 * equalized quantization avoids (Fig. 3/4). Counted locally by the
 * caller, then two atomic adds per row.
 */
void
recordSaturation([[maybe_unused]] std::size_t values,
                 [[maybe_unused]] std::size_t saturated)
{
#if LOOKHD_OBS_ENABLED
    if (obs::enabled()) {
        LOOKHD_COUNT_ADD("quant.level.values", values);
        LOOKHD_COUNT_ADD("quant.level.saturated", saturated);
    }
#endif
}

} // namespace

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
    recordSaturation(features.size(), saturated);
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
    recordSaturation(out.size(), saturated);
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
    if (tailTable_ && c == chunks_.numChunks() - 1)
        return *tailTable_;
    return *fullTable_;
}

std::size_t
LookupEncoder::materializedBytes() const
{
    std::size_t bytes = 0;
    if (fullTable_->materialized())
        bytes += fullTable_->tableBytes();
    if (tailTable_ && tailTable_->materialized())
        bytes += tailTable_->tableBytes();
    return bytes;
}

} // namespace lookhd
