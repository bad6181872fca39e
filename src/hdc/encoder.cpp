#include "hdc/encoder.hpp"

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace lookhd::hdc {

BaselineEncoder::BaselineEncoder(std::shared_ptr<const LevelMemory> levels,
                                 quant::Quantizer quantizer)
    : levels_(std::move(levels)), quantizer_(std::move(quantizer))
{
    LOOKHD_CHECK(levels_, "encoder needs levels");
    LOOKHD_CHECK(quantizer_.levels() == levels_->levels(),
                 "quantizer levels do not match level memory");
}

IntHv
BaselineEncoder::encode(std::span<const double> features) const
{
    LOOKHD_SPAN("hdc.encode", "encode");
    LOOKHD_COUNT_ADD("hdc.encode.calls", 1);
    IntHv acc(dim(), 0);
    for (std::size_t i = 0; i < features.size(); ++i) {
        addRotated(acc, levels_->at(quantizer_.level(i, features[i])),
                   i);
    }
    return acc;
}

IntHv
BaselineEncoder::encodeLevels(std::span<const std::size_t> levels) const
{
    LOOKHD_SPAN("hdc.encode", "encode");
    LOOKHD_COUNT_ADD("hdc.encode.calls", 1);
    IntHv acc(dim(), 0);
    for (std::size_t i = 0; i < levels.size(); ++i)
        addRotated(acc, levels_->at(levels[i]), i);
    return acc;
}

} // namespace lookhd::hdc
