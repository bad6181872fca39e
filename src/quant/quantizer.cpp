#include "quant/quantizer.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"

namespace lookhd::quant {

std::size_t
binOf(const std::vector<double> &bounds, double value)
{
    // Over ascending bounds "value < b" is false then true, so the
    // count of false compares is std::upper_bound's index; NaN
    // compares false everywhere and lands past the last bound, as
    // upper_bound does. No data-dependent branch.
    std::size_t n = 0;
    for (const double b : bounds)
        n += !(value < b);
    return n;
}

std::vector<std::size_t>
occupancy(const Quantizer &q, const std::vector<double> &sample)
{
    std::vector<std::size_t> counts(q.levels(), 0);
    for (const double v : sample)
        ++counts[q.level(v)];
    return counts;
}

double
occupancyEntropy(const std::vector<std::size_t> &counts)
{
    if (counts.size() < 2)
        return 0.0;
    std::size_t total = 0;
    for (const std::size_t c : counts)
        total += c;
    if (total == 0)
        return 0.0;
    double entropy = 0.0;
    for (const std::size_t c : counts) {
        if (c == 0)
            continue;
        const double p =
            static_cast<double>(c) / static_cast<double>(total);
        entropy -= p * std::log2(p);
    }
    return entropy / std::log2(static_cast<double>(counts.size()));
}

void
recordFitTelemetry(const Quantizer &q, const std::vector<double> &sample)
{
#if LOOKHD_OBS_ENABLED
    if (!obs::enabled())
        return;
    const std::vector<std::size_t> counts = occupancy(q, sample);
    std::size_t collapsed = 0;
    std::size_t peak = 0;
    for (const std::size_t c : counts) {
        if (c == 0)
            ++collapsed;
        peak = std::max(peak, c);
    }
    LOOKHD_COUNT_ADD("quant.fit.calls", 1);
    LOOKHD_COUNT_ADD("quant.fit.collapsed_bins", collapsed);
    LOOKHD_GAUGE_SET("quant.fit.occupancy_entropy",
                     occupancyEntropy(counts));
    if (!sample.empty())
        LOOKHD_GAUGE_SET("quant.fit.occupancy_peak_frac",
                         static_cast<double>(peak) /
                             static_cast<double>(sample.size()));
#else
    (void)q;
    (void)sample;
#endif
}

} // namespace lookhd::quant
