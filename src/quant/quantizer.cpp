#include "quant/quantizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.hpp"

namespace lookhd::quant {

namespace {

/** Ascending and free of NaN: the only boundaries binOf() honours. */
bool
validBounds(std::span<const double> bounds)
{
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (std::isnan(bounds[i]) || (i > 0 && bounds[i - 1] > bounds[i]))
            return false;
    }
    return true;
}

std::vector<double>
linearBounds(std::span<const double> sample, std::size_t levels)
{
    const auto [lo, hi] = std::minmax_element(sample.begin(), sample.end());
    // A constant sample has no range to split: bounds at +inf keep
    // every finite value in level 0.
    if (*lo == *hi)
        return std::vector<double>(
            levels - 1, std::numeric_limits<double>::infinity());
    std::vector<double> out;
    out.reserve(levels - 1);
    const double width = (*hi - *lo) / static_cast<double>(levels);
    for (std::size_t i = 1; i < levels; ++i)
        out.push_back(*lo + width * static_cast<double>(i));
    return out;
}

std::vector<double>
equalizedBounds(std::span<const double> sample, std::size_t levels)
{
    std::vector<double> sorted(sample.begin(), sample.end());
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> out;
    out.reserve(levels - 1);
    for (std::size_t i = 1; i < levels; ++i) {
        // Boundary at the i/q quantile, indexed into the sorted
        // sample.
        const std::size_t idx = std::min(
            sorted.size() - 1, i * sorted.size() / levels);
        out.push_back(sorted[idx]);
    }
    return out;
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

/**
 * Fit-time bin-occupancy telemetry for one freshly fitted boundary
 * set (quant.fit.* counters/gauges; see ARCHITECTURE.md's
 * quality-metric taxonomy). No-op when observability is compiled out
 * or disabled at runtime.
 */
void
recordFitTelemetry([[maybe_unused]] std::span<const double> bounds,
                   [[maybe_unused]] std::span<const double> sample)
{
#if LOOKHD_OBS_ENABLED
    if (!obs::enabled())
        return;
    const std::vector<std::size_t> counts = occupancy(bounds, sample);
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
#endif
}

/** One policy's boundaries for @p sample, with fit telemetry. */
std::vector<double>
fitBounds(QuantizationKind kind, std::span<const double> sample,
          std::size_t levels)
{
    LOOKHD_CHECK(levels >= 2, "quantizer needs at least 2 levels");
    LOOKHD_CHECK(!sample.empty(), "cannot fit quantizer on empty sample");
    LOOKHD_CHECK(std::all_of(sample.begin(), sample.end(),
                             [](double v) { return std::isfinite(v); }),
                 "cannot fit quantizer on non-finite values");
    std::vector<double> bounds = kind == QuantizationKind::kEqualized
                                     ? equalizedBounds(sample, levels)
                                     : linearBounds(sample, levels);
    recordFitTelemetry(bounds, sample);
    return bounds;
}

} // namespace

Quantizer::Quantizer(std::vector<double> bounds, std::size_t levels,
                     std::size_t features)
    : bounds_(std::move(bounds)), levels_(levels), features_(features)
{
}

Quantizer
Quantizer::fromBounds(std::vector<double> bounds)
{
    LOOKHD_CHECK(!bounds.empty(), "quantizer needs boundaries");
    LOOKHD_CHECK(validBounds(bounds),
                 "boundaries must be ascending and not NaN");
    const std::size_t levels = bounds.size() + 1;
    return Quantizer(std::move(bounds), levels, 0);
}

Quantizer
Quantizer::fromFeatureBounds(const std::vector<std::vector<double>> &bounds)
{
    LOOKHD_CHECK(!bounds.empty(), "quantizer needs at least one feature");
    const std::size_t width = bounds.front().size();
    LOOKHD_CHECK(width != 0, "quantizer needs boundaries");
    std::vector<double> flat;
    flat.reserve(bounds.size() * width);
    for (const auto &b : bounds) {
        LOOKHD_CHECK(b.size() == width, "boundary count mismatch");
        LOOKHD_CHECK(validBounds(b),
                     "boundaries must be ascending and not NaN");
        flat.insert(flat.end(), b.begin(), b.end());
    }
    return Quantizer(std::move(flat), width + 1, bounds.size());
}

std::size_t
Quantizer::level(double value) const
{
    LOOKHD_CHECK(!perFeature(), "per-feature quantizer needs a feature");
    return binOf(bounds_, value);
}

std::vector<std::size_t>
Quantizer::levelsOf(std::span<const double> row) const
{
    LOOKHD_CHECK(!perFeature() || row.size() == features_,
                 "row width mismatch");
    std::vector<std::size_t> out(row.size());
    for (std::size_t f = 0; f < row.size(); ++f)
        out[f] = level(f, row[f]);
    return out;
}

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

Quantizer
fitLinear(std::span<const double> sample, std::size_t levels)
{
    return Quantizer::fromBounds(
        fitBounds(QuantizationKind::kLinear, sample, levels));
}

Quantizer
fitEqualized(std::span<const double> sample, std::size_t levels)
{
    return Quantizer::fromBounds(
        fitBounds(QuantizationKind::kEqualized, sample, levels));
}

Quantizer
fit(QuantizationKind kind, const data::Dataset &ds, std::size_t levels,
    bool perFeature)
{
    LOOKHD_CHECK(!ds.empty(), "cannot fit quantizer on empty dataset");
    if (!perFeature)
        return Quantizer::fromBounds(
            fitBounds(kind, ds.allValues(), levels));
    std::vector<std::vector<double>> bounds(ds.numFeatures());
    std::vector<double> column(ds.size());
    for (std::size_t f = 0; f < bounds.size(); ++f) {
        for (std::size_t i = 0; i < ds.size(); ++i)
            column[i] = ds.row(i)[f];
        bounds[f] = fitBounds(kind, column, levels);
    }
    return Quantizer::fromFeatureBounds(bounds);
}

std::vector<std::size_t>
occupancy(std::span<const double> bounds, std::span<const double> sample)
{
    std::vector<std::size_t> counts(bounds.size() + 1, 0);
    for (const double v : sample)
        ++counts[binOf(bounds, v)];
    return counts;
}

} // namespace lookhd::quant
