/**
 * @file
 * Feature-value quantization.
 *
 * HDC encoders do not consume raw feature values; each value is first
 * mapped to one of q discrete levels, and the level selects a level
 * hypervector. The paper contrasts two boundary-placement policies:
 *
 *  - linear: q equal-width bins over [f_min, f_max] (the conventional
 *    choice, Sec. II-A);
 *  - equalized: boundaries at empirical quantiles so every level
 *    receives the same share of the training values (Sec. III-B,
 *    Fig. 3) - the key enabler for small q in LookHD.
 *
 * The policies differ only in where the q-1 boundaries go, so a
 * fitted Quantizer is nothing but its boundaries: one set shared by
 * every feature (the paper's global calibration over normalized
 * data), or one set per feature column for features that live on
 * heterogeneous scales. level() is binOf() over those boundaries
 * whichever policy placed them, which is why a model restored from
 * its saved boundaries quantizes exactly like the one that was
 * fitted.
 */

#ifndef LOOKHD_QUANT_QUANTIZER_HPP
#define LOOKHD_QUANT_QUANTIZER_HPP

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "util/check.hpp"

namespace lookhd::quant {

/** Which boundary-placement policy a fit uses. */
enum class QuantizationKind
{
    kLinear,    ///< Equal-width bins (conventional HDC).
    kEqualized, ///< Quantile bins (the paper's proposal).
};

/**
 * Bin index of @p value over ascending boundaries: the number of
 * boundaries b with !(value < b), computed as a branch-free
 * compare-count. Equal to std::upper_bound's index for every double,
 * including NaN (past the last bound), +-inf and values equal to a
 * boundary (which fall into the upper bin).
 */
inline std::size_t
binOf(std::span<const double> bounds, double value)
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

/** A fitted quantizer: q-1 ascending bin boundaries per feature. */
class Quantizer
{
  public:
    /**
     * A global quantizer: one boundary set shared by every feature.
     * @pre bounds non-empty, ascending, none NaN.
     */
    static Quantizer fromBounds(std::vector<double> bounds);

    /**
     * A per-feature quantizer: bounds[f] is feature f's boundary
     * set. @pre at least one feature; every set non-empty, of the
     * same size, ascending, none NaN.
     */
    static Quantizer
    fromFeatureBounds(const std::vector<std::vector<double>> &bounds);

    /** Number of quantization levels q. */
    std::size_t levels() const { return levels_; }

    /** Whether each feature has its own boundary set. */
    bool perFeature() const { return features_ != 0; }

    /**
     * Feature count of a per-feature quantizer; 0 for a global one,
     * which quantizes rows of any width.
     */
    std::size_t numFeatures() const { return features_; }

    /**
     * The q-1 ascending boundaries feature @p feature uses (the
     * shared set of a global quantizer, for every feature). Values
     * below boundary 0 map to level 0; values at or above boundary
     * i map to level i+1 or higher.
     */
    std::span<const double> boundaries(std::size_t feature = 0) const
    {
        LOOKHD_CHECK(features_ == 0 || feature < features_,
                     "feature index out of range");
        const std::size_t width = levels_ - 1;
        return {bounds_.data() + (features_ ? feature * width : 0),
                width};
    }

    /** Level in [0, levels()) of @p value as feature @p feature. */
    std::size_t level(std::size_t feature, double value) const
    {
        return binOf(boundaries(feature), value);
    }

    /** Level of @p value under a global quantizer. @pre !perFeature(). */
    std::size_t level(double value) const;

    /**
     * Quantize a whole row. @pre row.size() == numFeatures() for a
     * per-feature quantizer.
     */
    std::vector<std::size_t> levelsOf(std::span<const double> row) const;

  private:
    Quantizer(std::vector<double> bounds, std::size_t levels,
              std::size_t features);

    /** levels_ - 1 boundaries per feature, feature-major; one set
     * when features_ == 0. */
    std::vector<double> bounds_;
    std::size_t levels_;
    std::size_t features_;
};

/**
 * Equal-width fit: q-1 boundaries splitting [min, max] of @p sample
 * into q bins; out-of-range values clamp to the edge levels. A
 * constant sample puts every finite value in level 0.
 * @pre levels >= 2; sample non-empty and finite.
 */
Quantizer fitLinear(std::span<const double> sample, std::size_t levels);

/**
 * Equalized fit: boundaries at the i/q empirical quantiles of
 * @p sample, so each level captures about the same number of
 * training values. Skewed feature distributions then use all levels
 * instead of crowding a few, which is what lets LookHD reach peak
 * accuracy with q = 2 or 4. Ties collapse bins; an emptied bin
 * simply never fires. @pre levels >= 2; sample non-empty and finite.
 */
Quantizer fitEqualized(std::span<const double> sample,
                       std::size_t levels);

/**
 * Fit @p kind on @p ds: one boundary set over every value of the
 * dataset, or with @p perFeature one set per feature column.
 * @pre ds non-empty; levels >= 2.
 */
Quantizer fit(QuantizationKind kind, const data::Dataset &ds,
              std::size_t levels, bool perFeature);

/**
 * Saturation telemetry of quantized rows: @p values levels were
 * taken, @p saturated of them in an edge level (0 or q-1). Under
 * linear quantization out-of-range values clamp to the edges; a high
 * saturated fraction is the failure mode equalized quantization
 * avoids (Fig. 3/4). Callers count locally and report once per row
 * (quant.level.values / quant.level.saturated).
 */
void recordSaturation(std::size_t values, std::size_t saturated);

/**
 * Per-level occupancy of @p sample over ascending @p bounds: how
 * many sample values map to each level. The shape of this profile
 * is the paper's Fig. 3 argument - equalized quantization keeps it
 * flat where linear quantization concentrates mass in a few levels.
 */
std::vector<std::size_t> occupancy(std::span<const double> bounds,
                                   std::span<const double> sample);

} // namespace lookhd::quant

#endif // LOOKHD_QUANT_QUANTIZER_HPP
