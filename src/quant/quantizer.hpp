/**
 * @file
 * Feature-value quantizers.
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
 */

#ifndef LOOKHD_QUANT_QUANTIZER_HPP
#define LOOKHD_QUANT_QUANTIZER_HPP

#include <cstddef>
#include <vector>

namespace lookhd::quant {

/** Maps real feature values to discrete levels in [0, q). */
class Quantizer
{
  public:
    virtual ~Quantizer() = default;

    /**
     * Calibrate boundaries from a sample of feature values.
     * @pre sample non-empty.
     */
    virtual void fit(const std::vector<double> &sample) = 0;

    /** Level index in [0, levels()) for a value. @pre fit() called. */
    virtual std::size_t level(double value) const = 0;

    /** Number of quantization levels q. */
    virtual std::size_t levels() const = 0;

    /**
     * The q-1 internal bin boundaries in ascending order. Values below
     * boundary 0 map to level 0; values at or above boundary i map to
     * level i+1 or higher.
     */
    virtual std::vector<double> boundaries() const = 0;

    /** Whether fit() has been called. */
    virtual bool fitted() const = 0;

    /** Quantize a whole feature vector. */
    std::vector<std::size_t>
    levelsOf(const std::vector<double> &values) const
    {
        std::vector<std::size_t> out(values.size());
        for (std::size_t i = 0; i < values.size(); ++i)
            out[i] = level(values[i]);
        return out;
    }
};

/**
 * Bin index of @p value over ascending boundaries: the number of
 * boundaries b with !(value < b), computed as a branch-free
 * compare-count. Equal to std::upper_bound's index for every double,
 * including NaN (past the last bound), +-inf and values equal to a
 * boundary (which fall into the upper bin).
 */
std::size_t binOf(const std::vector<double> &bounds, double value);

/**
 * Per-level occupancy of @p sample under a fitted quantizer: how
 * many sample values map to each level. The shape of this profile
 * is the paper's Fig. 3 argument - equalized quantization keeps it
 * flat where linear quantization concentrates mass in a few levels.
 */
std::vector<std::size_t> occupancy(const Quantizer &q,
                                   const std::vector<double> &sample);

/**
 * Normalized Shannon entropy of an occupancy profile in [0, 1]:
 * 1 means perfectly equalized levels, 0 means all mass in one level
 * (or fewer than 2 levels / an empty profile).
 */
double occupancyEntropy(const std::vector<std::size_t> &counts);

/**
 * Emit fit-time bin-occupancy telemetry for a freshly fitted
 * quantizer (quant.fit.* counters/gauges; see ARCHITECTURE.md's
 * quality-metric taxonomy). No-op when observability is compiled
 * out or disabled at runtime; quantizer fits call it at the end of
 * fit().
 */
void recordFitTelemetry(const Quantizer &q,
                        const std::vector<double> &sample);

} // namespace lookhd::quant

#endif // LOOKHD_QUANT_QUANTIZER_HPP
