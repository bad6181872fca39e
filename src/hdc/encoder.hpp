/**
 * @file
 * Baseline permutation-based HDC encoder (paper Eq. 1).
 *
 * This is the encoding used by the state-of-the-art HDC systems the
 * paper compares against: each feature value selects a level
 * hypervector, each feature index applies a rotation, and the rotated
 * level hypervectors are summed:
 *
 *   H = L(f_1) + rho L(f_2) + ... + rho^{n-1} L(f_n)
 *
 * Its cost is O(n * D) per data point, which is what dominates
 * baseline training time (Fig. 2) and what LookHD eliminates.
 */

#ifndef LOOKHD_HDC_ENCODER_HPP
#define LOOKHD_HDC_ENCODER_HPP

#include <memory>
#include <span>

#include "hdc/item_memory.hpp"
#include "quant/quantizer.hpp"

namespace lookhd::hdc {

/** Permutation (rotation) encoder over a level memory. */
class BaselineEncoder
{
  public:
    /**
     * @param levels Level memory shared with the rest of the model.
     * @param quantizer Quantizer with levels() == levels.levels().
     */
    BaselineEncoder(std::shared_ptr<const LevelMemory> levels,
                    quant::Quantizer quantizer);

    Dim dim() const { return levels_->dim(); }
    std::size_t quantLevels() const { return levels_->levels(); }

    /** Encode a raw feature vector (Eq. 1). */
    IntHv encode(std::span<const double> features) const;

    /** Encode already-quantized level indices (Eq. 1). */
    IntHv encodeLevels(std::span<const std::size_t> levels) const;

    const LevelMemory &levelMemory() const { return *levels_; }

    const quant::Quantizer &quantizer() const { return quantizer_; }

  private:
    std::shared_ptr<const LevelMemory> levels_;
    quant::Quantizer quantizer_;
};

} // namespace lookhd::hdc

#endif // LOOKHD_HDC_ENCODER_HPP
