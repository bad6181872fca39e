/**
 * @file
 * Record-based HDC encoder (ID-value binding).
 *
 * The HDC literature has two canonical feature-vector encodings. The
 * paper's baseline (and LookHD) use the permutation flavour, where
 * feature position is a rotation (hdc::BaselineEncoder). The other -
 * used by OnlineHD and much of the related work - assigns each
 * feature a random ID hypervector and binds it with the feature's
 * level hypervector:
 *
 *   H = ID_1 * L(f_1) + ID_2 * L(f_2) + ... + ID_n * L(f_n)
 *
 * Both preserve position; they differ in memory (n ID hypervectors vs
 * none) and in hardware cost (bind vs rotate). Providing both lets
 * experiments compare the encodings on equal footing.
 */

#ifndef LOOKHD_HDC_RECORD_ENCODER_HPP
#define LOOKHD_HDC_RECORD_ENCODER_HPP

#include <memory>
#include <span>

#include "hdc/item_memory.hpp"
#include "quant/quantizer.hpp"

namespace lookhd::hdc {

/** ID-value binding encoder over a level memory. */
class RecordEncoder
{
  public:
    /**
     * @param levels Level memory (values).
     * @param quantizer Quantizer matching levels.
     * @param num_features Feature count n (one ID per feature).
     * @param rng Source for the ID hypervectors.
     */
    RecordEncoder(std::shared_ptr<const LevelMemory> levels,
                  quant::Quantizer quantizer, std::size_t num_features,
                  util::Rng &rng);

    Dim dim() const { return levels_->dim(); }
    std::size_t numFeatures() const { return ids_.count(); }

    /** Encode a raw feature vector. */
    IntHv encode(std::span<const double> features) const;

    /** The per-feature ID hypervectors. */
    const KeyMemory &ids() const { return ids_; }

    const LevelMemory &levelMemory() const { return *levels_; }

  private:
    std::shared_ptr<const LevelMemory> levels_;
    quant::Quantizer quantizer_;
    KeyMemory ids_;
};

} // namespace lookhd::hdc

#endif // LOOKHD_HDC_RECORD_ENCODER_HPP
