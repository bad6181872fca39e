/**
 * @file
 * The traced run: a workload's request stream and training set
 * replayed through each layer's public functions, with spans (thread
 * CPU time) taken here, around the calls, not inside the program.
 */

#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <cstddef>
#include <string>

#include "client.hpp"
#include "lookhd/classifier.hpp"

namespace perfbench {

/** Replayed CPU cost of each request-path layer, µs per request. */
struct LayerCosts
{
    double parseUs = 0.0;      ///< serve::parseJson + feature copy.
    double addrUs = 0.0;       ///< LookupEncoder::chunkAddresses.
    double encodeUs = 0.0;     ///< LookupEncoder::encode (incl. addr).
    double scoreUs = 0.0;      ///< Class scoring at the precision.
    double predictBatchUs = 0.0; ///< Classifier::scoresBatch.
    double serializeUs = 0.0;  ///< obs::JsonWriter response.

    /** The ledger's layers: addressing is part of encode, and
     * predict_batch only cross-checks encode + score. */
    double sum() const
    {
        return parseUs + encodeUs + scoreUs + serializeUs;
    }
};

/**
 * Replay @p set's lines through the request path of @p clf (loaded
 * from the served file, serving precision set) in batches of
 * @p batch rows, @p passes times; each layer reports its median pass.
 * @throws std::runtime_error if a replayed prediction differs from
 * set.oracle.
 */
LayerCosts replayLayers(const lookhd::Classifier &clf,
                        const RequestSet &set, std::size_t batch,
                        std::size_t passes);

/** Write-side costs of a fitted model's layers. */
struct TrainCosts
{
    double encodeUsPerRow = 0.0; ///< LookupEncoder::encode per row.
    double countS = 0.0;  ///< Classifier::fit with 0 retrain epochs.
    double saveMs = 0.0;  ///< saveClassifierFile, median of 3.
    double loadMs = 0.0;  ///< loadClassifierFile, median of 3.
};

/** Measure @p fitted's training layers on @p train; @p path is a
 * scratch file for the save/load round trips. */
TrainCosts trainBreakdown(const lookhd::ClassifierConfig &config,
                          const lookhd::data::Dataset &train,
                          const lookhd::Classifier &fitted,
                          const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
