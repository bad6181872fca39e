/**
 * @file
 * Speech-recognition walkthrough: the paper's flagship workload
 * (ISOLET-shaped: 617 features, 26 classes), stepping through the
 * full LookHD pipeline with the intermediate pieces exposed -
 * quantizer boundaries, lookup-table footprint, counter statistics,
 * model compression, and the retraining curve.
 */

#include <cstdio>
#include <memory>

#include "data/apps.hpp"
#include "lookhd/counter_trainer.hpp"
#include "lookhd/retrainer.hpp"
#include "quant/quantizer.hpp"

int
main()
{
    using namespace lookhd;

    const data::AppSpec &app = data::appByName("SPEECH");
    std::printf("Workload: %s (%s)\n  n = %zu features, k = %zu "
                "classes\n\n",
                app.name.c_str(), app.description.c_str(),
                app.numFeatures, app.numClasses);

    auto tt = data::makeTrainTest(app.synthetic(7),
                                  40 * app.numClasses,
                                  15 * app.numClasses);

    // --- 1. Equalized quantization (Sec. III-B) ---
    const std::size_t q = app.lookhdQ;
    const auto quantizer = quant::fitEqualized(tt.train.allValues(), q);
    std::printf("Equalized boundaries (q = %zu):", q);
    for (double b : quantizer.boundaries())
        std::printf(" %.3f", b);
    std::printf("\n");

    // --- 2. Level memory and chunked lookup encoder (Sec. III-C) ---
    const hdc::Dim dim = 2000;
    util::Rng rng(42);
    auto levels = std::make_shared<hdc::LevelMemory>(dim, q, rng);
    LookupEncoder encoder(levels, quantizer,
                          ChunkSpec(app.numFeatures, app.chunkSize),
                          rng);
    std::printf("Chunks: %zu of size %zu; chunk table: %llu rows, "
                "%.1f KiB materialized\n",
                encoder.chunks().numChunks(), encoder.chunks().chunkSize(),
                static_cast<unsigned long long>(
                    encoder.tableFor(0).addressSpaceSize()),
                encoder.materializedBytes() / 1024.0);

    // --- 3. Counter-based training (Sec. III-D) ---
    CounterTrainer trainer(encoder);
    const CounterBank bank = trainer.countDataset(tt.train);
    std::printf("Counters: class 0 / chunk 0 saw %zu distinct of %llu "
                "possible patterns\n",
                bank.at(0, 0).distinct(),
                static_cast<unsigned long long>(
                    encoder.tableFor(0).addressSpaceSize()));
    hdc::ClassModel model = trainer.finalize(bank);
    std::printf("Uncompressed model: %zu x D=%zu (%zu bytes)\n",
                model.numClasses(), model.dim(), model.sizeBytes());

    // --- 4. Compression with grouping (Sec. IV, VI-G) ---
    util::Rng key_rng(43);
    CompressionConfig ccfg;
    ccfg.maxClassesPerGroup = 12;
    CompressedModel compressed(model, key_rng, ccfg);
    std::printf("Compressed model: %zu hypervector(s), %zu bytes "
                "(%.1fx smaller)\n",
                compressed.numGroups(), compressed.sizeBytes(),
                static_cast<double>(model.sizeBytes()) /
                    static_cast<double>(compressed.sizeBytes()));

    // --- 5. Compressed-domain retraining (Sec. IV-D) ---
    Retrainer retrainer(encoder);
    RetrainOptions opts;
    opts.epochs = 8;
    const RetrainResult rr = retrainer.retrain(compressed, tt.train, opts);
    std::printf("Retraining (train acc):");
    for (double a : rr.accuracyHistory)
        std::printf(" %.3f", a);
    std::printf("  (%zu updates)\n", rr.updates);

    const double acc = retrainer.evaluate(compressed, tt.test);
    std::printf("\nTest accuracy: %.1f%% (paper reports 94-95%% on "
                "the real ISOLET data)\n",
                100.0 * acc);
    return 0;
}
