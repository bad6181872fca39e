/**
 * @file
 * Activity-recognition example: the IoT deployment scenario the
 * paper's introduction motivates. A smartphone streams 561-feature
 * windows (UCIHAR-shaped) and the device must both train and classify
 * under a tight memory budget. The example compares the deployed
 * footprint and accuracy of: conventional HDC, LookHD, LookHD with a
 * binarized model, and an MLP.
 */

#include <cstdio>
#include <memory>

#include "baseline/mlp.hpp"
#include "data/apps.hpp"
#include "hdc/encoder.hpp"
#include "hdc/similarity.hpp"
#include "hdc/trainer.hpp"
#include "lookhd/classifier.hpp"
#include "lookhd/quantized_inference.hpp"
#include "quant/quantizer.hpp"

int
main()
{
    using namespace lookhd;

    const data::AppSpec &app = data::appByName("ACTIVITY");
    std::printf("Workload: %s (%s)\n\n", app.name.c_str(),
                app.description.c_str());
    auto tt = data::makeTrainTest(app.synthetic(3),
                                  60 * app.numClasses,
                                  40 * app.numClasses);

    std::printf("%-28s %10s %14s\n", "classifier", "accuracy",
                "model bytes");

    // Conventional HDC (linear quantization, uncompressed model).
    {
        util::Rng rng(1);
        auto levels =
            std::make_shared<hdc::LevelMemory>(2000, app.paperQ, rng);
        hdc::BaselineEncoder encoder(
            levels, quant::fitLinear(tt.train.allValues(), app.paperQ));
        hdc::BaselineTrainer trainer(encoder);
        hdc::TrainOptions opts;
        opts.retrainEpochs = 5;
        const auto result = trainer.train(tt.train, opts);
        std::printf("%-28s %9.1f%% %14zu\n", "baseline HDC",
                    100.0 * trainer.evaluate(result.model, tt.test),
                    result.model.sizeBytes());
    }

    // LookHD: equalized q = 4, lookup encoding, compressed model.
    ClassifierConfig cfg;
    cfg.dim = 2000;
    cfg.quantLevels = app.lookhdQ;
    cfg.chunkSize = app.chunkSize;
    Classifier lookhd(cfg);
    lookhd.fit(tt.train);
    std::printf("%-28s %9.1f%% %14zu\n", "LookHD (compressed)",
                100.0 * lookhd.evaluate(tt.test),
                lookhd.modelSizeBytes());

    // Binary HDC model (prior in-memory accelerators).
    {
        const auto binary = QuantizedServingModel::fromClassModel(
            lookhd.uncompressedModel());
        std::size_t ok = 0;
        for (std::size_t i = 0; i < tt.test.size(); ++i) {
            const hdc::IntHv q = lookhd.encoder().encode(tt.test.row(i));
            const hdc::IntHv *qp = &q;
            ok += hdc::argmax(binary.scoresBatchBinary(&qp, 1)) ==
                  tt.test.label(i);
        }
        std::printf("%-28s %9.1f%% %14zu\n", "binary HDC model",
                    100.0 * static_cast<double>(ok) /
                        static_cast<double>(tt.test.size()),
                    binary.binarySizeBytes());
    }

    // MLP baseline.
    {
        baseline::MlpConfig mcfg;
        mcfg.hiddenSizes = {128};
        mcfg.epochs = 15;
        baseline::Mlp mlp(app.numFeatures, app.numClasses, mcfg);
        mlp.fit(tt.train);
        std::printf("%-28s %9.1f%% %14zu\n", "MLP (128 hidden)",
                    100.0 * mlp.evaluate(tt.test),
                    mlp.parameterCount() * 4);
    }

    std::printf("\nLookHD keeps the accuracy of the non-binary HDC "
                "model at a fraction of the deployed footprint.\n");
    return 0;
}
