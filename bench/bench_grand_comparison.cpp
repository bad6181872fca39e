/**
 * @file
 * Grand comparison: every classifier in the library on every paper
 * workload - accuracy, deployed model size, and modeled FPGA
 * training/inference latency. The one-table summary of what LookHD
 * buys relative to the alternatives.
 */

#include <memory>

#include "baseline/mlp.hpp"
#include "baseline/mlp_fpga_model.hpp"
#include "common.hpp"
#include "hdc/online_trainer.hpp"
#include "hdc/similarity.hpp"
#include "hdc/trainer.hpp"
#include "hw/fpga_model.hpp"
#include "hw/report.hpp"
#include "lookhd/quantized_inference.hpp"
#include "quant/quantizer.hpp"

int
main(int argc, char **argv)
{
    using namespace lookhd;
    bench::BenchReporter rep("grand_comparison", argc, argv);
    using namespace lookhd::hw;
    bench::banner("Grand comparison: accuracy / model bytes / modeled "
                  "FPGA latency (train, per-query infer)");

    FpgaModel fpga;
    baseline::MlpFpgaModel mlp_fpga;

    for (const auto &app : data::paperApps()) {
        const auto tt = bench::appData(app);
        const AppParams p = appParamsFor(app, 2000, app.lookhdQ, 5);

        util::Table table({"classifier", "accuracy", "model bytes",
                           "train (model)", "infer (model)"});

        // LookHD (full pipeline).
        Classifier lookhd(bench::appConfig(app));
        lookhd.fit(tt.train);
        table.addRow(
            {"LookHD (compressed)",
             util::fmtPercent(lookhd.evaluate(tt.test)),
             std::to_string(lookhd.modelSizeBytes()),
             formatSeconds(fpga.lookhdTrain(p).seconds),
             formatSeconds(fpga.lookhdInferQuery(p).seconds)});

        // Conventional HDC (linear quantization, uncompressed).
        {
            util::Rng rng(3);
            auto levels = std::make_shared<hdc::LevelMemory>(
                2000, app.paperQ, rng);
            hdc::BaselineEncoder encoder(
                levels, quant::fitLinear(tt.train.allValues(), app.paperQ));
            hdc::BaselineTrainer trainer(encoder);
            hdc::TrainOptions opts;
            opts.retrainEpochs = 5;
            const auto result = trainer.train(tt.train, opts);
            AppParams bp = appParamsFor(app, 2000, app.paperQ, 5);
            table.addRow(
                {"baseline HDC",
                 util::fmtPercent(
                     trainer.evaluate(result.model, tt.test)),
                 std::to_string(result.model.sizeBytes()),
                 formatSeconds(fpga.baselineTrain(bp).seconds),
                 formatSeconds(
                     fpga.baselineInferQuery(bp).seconds)});

            // Binary HDC (binarized baseline model).
            const auto binary =
                QuantizedServingModel::fromClassModel(result.model);
            std::size_t ok = 0;
            for (std::size_t i = 0; i < tt.test.size(); ++i) {
                const hdc::IntHv q = encoder.encode(tt.test.row(i));
                const hdc::IntHv *qp = &q;
                ok += hdc::argmax(binary.scoresBatchBinary(&qp, 1)) ==
                      tt.test.label(i);
            }
            table.addRow(
                {"binary HDC",
                 util::fmtPercent(static_cast<double>(ok) /
                                  tt.test.size()),
                 std::to_string(binary.binarySizeBytes()),
                 formatSeconds(fpga.baselineTrain(bp).seconds),
                 formatSeconds(
                     fpga.baselineInferQuery(bp).seconds)});
        }

        // OnlineHD-style adaptive single pass (uncompressed model).
        {
            Classifier base(bench::appConfig(app));
            base.fit(tt.train); // reuse its encoder
            std::vector<hdc::IntHv> encoded;
            for (std::size_t i = 0; i < tt.train.size(); ++i)
                encoded.push_back(
                    base.encoder().encode(tt.train.row(i)));
            const auto online = hdc::onlineTrain(
                encoded, tt.train.labels(), 2000, app.numClasses,
                {});
            std::size_t ok = 0;
            for (std::size_t i = 0; i < tt.test.size(); ++i)
                ok += online.model.predict(base.encoder().encode(
                          tt.test.row(i))) == tt.test.label(i);
            table.addRow(
                {"OnlineHD (1 pass)",
                 util::fmtPercent(static_cast<double>(ok) /
                                  tt.test.size()),
                 std::to_string(online.model.sizeBytes()),
                 formatSeconds(fpga.lookhdTrain(p).seconds),
                 formatSeconds(
                     fpga.baselineInferQuery(p).seconds)});
        }

        // MLP.
        {
            baseline::MlpConfig mcfg;
            mcfg.hiddenSizes = {128};
            mcfg.epochs = 15;
            baseline::Mlp mlp(app.numFeatures, app.numClasses,
                              mcfg);
            mlp.fit(tt.train);
            const std::vector<std::size_t> sizes{
                app.numFeatures, 128, app.numClasses};
            table.addRow(
                {"MLP (128 hidden)",
                 util::fmtPercent(mlp.evaluate(tt.test)),
                 std::to_string(mlp.parameterCount() * 4),
                 formatSeconds(
                     mlp_fpga.train(sizes, app.trainCount, 30)
                         .seconds),
                 formatSeconds(
                     mlp_fpga.inferQuery(sizes).seconds)});
        }

        std::printf("%s (n=%zu, k=%zu):\n%s\n", app.name.c_str(),
                    app.numFeatures, app.numClasses,
                    table.render().c_str());
    }
    rep.write();
    return 0;
}
