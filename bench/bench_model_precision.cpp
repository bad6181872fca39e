/**
 * @file
 * Model-precision sweep (the QuanHD direction, paper ref. [62]):
 * quantize the trained class hypervectors to b bits and map the
 * accuracy / model-size tradeoff between the full int32 model and the
 * 1-bit binary model of Sec. VII. Each width is a
 * QuantizedServingModel::fromClassModelBits() model scored on the
 * int8 serving kernel, queries int8-quantized as when served.
 */

#include "common.hpp"
#include "hdc/similarity.hpp"
#include "lookhd/quantized_inference.hpp"

int
main(int argc, char **argv)
{
    using namespace lookhd;
    bench::BenchReporter rep("model_precision", argc, argv);
    using namespace lookhd::hdc;
    bench::banner("Model precision: accuracy vs bits per element "
                  "(uncompressed model)");

    for (const char *name : {"ACTIVITY", "SPEECH", "EXTRA"}) {
        const auto &app = data::appByName(name);
        const auto tt = bench::appData(app);
        ClassifierConfig cfg = bench::appConfig(app);
        cfg.compressModel = false;
        Classifier clf(cfg);
        clf.fit(tt.train);
        const ClassModel &full = clf.uncompressedModel();

        util::Table table({"bits", "accuracy", "model bytes",
                           "vs int32"});
        const std::string app_key = std::string("_") + name;
        const double full_acc = clf.evaluate(tt.test);
        rep.metric("accuracy_full" + app_key, full_acc);
        table.addRow({"32 (full)", util::fmtPercent(full_acc),
                      std::to_string(full.sizeBytes()), "1.0x"});
        for (std::size_t bits : {8, 4, 2, 1}) {
            const auto qm =
                QuantizedServingModel::fromClassModelBits(full, bits);
            std::size_t ok = 0;
            for (std::size_t i = 0; i < tt.test.size(); ++i) {
                const IntHv q = clf.encoder().encode(tt.test.row(i));
                const IntHv *qp = &q;
                ok += argmax(qm.scoresBatchI8(&qp, 1)) ==
                      tt.test.label(i);
            }
            const double acc = static_cast<double>(ok) /
                               static_cast<double>(tt.test.size());
            rep.metric("accuracy_b" + std::to_string(bits) + app_key,
                       acc);
            table.addRow(
                {std::to_string(bits), util::fmtPercent(acc),
                 std::to_string(qm.sizeBytes()),
                 util::fmtRatio(
                     static_cast<double>(full.sizeBytes()) /
                     static_cast<double>(qm.sizeBytes()))});
        }
        std::printf("%s:\n%s\n", name, table.render().c_str());
    }
    std::printf("A few bits per element retain nearly all the "
                "accuracy (QuanHD's finding); 1-bit pays the "
                "Sec. VII binary penalty on the harder workloads.\n");
    rep.write();
    return 0;
}
