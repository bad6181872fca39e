#include "lookhd/quantized_inference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "hdc/hypervector.hpp"
#include "hdc/kernels.hpp"
#include "util/check.hpp"

namespace lookhd {

namespace {

/** Quantize one float row to int8 with its own max-abs/127 scale. */
double
quantizeRowF64(const hdc::RealHv &row, std::int8_t *out)
{
    double maxabs = 0.0;
    for (const double v : row)
        maxabs = std::max(maxabs, std::abs(v));
    const double scale = maxabs > 0.0 ? maxabs / 127.0 : 1.0;
    for (std::size_t i = 0; i < row.size(); ++i) {
        const long long q = std::llround(row[i] / scale);
        out[i] = static_cast<std::int8_t>(
            std::clamp(q, -127LL, 127LL));
    }
    return scale;
}

/**
 * Same quantization for an int32 query row. Serving hot path: one
 * reciprocal multiply and an add-half truncation per element (the
 * branch-free, vectorizable spelling of round-half-away-from-zero;
 * llround is an unvectorizable libm call and dominated the int8
 * path's per-query cost). |v| * inv <= 127 by construction, so the
 * clamp only guards FP edge cases.
 */
double
quantizeRowI32(const hdc::IntHv &row, std::int8_t *out)
{
    std::int64_t maxabs = 0;
    for (const std::int32_t v : row)
        maxabs = std::max(maxabs, std::abs(
                                      static_cast<std::int64_t>(v)));
    const double scale =
        maxabs > 0 ? static_cast<double>(maxabs) / 127.0 : 1.0;
    const double inv = 1.0 / scale;
    for (std::size_t i = 0; i < row.size(); ++i) {
        const double r = static_cast<double>(row[i]) * inv;
        const int q = static_cast<int>(r + std::copysign(0.5, r));
        out[i] = static_cast<std::int8_t>(std::clamp(q, -127, 127));
    }
    return scale;
}

/**
 * Pack the signs of a row word-wise (zero maps to +1, matching
 * hdc::sign()). Word-wise because the binary path packs every query
 * it serves.
 */
template <class Row>
hdc::PackedHv
packSigns(const Row &row)
{
    const std::size_t n = row.size();
    std::vector<std::uint64_t> words((n + 63) / 64, 0);
    for (std::size_t i = 0; i < n; ++i)
        words[i / 64] |= static_cast<std::uint64_t>(row[i] >= 0)
                         << (i % 64);
    return hdc::PackedHv(n, std::move(words));
}

/** Build both serving forms from the effective float class rows. */
QuantizedServingModel
fromRows(hdc::Dim dim, const std::vector<hdc::RealHv> &rows)
{
    const std::size_t k = rows.size();
    std::vector<std::int8_t> i8(k * dim);
    std::vector<double> scales(k);
    std::vector<hdc::PackedHv> binary;
    binary.reserve(k);
    for (std::size_t c = 0; c < k; ++c) {
        scales[c] = quantizeRowF64(rows[c], i8.data() + c * dim);
        binary.push_back(packSigns(rows[c]));
    }
    return QuantizedServingModel(dim, std::move(i8), std::move(scales),
                          std::move(binary));
}

} // namespace

const char *
precisionName(Precision p)
{
    switch (p) {
    case Precision::kFloat64:
        return "float64";
    case Precision::kInt8:
        return "int8";
    case Precision::kBinary:
        return "binary";
    }
    return "unknown";
}

std::optional<Precision>
precisionFromName(std::string_view name)
{
    if (name == "float64")
        return Precision::kFloat64;
    if (name == "int8")
        return Precision::kInt8;
    if (name == "binary")
        return Precision::kBinary;
    return std::nullopt;
}

QuantizedServingModel::QuantizedServingModel(hdc::Dim dim,
                               std::vector<std::int8_t> rows,
                               std::vector<double> scales,
                               std::vector<hdc::PackedHv> binary)
    : dim_(dim), rows_(std::move(rows)), scales_(std::move(scales)),
      binary_(std::move(binary))
{
    LOOKHD_CHECK(dim_ > 0, "quantized model dim must be nonzero");
    const std::size_t k = scales_.size();
    LOOKHD_CHECK(k > 0, "quantized model needs at least one class");
    LOOKHD_CHECK(rows_.size() == k * dim_,
                 "quantized row storage does not match k x dim");
    LOOKHD_CHECK(binary_.size() == k,
                 "quantized binary row count does not match classes");
    for (const hdc::PackedHv &row : binary_)
        LOOKHD_CHECK(row.dim() == dim_,
                     "quantized binary row dimensionality mismatch");
    for (const double s : scales_)
        LOOKHD_CHECK(std::isfinite(s) && s > 0.0,
                     "quantized scale must be positive and finite");
    for (const std::int8_t v : rows_)
        LOOKHD_CHECK(v != -128,
                     "quantized element outside [-127, 127]");
}

QuantizedServingModel
QuantizedServingModel::fromClassModel(const hdc::ClassModel &model)
{
    LOOKHD_CHECK(model.normalized(),
                 "quantization requires a normalized class model");
    return fromRows(model.dim(), model.normalizedClasses());
}

QuantizedServingModel
QuantizedServingModel::fromCompressedModel(const CompressedModel &model)
{
    std::vector<hdc::RealHv> rows;
    rows.reserve(model.numClasses());
    for (std::size_t c = 0; c < model.numClasses(); ++c)
        rows.push_back(model.effectiveRow(c));
    return fromRows(model.dim(), rows);
}

QuantizedServingModel
QuantizedServingModel::fromClassModelBits(const hdc::ClassModel &model,
                                          std::size_t bits)
{
    LOOKHD_CHECK(bits >= 1 && bits <= 8, "bits must be in [1, 8]");
    // Symmetric levels: b bits hold values in [-max_level, max_level]
    // with max_level = 2^(b-1) - 1 (and 1-bit degenerates to +-1).
    const double max_level =
        bits == 1 ? 1.0 : static_cast<double>((1 << (bits - 1)) - 1);
    const std::size_t k = model.numClasses();
    const hdc::Dim dim = model.dim();
    std::vector<std::int8_t> levels(k * dim);
    std::vector<double> scales(k);
    std::vector<hdc::PackedHv> binary;
    binary.reserve(k);
    for (std::size_t c = 0; c < k; ++c) {
        const hdc::IntHv &hv = model.classHv(c);
        // Robust step: map +-3 sigma onto the level range and let
        // the tail saturate. Peak-based scaling would waste nearly
        // every level on the heavy tail and round the bulk to zero.
        double sum2 = 0.0;
        for (const std::int32_t v : hv)
            sum2 += static_cast<double>(v) * v;
        const double sigma = std::sqrt(sum2 / static_cast<double>(dim));
        const double step = sigma > 0.0 ? 3.0 * sigma / max_level : 1.0;
        std::int8_t *row = levels.data() + c * dim;
        double norm2 = 0.0;
        for (std::size_t i = 0; i < dim; ++i) {
            const double level =
                bits == 1 ? (hv[i] < 0 ? -1.0 : 1.0)
                          : std::clamp(std::round(hv[i] / step),
                                       -max_level, max_level);
            row[i] = static_cast<std::int8_t>(level);
            norm2 += level * level;
        }
        scales[c] = 1.0 / std::sqrt(std::max(norm2, 1e-12));
        binary.push_back(packSigns(hv));
    }
    QuantizedServingModel out(dim, std::move(levels), std::move(scales),
                              std::move(binary));
    out.bits_ = bits;
    return out;
}

std::size_t
QuantizedServingModel::sizeBytes() const
{
    return (numClasses() * dim_ * bits_ + 7) / 8 +
           numClasses() * sizeof(float);
}

std::size_t
QuantizedServingModel::binarySizeBytes() const
{
    return (numClasses() * dim_ + 7) / 8;
}

std::vector<double>
QuantizedServingModel::scoresBatchI8(const hdc::IntHv *const *queries,
                              std::size_t numQueries) const
{
    const std::size_t k = numClasses();
    std::vector<double> out(numQueries * k);
    if (numQueries == 0)
        return out;

    std::vector<std::int8_t> qstore(numQueries * dim_);
    std::vector<double> qscales(numQueries);
    std::vector<const std::int8_t *> qptrs(numQueries);
    for (std::size_t q = 0; q < numQueries; ++q) {
        const hdc::IntHv &query = *queries[q];
        LOOKHD_CHECK(query.size() == dim_,
                     "query dimensionality mismatch");
        qscales[q] =
            quantizeRowI32(query, qstore.data() + q * dim_);
        qptrs[q] = qstore.data() + q * dim_;
    }
    std::vector<const std::int8_t *> rptrs(k);
    for (std::size_t c = 0; c < k; ++c)
        rptrs[c] = rows_.data() + c * dim_;

    std::vector<std::int64_t> raw(numQueries * k);
    hdc::kernels::scoresBatchI8(qptrs.data(), numQueries,
                                rptrs.data(), k, dim_, raw.data());
    for (std::size_t q = 0; q < numQueries; ++q)
        for (std::size_t c = 0; c < k; ++c)
            out[q * k + c] = static_cast<double>(raw[q * k + c]) *
                             qscales[q] * scales_[c];
    return out;
}

std::vector<double>
QuantizedServingModel::scoresBatchBinary(const hdc::IntHv *const *queries,
                                  std::size_t numQueries) const
{
    const std::size_t k = numClasses();
    std::vector<double> out(numQueries * k);
    for (std::size_t q = 0; q < numQueries; ++q) {
        const hdc::IntHv &query = *queries[q];
        LOOKHD_CHECK(query.size() == dim_,
                     "query dimensionality mismatch");
        const hdc::PackedHv packed = packSigns(query);
        for (std::size_t c = 0; c < k; ++c) {
            const std::size_t matches = hdc::kernels::matchCountWords(
                packed.data().data(), binary_[c].data().data(),
                packed.data().size(), dim_);
            out[q * k + c] = static_cast<double>(
                2 * static_cast<std::int64_t>(matches) -
                static_cast<std::int64_t>(dim_));
        }
    }
    return out;
}

} // namespace lookhd
