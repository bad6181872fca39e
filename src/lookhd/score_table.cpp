#include "lookhd/score_table.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "hdc/kernels.hpp"
#include "obs/obs.hpp"
#include "par/thread_pool.hpp"
#include "util/check.hpp"

namespace lookhd {

namespace {

/**
 * out[i] = a[i] * b[i] over +-1 bytes. The fixed-length inner block
 * lets the compiler vectorize it at -O2.
 */
void
bindSigns(std::int8_t *__restrict out, const std::int8_t *__restrict a,
          const std::int8_t *__restrict b, std::size_t n)
{
    constexpr std::size_t kBlock = 64;
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock)
        for (std::size_t t = 0; t < kBlock; ++t)
            out[i + t] = static_cast<std::int8_t>(a[i + t] * b[i + t]);
    for (; i < n; ++i)
        out[i] = static_cast<std::int8_t>(a[i] * b[i]);
}

/**
 * Fill every table row: entries[(f * q + l) * blocks] holds
 * dot(rowOf(c), P_c(f) * rho^j(f) L(l), d) for each class c. Split
 * over chunks; every entry is one kernel call on the same operands
 * whatever the split, so the table does not depend on the thread
 * count. Each thread gets at least kMacsPerThread multiply-adds
 * (about 0.1 ms): a smaller share would cost more to start than it
 * saves.
 */
template <class Block, class RowOf, class Dot>
void
fillEntries(const LookupEncoder &encoder, std::size_t classes,
            std::size_t blocks, RowOf rowOf, Dot dot,
            std::vector<Block> &entries, std::size_t threads)
{
    constexpr std::size_t kMacsPerThread = std::size_t{1} << 19;
    const ChunkSpec &chunks = encoder.chunks();
    const std::size_t q = encoder.quantLevels();
    const std::size_t d = encoder.dim();
    const std::size_t r = std::min(chunks.chunkSize(), chunks.numFeatures());
    // rho^j L(l) for every position j < r and level l < q, row j*q+l:
    // element i of L(l) lands at (i + j) % d.
    std::vector<hdc::BipolarHv> rotated;
    rotated.reserve(r * q);
    for (std::size_t j = 0; j < r; ++j) {
        for (std::size_t l = 0; l < q; ++l) {
            const hdc::BipolarHv &level = encoder.levelMemory().at(l);
            hdc::BipolarHv &out = rotated.emplace_back(d);
            std::rotate_copy(level.begin(),
                             level.end() - static_cast<std::ptrdiff_t>(j % d),
                             level.end(), out.begin());
        }
    }

    auto body = [&](std::size_t lo, std::size_t hi) {
        // The chunk's bound level vectors P_c * rho^j L(l), row j*q+l:
        // each class row is then dotted with all of them while it is
        // hot in cache.
        std::vector<std::int8_t> bound(r * q * d);
        for (std::size_t c = lo; c < hi; ++c) {
            const hdc::BipolarHv &key = encoder.positionKeys().at(c);
            const std::size_t rows = chunks.length(c) * q;
            for (std::size_t v = 0; v < rows; ++v)
                bindSigns(bound.data() + v * d, key.data(),
                          rotated[v].data(), d);
            Block *first = entries.data() + chunks.begin(c) * q * blocks;
            for (std::size_t cls = 0; cls < classes; ++cls) {
                const auto *row = rowOf(cls);
                const std::size_t block = cls / Block::kLanes;
                const std::size_t lane = cls % Block::kLanes;
                for (std::size_t v = 0; v < rows; ++v)
                    first[v * blocks + block].lane[lane] =
                        dot(row, bound.data() + v * d, d);
            }
        }
    };
    const std::size_t m = chunks.numChunks();
    const std::size_t macs = chunks.numFeatures() * q * classes * d;
    const std::size_t resolved =
        std::min({par::resolveThreads(threads), m,
                  std::max<std::size_t>(macs / kMacsPerThread, 1)});
    if (resolved <= 1) {
        body(0, m);
    } else {
        par::ThreadPool pool(resolved);
        pool.parallelFor(0, m, body);
    }
}

/**
 * Blocks per row for @p classes entries, or 0 when the whole table
 * (rows x blocks blocks of @p block_bytes) exceeds @p budget_bytes.
 */
std::size_t
blocksWithin(std::size_t rows, std::size_t classes, std::size_t lanes,
             std::size_t block_bytes, std::size_t budget_bytes)
{
    const std::size_t blocks = (classes + lanes - 1) / lanes;
    const std::uint64_t bytes =
        util::checkedMul(util::checkedMul(rows, blocks), block_bytes);
    return bytes <= budget_bytes ? blocks : 0;
}

} // namespace

ScoreTable::ScoreTable(const LookupEncoder &encoder, Precision precision,
                       std::size_t classes)
    : quantizer_(encoder.quantizer()), precision_(precision),
      n_(encoder.chunks().numFeatures()), q_(encoder.quantLevels()),
      k_(classes)
{
    LOOKHD_CHECK(k_ > 0, "score table needs at least one class");
}

std::optional<ScoreTable>
ScoreTable::fromRealRows(const LookupEncoder &encoder,
                         std::span<const hdc::RealHv> rows,
                         std::size_t budget_bytes, std::size_t threads)
{
    LOOKHD_SPAN("lookhd.score_table.build", "train");
    ScoreTable table(encoder, Precision::kFloat64, rows.size());
    for (const hdc::RealHv &row : rows)
        LOOKHD_CHECK(row.size() == encoder.dim(),
                     "class row dimensionality mismatch");
    using B = Block<double>;
    table.blocksPerRow_ = blocksWithin(table.n_ * table.q_, table.k_,
                                       B::kLanes, sizeof(B), budget_bytes);
    if (table.blocksPerRow_ == 0)
        return std::nullopt;
    table.reals_.assign(table.n_ * table.q_ * table.blocksPerRow_, B{});
    fillEntries(
        encoder, table.k_, table.blocksPerRow_,
        [&](std::size_t c) { return rows[c].data(); },
        [](const double *row, const std::int8_t *bound, std::size_t n) {
            return hdc::kernels::dotRealI8(row, bound, n);
        },
        table.reals_, threads);
    return table;
}

std::optional<ScoreTable>
ScoreTable::fromInt8Rows(const LookupEncoder &encoder,
                         const QuantizedServingModel &model,
                         std::size_t budget_bytes, std::size_t threads)
{
    LOOKHD_SPAN("lookhd.score_table.build", "train");
    LOOKHD_CHECK(model.dim() == encoder.dim(),
                 "quantized model dimensionality mismatch");
    ScoreTable table(encoder, Precision::kInt8, model.numClasses());
    const std::size_t d = encoder.dim();
    const std::vector<std::int8_t> &i8 = model.int8Rows();

    // |R[f][l][c]| <= ||row_c||_1, so every partial sum over features
    // stays within n * max_c ||row_c||_1: refuse what could wrap.
    std::uint64_t maxL1 = 0;
    for (std::size_t c = 0; c < table.k_; ++c) {
        std::uint64_t l1 = 0;
        for (std::size_t i = 0; i < d; ++i)
            l1 += static_cast<std::uint64_t>(std::abs(i8[c * d + i]));
        maxL1 = std::max(maxL1, l1);
    }
    constexpr auto kMax =
        static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max());
    if (maxL1 != 0 && table.n_ > kMax / maxL1)
        return std::nullopt;

    using B = Block<std::int32_t>;
    table.blocksPerRow_ = blocksWithin(table.n_ * table.q_, table.k_,
                                       B::kLanes, sizeof(B), budget_bytes);
    if (table.blocksPerRow_ == 0)
        return std::nullopt;
    table.sums_.assign(table.n_ * table.q_ * table.blocksPerRow_, B{});
    table.scales_ = model.scales();
    fillEntries(
        encoder, table.k_, table.blocksPerRow_,
        [&](std::size_t c) { return i8.data() + c * d; },
        [](const std::int8_t *row, const std::int8_t *bound,
           std::size_t n) {
            // Within int32: |dot| <= ||row||_1 <= kMax / n_.
            return static_cast<std::int32_t>(
                hdc::kernels::dotI8I8(row, bound, n));
        },
        table.sums_, threads);
    return table;
}

template <class Entry>
void
ScoreTable::accumulate(const std::vector<Block<Entry>> &entries,
                       std::span<const double> features,
                       Entry *__restrict acc) const
{
    LOOKHD_CHECK(features.size() == n_, "feature vector width mismatch");
    constexpr std::size_t kLanes = Block<Entry>::kLanes;
    const std::size_t top = q_ - 1;
    std::size_t saturated = 0;
    for (std::size_t f = 0; f < n_; ++f) {
        const std::size_t l = quantizer_.level(f, features[f]);
        saturated += (l == 0) | (l == top);
        const Block<Entry> *__restrict row =
            entries.data() + (f * q_ + l) * blocksPerRow_;
        // Whole blocks of a fixed lane count: the compiler vectorizes
        // this without a remainder loop. Each class sums its features
        // in feature order whatever the vector width.
        for (std::size_t b = 0; b < blocksPerRow_; ++b)
            for (std::size_t t = 0; t < kLanes; ++t)
                acc[b * kLanes + t] += row[b].lane[t];
    }
    quant::recordSaturation(n_, saturated);
}

std::vector<double>
ScoreTable::scores(std::span<const double> features) const
{
    std::vector<double> out(k_);
    if (precision_ == Precision::kInt8) {
        const std::vector<std::int64_t> sums = integerSums(features);
        for (std::size_t c = 0; c < k_; ++c)
            out[c] = static_cast<double>(sums[c]) * scales_[c];
    } else {
        std::vector<double> acc(blocksPerRow_ * Block<double>::kLanes);
        accumulate(reals_, features, acc.data());
        std::copy_n(acc.begin(), k_, out.begin());
    }
    return out;
}

std::vector<std::int64_t>
ScoreTable::integerSums(std::span<const double> features) const
{
    LOOKHD_CHECK(precision_ == Precision::kInt8,
                 "integer sums need an int8 score table");
    std::vector<std::int32_t> acc(blocksPerRow_ *
                                  Block<std::int32_t>::kLanes);
    accumulate(sums_, features, acc.data());
    return {acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(k_)};
}

} // namespace lookhd
