/**
 * @file
 * Tests for the pre-stored chunk-hypervector lookup table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "hdc/similarity.hpp"
#include "lookhd/lookup_table.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::hdc;

std::shared_ptr<LevelMemory>
makeLevels(Dim d, std::size_t q, std::uint64_t seed = 1)
{
    util::Rng rng(seed);
    return std::make_shared<LevelMemory>(d, q, rng);
}

TEST(ChunkLookupTable, AddressSpaceSize)
{
    auto levels = makeLevels(128, 4);
    ChunkLookupTable table(levels, 5, std::size_t{64} << 20);
    EXPECT_EQ(table.addressSpaceSize(), 1024u);
    EXPECT_EQ(table.chunkLen(), 5u);
    EXPECT_EQ(table.dim(), 128u);
}

TEST(ChunkLookupTable, MaterializesWithinBudget)
{
    auto levels = makeLevels(128, 2);
    // 32 rows x 128 dims x 1 B (int8 elements) = 4 KiB.
    ChunkLookupTable table(levels, 5, 32 * 1024);
    EXPECT_TRUE(table.materialized());
    EXPECT_EQ(table.tableBytes(), 32u * 128u * 1u);
    EXPECT_TRUE(ChunkLookupTable(levels, 5, 4096).materialized());
    EXPECT_FALSE(ChunkLookupTable(levels, 5, 4095).materialized());
}

TEST(ChunkLookupTable, FallsBackBeyondBudget)
{
    auto levels = makeLevels(128, 2);
    ChunkLookupTable table(levels, 5, 1024);
    EXPECT_FALSE(table.materialized());
}

TEST(ChunkLookupTable, ZeroBudgetForcesOnTheFly)
{
    auto levels = makeLevels(64, 2);
    ChunkLookupTable table(levels, 3, 0);
    EXPECT_FALSE(table.materialized());
}

TEST(ChunkLookupTable, MaterializedAndOnTheFlyRowsIdentical)
{
    // Core computation-reuse invariant: the pre-stored rows are
    // bit-exact with computing Eq. 2 on demand.
    auto levels = makeLevels(256, 4, 7);
    ChunkLookupTable dense(levels, 4, std::size_t{64} << 20);
    ChunkLookupTable lazy(levels, 4, 0);
    ASSERT_TRUE(dense.materialized());
    ASSERT_FALSE(lazy.materialized());

    std::vector<std::int8_t> scratch;
    std::vector<std::int8_t> scratch2;
    for (Address a = 0; a < dense.addressSpaceSize(); ++a) {
        const auto d = dense.row(a, scratch);
        const auto l = lazy.row(a, scratch2);
        EXPECT_TRUE(std::equal(d.begin(), d.end(), l.begin(), l.end()))
            << "address " << a;
    }
}

TEST(ChunkLookupTable, EveryMaterializedElementIsItsInt32EquationTwo)
{
    // The int8 slab must hold exactly the int32 Eq. 2 encoding of
    // every address, and every element must lie in [-s, s]. A short
    // tail chunk (s = 2) and a long one (s = 7) cover both table
    // shapes an encoder builds.
    for (const std::size_t s : {std::size_t{2}, std::size_t{7}}) {
        auto levels = makeLevels(97, 3, 13);
        ChunkLookupTable table(levels, s, std::size_t{64} << 20);
        ASSERT_TRUE(table.materialized());
        std::vector<std::int8_t> scratch;
        std::vector<std::size_t> lvls(s);
        const auto bound = static_cast<std::int32_t>(s);
        for (Address a = 0; a < table.addressSpaceSize(); ++a) {
            decodeAddress(a, 3, lvls);
            IntHv manual(97, 0);
            for (std::size_t j = 0; j < s; ++j)
                addRotated(manual, levels->at(lvls[j]), j);
            const auto row = table.row(a, scratch);
            ASSERT_EQ(row.size(), manual.size());
            ASSERT_TRUE(row.data() != scratch.data())
                << "materialized rows are views into the slab";
            for (std::size_t i = 0; i < row.size(); ++i) {
                ASSERT_EQ(static_cast<std::int32_t>(row[i]), manual[i])
                    << "s " << s << " address " << a << " element "
                    << i;
                ASSERT_LE(std::abs(manual[i]), bound);
            }
        }
    }
}

TEST(ChunkLookupTable, RowMatchesManualEquationTwo)
{
    auto levels = makeLevels(100, 3, 9);
    ChunkLookupTable table(levels, 3, std::size_t{1} << 20);

    const std::vector<std::size_t> lvls{2, 0, 1};
    const Address addr = addressOf(lvls, 3);

    IntHv manual(100, 0);
    for (std::size_t j = 0; j < 3; ++j)
        addRotated(manual, levels->at(lvls[j]), j);

    std::vector<std::int8_t> scratch;
    const auto row = table.row(addr, scratch);
    EXPECT_EQ(IntHv(row.begin(), row.end()), manual);
}

TEST(ChunkLookupTable, RowElementsBoundedByChunkLen)
{
    auto levels = makeLevels(64, 2, 11);
    ChunkLookupTable table(levels, 6, std::size_t{1} << 20);
    std::vector<std::int8_t> scratch;
    for (Address a = 0; a < table.addressSpaceSize(); ++a) {
        for (const std::int8_t v : table.row(a, scratch))
            EXPECT_LE(std::abs(v), 6);
    }
}

TEST(ChunkLookupTable, OutOfRangeAddressThrows)
{
    auto levels = makeLevels(64, 2);
    ChunkLookupTable table(levels, 3, std::size_t{1} << 20);
    std::vector<std::int8_t> scratch;
    EXPECT_THROW(table.row(8, scratch), util::ContractViolation);
    ChunkLookupTable lazy(levels, 3, 0);
    EXPECT_THROW(lazy.row(8, scratch), util::ContractViolation);
    std::vector<std::int8_t> shortRow(63);
    EXPECT_THROW(lazy.encodeAddress(0, shortRow),
                 util::ContractViolation);
}

TEST(ChunkLookupTable, Validation)
{
    auto levels = makeLevels(64, 2);
    EXPECT_THROW(ChunkLookupTable(nullptr, 3, 0),
                 util::ContractViolation);
    EXPECT_THROW(ChunkLookupTable(levels, 0, 0),
                 util::ContractViolation);
}

} // namespace
