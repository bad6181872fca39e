/**
 * @file
 * Tests for codebook addressing (Sec. III-C).
 */

#include <gtest/gtest.h>

#include "lookhd/codebook.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd;

TEST(Codebook, BitsPerLevel)
{
    EXPECT_EQ(codebookBits(2), 1u);
    EXPECT_EQ(codebookBits(4), 2u);
    EXPECT_EQ(codebookBits(5), 3u);
    EXPECT_EQ(codebookBits(8), 3u);
    EXPECT_EQ(codebookBits(16), 4u);
    EXPECT_THROW(codebookBits(1), util::ContractViolation);
}

TEST(Codebook, AddressOfBaseQ)
{
    const std::vector<std::size_t> lvls{3, 0, 2}; // 3 + 0*4 + 2*16
    EXPECT_EQ(addressOf(lvls, 4), 35u);
}

TEST(Codebook, AddressOfEmptyIsZero)
{
    EXPECT_EQ(addressOf(std::vector<std::size_t>{}, 4), 0u);
}

TEST(Codebook, BitAddressMatchesBaseQForPowersOfTwo)
{
    // The hardware's concatenated log2(q)-bit codebooks and the base-q
    // reading are the same number.
    for (std::size_t q : {2u, 4u, 8u, 16u}) {
        std::vector<std::size_t> lvls{q - 1, 0, 1, q / 2};
        EXPECT_EQ(bitAddressOf(lvls, q), addressOf(lvls, q))
            << "q=" << q;
    }
}

TEST(Codebook, BitAddressRejectsNonPowerOfTwo)
{
    const std::vector<std::size_t> lvls{1, 2};
    EXPECT_THROW(bitAddressOf(lvls, 3), util::ContractViolation);
}

TEST(Codebook, DecodeInvertsEncode)
{
    const std::size_t q = 5, r = 6;
    std::vector<std::size_t> lvls{4, 0, 3, 1, 2, 4};
    const Address addr = addressOf(lvls, q);
    std::vector<std::size_t> decoded(r);
    decodeAddress(addr, q, decoded);
    EXPECT_EQ(decoded, lvls);
}

TEST(Codebook, DecodeRejectsOutOfRange)
{
    std::vector<std::size_t> out(2);
    // 2 digits base 4 hold at most 15.
    EXPECT_THROW(decodeAddress(16, 4, out), util::ContractViolation);
}

TEST(Codebook, RoundTripExhaustiveSmallSpace)
{
    const std::size_t q = 3, r = 4;
    const Address space = addressSpace(q, r);
    ASSERT_EQ(space, 81u);
    std::vector<std::size_t> lvls(r);
    for (Address a = 0; a < space; ++a) {
        decodeAddress(a, q, lvls);
        EXPECT_EQ(addressOf(lvls, q), a);
    }
}

TEST(Codebook, AddressOfRejectsBadLevel)
{
    const std::vector<std::size_t> lvls{0, 4};
    EXPECT_THROW(addressOf(lvls, 4), util::ContractViolation);
}

TEST(Codebook, AddressSpaceValues)
{
    EXPECT_EQ(addressSpace(2, 5), 32u);
    EXPECT_EQ(addressSpace(4, 5), 1024u);
    EXPECT_EQ(addressSpace(16, 5), 1048576u);
    EXPECT_EQ(addressSpace(7, 0), 1u);
}

TEST(Codebook, AddressSpaceOverflowThrows)
{
    // 16^617 (the SPEECH naive lookup of Table I) cannot fit.
    EXPECT_THROW(addressSpace(16, 617), util::ContractViolation);
}

TEST(Codebook, TableFitsRespectsBudget)
{
    // q=4, r=5, D=2000: 1024 int8 rows x 2000 B = 2,048,000 B.
    EXPECT_TRUE(tableFits(4, 5, 2000, std::size_t{4} << 20));
    EXPECT_TRUE(tableFits(4, 5, 2000, 2048000));
    EXPECT_FALSE(tableFits(4, 5, 2000, 2047999));
    EXPECT_FALSE(tableFits(4, 5, 2000, std::size_t{1} << 20));
    // Astronomical spaces must return false, not overflow.
    EXPECT_FALSE(tableFits(16, 617, 2000, ~std::size_t{0}));
}

} // namespace
