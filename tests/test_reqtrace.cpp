/**
 * @file
 * Tests for the request-tracing layer (obs/reqtrace.hpp): trace/span
 * identity generation and wire parsing, and the stage taxonomy. The
 * captured-request event is covered in tests/test_eventlog.cpp.
 */

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "obs/reqtrace.hpp"

namespace {

using lookhd::obs::RequestContext;
using lookhd::obs::ReqStage;
using lookhd::obs::TraceId;

TEST(ReqTrace, TraceIdHexRoundTrip)
{
    const TraceId id = lookhd::obs::makeTraceId();
    EXPECT_FALSE(id.zero());
    const std::string hex = lookhd::obs::traceIdHex(id);
    ASSERT_EQ(hex.size(), 32u);
    for (char c : hex)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << hex;
    TraceId parsed;
    ASSERT_TRUE(lookhd::obs::parseTraceIdHex(hex, parsed));
    EXPECT_EQ(parsed, id);
}

TEST(ReqTrace, SpanIdHexIs16LowercaseChars)
{
    const std::uint64_t span = lookhd::obs::makeSpanId();
    EXPECT_NE(span, 0u);
    const std::string hex = lookhd::obs::spanIdHex(span);
    ASSERT_EQ(hex.size(), 16u);
    EXPECT_EQ(lookhd::obs::spanIdHex(0x00ff00ff00ff00ffULL),
              "00ff00ff00ff00ff");
}

TEST(ReqTrace, ParseAcceptsEitherCase)
{
    TraceId parsed;
    ASSERT_TRUE(lookhd::obs::parseTraceIdHex(
        "DEADBEEFdeadbeefDEADBEEFdeadbeef", parsed));
    EXPECT_EQ(parsed.hi, 0xdeadbeefdeadbeefULL);
    EXPECT_EQ(parsed.lo, 0xdeadbeefdeadbeefULL);
}

TEST(ReqTrace, ParseRejectsBadInputAndLeavesOutUntouched)
{
    TraceId out{1, 2};
    // Wrong length.
    EXPECT_FALSE(lookhd::obs::parseTraceIdHex("abc", out));
    // 31 and 33 chars around the exact-width requirement.
    EXPECT_FALSE(lookhd::obs::parseTraceIdHex(
        std::string(31, 'a'), out));
    EXPECT_FALSE(lookhd::obs::parseTraceIdHex(
        std::string(33, 'a'), out));
    // Non-hex character.
    EXPECT_FALSE(lookhd::obs::parseTraceIdHex(
        "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz", out));
    // All-zero is reserved for "no trace".
    EXPECT_FALSE(lookhd::obs::parseTraceIdHex(
        std::string(32, '0'), out));
    EXPECT_EQ(out.hi, 1u);
    EXPECT_EQ(out.lo, 2u);
}

TEST(ReqTrace, GeneratedIdsAreDistinct)
{
    std::set<std::string> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(lookhd::obs::traceIdHex(
            lookhd::obs::makeTraceId()));
    EXPECT_EQ(seen.size(), 1000u);
    std::set<std::uint64_t> spans;
    for (int i = 0; i < 1000; ++i)
        spans.insert(lookhd::obs::makeSpanId());
    EXPECT_EQ(spans.size(), 1000u);
}

TEST(ReqTrace, StageNamesAndMetricNames)
{
    EXPECT_STREQ(lookhd::obs::reqStageName(ReqStage::kParse),
                 "parse");
    EXPECT_STREQ(lookhd::obs::reqStageName(ReqStage::kQueue),
                 "queue");
    EXPECT_STREQ(lookhd::obs::reqStageName(ReqStage::kBatchForm),
                 "batch_form");
    EXPECT_STREQ(lookhd::obs::reqStageName(ReqStage::kScore),
                 "score");
    EXPECT_STREQ(lookhd::obs::reqStageName(ReqStage::kSerialize),
                 "serialize");
    EXPECT_STREQ(lookhd::obs::reqStageName(ReqStage::kWrite),
                 "write");
    EXPECT_EQ(lookhd::obs::reqStageMetricName(ReqStage::kScore),
              "serve.stage{stage=\"score\"}");
    EXPECT_EQ(lookhd::obs::reqStageMetricName(ReqStage::kWrite),
              "serve.stage{stage=\"write\"}");
    EXPECT_EQ(lookhd::obs::kReqStageCount, 6u);
}

TEST(ReqTrace, StageSumAddsEveryStage)
{
    RequestContext ctx;
    EXPECT_EQ(ctx.stageSumNs(), 0u);
    ctx.setStage(ReqStage::kParse, 1);
    ctx.setStage(ReqStage::kQueue, 10);
    ctx.setStage(ReqStage::kBatchForm, 100);
    ctx.setStage(ReqStage::kScore, 1000);
    ctx.setStage(ReqStage::kSerialize, 10000);
    ctx.setStage(ReqStage::kWrite, 100000);
    EXPECT_EQ(ctx.stageSumNs(), 111111u);
    EXPECT_EQ(ctx.stage(ReqStage::kScore), 1000u);
}

} // namespace
