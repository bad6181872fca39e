#include "obs/reqtrace.hpp"

#include <atomic>

#include "obs/metrics.hpp"

namespace lookhd::obs {

namespace {

/** splitmix64 finalizer: bijective, so distinct inputs stay distinct. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Process-unique id stream: a wall-clock seed captured once, mixed
 * with a relaxed atomic counter. The finalizer is bijective in the
 * counter for a fixed seed, so ids never collide within a process;
 * the seed makes collisions across restarts practically impossible.
 */
std::uint64_t
nextIdWord()
{
    static const std::uint64_t seed = mix64(
        wallClockMs() ^ 0x6c6f6f6b6864ULL); // "lookhd"
    static std::atomic<std::uint64_t> counter{0};
    return mix64(seed ^ mix64(counter.fetch_add(
                     1, std::memory_order_relaxed)));
}

char
hexDigit(std::uint64_t nibble)
{
    return static_cast<char>(nibble < 10 ? '0' + nibble
                                         : 'a' + (nibble - 10));
}

void
appendHex64(std::string &out, std::uint64_t v)
{
    for (int shift = 60; shift >= 0; shift -= 4)
        out += hexDigit((v >> shift) & 0xF);
}

/** @return the nibble value, or 16 for a non-hex character. */
std::uint64_t
nibbleValue(char c)
{
    if (c >= '0' && c <= '9')
        return static_cast<std::uint64_t>(c - '0');
    if (c >= 'a' && c <= 'f')
        return static_cast<std::uint64_t>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F')
        return static_cast<std::uint64_t>(c - 'A' + 10);
    return 16;
}

} // namespace

TraceId
makeTraceId()
{
    TraceId id;
    id.hi = nextIdWord();
    id.lo = nextIdWord();
    if (id.zero())
        id.lo = 1; // all-zero is the "no trace" sentinel
    return id;
}

std::uint64_t
makeSpanId()
{
    const std::uint64_t id = nextIdWord();
    return id == 0 ? 1 : id;
}

std::string
traceIdHex(const TraceId &id)
{
    std::string out;
    out.reserve(32);
    appendHex64(out, id.hi);
    appendHex64(out, id.lo);
    return out;
}

std::string
spanIdHex(std::uint64_t id)
{
    std::string out;
    out.reserve(16);
    appendHex64(out, id);
    return out;
}

bool
parseTraceIdHex(std::string_view hex, TraceId &out)
{
    if (hex.size() != 32)
        return false;
    TraceId parsed;
    for (std::size_t i = 0; i < 32; ++i) {
        const std::uint64_t nibble = nibbleValue(hex[i]);
        if (nibble >= 16)
            return false;
        std::uint64_t &word = i < 16 ? parsed.hi : parsed.lo;
        word = (word << 4) | nibble;
    }
    if (parsed.zero())
        return false;
    out = parsed;
    return true;
}

const char *
reqStageName(ReqStage stage)
{
    switch (stage) {
    case ReqStage::kParse:
        return "parse";
    case ReqStage::kQueue:
        return "queue";
    case ReqStage::kBatchForm:
        return "batch_form";
    case ReqStage::kScore:
        return "score";
    case ReqStage::kSerialize:
        return "serialize";
    case ReqStage::kWrite:
        return "write";
    }
    return "unknown";
}

std::string
reqStageMetricName(ReqStage stage)
{
    return std::string("serve.stage{stage=\"") +
           reqStageName(stage) + "\"}";
}

std::uint64_t
RequestContext::stageSumNs() const
{
    std::uint64_t sum = 0;
    for (const std::uint64_t ns : stageNs)
        sum += ns;
    return sum;
}

void
appendStageFields(LogFields &fields, const RequestContext &ctx)
{
    for (std::size_t s = 0; s < kReqStageCount; ++s)
        fields.emplace_back(
            std::string("stage.") +
                reqStageName(static_cast<ReqStage>(s)),
            std::to_string(ctx.stageNs[s]));
}

} // namespace lookhd::obs
