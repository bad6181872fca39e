/**
 * @file
 * Differential libFuzzer harness for the serving JSON readers
 * (serve/jsonin): the request reader against the tree parser.
 *
 * Both readers are the first thing untrusted bytes hit, so neither
 * may crash, overflow, or hang on arbitrary input. On top of that,
 * every input goes through both, and they must agree:
 *  - both reject it with the same error message, or
 *  - both accept it, and readRequest() reports the id, trace,
 *    scores flag and features (bit for bit) that the request path
 *    used to look up in the tree.
 * Every maximal run of number characters in the input is also
 * checked against strtod(), the number language the tree parser
 * was first written with.
 *
 * A disagreement aborts, which libFuzzer and the replay driver both
 * report as a failure.
 *
 * Entry point only; main() comes from either libFuzzer
 * (-fsanitize=fuzzer, LOOKHD_FUZZ=ON) or the corpus-replay driver
 * (fuzz_replay_main.cpp) that ctest runs on every build.
 */

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "serve/jsonin.hpp"

namespace {

using lookhd::serve::IdKind;
using lookhd::serve::JsonValue;
using lookhd::serve::RequestFields;

void
require(bool ok, const char *what, std::string_view input)
{
    if (ok)
        return;
    std::fprintf(stderr, "fuzz_jsonin: %s on input (%zu bytes): %.*s\n",
                 what, input.size(), static_cast<int>(input.size()),
                 input.data());
    std::abort();
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/** Touch every node through the public surface; depth-capped so a
 * legitimately deep document cannot overflow the harness stack. */
void
walk(const JsonValue &v, int depth)
{
    if (depth > 64)
        return;
    switch (v.type) {
    case JsonValue::Type::kNull:
    case JsonValue::Type::kBool:
    case JsonValue::Type::kNumber:
    case JsonValue::Type::kString:
        break;
    case JsonValue::Type::kArray:
        for (const auto &element : v.array)
            walk(element, depth + 1);
        break;
    case JsonValue::Type::kObject:
        for (const auto &[key, value] : v.object) {
            (void)v.find(key);
            walk(value, depth + 1);
        }
        break;
    }
}

/** The request members as the request path used to read them from
 * the tree. */
RequestFields
fieldsFromTree(const JsonValue &doc)
{
    RequestFields f;
    if (const JsonValue *id = doc.find("id")) {
        if (id->isNumber()) {
            f.idKind = IdKind::kNumber;
            f.idNumber = id->number;
        } else if (id->isString()) {
            f.idKind = IdKind::kString;
            f.idString = id->string;
        }
    }
    if (const JsonValue *scores = doc.find("scores"))
        f.wantScores =
            scores->type == JsonValue::Type::kBool && scores->boolean;
    if (const JsonValue *trace = doc.find("trace"))
        if (trace->isString())
            f.traceText = trace->string;
    const JsonValue *features = doc.find("features");
    if (features == nullptr || !features->isArray())
        return f;
    f.featureState = RequestFields::Features::kNumeric;
    for (const JsonValue &v : features->array) {
        if (!v.isNumber()) {
            f.featureState = RequestFields::Features::kNonNumeric;
            f.features.clear();
            break;
        }
        f.features.push_back(v.number);
    }
    return f;
}

void
compareFields(const RequestFields &want, const RequestFields &got,
              std::string_view input)
{
    require(want.idKind == got.idKind, "id kind differs", input);
    if (want.idKind == IdKind::kNumber)
        require(sameBits(want.idNumber, got.idNumber),
                "numeric id differs", input);
    if (want.idKind == IdKind::kString)
        require(want.idString == got.idString, "string id differs",
                input);
    require(want.wantScores == got.wantScores, "scores flag differs",
            input);
    require(want.traceText == got.traceText, "trace text differs",
            input);
    require(want.featureState == got.featureState,
            "features state differs", input);
    if (want.featureState != RequestFields::Features::kNumeric)
        return;
    require(want.features.size() == got.features.size(),
            "feature count differs", input);
    for (std::size_t i = 0; i < want.features.size(); ++i)
        require(sameBits(want.features[i], got.features[i]),
                "feature value differs", input);
}

bool
isNumberChar(char c)
{
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' ||
           c == 'E' || c == '+' || c == '-';
}

/** The readers' number language against strtod() on every
 * number-character run (the tokens the lexer would cut there), each
 * read as a whole document. */
void
checkNumberTokens(std::string_view text)
{
    std::size_t pos = 0;
    while (pos < text.size()) {
        if (!isNumberChar(text[pos])) {
            ++pos;
            continue;
        }
        const std::size_t start = pos;
        while (pos < text.size() && isNumberChar(text[pos]))
            ++pos;
        const std::string token(text.substr(start, pos - start));
        char *end = nullptr;
        const double want = std::strtod(token.c_str(), &end);
        const bool wantOk =
            end == token.c_str() + token.size() && std::isfinite(want);
        std::string error;
        const auto got = lookhd::serve::parseJson(token, error);
        require(wantOk == (got != nullptr), "number acceptance differs",
                token);
        if (wantOk)
            require(got->isNumber() && sameBits(want, got->number),
                    "number value differs", token);
    }
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    const std::string_view text(
        reinterpret_cast<const char *>(data), size);
    std::string treeError;
    const auto doc = lookhd::serve::parseJson(text, treeError);
    if (doc)
        walk(*doc, 0);

    RequestFields fields;
    std::string readError;
    const bool read = lookhd::serve::readRequest(text, fields, readError);
    require(read == (doc != nullptr), "readers disagree on validity",
            text);
    require(readError == treeError, "readers give different errors",
            text);
    compareFields(doc ? fieldsFromTree(*doc) : RequestFields{}, fields,
                  text);
    checkNumberTokens(text);
    return 0;
}
