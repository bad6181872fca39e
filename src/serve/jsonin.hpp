/**
 * @file
 * JSON *readers* for the serving wire protocol.
 *
 * obs/json.hpp writes JSON; this is its input-side twin, sized for
 * the newline-delimited request objects `lookhd_serve` accepts
 * ({"id":7,"features":[0.5,...]}): objects, arrays, strings with the
 * standard escapes, finite numbers, true/false/null. No streaming,
 * no comments, bounded nesting depth. Errors come back as a message
 * instead of an exception so a malformed request costs one error
 * response, not a throw on the hot path.
 *
 * Two readers share one lexer:
 *  - parseJson() builds a tree (JsonValue) of any document. It
 *    serves the paths that are not hot: --drift-ref loading, the
 *    load generator, tests.
 *  - readRequest() is the request path. It makes one pass over a
 *    request line and parses the features straight into a
 *    std::vector<double>, with no tree. It accepts and rejects
 *    exactly what parseJson() does, with the same error message, and
 *    reports the request members the tree would hold.
 */

#ifndef LOOKHD_SERVE_JSONIN_HPP
#define LOOKHD_SERVE_JSONIN_HPP

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace lookhd::serve {

/** Parsed JSON value (tree-owning). */
class JsonValue
{
  public:
    enum class Type
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Type type = Type::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isNumber() const { return type == Type::kNumber; }
    bool isString() const { return type == Type::kString; }
    bool isArray() const { return type == Type::kArray; }
    bool isObject() const { return type == Type::kObject; }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;
};

/**
 * Parse one complete JSON document. Trailing non-whitespace is an
 * error (requests are exactly one object per line).
 *
 * Numbers are what strtod() consumes in full to a finite value, over
 * the characters [0-9+-.eE], with the value strtod() gives: "+1" and
 * ".5" are numbers, an underflow such as "1e-400" rounds to zero,
 * and "1e400" and "1.5e" are errors.
 *
 * @param text The document.
 * @param error Set to a human-readable message on failure.
 * @return The value, or std::nullopt-like empty pointer on failure.
 */
std::unique_ptr<JsonValue> parseJson(std::string_view text,
                                     std::string &error);

/** How a request's "id" is echoed: absent, numeric, or string. */
enum class IdKind
{
    kNone,
    kNumber,
    kString,
};

/**
 * The request members of one line. When a member repeats, its last
 * occurrence counts, as in the tree.
 */
struct RequestFields
{
    enum class Features
    {
        kMissing,    ///< absent, or not an array
        kNonNumeric, ///< an array with a non-number element
        kNumeric,    ///< an array of numbers, all in `features`
    };

    /** "id" when it is a number or a string; kNone otherwise. */
    IdKind idKind = IdKind::kNone;
    double idNumber = 0.0;
    std::string idString;
    /** "scores" is the literal true. */
    bool wantScores = false;
    /** "trace" when it is a string (decoded); empty otherwise. */
    std::string traceText;
    Features featureState = Features::kMissing;
    /** The feature values; meaningful only when kNumeric. */
    std::vector<double> features;
};

/**
 * Read one request line in a single pass.
 *
 * @param line The line, without its newline.
 * @param out Filled with the line's request members. Reset on
 *     failure, so nothing of a rejected line is echoed.
 * @param error On failure, the message parseJson() gives.
 * @return True when the line is one valid JSON document.
 */
bool readRequest(std::string_view line, RequestFields &out,
                 std::string &error);

} // namespace lookhd::serve

#endif // LOOKHD_SERVE_JSONIN_HPP
