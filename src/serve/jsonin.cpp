#include "serve/jsonin.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

namespace lookhd::serve {

namespace {

constexpr std::size_t kMaxDepth = 32;

bool
isNumberChar(char c)
{
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' ||
           c == 'E' || c == '+' || c == '-';
}

/**
 * The number at @p first: true when the run of number characters
 * starting there is exactly one finite number, with @p end set past
 * it. from_chars() parses in place; a run it stops short of (such as
 * "1.5e") is not a number. It may read on past the run into "inf"
 * or "nan" ("-inf"), but those are not finite, so the run is
 * rejected either way.
 */
bool
scanNumber(const char *first, const char *last, const char *&end,
           double &out)
{
    const char *p = first;
    // strtod takes one leading '+'; from_chars takes none.
    if (p != last && *p == '+') {
        ++p;
        if (p != last && *p == '-')
            return false;
    }
    double v = 0.0;
    const auto [stop, ec] = std::from_chars(p, last, v);
    if (ec == std::errc::invalid_argument ||
        (stop != last && isNumberChar(*stop)))
        return false;
    if (ec == std::errc::result_out_of_range) {
        // from_chars gives no value for a range error. strtod rounds
        // an underflow to a signed zero and an overflow to infinity,
        // which the finiteness check below rejects.
        const std::string token(first, stop);
        v = std::strtod(token.c_str(), nullptr);
    }
    if (!std::isfinite(v))
        return false;
    end = stop;
    out = v;
    return true;
}

/**
 * The lexer and grammar both readers share: whitespace, literals,
 * strings, numbers, the object/array walk, and validate-only
 * skipping of whole values. The first failure latches its message
 * with the offset where it happened.
 */
class Lexer
{
  public:
    Lexer(std::string_view text, std::string &error)
        : text_(text), error_(error)
    {
    }

  protected:
    bool
    fail(const std::string &message)
    {
        if (error_.empty())
            error_ = message + " at offset " + std::to_string(pos_);
        return false;
    }

    bool
    at(char c) const
    {
        return pos_ < text_.size() && text_[pos_] == c;
    }

    /** Does the next value go to parseNumber() (any first byte that
     * opens no other kind of value)? */
    bool
    atNumber() const
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
        case '{':
        case '[':
        case '"':
        case 't':
        case 'f':
        case 'n':
            return false;
        default:
            return true;
        }
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    consume(char expected)
    {
        if (at(expected)) {
            ++pos_;
            return true;
        }
        return fail(std::string("expected '") + expected + "'");
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("bad literal");
        pos_ += word.size();
        return true;
    }

    /** After the document: only whitespace may follow. */
    bool
    finish()
    {
        skipWhitespace();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

    /**
     * '{' key ':' value (',' ...)* '}'. onMember(key) reads one value
     * (starting before its whitespace); the key is decoded.
     */
    template <typename OnMember>
    bool
    object(OnMember &&onMember)
    {
        if (!consume('{'))
            return false;
        skipWhitespace();
        if (at('}')) {
            ++pos_;
            return true;
        }
        std::string key;
        while (true) {
            skipWhitespace();
            if (!parseString(&key))
                return false;
            skipWhitespace();
            if (!consume(':'))
                return false;
            if (!onMember(key))
                return false;
            skipWhitespace();
            if (at(',')) {
                ++pos_;
                continue;
            }
            return consume('}');
        }
    }

    /** '[' value (',' value)* ']'; onElement() reads one value. */
    template <typename OnElement>
    bool
    array(OnElement &&onElement)
    {
        if (!consume('['))
            return false;
        skipWhitespace();
        if (at(']')) {
            ++pos_;
            return true;
        }
        while (true) {
            if (!onElement())
                return false;
            skipWhitespace();
            if (at(',')) {
                ++pos_;
                continue;
            }
            return consume(']');
        }
    }

    /** Validate one value at @p depth without keeping it. */
    bool
    skipValue(std::size_t depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWhitespace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
        case '{':
            return object([&](const std::string &) {
                return skipValue(depth + 1);
            });
        case '[':
            return array([&] { return skipValue(depth + 1); });
        case '"':
            return parseString(nullptr);
        case 't':
            return literal("true");
        case 'f':
            return literal("false");
        case 'n':
            return literal("null");
        default: {
            double ignored = 0.0;
            return parseNumber(ignored);
        }
        }
    }

    /** A quoted string, decoded into @p out (validated only when
     * null). */
    bool
    parseString(std::string *out)
    {
        if (!consume('"'))
            return false;
        if (out != nullptr)
            out->clear();
        const auto put = [out](char c) {
            if (out != nullptr)
                out->push_back(c);
        };
        while (pos_ < text_.size()) {
            // Copy the run of plain characters in one go.
            const std::size_t run = pos_;
            while (pos_ < text_.size()) {
                const auto c = static_cast<unsigned char>(text_[pos_]);
                if (c == '"' || c == '\\' || c < 0x20)
                    break;
                ++pos_;
            }
            if (out != nullptr)
                out->append(text_.data() + run, pos_ - run);
            if (pos_ >= text_.size())
                break;
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\')
                return fail("unescaped control character in string");
            if (pos_ >= text_.size())
                return fail("dangling escape");
            const char esc = text_[pos_++];
            switch (esc) {
            case '"':
            case '\\':
            case '/':
                put(esc);
                break;
            case 'b':
                put('\b');
                break;
            case 'f':
                put('\f');
                break;
            case 'n':
                put('\n');
                break;
            case 'r':
                put('\r');
                break;
            case 't':
                put('\t');
                break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // UTF-8 encode the BMP code point (surrogate pairs
                // land as two replacement-style sequences; feature
                // vectors never need them).
                if (code < 0x80) {
                    put(static_cast<char>(code));
                } else if (code < 0x800) {
                    put(static_cast<char>(0xC0 | (code >> 6)));
                    put(static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    put(static_cast<char>(0xE0 | (code >> 12)));
                    put(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                    put(static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    /** The longest run of number characters, as one finite number. */
    bool
    parseNumber(double &out)
    {
        if (pos_ >= text_.size() || !isNumberChar(text_[pos_]))
            return fail("expected a value");
        const char *const first = text_.data() + pos_;
        const char *end = nullptr;
        if (!scanNumber(first, text_.data() + text_.size(), end, out))
            return fail("bad number");
        pos_ += static_cast<std::size_t>(end - first);
        return true;
    }

    std::string_view text_;
    std::string &error_;
    std::size_t pos_ = 0;
};

/** Tree builder: any document into a JsonValue. */
class DomParser : Lexer
{
  public:
    using Lexer::Lexer;

    bool
    parseDocument(JsonValue &out)
    {
        skipWhitespace();
        return parseValue(out, 0) && finish();
    }

  private:
    bool
    parseValue(JsonValue &out, std::size_t depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWhitespace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
        case '{':
            out.type = JsonValue::Type::kObject;
            return object([&](const std::string &key) {
                JsonValue member;
                if (!parseValue(member, depth + 1))
                    return false;
                out.object[key] = std::move(member);
                return true;
            });
        case '[':
            out.type = JsonValue::Type::kArray;
            return array([&] {
                JsonValue element;
                if (!parseValue(element, depth + 1))
                    return false;
                out.array.push_back(std::move(element));
                return true;
            });
        case '"':
            out.type = JsonValue::Type::kString;
            return parseString(&out.string);
        case 't':
            out.type = JsonValue::Type::kBool;
            out.boolean = true;
            return literal("true");
        case 'f':
            out.type = JsonValue::Type::kBool;
            out.boolean = false;
            return literal("false");
        case 'n':
            out.type = JsonValue::Type::kNull;
            return literal("null");
        default:
            out.type = JsonValue::Type::kNumber;
            return parseNumber(out.number);
        }
    }
};

/**
 * Request reader: walks the same grammar as DomParser, keeps the
 * request members of a root object and skips everything else.
 * Root members sit at depth 1 and feature elements at depth 2, as in
 * the tree.
 */
class RequestReader : Lexer
{
  public:
    RequestReader(std::string_view text, std::string &error,
                  RequestFields &out)
        : Lexer(text, error), out_(out)
    {
    }

    bool
    read()
    {
        skipWhitespace();
        if (!at('{'))
            return skipValue(0) && finish();
        return object([&](const std::string &key) {
                   return readMember(key);
               }) &&
               finish();
    }

  private:
    bool
    readMember(const std::string &key)
    {
        skipWhitespace();
        if (key == "features")
            return readFeatures();
        if (key == "id") {
            out_.idKind = IdKind::kNone;
            if (at('"')) {
                out_.idKind = IdKind::kString;
                return parseString(&out_.idString);
            }
            if (atNumber()) {
                out_.idKind = IdKind::kNumber;
                return parseNumber(out_.idNumber);
            }
        } else if (key == "scores") {
            out_.wantScores = at('t');
        } else if (key == "trace") {
            out_.traceText.clear();
            if (at('"'))
                return parseString(&out_.traceText);
        }
        return skipValue(1);
    }

    bool
    readFeatures()
    {
        out_.features.clear();
        if (!at('[')) {
            out_.featureState = RequestFields::Features::kMissing;
            return skipValue(1);
        }
        out_.featureState = RequestFields::Features::kNumeric;
        return array([&] {
            skipWhitespace();
            if (!atNumber()) {
                out_.featureState =
                    RequestFields::Features::kNonNumeric;
                return skipValue(2);
            }
            double v = 0.0;
            if (!parseNumber(v))
                return false;
            out_.features.push_back(v);
            return true;
        });
    }

    RequestFields &out_;
};

/** Back to "no members", keeping the capacity of the feature row. */
void
clearFields(RequestFields &f)
{
    f.idKind = IdKind::kNone;
    f.idNumber = 0.0;
    f.idString.clear();
    f.wantScores = false;
    f.traceText.clear();
    f.featureState = RequestFields::Features::kMissing;
    f.features.clear();
}

} // namespace

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (type != Type::kObject)
        return nullptr;
    const auto it = object.find(std::string(key));
    return it == object.end() ? nullptr : &it->second;
}

std::unique_ptr<JsonValue>
parseJson(std::string_view text, std::string &error)
{
    error.clear();
    auto value = std::make_unique<JsonValue>();
    DomParser parser(text, error);
    if (!parser.parseDocument(*value))
        return nullptr;
    return value;
}

bool
readRequest(std::string_view line, RequestFields &out,
            std::string &error)
{
    error.clear();
    clearFields(out);
    RequestReader reader(line, error, out);
    if (reader.read())
        return true;
    clearFields(out);
    return false;
}

} // namespace lookhd::serve
