/**
 * @file
 * Minimal streaming JSON writer used by the observability exports.
 *
 * The telemetry layer emits machine-readable artifacts (metric
 * registry snapshots, /debug documents, BENCH_*.json) without
 * pulling in a JSON dependency. This writer covers exactly what those
 * exports need: nested objects/arrays with automatic comma handling,
 * escaped strings, and finite-number formatting (non-finite doubles
 * are emitted as null, as JSON has no NaN/Inf).
 */

#ifndef LOOKHD_OBS_JSON_HPP
#define LOOKHD_OBS_JSON_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lookhd::obs {

/** Escape a string for inclusion inside JSON quotes. */
std::string jsonEscape(std::string_view s);

/**
 * Push-style JSON writer. Calls must nest correctly (every
 * beginObject/beginArray balanced by the matching end, every value
 * inside an object preceded by key()); violations throw
 * std::logic_error so tests catch malformed emission immediately.
 */
class JsonWriter
{
  public:
    JsonWriter() = default;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Key of the next value; only valid directly inside an object. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view s);
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(bool v);
    JsonWriter &null();

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    kv(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** Finished document. @pre all containers closed. */
    const std::string &str() const;

  private:
    enum class Frame
    {
        kObject,
        kArray,
    };

    void beforeValue();

    std::string out_;
    std::vector<Frame> stack_;
    bool firstInFrame_ = true;
    bool keyPending_ = false;
};

} // namespace lookhd::obs

#endif // LOOKHD_OBS_JSON_HPP
