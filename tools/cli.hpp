/**
 * @file
 * Minimal argv flag parser shared by the command-line tools.
 *
 * Each tool declares every option it reads, so a misspelled or
 * retired option fails the run instead of being silently ignored.
 */

#ifndef LOOKHD_TOOLS_CLI_HPP
#define LOOKHD_TOOLS_CLI_HPP

#include <charconv>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

namespace lookhd::tools {

/** Parsed command line: --key value options and --flag switches. */
class Args
{
  public:
    /**
     * @param argc/argv Program arguments.
     * @param flags Names (without --) that take no value.
     * @param keys Names (without --) that take one value.
     * @throws std::invalid_argument on a positional argument, an
     *         option in neither set, or a key without its value.
     */
    Args(int argc, char **argv, const std::set<std::string> &flags,
         const std::set<std::string> &keys)
        : declared_(keys)
    {
        declared_.insert(flags.begin(), flags.end());
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0)
                throw std::invalid_argument("unexpected argument: " +
                                            arg);
            const std::string name = arg.substr(2);
            if (flags.count(name)) {
                flags_.insert(name);
            } else if (keys.count(name)) {
                if (i + 1 >= argc)
                    throw std::invalid_argument("missing value for --" +
                                                name);
                values_[name] = argv[++i];
            } else {
                throw std::invalid_argument("unknown option " + arg);
            }
        }
    }

    bool has(const std::string &flag) const
    {
        checkDeclared(flag);
        return flags_.count(flag) > 0;
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        const auto it = find(key);
        return it == values_.end() ? fallback : it->second;
    }

    std::string
    require(const std::string &key) const
    {
        const auto it = find(key);
        if (it == values_.end())
            throw std::invalid_argument("missing required --" + key);
        return it->second;
    }

    long
    getInt(const std::string &key, long fallback) const
    {
        const auto it = find(key);
        return it == values_.end() ? fallback
                                   : parse<long>(key, it->second);
    }

    long
    requireInt(const std::string &key) const
    {
        return parse<long>(key, require(key));
    }

    double
    getDouble(const std::string &key, double fallback) const
    {
        const auto it = find(key);
        return it == values_.end() ? fallback
                                   : parse<double>(key, it->second);
    }

  private:
    /** Reading a name the tool never declared is a tool bug: the
     * user could not have passed it. */
    void
    checkDeclared(const std::string &name) const
    {
        if (declared_.count(name) == 0)
            throw std::logic_error("option --" + name +
                                   " read but not declared");
    }

    std::map<std::string, std::string>::const_iterator
    find(const std::string &key) const
    {
        checkDeclared(key);
        return values_.find(key);
    }

    /** The whole of @p text as a T; anything less is an error. */
    template <typename T>
    static T
    parse(const std::string &key, const std::string &text)
    {
        T value{};
        const char *end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, value);
        if (text.empty() || ec != std::errc() || ptr != end)
            throw std::invalid_argument("invalid value for --" + key +
                                        ": '" + text + "'");
        return value;
    }

    std::set<std::string> declared_;
    std::map<std::string, std::string> values_;
    std::set<std::string> flags_;
};

} // namespace lookhd::tools

#endif // LOOKHD_TOOLS_CLI_HPP
