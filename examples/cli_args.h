/**
 * @file
 * Checked numeric command-line arguments for the example programs.
 *
 * Every parser consumes the whole token and checks its range; a value
 * that fails exits the program with status 2 and a message naming the
 * program, the argument and the value, so `--threads 4x` or a scale of
 * `abc` is an error instead of a silently different run.
 */

#ifndef RID_EXAMPLES_CLI_ARGS_H
#define RID_EXAMPLES_CLI_ARGS_H

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>

namespace rid::cli {

/** Report a bad value of argument @p arg of program @p prog and exit 2. */
[[noreturn]] inline void
badValue(const char *prog, const char *arg, const std::string &text,
         const std::string &expected)
{
    std::fprintf(stderr, "%s: bad value '%s' for %s (expected %s)\n", prog,
                 text.c_str(), arg, expected.c_str());
    std::exit(2);
}

/** The value of numeric argument @p arg: all of @p text must parse as a
 *  T in [@p lo, @p hi] (a floating-point value must also be finite), or
 *  @p prog exits 2 naming the argument and the value. */
template <typename T>
T
parseFlag(const char *prog, const char *arg, const std::string &text, T lo,
          T hi = std::numeric_limits<T>::max())
{
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    bool ok = ec == std::errc() && ptr == end && value >= lo && value <= hi;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    if (!ok) {
        std::ostringstream expected;
        expected << (std::is_floating_point_v<T> ? "a finite number"
                                                 : "an integer");
        if (hi == std::numeric_limits<T>::max())
            expected << " >= " << lo;
        else
            expected << " in [" << lo << ", " << hi << "]";
        badValue(prog, arg, text, expected.str());
    }
    return value;
}

/** A corpus scale factor: a finite number > 0, or @p prog exits 2. */
inline double
parseScale(const char *prog, const std::string &text)
{
    double value = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !(value > 0) ||
        !std::isfinite(value))
        badValue(prog, "scale", text, "a finite number > 0");
    return value;
}

/** A corpus RNG seed in C integer syntax (decimal, 0x hex, 0 octal):
 *  unsigned, the whole token, no overflow, or @p prog exits 2. */
inline uint64_t
parseSeed(const char *prog, const std::string &text)
{
    // strtoull would skip leading space and negate a leading '-'.
    bool ok = !text.empty() &&
              std::isdigit(static_cast<unsigned char>(text[0]));
    char *end = nullptr;
    errno = 0;
    unsigned long long value =
        ok ? std::strtoull(text.c_str(), &end, 0) : 0;
    if (!ok || errno == ERANGE || end != text.c_str() + text.size())
        badValue(prog, "seed", text,
                 "an unsigned 64-bit integer (decimal, 0x hex or 0 octal)");
    return value;
}

} // namespace rid::cli

#endif // RID_EXAMPLES_CLI_ARGS_H
