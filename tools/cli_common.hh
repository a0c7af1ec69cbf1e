/**
 * @file
 * Minimal argument parsing shared by the command-line tools.
 */

#ifndef MOSAIC_TOOLS_CLI_COMMON_HH
#define MOSAIC_TOOLS_CLI_COMMON_HH

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/error.hh"
#include "support/fault_injector.hh"
#include "support/metrics.hh"
#include "support/str.hh"

namespace mosaic::cli
{

/** Parsed "--key value" options. */
struct Args
{
    std::map<std::string, std::string> options;

    bool
    has(const std::string &key) const
    {
        return options.count(key) != 0;
    }

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = options.find(key);
        return it == options.end() ? fallback : it->second;
    }
};

/**
 * Parse argv against the option names a tool accepts. "--key value"
 * pairs become options; "--flag" followed by another option (or
 * nothing) becomes a true flag. A "--key" outside @p accepted, or a
 * word that is neither an option nor its value, is a Config error
 * naming it, so a misspelled option ("--jbos 4") or a forgotten one
 * ("--workloads gups/8GB SandyBridge") can never run the tool with
 * default settings.
 */
inline Result<Args>
parseArgsResult(int argc, char **argv,
                std::initializer_list<std::string_view> accepted)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string word = argv[i];
        if (word.rfind("--", 0) == 0) {
            std::string key = word.substr(2);
            if (std::find(accepted.begin(), accepted.end(), key) ==
                accepted.end())
                return configError("unknown option " + word);
            if (i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0) {
                args.options[key] = argv[++i];
            } else {
                args.options[key] = "true";
            }
        } else {
            return configError("unexpected argument '" + word + "'");
        }
    }
    return args;
}

/**
 * Strict numeric option parsing. The std::stoul/std::stod idiom the
 * tools used to rely on silently truncates trailing garbage
 * ("--jobs 4x" became 4) and wraps negatives into huge unsigned
 * values ("--jobs -1" became 2^64-1). These helpers reject both
 * with a structured Numeric error naming the offending option and
 * enforce an inclusive [min, max] range at the parse boundary, so a
 * bad flag dies with a one-line diagnosis instead of a confusing
 * downstream failure.
 */
inline Result<std::uint64_t>
parseUnsignedValue(const std::string &option, const std::string &text,
                   std::uint64_t min = 0,
                   std::uint64_t max =
                       std::numeric_limits<std::uint64_t>::max())
{
    std::uint64_t value = 0;
    if (!parseUnsignedFull(trimString(text), value)) {
        return numericError("--" + option +
                            ": expected an unsigned integer, got \"" +
                            text + "\"");
    }
    if (value < min || value > max) {
        return numericError("--" + option + ": value " +
                            std::to_string(value) +
                            " out of range [" + std::to_string(min) +
                            ", " + std::to_string(max) + "]");
    }
    return value;
}

/** Strict full-match finite-double parse; same contract as above. */
inline Result<double>
parseDoubleValue(const std::string &option, const std::string &text,
                 double min = std::numeric_limits<double>::lowest(),
                 double max = std::numeric_limits<double>::max())
{
    const std::string trimmed = trimString(text);
    errno = 0;
    char *end = nullptr;
    const double value =
        trimmed.empty() ? 0.0 : std::strtod(trimmed.c_str(), &end);
    if (trimmed.empty() || end != trimmed.c_str() + trimmed.size() ||
        errno == ERANGE || !std::isfinite(value)) {
        return numericError("--" + option +
                            ": expected a finite number, got \"" +
                            text + "\"");
    }
    if (value < min || value > max) {
        return numericError("--" + option + ": value " +
                            formatDouble(value) + " out of range [" +
                            formatDouble(min) + ", " +
                            formatDouble(max) + "]");
    }
    return value;
}

/** Parse option @p key as an unsigned integer, or @p fallback. */
inline Result<std::uint64_t>
unsignedOption(const Args &args, const std::string &key,
               std::uint64_t fallback, std::uint64_t min = 0,
               std::uint64_t max =
                   std::numeric_limits<std::uint64_t>::max())
{
    if (!args.has(key))
        return fallback;
    return parseUnsignedValue(key, args.get(key), min, max);
}

/** Parse option @p key as a finite double, or @p fallback. */
inline Result<double>
doubleOption(const Args &args, const std::string &key, double fallback,
             double min = std::numeric_limits<double>::lowest(),
             double max = std::numeric_limits<double>::max())
{
    if (!args.has(key))
        return fallback;
    return parseDoubleValue(key, args.get(key), min, max);
}

/** Print usage text and exit. */
[[noreturn]] inline void
usage(const std::string &text)
{
    std::fprintf(stderr, "%s", text.c_str());
    std::exit(2);
}

/**
 * Tool entry-point guard: this is where recoverable library errors
 * that nothing handled become a clean exit. Arms the fault injector
 * from $MOSAIC_FAULTS first, so whole-binary fault drills work on
 * every tool.
 */
template <typename Fn>
int
runGuarded(const char *tool, Fn &&body)
{
    try {
        FaultInjector::instance().configureFromEnv();
        return body();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", tool, e.what());
        return 1;
    }
}

/**
 * Emit the JSON run manifest to --metrics-out FILE, when requested.
 * Every tool supports the flag; a failed manifest write warns but
 * never changes the tool's exit code (observability must not fail a
 * run that succeeded).
 */
inline void
writeManifestIfRequested(const Args &args, const RunManifest &manifest)
{
    if (!args.has("metrics-out"))
        return;
    const std::string path = args.get("metrics-out");
    auto written = manifest.write(path, metrics());
    if (!written.ok()) {
        std::fprintf(stderr,
                     "warn: cannot write metrics manifest %s: %s\n",
                     path.c_str(), written.error().str().c_str());
    }
}

/** Unwrap a Result at the CLI boundary: print the error and exit. */
template <typename T>
T
unwrapOrDie(const char *tool, Result<T> result)
{
    if (!result.ok()) {
        std::fprintf(stderr, "%s: %s\n", tool,
                     result.error().str().c_str());
        std::exit(2);
    }
    return std::move(result).okOrThrow();
}

/** parseArgsResult() at a tool's entry point: an unknown option or a
 *  stray word prints one line naming it and exits 2. */
inline Args
parseArgs(const char *tool, int argc, char **argv,
          std::initializer_list<std::string_view> accepted)
{
    return unwrapOrDie(tool, parseArgsResult(argc, argv, accepted));
}

} // namespace mosaic::cli

#endif // MOSAIC_TOOLS_CLI_COMMON_HH
