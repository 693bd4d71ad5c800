/**
 * @file
 * Leveled, component-tagged diagnostic logging.
 *
 * Logging is off (kWarn) by default so benches and tests stay quiet;
 * examples turn it up to narrate what the cluster is doing.
 *
 * Two extra facilities support post-mortem debugging:
 *
 *  - The REMORA_LOG_LEVEL environment variable (trace|debug|info|warn|
 *    error) sets the initial level at first use, so a bench or test can
 *    be made verbose without recompiling. setLevel() still overrides.
 *  - A bounded ring of recently formatted messages (captured at
 *    ringLevel(), independent of the emit level) is flushed to stderr by
 *    util::panic()/fatal(), so a crashing test shows the last N cluster
 *    events instead of nothing.
 */
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace remora::sim {

/** Log severity, ordered from most to least verbose. */
enum class LogLevel : uint8_t
{
    kTrace = 0,
    kDebug,
    kInfo,
    kWarn,
    kError,
};

/** Global logging configuration (single simulation per process). */
class Logger
{
  public:
    /** Current minimum level that is emitted to stderr. */
    static LogLevel
    level()
    {
        ensureInit();
        return level_;
    }

    /** Set the minimum emitted level (overrides REMORA_LOG_LEVEL). */
    static void
    setLevel(LogLevel lvl)
    {
        ensureInit();
        level_ = lvl;
    }

    /** Minimum level captured into the recent-event ring. */
    static LogLevel
    ringLevel()
    {
        ensureInit();
        return ringLevel_;
    }

    /** Set the ring capture level. */
    static void
    setRingLevel(LogLevel lvl)
    {
        ensureInit();
        ringLevel_ = lvl;
    }

    /** Resize the recent-event ring (0 disables capture). */
    static void setRingCapacity(size_t n);

    /** True when messages at @p lvl would be emitted or ring-captured. */
    static bool
    enabled(LogLevel lvl)
    {
        ensureInit();
        return lvl >= level_ || lvl >= ringLevel_;
    }

    /** Emit one message; used by the REMORA_LOG macro. */
    static void write(LogLevel lvl, const char *tag, const std::string &msg);

    /** The ring contents, oldest first. */
    static std::vector<std::string> recent();

    /** Drop all ring contents. */
    static void clearRecent();

    /** Write the ring to stderr (the panic-hook path). */
    static void dumpRecent();

    /**
     * Parse a level name ("trace", "DEBUG", ...).
     *
     * @return True and sets @p out on success; false on unknown names.
     */
    static bool parseLevel(const char *name, LogLevel *out);

  private:
    /** One-time init: read REMORA_LOG_LEVEL, install the panic hook. */
    static void ensureInit();

    static LogLevel level_;
    static LogLevel ringLevel_;
    static bool initialized_;
};

} // namespace remora::sim

/**
 * Log with stream syntax: REMORA_LOG(kInfo, "rmem", "wrote " << n).
 * The stream expression is not evaluated when the level is disabled.
 */
#define REMORA_LOG(lvl, tag, expr)                                             \
    do {                                                                       \
        if (::remora::sim::Logger::enabled(::remora::sim::LogLevel::lvl)) {    \
            std::ostringstream remora_log_ss;                                  \
            remora_log_ss << expr;                                             \
            ::remora::sim::Logger::write(::remora::sim::LogLevel::lvl, (tag),  \
                                         remora_log_ss.str());                 \
        }                                                                      \
    } while (0)
