/**
 * @file
 * Error-termination helpers, following the gem5 panic()/fatal()
 * distinction: panic() for internal invariant violations (library bugs),
 * fatal() for conditions caused by the caller's configuration.
 */
#pragma once

#include <string>

namespace remora::util {

/**
 * Terminate because an internal invariant was violated. Never returns.
 *
 * Use for conditions that indicate a bug in remora itself, regardless of
 * how the library was configured.
 *
 * @param file Source file of the violation (usually __FILE__).
 * @param line Source line of the violation (usually __LINE__).
 * @param msg Human-readable description.
 */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);

/**
 * Terminate because of a caller/configuration error. Never returns.
 *
 * Use for conditions that a user of the library can cause (invalid
 * topology, impossible parameters), not for internal bugs.
 *
 * @param file Source file of the check (usually __FILE__).
 * @param line Source line of the check (usually __LINE__).
 * @param msg Human-readable description.
 */
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);

} // namespace remora::util

/** Report an internal invariant violation and abort. */
#define REMORA_PANIC(msg) ::remora::util::panicImpl(__FILE__, __LINE__, (msg))

/** Report a user/configuration error and exit. */
#define REMORA_FATAL(msg) ::remora::util::fatalImpl(__FILE__, __LINE__, (msg))

/** Check an internal invariant; panic with the condition text on failure. */
#define REMORA_ASSERT(cond)                                                    \
    do {                                                                       \
        if (!(cond)) {                                                         \
            ::remora::util::panicImpl(__FILE__, __LINE__,                      \
                                      "assertion failed: " #cond);             \
        }                                                                      \
    } while (0)
