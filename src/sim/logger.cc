#include "sim/logger.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>

#include "util/panic.h"

namespace remora::sim {

LogLevel Logger::level_ = LogLevel::kWarn;
LogLevel Logger::ringLevel_ = LogLevel::kInfo;
bool Logger::initialized_ = false;

namespace {

/** Recent formatted messages; bounded by gRingCapacity. */
std::deque<std::string> &
ring()
{
    static std::deque<std::string> r;
    return r;
}

size_t gRingCapacity = 64;

const char *
levelName(LogLevel lvl)
{
    switch (lvl) {
      case LogLevel::kTrace: return "TRACE";
      case LogLevel::kDebug: return "DEBUG";
      case LogLevel::kInfo: return "INFO";
      case LogLevel::kWarn: return "WARN";
      case LogLevel::kError: return "ERROR";
    }
    return "?";
}

} // namespace

bool
Logger::parseLevel(const char *name, LogLevel *out)
{
    if (name == nullptr || out == nullptr) {
        return false;
    }
    struct Entry
    {
        const char *name;
        LogLevel level;
    };
    static constexpr Entry kNames[] = {
        {"trace", LogLevel::kTrace}, {"debug", LogLevel::kDebug},
        {"info", LogLevel::kInfo},   {"warn", LogLevel::kWarn},
        {"warning", LogLevel::kWarn}, {"error", LogLevel::kError},
    };
    for (const Entry &e : kNames) {
        if (strcasecmp(name, e.name) == 0) {
            *out = e.level;
            return true;
        }
    }
    return false;
}

void
Logger::ensureInit()
{
    if (initialized_) {
        return;
    }
    initialized_ = true;
    if (const char *env = std::getenv("REMORA_LOG_LEVEL")) {
        LogLevel lvl;
        if (parseLevel(env, &lvl)) {
            level_ = lvl;
        } else {
            std::fprintf(stderr,
                         "remora: ignoring unknown REMORA_LOG_LEVEL '%s'\n",
                         env);
        }
    }
    util::setPanicHook(&Logger::dumpRecent);
}

void
Logger::setRingCapacity(size_t n)
{
    ensureInit();
    gRingCapacity = n;
    while (ring().size() > gRingCapacity) {
        ring().pop_front();
    }
}

void
Logger::write(LogLevel lvl, const char *tag, const std::string &msg)
{
    ensureInit();
    char line[512];
    std::snprintf(line, sizeof(line), "%-5s %-10s %s", levelName(lvl), tag,
                  msg.c_str());
    if (lvl >= level_) {
        std::fprintf(stderr, "%s\n", line);
    }
    if (lvl >= ringLevel_ && gRingCapacity > 0) {
        if (ring().size() >= gRingCapacity) {
            ring().pop_front();
        }
        ring().emplace_back(line);
    }
}

std::vector<std::string>
Logger::recent()
{
    return {ring().begin(), ring().end()};
}

void
Logger::clearRecent()
{
    ring().clear();
}

void
Logger::dumpRecent()
{
    if (ring().empty()) {
        return;
    }
    std::fprintf(stderr, "--- last %zu cluster events ---\n", ring().size());
    for (const std::string &line : ring()) {
        std::fprintf(stderr, "%s\n", line.c_str());
    }
    std::fprintf(stderr, "--- end of recent events ---\n");
}

} // namespace remora::sim
