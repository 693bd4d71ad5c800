#include "util/panic.h"

#include <cstdio>
#include <cstdlib>

namespace remora::util {

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "remora panic: %s:%d: %s\n", file, line, msg.c_str());
    std::fflush(stderr);
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "remora fatal: %s:%d: %s\n", file, line, msg.c_str());
    std::fflush(stderr);
    std::exit(1);
}

} // namespace remora::util
