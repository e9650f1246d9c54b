#include "driver/bench.hh"

#include <cctype>
#include <cstdio>
#include <thread>

#ifdef __linux__
#include <sys/utsname.h>
#endif

#include "common/logging.hh"

namespace msp {
namespace driver {

namespace {

/** First "key: value" line of /proc/cpuinfo matching @p key. */
std::string
cpuinfoField(const char *key)
{
    std::FILE *f = std::fopen("/proc/cpuinfo", "r");
    if (!f)
        return "";
    std::string found;
    char line[512];
    while (std::fgets(line, sizeof line, f)) {
        std::string s(line);
        if (s.rfind(key, 0) != 0)
            continue;
        const std::size_t colon = s.find(':');
        if (colon == std::string::npos)
            continue;
        std::size_t b = colon + 1;
        while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b])))
            ++b;
        std::size_t e = s.size();
        while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
            --e;
        found = s.substr(b, e - b);
        break;
    }
    std::fclose(f);
    return found;
}

} // namespace

std::string
hostFingerprint()
{
    std::string arch = "unknown";
#ifdef __linux__
    struct utsname un{};
    if (::uname(&un) == 0)
        arch = un.machine;
#endif
    std::string model = cpuinfoField("model name");
    if (model.empty())
        model = "unknown-cpu";
    const unsigned threads = std::thread::hardware_concurrency();
    return csprintf("%s/%s/%ut", arch.c_str(), model.c_str(), threads);
}

bool
sanitizedBuild()
{
    bool s = false;
#if defined(MSP_SANITIZED_BUILD)
    s = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    s = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    s = true;
#endif
#endif
    return s;
}

} // namespace driver
} // namespace msp
