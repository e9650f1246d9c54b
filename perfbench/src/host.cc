#include "host.hh"

#include <sys/resource.h>

#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "driver/bench.hh"

namespace perfbench {

namespace {

rusage
selfUsage()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return ru;
}

} // anonymous namespace

HostSample
sampleHost()
{
    HostSample s;
    const rusage ru = selfUsage();
    s.minorFaults = ru.ru_minflt;
    s.voluntarySwitches = ru.ru_nvcsw;
    s.involuntarySwitches = ru.ru_nivcsw;

    // First line: "cpu user nice system idle iowait irq softirq steal
    // guest guest_nice". Guest time is already inside user/nice.
    std::ifstream stat("/proc/stat");
    std::string line;
    if (std::getline(stat, line) && line.rfind("cpu ", 0) == 0) {
        std::istringstream in(line.substr(4));
        std::uint64_t v = 0;
        for (int col = 0; col < 8 && (in >> v); ++col) {
            s.totalTicks += v;
            if (col == 7)
                s.stealTicks = v;
        }
    }
    return s;
}

std::int64_t
minorFaults()
{
    return selfUsage().ru_minflt;
}

double
peakRssMb()
{
    return static_cast<double>(selfUsage().ru_maxrss) / 1024.0;
}

std::string
hostFingerprint()
{
    const std::string fp = msp::driver::hostFingerprint();
    const std::size_t cut = fp.rfind('/');
    return cut == std::string::npos ? fp : fp.substr(0, cut);
}

std::string
hostRecordJson(const HostSample &before, const HostSample &after)
{
    const std::uint64_t steal = after.stealTicks - before.stealTicks;
    const std::uint64_t total = after.totalTicks - before.totalTicks;
    return msp::csprintf(
        "{\"fingerprint\": \"%s\", \"sanitized\": %s, "
        "\"steal_ticks\": %llu, \"cpu_ticks\": %llu, "
        "\"steal_frac\": %.6f, \"involuntary_switches\": %lld, "
        "\"voluntary_switches\": %lld, \"minor_faults\": %lld}",
        msp::json::escape(hostFingerprint()).c_str(),
        msp::driver::sanitizedBuild() ? "true" : "false",
        static_cast<unsigned long long>(steal),
        static_cast<unsigned long long>(total),
        total ? static_cast<double>(steal) / static_cast<double>(total)
              : 0.0,
        static_cast<long long>(after.involuntarySwitches -
                               before.involuntarySwitches),
        static_cast<long long>(after.voluntarySwitches -
                               before.voluntarySwitches),
        static_cast<long long>(after.minorFaults - before.minorFaults));
}

} // namespace perfbench
