/**
 * @file
 * What the host did during a run: a fingerprint that ignores the
 * thread count, CPU time stolen by the hypervisor, involuntary context
 * switches and page faults. Recorded with every result so a noisy run
 * can be told apart from a slow program.
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <cstdint>
#include <string>

namespace perfbench {

/** Cumulative host counters at one instant. */
struct HostSample
{
    std::int64_t minorFaults = 0;
    std::int64_t voluntarySwitches = 0;
    std::int64_t involuntarySwitches = 0;
    std::uint64_t stealTicks = 0;  ///< /proc/stat "cpu" steal column
    std::uint64_t totalTicks = 0;  ///< sum of the "cpu" columns
};

HostSample sampleHost();

/** Minor page faults of this process so far (one getrusage call). */
std::int64_t minorFaults();

/** Peak resident set size of this process in MB (ru_maxrss). */
double peakRssMb();

/**
 * driver::hostFingerprint() without its thread-count suffix: the
 * architecture and CPU model, which is what single-threaded speed
 * depends on.
 */
std::string hostFingerprint();

/** The host record of the interval [@p before, @p after] as JSON. */
std::string hostRecordJson(const HostSample &before,
                           const HostSample &after);

} // namespace perfbench

#endif // PERFBENCH_HOST_HH
