/**
 * @file
 * Host identity for timing reports: which machine measured, and
 * whether its build may be timed at all.
 *
 * perfbench (perfbench/, the benchmark of record) stamps its reports
 * with these and refuses to time a sanitized build. It includes this
 * header by the path driver/bench.hh, so the file keeps that name.
 */

#ifndef MSPLIB_DRIVER_BENCH_HH
#define MSPLIB_DRIVER_BENCH_HH

#include <string>

namespace msp {
namespace driver {

/**
 * Stable identity of this host: architecture, CPU model and
 * hardware-thread count, as "arch/model/Nt". Two runs on the same
 * machine fingerprint identically; timings from hosts that fingerprint
 * differently are not comparable.
 */
std::string hostFingerprint();

/**
 * True when this binary was built under ASan/TSan/MSan (compiler
 * macros) or with any -fsanitize flag (the MSP_SANITIZED_BUILD define
 * CMake injects — UBSan sets no detection macro of its own).
 */
bool sanitizedBuild();

} // namespace driver
} // namespace msp

#endif // MSPLIB_DRIVER_BENCH_HH
