/**
 * @file
 * Modelled work as exact counts, read after each run.
 *
 * These counts describe the simulated machine, not the host: the same
 * job gives the same counts in every run, traced or not, and a change
 * that only speeds up the simulator leaves every one unchanged. This
 * file is the one adapter over the simulator's three counter sources
 * (RunResult fields, the string-keyed StatGroup, CoreBase::events()),
 * so replacing any of them touches nothing else in the benchmark.
 */

#ifndef PERFBENCH_COUNTS_HH
#define PERFBENCH_COUNTS_HH

#include <array>
#include <cstdint>

#include "sim/machine.hh"
#include "verify/oracle.hh"

namespace perfbench {

/** Index of one modelled count (see countInfo for names and units). */
enum Count : unsigned {
    kCycles,
    kCommitted,
    kExecuted,
    kWrongPath,
    kReExecuted,
    kRecoveries,
    kRenameStallCycles,
    kRegStallCycles,
    kIqStallCycles,
    kSqStallCycles,
    kCondPredicted,
    kCondMispredicted,
    kL1iMisses,
    kL1dHits,
    kL1dMisses,
    kL2Hits,
    kL2Misses,
    kLsqProbes,
    kLsqForwards,
    kLsqBlocked,
    kLcsRecomputes,
    kLcsDirtyBanks,
    kGateReleases,
    kPortConflicts,
    kIntraIdOverflows,
    kFlashClears,
    kBankStallCycles,
    kCprCheckpoints,
    kCprRollbacks,
    kCprSquashedCorrectPath,
    kVerifyJobs,
    kVerifyCommits,
    kVerifyDivergences,
    kNumCounts
};

/** Reported name, unit and preferred direction of one count. */
struct CountInfo
{
    const char *metric;
    const char *unit;
    const char *better;
};

/** Indexed by Count. */
extern const std::array<CountInfo, kNumCounts> countInfo;

using ModelCounts = std::array<std::uint64_t, kNumCounts>;

/** Counts of one Machine::run (ladder jobs). */
ModelCounts readRunCounts(msp::Machine &m, const msp::RunResult &r);

/**
 * Counts of one verify::diffRun (verify jobs): only cycles, committed
 * and the verify counts are visible from outside a differential run.
 */
ModelCounts readDiffCounts(const msp::verify::DiffOutcome &o);

/** @p into += @p c, count by count. */
void addCounts(ModelCounts &into, const ModelCounts &c);

} // namespace perfbench

#endif // PERFBENCH_COUNTS_HH
