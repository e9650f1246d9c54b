#include "counts.hh"

#include <numeric>

#include "core/msp_core.hh"
#include "lsq/store_queue.hh"

namespace perfbench {

const std::array<CountInfo, kNumCounts> countInfo = {{
    {"pipeline.cycles", "cycles", "lower"},
    {"pipeline.committed", "instr", "higher"},
    {"pipeline.executed", "instr", "lower"},
    {"pipeline.wrong_path", "instr", "lower"},
    {"pipeline.re_executed", "instr", "lower"},
    {"pipeline.recoveries", "count", "lower"},
    {"pipeline.rename_stall_cycles", "cycles", "lower"},
    {"pipeline.reg_stall_cycles", "cycles", "lower"},
    {"pipeline.iq_stall_cycles", "cycles", "lower"},
    {"pipeline.sq_stall_cycles", "cycles", "lower"},
    {"bpred.cond_predicted", "count", "higher"},
    {"bpred.cond_mispredicted", "count", "lower"},
    {"memory.l1i.misses", "count", "lower"},
    {"memory.l1d.hits", "count", "higher"},
    {"memory.l1d.misses", "count", "lower"},
    {"memory.l2.hits", "count", "higher"},
    {"memory.l2.misses", "count", "lower"},
    {"lsq.probes", "count", "lower"},
    {"lsq.forwards", "count", "higher"},
    {"lsq.blocked", "count", "lower"},
    {"msp.lcs_recomputes", "count", "lower"},
    {"msp.lcs_dirty_banks", "count", "lower"},
    {"msp.gate_releases", "count", "lower"},
    {"msp.port_conflicts", "count", "lower"},
    {"msp.intra_id_overflows", "count", "lower"},
    {"msp.flash_clears", "count", "lower"},
    {"msp.bank_stall_cycles", "cycles", "lower"},
    {"cpr.checkpoints", "count", "lower"},
    {"cpr.rollbacks", "count", "lower"},
    {"cpr.squashed_correct_path", "instr", "lower"},
    {"verify.jobs", "count", "higher"},
    {"verify.commits", "instr", "higher"},
    {"verify.divergences", "count", "lower"},
}};

ModelCounts
readRunCounts(msp::Machine &m, const msp::RunResult &r)
{
    using Kind = msp::ForwardResult::Kind;

    ModelCounts c{};
    c[kCycles] = r.cycles;
    c[kCommitted] = r.committed;
    c[kExecuted] = r.totalExecuted;
    c[kWrongPath] = r.wrongPathExec;
    c[kReExecuted] = r.reExecuted;
    c[kRecoveries] = r.recoveries;
    c[kRenameStallCycles] = r.renameStallCycles;
    c[kRegStallCycles] = r.regStallCycles;
    c[kIqStallCycles] = r.iqStallCycles;
    c[kSqStallCycles] = r.sqStallCycles;
    c[kCprCheckpoints] = r.checkpointsTaken;
    c[kBankStallCycles] = std::accumulate(r.bankStallCycles.begin(),
                                          r.bankStallCycles.end(),
                                          std::uint64_t{0});

    // Every StatGroup read of the benchmark; absent names read 0.
    const msp::StatGroup &s = m.stats();
    c[kCondPredicted] = s.get("condPredicted");
    c[kCondMispredicted] = s.get("condMispredicted");
    c[kL1iMisses] = s.get("l1i.misses");
    c[kL1dHits] = s.get("l1d.hits");
    c[kL1dMisses] = s.get("l1d.misses");
    c[kL2Hits] = s.get("l2.hits");
    c[kL2Misses] = s.get("l2.misses");
    c[kPortConflicts] = s.get("msp.portConflicts");
    c[kIntraIdOverflows] = s.get("msp.intraIdOverflow");
    c[kCprRollbacks] = s.get("cpr.rollbacks");
    c[kCprSquashedCorrectPath] = s.get("cpr.squashedCorrectPath");

    const msp::PathEvents &e = m.core().events();
    c[kLsqProbes] = std::accumulate(e.sqProbe.begin(), e.sqProbe.end(),
                                    std::uint64_t{0});
    c[kLsqForwards] = e.sqProbe[static_cast<unsigned>(Kind::Forward)];
    c[kLsqBlocked] = e.sqProbe[static_cast<unsigned>(Kind::Stall)] +
                     e.sqProbe[static_cast<unsigned>(Kind::Unknown)];
    c[kLcsRecomputes] = e.lcsRecompute;
    c[kLcsDirtyBanks] = e.lcsDirtyBank;
    c[kGateReleases] = e.sctGateRelease;

    if (const auto *msp = dynamic_cast<const msp::MspCore *>(&m.core()))
        c[kFlashClears] = msp->flashClears();
    return c;
}

ModelCounts
readDiffCounts(const msp::verify::DiffOutcome &o)
{
    ModelCounts c{};
    c[kCycles] = o.cycles;
    c[kCommitted] = o.committedCore;
    c[kVerifyJobs] = 1;
    c[kVerifyCommits] = o.committedCore;
    c[kVerifyDivergences] = o.divergences.size();
    return c;
}

void
addCounts(ModelCounts &into, const ModelCounts &c)
{
    for (unsigned i = 0; i < kNumCounts; ++i)
        into[i] += c[i];
}

} // namespace perfbench
