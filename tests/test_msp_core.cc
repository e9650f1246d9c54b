/**
 * @file
 * MSP core tests: the paper's Fig. 1 / Fig. 2 worked example executed
 * on the real core, precise recovery, LCS behaviour, StateId overflow
 * (Sec. 3.6), the LcsUnit delay line, and runs resumed in bursts.
 */

#include <gtest/gtest.h>

#include "core/lcs_unit.hh"
#include "core/msp_core.hh"
#include "isa/builder.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "workload/micro.hh"
#include "workload/registry.hh"

namespace msp {
namespace {

/** Collect the StateIds of a bank's live entries, oldest first. */
std::vector<std::uint32_t>
bankStates(const MspCore &core, int bank)
{
    std::vector<std::uint32_t> v;
    for (int slot : core.bank(bank).liveOrder())
        v.push_back(core.bank(bank).entry(slot).stateId);
    return v;
}

/**
 * The paper's Fig. 1 dynamic sequence (dest-last Alpha syntax mapped to
 * our ISA), preceded by one long-latency load so nothing commits while
 * we inspect the State Control Tables:
 *
 *   ld   r9, [cold]          StateId 1   (holds LCS at 1)
 *   st   r2, @data           StateId 1
 *   add  r2 <- r1, r2        StateId 2   (R2.1)
 *   bne  (not taken)         StateId 2
 *   sub  r2 <- r2, 1         StateId 3   (R2.2)
 *   mov  r1 <- r2            StateId 4   (R1.1)
 *   add  r2 <- r1, r2        StateId 5   (R2.3)
 *   bge  (taken, mispredicted) StateId 5
 *   add  r1 <- r1, r2        StateId 6   (R1.2  <- squashed)
 *
 * Fig. 2's StateId ranges map to live bank entries: before recovery
 * bank r2 holds states {0,2,3,5} and bank r1 {0,4,6}. The paper's
 * recovery example then squashes only R1.2 (the state-6 entry).
 */
TEST(MspCore, PaperFig1Fig2Example)
{
    ProgramBuilder b("fig1");
    Label notTaken = b.newLabel();
    Label target = b.newLabel();
    b.memSize(1 << 15);

    b.ld(9, 0, 8 * 1024);        // cold: ~400 cycles, pins the LCS
    b.st(2, 0, 64);              // instruction 1 of Fig. 1
    b.add(2, 1, 2);              // 2: renames r2 (R2.1)
    b.bne(0, 0, notTaken);       // 3: never taken, predicted not-taken
    b.bind(notTaken);
    b.addi(2, 2, -1);            // 4: renames r2 (R2.2)
    b.mov(1, 2);                 // 5: renames r1 (R1.1)
    b.add(2, 1, 2);              // 6: renames r2 (R2.3)
    b.bge(0, 0, target);         // 7: always taken -> mispredicts once
    b.add(1, 1, 2);              // 8: renames r1 (R1.2) - wrong path
    b.bind(target);
    b.st(2, 0, 0);
    b.halt();
    Program prog = b.finish();

    MachineConfig cfg = nspConfig(16, PredictorKind::Gshare);
    Machine m(cfg, prog);
    auto &core = static_cast<MspCore &>(m.core());

    // Run long enough to rename everything and resolve the bge, but
    // less than the cold data load needs (so nothing commits). The
    // first instruction fetch itself cold-misses to memory (~400
    // cycles); the data load issues after that and pins the LCS for
    // another ~400.
    m.run(1000000, 450);

    // Fig. 2, after recovery at the state-5 branch:
    //   bank r2: R2.0..R2.3 -> states {0, 2, 3, 5}
    //   bank r1: R1.0, R1.1 -> states {0, 4}; R1.2 (state 6) released.
    EXPECT_EQ(bankStates(core, 2),
              (std::vector<std::uint32_t>{0, 2, 3, 5}));
    EXPECT_EQ(bankStates(core, 1), (std::vector<std::uint32_t>{0, 4}));

    // The SC was reset to the Recovery StateId (Sec. 3.5).
    EXPECT_EQ(core.stateCounter(), 5u);

    // Nothing committed while the cold load is outstanding: the LCS
    // never passed state 1.
    EXPECT_LE(core.effectiveLcs(), 1u);
    EXPECT_EQ(core.committed(), 0u);

    // Let the program finish and verify full architectural agreement.
    RunResult r = m.run(1000000);
    EXPECT_GT(r.committed, 0u);
    EXPECT_EQ(r.recoveries, 1u);
    FunctionalExecutor ref(prog);
    ref.run(1000);
    EXPECT_TRUE(m.core().oracleRef().state() == ref.state());
}

TEST(MspCore, StateIdOverflowFlashClears)
{
    // Tiny banks -> small M -> frequent Sb flash-clears. M = 64 * 4 =
    // 256, so a few thousand renames guarantee several wraps.
    Program prog = micro::tightRename(3000);
    MachineConfig cfg = nspConfig(4, PredictorKind::Gshare);
    Machine m(cfg, prog);
    auto &core = static_cast<MspCore &>(m.core());
    RunResult r = m.run(10000000);

    EXPECT_GE(core.flashClears(), 3u);
    // Oracle agreement across wraps.
    FunctionalExecutor ref(prog);
    ref.run(10000000);
    EXPECT_EQ(r.committed, ref.instCount());
    EXPECT_TRUE(core.oracleRef().state() == ref.state());
}

TEST(MspCore, BankStallsAreAttributedToTheTightRegister)
{
    // tightRename hammers r2: with 4-entry banks, rename must stall on
    // bank 2 specifically.
    Program prog = micro::tightRename(2000);
    MachineConfig cfg = nspConfig(4, PredictorKind::Gshare);
    Machine m(cfg, prog);
    RunResult r = m.run(10000000);
    std::uint64_t maxStall = 0;
    int maxBank = -1;
    for (int i = 0; i < numLogRegs; ++i) {
        if (r.bankStallCycles[i] > maxStall) {
            maxStall = r.bankStallCycles[i];
            maxBank = i;
        }
    }
    EXPECT_EQ(maxBank, 2);
    EXPECT_GT(maxStall, 0u);
}

// MspCore.MoreRegistersPerBankHelpStarvedLoops moved to
// tests/test_slow_sweeps.cc (CTest label "slow").

TEST(MspCore, PreciseRecoveryNeverReExecutes)
{
    Program prog = micro::branchy(5000, 21);
    Machine m(nspConfig(16, PredictorKind::Gshare), prog);
    RunResult r = m.run(10000000);
    EXPECT_GT(r.recoveries, 10u);
    EXPECT_EQ(r.reExecuted, 0u)
        << "MSP recovery must squash only younger instructions";
}

TEST(MspCore, ExceptionsArePrecise)
{
    Program prog = micro::trapLoop(500, 23);
    Machine m(nspConfig(8, PredictorKind::Tage), prog);
    RunResult r = m.run(10000000);
    EXPECT_GT(r.exceptions, 15u);
    FunctionalExecutor ref(prog);
    ref.run(10000000);
    EXPECT_EQ(r.committed, ref.instCount());
    EXPECT_TRUE(m.core().oracleRef().state() == ref.state());
}

TEST(LcsUnit, DelayLineLagsByLatency)
{
    LcsUnit u(2);
    EXPECT_EQ(u.advance(5), 0u);    // nothing emerged yet
    EXPECT_EQ(u.advance(6), 0u);
    EXPECT_EQ(u.advance(7), 5u);    // value from two cycles ago
    EXPECT_EQ(u.advance(8), 6u);
}

TEST(LcsUnit, ZeroLatencyIsCombinational)
{
    LcsUnit u(0);
    EXPECT_EQ(u.advance(9), 9u);
    EXPECT_EQ(u.advance(3), 3u);
}

TEST(LcsUnit, FlushDropsInFlightMinima)
{
    LcsUnit u(2);
    u.advance(5);
    u.advance(6);
    EXPECT_EQ(u.advance(7), 5u);
    u.flush();                       // 6 and 7 die in the pipe
    EXPECT_EQ(u.advance(8), 5u);     // effective value survives a flush
    EXPECT_EQ(u.advance(9), 5u);     // pipe refills before advancing
    EXPECT_EQ(u.advance(10), 8u);
}

TEST(LcsUnit, ClampLowersEffective)
{
    LcsUnit u(1);
    u.advance(10);
    u.advance(11);
    EXPECT_EQ(u.effective(), 10u);
    u.clamp(4);
    EXPECT_EQ(u.effective(), 4u);
    u.clamp(9);                     // clamp never raises
    EXPECT_EQ(u.effective(), 4u);
}

TEST(LcsUnit, FlashClearShiftsLatchedValues)
{
    LcsUnit u(2);
    u.advance(600);
    u.advance(700);
    u.flashClear(512);
    EXPECT_EQ(u.advance(300), 88u);   // 600 - 512
}

TEST(MspCore, RunsResumedPastAMillionCyclesKeepTheirCommitProgress)
{
    // The no-progress check must measure from where a resumed run
    // starts: a burst that begins past cycle 1M on a cycle without a
    // commit used to look like a million commit-free cycles and panic.
    Machine m(nspConfig(16, PredictorKind::Gshare), workload::build("mcf"));
    const std::uint64_t noCommitLimit = ~std::uint64_t{0};
    Cycle stop = 1000050;
    m.run(noCommitLimit, stop);
    ASSERT_EQ(m.core().cycle(), stop) << "mcf halted before 1M cycles";
    const std::uint64_t committed = m.core().committed();
    for (int burst = 0; burst < 200; ++burst) {
        stop += 5;
        m.run(noCommitLimit, stop);
        ASSERT_EQ(m.core().cycle(), stop);
    }
    EXPECT_GT(m.core().committed(), committed);
}

} // namespace
} // namespace msp
