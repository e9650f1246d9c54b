/**
 * @file
 * End-to-end integration tests: every core must execute every program
 * with the commit-time oracle enabled (any rename/forwarding/recovery
 * bug trips an assertion), commit the same instruction stream as the
 * functional simulator, and produce its exact final architectural
 * state.
 */

#include <gtest/gtest.h>

#include "functional/executor.hh"
#include "sim/machine.hh"
#include "sim/presets.hh"
#include "workload/micro.hh"
#include "workload/spec.hh"

namespace msp {
namespace {

struct CaseDef
{
    const char *name;
    Program (*make)();
};

Program makeSum() { return micro::sumLoop(300); }
Program makeFib() { return micro::fibonacci(60); }
Program makeCopy() { return micro::memCopy(256); }
Program makeChase() { return micro::pointerChase(512, 2000, 7); }
Program makeBranchy() { return micro::branchy(2000, 42); }
Program makeTight() { return micro::tightRename(400); }
Program makeDot() { return micro::dotProduct(300); }
Program makeCall() { return micro::callReturn(200); }
Program makeTrap() { return micro::trapLoop(200, 37); }
Program makeFwd() { return micro::storeForward(300); }

const CaseDef programCases[] = {
    {"sumLoop", makeSum},       {"fibonacci", makeFib},
    {"memCopy", makeCopy},      {"pointerChase", makeChase},
    {"branchy", makeBranchy},   {"tightRename", makeTight},
    {"dotProduct", makeDot},    {"callReturn", makeCall},
    {"trapLoop", makeTrap},     {"storeForward", makeFwd},
};

struct ConfigDef
{
    const char *name;
    MachineConfig (*make)();
};

MachineConfig mkBaseline() { return baselineConfig(PredictorKind::Gshare); }
MachineConfig mkCpr() { return cprConfig(PredictorKind::Gshare); }
MachineConfig mkCprTage() { return cprConfig(PredictorKind::Tage); }
MachineConfig mk8sp() { return nspConfig(8, PredictorKind::Gshare); }
MachineConfig mk16sp() { return nspConfig(16, PredictorKind::Tage); }
MachineConfig mk32sp() { return nspConfig(32, PredictorKind::Gshare); }
MachineConfig mkIdeal() { return idealMspConfig(PredictorKind::Tage); }

const ConfigDef configCases[] = {
    {"Baseline", mkBaseline}, {"CPR", mkCpr},     {"CPR-TAGE", mkCprTage},
    {"8-SP", mk8sp},          {"16-SP", mk16sp},  {"32-SP", mk32sp},
    {"idealMSP", mkIdeal},
};

class CoreProgram
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(CoreProgram, MatchesFunctionalSimulator)
{
    const auto [ci, pi] = GetParam();
    const ConfigDef &cd = configCases[ci];
    const CaseDef &pd = programCases[pi];

    Program prog = pd.make();

    // Reference run.
    FunctionalExecutor ref(prog);
    ref.run(50'000'000);
    ASSERT_TRUE(ref.halted()) << "functional run did not halt";

    // Timed run with the oracle enabled (asserts on any divergence).
    MachineConfig cfg = cd.make();
    Machine m(cfg, prog);
    RunResult r = m.run(60'000'000, 200'000'000);

    EXPECT_EQ(r.committed, ref.instCount())
        << cd.name << " committed a different instruction count on "
        << pd.name;
    EXPECT_TRUE(m.core().oracleRef().state() == ref.state())
        << cd.name << " final architectural state differs on " << pd.name;
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc(), 0.0);
}

std::string
caseName(const ::testing::TestParamInfo<std::tuple<int, int>> &info)
{
    const auto [ci, pi] = info.param;
    std::string n = std::string(configCases[ci].name) + "_" +
                    programCases[pi].name;
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n;
}

INSTANTIATE_TEST_SUITE_P(
    AllCoresAllPrograms, CoreProgram,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(std::size(configCases))),
        ::testing::Range(0, static_cast<int>(std::size(programCases)))),
    caseName);

// Determinism: identical runs produce identical cycle counts.
TEST(Determinism, SameSeedSameCycles)
{
    Program prog = micro::branchy(3000, 99);
    MachineConfig cfg = nspConfig(16, PredictorKind::Tage);

    Machine m1(cfg, prog);
    RunResult r1 = m1.run(10'000'000);
    Machine m2(cfg, prog);
    RunResult r2 = m2.run(10'000'000);

    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.committed, r2.committed);
    EXPECT_EQ(r1.mispredicts, r2.mispredicts);
}

TEST(BenchRun, DynInstPoolKeepsRunsBitIdentical)
{
    // The arena-allocated instruction window must not perturb results:
    // two back-to-back machines over the same program commit the same
    // stream (the golden-stats fixtures pin the absolute values; this
    // guards the pool against nondeterministic reuse orders).
    const Program prog = spec::build("gcc", 1);
    const MachineConfig cfg = nspConfig(8, PredictorKind::Gshare);
    Machine a(cfg, prog);
    Machine b(cfg, prog);
    const RunResult ra = a.run(20000);
    const RunResult rb = b.run(20000);
    EXPECT_EQ(ra.committed, rb.committed);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.mispredicts, rb.mispredicts);
    EXPECT_EQ(ra.recoveries, rb.recoveries);
}

} // namespace
} // namespace msp
