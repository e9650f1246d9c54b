/**
 * @file
 * Tests for the simulation-campaign driver: determinism under
 * parallelism (the same job matrix must produce bit-identical results
 * on 1 and N worker threads), matrix construction, seeding, and the
 * JSON/CSV report serialisers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>

#include "driver/bench.hh"
#include "driver/campaign.hh"
#include "driver/report.hh"
#include "driver/scenario.hh"
#include "isa/builder.hh"
#include "sim/presets.hh"

namespace msp {
namespace {

using driver::CampaignJob;
using driver::JobResult;
using driver::SimCampaign;

constexpr std::uint64_t kBudget = 3000;

std::vector<MachineConfig>
smallLadder()
{
    return {
        baselineConfig(PredictorKind::Gshare),
        cprConfig(PredictorKind::Gshare),
        nspConfig(16, PredictorKind::Gshare),
    };
}

std::vector<JobResult>
runMatrixWith(unsigned threads)
{
    SimCampaign c(threads);
    c.addMatrix({"gzip", "swim"}, smallLadder(), kBudget);
    return c.run();
}

TEST(SimCampaign, MatrixIsWorkloadMajor)
{
    SimCampaign c(1);
    c.addMatrix({"gzip", "gcc"}, smallLadder(), kBudget, 1, "t");
    ASSERT_EQ(c.size(), 6u);
    const auto &jobs = c.pending();
    EXPECT_EQ(jobs[0].workload, "gzip");
    EXPECT_EQ(jobs[2].workload, "gzip");
    EXPECT_EQ(jobs[3].workload, "gcc");
    EXPECT_EQ(jobs[0].config.name, "Baseline");
    EXPECT_EQ(jobs[4].config.name, "CPR");
    EXPECT_EQ(jobs[5].scenario, "t");
}

TEST(SimCampaign, ResultsComeBackInSubmissionOrder)
{
    const auto results = runMatrixWith(4);
    ASSERT_EQ(results.size(), 6u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].result.config, results[i].job.config.name);
        EXPECT_EQ(results[i].result.workload, results[i].job.workload);
        EXPECT_GT(results[i].result.committed, 0u);
    }
}

// The headline property: a campaign is bit-deterministic regardless of
// worker count — every job owns its machine, program copy and RNGs.
TEST(SimCampaign, ParallelRunMatchesSingleThreaded)
{
    const auto ref = runMatrixWith(1);
    for (unsigned threads : {2u, 4u, 8u}) {
        const auto par = runMatrixWith(threads);
        ASSERT_EQ(par.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            SCOPED_TRACE(ref[i].job.config.name + "/" +
                         ref[i].job.workload);
            EXPECT_EQ(par[i].result.committed, ref[i].result.committed);
            EXPECT_EQ(par[i].result.cycles, ref[i].result.cycles);
            EXPECT_DOUBLE_EQ(par[i].result.ipc(), ref[i].result.ipc());
            EXPECT_EQ(par[i].result.mispredicts,
                      ref[i].result.mispredicts);
            EXPECT_EQ(par[i].result.totalExecuted,
                      ref[i].result.totalExecuted);
        }
    }
}

TEST(SimCampaign, RepeatedRunsAreDeterministic)
{
    const auto a = runMatrixWith(3);
    const auto b = runMatrixWith(3);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].result.cycles, b[i].result.cycles);
        EXPECT_EQ(a[i].result.committed, b[i].result.committed);
    }
}

TEST(SimCampaign, CustomProgramJobsRun)
{
    ProgramBuilder b("tiny-loop");
    b.li(1, 0);
    b.li(2, 1);
    b.li(3, 1000000);
    Label loop = b.newLabel();
    Label end = b.newLabel();
    b.bind(loop);
    b.blt(3, 2, end);
    b.add(1, 1, 2);
    b.addi(2, 2, 1);
    b.j(loop);
    b.bind(end);
    b.halt();
    auto prog = std::make_shared<Program>(b.finish());

    SimCampaign c(2);
    for (int i = 0; i < 3; ++i) {
        CampaignJob j;
        j.workload = "tiny-loop";
        j.config = nspConfig(16, PredictorKind::Gshare);
        j.maxInsts = kBudget;
        j.program = prog;
        c.add(std::move(j));
    }
    const auto results = c.run();
    ASSERT_EQ(results.size(), 3u);
    for (const auto &jr : results) {
        EXPECT_EQ(jr.result.workload, "tiny-loop");
        EXPECT_GT(jr.result.committed, 0u);
        EXPECT_EQ(jr.result.committed, results[0].result.committed);
    }
}

TEST(SimCampaign, ProgressReportsEveryJobOnce)
{
    SimCampaign c(4);
    c.addMatrix({"gzip"}, smallLadder(), kBudget);
    std::set<std::size_t> seen;
    std::size_t lastDone = 0;
    const auto results =
        c.run([&](const JobResult &jr, std::size_t done,
                  std::size_t total) {
            EXPECT_EQ(total, 3u);
            EXPECT_GT(done, lastDone);
            lastDone = done;
            seen.insert(jr.index);
        });
    EXPECT_EQ(results.size(), 3u);
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_EQ(lastDone, 3u);
}

TEST(SimCampaign, JobSeedIsDeterministicAndDistinct)
{
    EXPECT_EQ(driver::jobSeed(1, 0), driver::jobSeed(1, 0));
    EXPECT_NE(driver::jobSeed(1, 0), driver::jobSeed(1, 1));
    EXPECT_NE(driver::jobSeed(1, 0), driver::jobSeed(2, 0));
    EXPECT_NE(driver::jobSeed(1, 5), 0u);
}

TEST(SimCampaign, EffectiveThreadsNeverExceedsJobs)
{
    SimCampaign c(64);
    c.addMatrix({"gzip"}, smallLadder(), kBudget);
    EXPECT_EQ(c.effectiveThreads(), 3u);
    SimCampaign empty(0);
    EXPECT_EQ(empty.effectiveThreads(), 1u);
}

TEST(SimCampaign, DefaultBudgetIgnoresTheEnvironment)
{
    // The default budget is a constant: a job that leaves maxInsts at
    // 0 records budget 0 in its checkpoint identity, so a budget read
    // from the environment could resume a campaign run at another
    // budget and label its rows with the wrong one.
    ::setenv("MSP_BENCH_INSTRS", "5000", 1);
    SimCampaign c(1);
    c.addMatrix({"gzip"}, {cprConfig(PredictorKind::Gshare)}, 0);
    const auto results = c.run();
    ::unsetenv("MSP_BENCH_INSTRS");

    ASSERT_EQ(results.size(), 1u);
    EXPECT_GE(results[0].result.committed, driver::defaultInstBudget);
    EXPECT_EQ(driver::defaultInstBudget, 60000u);
    EXPECT_NE(driver::toJson(results).find("\"max_insts\": 60000"),
              std::string::npos);
}

// perfbench stamps its reports with this fingerprint and cuts the
// thread count off at the last '/'.
TEST(BenchRun, HostFingerprintIsStableAndDescriptive)
{
    const std::string fp = driver::hostFingerprint();
    EXPECT_FALSE(fp.empty());
    EXPECT_EQ(fp, driver::hostFingerprint());
    // arch/model/threads — at least the two separators.
    EXPECT_GE(std::count(fp.begin(), fp.end(), '/'), 2);
}

TEST(Report, JsonAndCsvCarryTheJobRecord)
{
    SimCampaign c(1);
    c.addMatrix({"gzip"}, {nspConfig(16, PredictorKind::Tage)}, kBudget);
    const auto results = c.run();

    const std::string json = driver::toJson(results);
    EXPECT_NE(json.find("\"workload\": \"gzip\""), std::string::npos);
    EXPECT_NE(json.find("\"config\": \"16-SP+Arb\""), std::string::npos);
    EXPECT_NE(json.find("\"predictor\": \"TAGE\""), std::string::npos);
    EXPECT_NE(json.find("\"ipc\": "), std::string::npos);
    EXPECT_NE(json.find("\"max_insts\": 3000"), std::string::npos);

    const std::string csv = driver::toCsv(results);
    EXPECT_NE(csv.find("workload,config,predictor"), std::string::npos);
    EXPECT_NE(csv.find("gzip,16-SP+Arb,TAGE"), std::string::npos);
    // Header plus one data row.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(Report, JsonEscapesControlCharacters)
{
    EXPECT_EQ(driver::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Scenario, RegistryKnowsTheFigureSweeps)
{
    EXPECT_NE(driver::findScenario("fig6"), nullptr);
    EXPECT_NE(driver::findScenario("fig9"), nullptr);
    EXPECT_NE(driver::findScenario("ablation-rename"), nullptr);
    EXPECT_EQ(driver::findScenario("nope"), nullptr);
    EXPECT_GE(driver::scenarios().size(), 8u);
}

TEST(Scenario, Fig6BuildsTheFullLadderMatrix)
{
    const auto *s = driver::findScenario("fig6");
    ASSERT_NE(s, nullptr);
    const auto jobs = s->build(kBudget);
    // 12 SPECint benchmarks x 8-machine ladder would be 96; whatever
    // the workload list is, the matrix must be workload-major over the
    // 8-config ladder.
    const auto ladder = driver::figureLadder(PredictorKind::Gshare);
    ASSERT_EQ(jobs.size() % ladder.size(), 0u);
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        EXPECT_EQ(jobs[i].config.name, ladder[i].name);
        EXPECT_EQ(jobs[i].workload, jobs[0].workload);
        EXPECT_EQ(jobs[i].maxInsts, kBudget);
    }
    EXPECT_NE(jobs[ladder.size()].workload, jobs[0].workload);
}

} // namespace
} // namespace msp
