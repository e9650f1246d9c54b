/**
 * @file
 * Exact timing fixtures: every commit's cycle, hashed, for the figure
 * ladder on eight SPEC-like programs and for the five standard fuzz
 * mixes, compared for equality (no tolerance) against
 * tests/golden/timing_{ladder,fuzz}.json.
 *
 * A commit observer folds (commit index, commit cycle) into an FNV-1a
 * timing hash, plus one hash per 1024-commit window, so a one-cycle
 * drift anywhere fails the test and the failure names the first window
 * that drifted. The path-event totals (store-queue probes by kind, LCS
 * dirty banks, release-gate openings) and msp.portConflicts are pinned
 * too: they count host-side work that host-speed changes must leave
 * alone.
 *
 * Re-recording after an *intended* model change (bump kModelVersion in
 * the same change, so no cycle moves silently):
 *
 *   MSP_UPDATE_GOLDEN=1 ./build/test_timing_fixtures
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "driver/campaign.hh"
#include "driver/report.hh"
#include "driver/scenario.hh"
#include "sim/machine.hh"
#include "verify/fuzzer.hh"
#include "workload/registry.hh"

namespace msp {
namespace {

/**
 * Version of the timing model the fixtures were recorded on. Any change
 * meant to move a simulated cycle bumps this and re-records; a fixture
 * of another version fails instead of comparing.
 */
constexpr std::uint64_t kModelVersion = 1;

constexpr std::uint64_t kLadderCommits = 20000;
constexpr std::uint64_t kFuzzCommits = 1u << 20;   // run to HALT
constexpr unsigned kFuzzSeedsPerMix = 4;
constexpr std::uint64_t kWindow = 1024;

const char *const kLadderWorkloads[] = {"gzip",  "gcc",   "mcf",  "crafty",
                                        "twolf", "bzip2", "swim", "art"};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
}

/** Everything one job pins. */
struct Record
{
    std::string job;
    std::uint64_t committed = 0;
    std::uint64_t cycles = 0;
    std::uint64_t timingHash = 0;
    std::vector<std::uint64_t> windows;
    std::array<std::uint64_t, 4> sqProbe{};   ///< by ForwardResult::Kind
    std::uint64_t lcsDirtyBanks = 0;
    std::uint64_t gateReleases = 0;
    std::uint64_t portConflicts = 0;
};

/** One fixture job: a program on a machine, run to a commit budget. */
struct Job
{
    std::string key;
    MachineConfig config;
    std::shared_ptr<const Program> program;
    std::uint64_t commits = 0;
};

Record
runJob(const Job &j)
{
    Machine m(j.config, *j.program);
    Record r;
    r.job = j.key;
    std::uint64_t index = 0;
    std::uint64_t window = kFnvOffset;
    r.timingHash = kFnvOffset;
    CoreBase &core = m.core();
    core.setCommitObserver([&](const DynInst &) {
        const std::uint64_t cycle = core.cycle();
        fnvMix(r.timingHash, index);
        fnvMix(r.timingHash, cycle);
        fnvMix(window, index);
        fnvMix(window, cycle);
        if (++index % kWindow == 0) {
            r.windows.push_back(window);
            window = kFnvOffset;
        }
    });
    const RunResult rr = m.run(j.commits);
    if (index % kWindow != 0)
        r.windows.push_back(window);
    r.committed = rr.committed;
    r.cycles = rr.cycles;
    const PathEvents &ev = core.events();
    r.sqProbe = ev.sqProbe;
    r.lcsDirtyBanks = ev.lcsDirtyBank;
    r.gateReleases = ev.sctGateRelease;
    r.portConflicts = m.stats().get("msp.portConflicts");
    return r;
}

std::vector<Job>
ladderJobs()
{
    std::vector<Job> jobs;
    for (const std::string w : kLadderWorkloads) {
        const auto prog =
            std::make_shared<const Program>(workload::build(w, 1));
        for (const MachineConfig &cfg :
             driver::figureLadder(PredictorKind::Gshare))
            jobs.push_back(Job{w + "@" + cfg.name, cfg, prog, kLadderCommits});
    }
    return jobs;
}

std::vector<Job>
fuzzJobs()
{
    // Seeds as `msp_sim verify --seed 1` derives them.
    std::vector<Job> jobs;
    std::uint64_t index = 0;
    for (const verify::FuzzMix &mix : verify::standardMixes()) {
        for (unsigned s = 0; s < kFuzzSeedsPerMix; ++s) {
            const std::uint64_t seed = driver::jobSeed(1, index++);
            const auto prog = std::make_shared<const Program>(
                verify::fuzzProgram(seed, mix));
            for (const MachineConfig &cfg :
                 driver::figureLadder(PredictorKind::Gshare)) {
                jobs.push_back(Job{prog->name + "@" + cfg.name, cfg, prog,
                                   kFuzzCommits});
            }
        }
    }
    return jobs;
}

std::string
hex(std::uint64_t v)
{
    return csprintf("%016llx", static_cast<unsigned long long>(v));
}

std::string
serialize(const std::vector<Record> &records)
{
    std::string out = csprintf("{\n  \"model_version\": %llu,\n"
                               "  \"window\": %llu,\n  \"jobs\": [\n",
                               static_cast<unsigned long long>(kModelVersion),
                               static_cast<unsigned long long>(kWindow));
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        std::string windows;
        for (std::size_t w = 0; w < r.windows.size(); ++w)
            windows += (w ? ", \"" : "\"") + hex(r.windows[w]) + "\"";
        out += csprintf(
            "    {\"job\": \"%s\", \"committed\": %llu, \"cycles\": %llu, "
            "\"timing_hash\": \"%s\", \"probe_none\": %llu, "
            "\"probe_forward\": %llu, \"probe_stall\": %llu, "
            "\"probe_unknown\": %llu, \"lcs_dirty_banks\": %llu, "
            "\"gate_releases\": %llu, \"port_conflicts\": %llu,\n"
            "     \"windows\": [%s]}%s\n",
            json::escape(r.job).c_str(),
            static_cast<unsigned long long>(r.committed),
            static_cast<unsigned long long>(r.cycles),
            hex(r.timingHash).c_str(),
            static_cast<unsigned long long>(r.sqProbe[0]),
            static_cast<unsigned long long>(r.sqProbe[1]),
            static_cast<unsigned long long>(r.sqProbe[2]),
            static_cast<unsigned long long>(r.sqProbe[3]),
            static_cast<unsigned long long>(r.lcsDirtyBanks),
            static_cast<unsigned long long>(r.gateReleases),
            static_cast<unsigned long long>(r.portConflicts),
            windows.c_str(), i + 1 < records.size() ? "," : "");
    }
    out += "  ]\n}\n";
    return out;
}

std::uint64_t
parseHex(const std::string &s)
{
    return std::strtoull(s.c_str(), nullptr, 16);
}

std::vector<Record>
parse(const std::string &doc)
{
    std::vector<Record> records;
    const std::size_t at = json::valuePos(doc, "jobs");
    if (at == std::string::npos)
        return records;
    for (const std::string &obj :
         json::innerObjects(json::balancedSlice(doc, at))) {
        Record r;
        r.job = json::getStr(obj, "job");
        r.committed = json::getU64(obj, "committed", 0);
        r.cycles = json::getU64(obj, "cycles", 0);
        r.timingHash = parseHex(json::getStr(obj, "timing_hash"));
        r.sqProbe = {json::getU64(obj, "probe_none", 0),
                     json::getU64(obj, "probe_forward", 0),
                     json::getU64(obj, "probe_stall", 0),
                     json::getU64(obj, "probe_unknown", 0)};
        r.lcsDirtyBanks = json::getU64(obj, "lcs_dirty_banks", 0);
        r.gateReleases = json::getU64(obj, "gate_releases", 0);
        r.portConflicts = json::getU64(obj, "port_conflicts", 0);
        const std::size_t w = json::valuePos(obj, "windows");
        if (w != std::string::npos) {
            for (const std::string &h :
                 json::innerStrings(json::balancedSlice(obj, w)))
                r.windows.push_back(parseHex(h));
        }
        records.push_back(std::move(r));
    }
    return records;
}

/** Where a run first departed from its fixture. */
struct Drift
{
    int window = -1;    ///< first drifted 1024-commit window; -1 if none
    std::string what;   ///< "" when the run matches exactly
};

Drift
compare(const Record &want, const Record &got)
{
    Drift d;
    const std::size_t n = std::min(want.windows.size(), got.windows.size());
    for (std::size_t w = 0; w < n; ++w) {
        if (want.windows[w] != got.windows[w]) {
            d.window = static_cast<int>(w);
            break;
        }
    }
    if (d.window < 0 && want.windows.size() != got.windows.size())
        d.window = static_cast<int>(n);
    if (d.window >= 0) {
        d.what = csprintf("commit timing drifted first in window %d "
                          "(commits %llu..%llu)", d.window,
                          static_cast<unsigned long long>(d.window * kWindow),
                          static_cast<unsigned long long>(
                              (d.window + 1) * kWindow - 1));
    }
    auto field = [&](const char *name, std::uint64_t a, std::uint64_t b) {
        if (a != b && d.what.empty()) {
            d.what = csprintf("%s: fixture %llu, now %llu", name,
                              static_cast<unsigned long long>(a),
                              static_cast<unsigned long long>(b));
        }
    };
    field("committed", want.committed, got.committed);
    field("cycles", want.cycles, got.cycles);
    field("timing_hash", want.timingHash, got.timingHash);
    field("probe_none", want.sqProbe[0], got.sqProbe[0]);
    field("probe_forward", want.sqProbe[1], got.sqProbe[1]);
    field("probe_stall", want.sqProbe[2], got.sqProbe[2]);
    field("probe_unknown", want.sqProbe[3], got.sqProbe[3]);
    field("lcs_dirty_banks", want.lcsDirtyBanks, got.lcsDirtyBanks);
    field("gate_releases", want.gateReleases, got.gateReleases);
    field("port_conflicts", want.portConflicts, got.portConflicts);
    return d;
}

std::string
fixturePath(const std::string &set)
{
    return std::string(MSP_SOURCE_DIR) + "/tests/golden/timing_" + set +
           ".json";
}

/** The recorded fixture of @p set, or a test failure. */
std::vector<Record>
loadFixture(const std::string &set)
{
    const std::string path = fixturePath(set);
    std::string doc;
    if (!driver::tryReadFile(path, doc)) {
        ADD_FAILURE() << path << " is missing; record it with "
                      << "MSP_UPDATE_GOLDEN=1 ./test_timing_fixtures";
        return {};
    }
    const std::uint64_t version = json::getU64(doc, "model_version", 0);
    if (version != kModelVersion) {
        ADD_FAILURE() << path << " records timing model version "
                      << version << ", this test expects "
                      << kModelVersion << "; re-record after an intended "
                      << "model change";
        return {};
    }
    return parse(doc);
}

void
checkSet(const std::string &set, const std::vector<Job> &jobs)
{
    std::vector<Record> now;
    for (const Job &j : jobs)
        now.push_back(runJob(j));

    if (std::getenv("MSP_UPDATE_GOLDEN") != nullptr) {
        driver::writeFile(fixturePath(set), serialize(now));
        GTEST_SKIP() << "timing fixture rewritten to " << fixturePath(set);
    }

    const std::vector<Record> want = loadFixture(set);
    ASSERT_EQ(want.size(), now.size())
        << "the " << set << " job table changed shape; re-record";
    for (std::size_t i = 0; i < now.size(); ++i) {
        ASSERT_EQ(want[i].job, now[i].job)
            << "job order changed; re-record";
        const Drift d = compare(want[i], now[i]);
        EXPECT_TRUE(d.what.empty()) << now[i].job << ": " << d.what;
    }
}

TEST(TimingFixtures, FigureLadderIsCycleExact)
{
    checkSet("ladder", ladderJobs());
}

TEST(TimingFixtures, FuzzMixesAreCycleExact)
{
    checkSet("fuzz", fuzzJobs());
}

TEST(TimingFixtures, OneCycleOfLcsLatencyIsCaughtAtANamedWindow)
{
    // The check must see a single-cycle model change: one fixture job
    // with the LCS broadcast one cycle slower has to fail the
    // comparison and name the window where the drift began.
    if (std::getenv("MSP_UPDATE_GOLDEN") != nullptr)
        GTEST_SKIP() << "fixtures are being re-recorded";
    const std::vector<Record> want = loadFixture("ladder");
    std::vector<Job> jobs = ladderJobs();
    std::size_t pick = jobs.size();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].key == "gcc@16-SP+Arb")
            pick = i;
    }
    ASSERT_LT(pick, jobs.size());
    ASSERT_LT(pick, want.size());
    ASSERT_EQ(want[pick].job, jobs[pick].key);

    Job slow = jobs[pick];
    slow.config.core.lcsLatency += 1;
    const Drift d = compare(want[pick], runJob(slow));
    EXPECT_GE(d.window, 0) << "an LCS one cycle slower went unnoticed";
    EXPECT_NE(d.what.find("window " + std::to_string(d.window)),
              std::string::npos)
        << d.what;
}

} // namespace
} // namespace msp
