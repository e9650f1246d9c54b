/**
 * @file
 * perfbench — the simulator's end-to-end and per-layer benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--data DIR] [--out FILE] [--spans FILE]
 *             [--instrs N] [--verify-seeds N]
 *             [--expect FILE] [--write-expect FILE]
 *
 * One process runs one workload as a closed loop with one client on
 * one thread, calling only msplib's public API. After a warm-up round
 * it runs rounds of three set-ups and one pass over the job set the
 * last set-up built, until the next round would overrun --seconds, with
 * calibration slices (calib.hh) run beside the timed work to divide the
 * host's speed out; setup_s is the median set-up and wall_s the median
 * pass, in reference-host seconds. Every job's simulated output is
 * checked: against the expectations recorded for the default seed,
 * against the first pass (the model must repeat exactly), and, on
 * verify-fuzz, against the differential oracle and the ideal >= 16-SP
 * timing invariant.
 *
 * With --trace 0 the result line carries the end-to-end metrics; with
 * --trace 1 untraced and traced passes alternate, spans are recorded
 * around each layer call, and the result line carries the per-layer
 * metrics. The last line of stdout is always the result object. See
 * README.md in this directory for every metric.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "driver/bench.hh"
#include "driver/campaign.hh"
#include "driver/report.hh"
#include "driver/scenario.hh"
#include "sim/grid.hh"
#include "sim/machine.hh"
#include "verify/diff_campaign.hh"
#include "verify/fuzzer.hh"
#include "verify/oracle.hh"
#include "verify/report.hh"
#include "workload/registry.hh"

#include "calib.hh"
#include "counts.hh"
#include "host.hh"
#include "tracer.hh"

namespace perfbench {
namespace {

using msp::csprintf;
using Clock = std::chrono::steady_clock;

/** The default workload seed: the only one with recorded expectations. */
constexpr std::uint64_t defaultSeed = 1;

/** Set-ups per timed round; setup_s is their median over the rounds. */
constexpr unsigned setupsPerRound = 3;

/** Committed-instruction bound of a verify job (msp_sim verify's). */
constexpr std::uint64_t verifyBudget = 1u << 20;

struct WorkloadDef
{
    const char *name;
    const char *gridFile;   ///< relative to --data; null for verify-fuzz
    std::uint64_t instrs;   ///< ladder per-job committed budget
    unsigned verifySeeds;   ///< verify-fuzz fuzz seeds per mix
};

constexpr WorkloadDef workloadDefs[] = {
    {"msp-ladder", "workloads/msp-ladder.json", 100000, 0},
    {"ref-ladder", "workloads/ref-ladder.json", 100000, 0},
    {"verify-fuzz", nullptr, 0, 60},
};

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string dataDir = "perfbench";
    std::string outPath;
    std::string spansPath;
    std::string expectPath;       ///< default: DATA/expect/WORKLOAD.tsv
    std::string writeExpectPath;
    std::uint64_t instrs = 0;     ///< 0 = the workload's budget
    unsigned verifySeeds = 0;     ///< 0 = the workload's seed count
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
readText(const std::string &path)
{
    std::string text;
    if (!msp::driver::tryReadFile(path, text))
        throw std::runtime_error("cannot read " + path);
    return text;
}

// ---------------------------------------------------------------------------
// Jobs and passes
// ---------------------------------------------------------------------------

/** The simulated output of one job: everything that must repeat. */
struct JobOutput
{
    msp::CoreKind kind = msp::CoreKind::Msp;
    ModelCounts counts{};
    std::uint64_t streamHash = 0;   ///< verify jobs only
    std::string divergence;         ///< first divergence; "" when clean

    bool
    operator==(const JobOutput &o) const
    {
        return kind == o.kind && counts == o.counts &&
               streamHash == o.streamHash && divergence == o.divergence;
    }
};

/**
 * Calibration slices (calib.hh) run beside one stretch of timed work: a
 * slice after every job that ends sliceEverySec or more after the last
 * slice, so the slices meet the host as the jobs did. With a null
 * calibrator it runs none.
 */
class Interleave
{
  public:
    static constexpr double sliceEverySec = 0.025;

    Interleave(Calibrator *cal, Tracer *t)
        : cal(cal), tracer(t), last(Clock::now())
    {}

    void
    afterJob()
    {
        if (cal && secondsSince(last) >= sliceEverySec)
            slice();
    }

    void
    slice()
    {
        ScopedSpan s(tracer, "calib");
        sliceSec += cal->slice();
        ++slices;
        last = Clock::now();
    }

    /** Reference-host seconds per host second over the slices run. */
    double
    scale() const
    {
        return slices ? Calibrator::nominalSliceSec * slices / sliceSec
                      : 1.0;
    }

    double sliceSec = 0.0;
    unsigned slices = 0;

  private:
    Calibrator *cal;
    Tracer *tracer;
    Clock::time_point last;
};

/** One pass over the workload's job set. */
struct PassResult
{
    bool traced = false;
    bool warmup = false;   ///< the untimed first pass
    double wallSec = 0.0;  ///< host seconds, calibration slices excluded
    double scale = 1.0;    ///< Interleave::scale() of the pass
    double setupSec = 0.0; ///< median calibrated set-up of the round
    double setupLayerSec = 0.0;   ///< traced rounds: synthesis leaf spans,
                                  ///< calibrated, median of the round
    std::int64_t minorFaults = 0;
    std::int64_t constructFaults = 0;   ///< traced passes only
    std::size_t firstSpan = 0;          ///< [firstSpan, endSpan) of the
    std::size_t endSpan = 0;            ///< tracer belong to this pass
    std::uint64_t reportHash = 0;
    std::vector<JobOutput> jobs;
};

const char *
runSpanName(msp::CoreKind k)
{
    switch (k) {
      case msp::CoreKind::Baseline: return "core.baseline.run";
      case msp::CoreKind::Cpr: return "core.cpr.run";
      default: return "core.msp.run";
    }
}

/** A workload: how to set it up and how to run one pass of it. */
class Bench
{
  public:
    virtual ~Bench() = default;

    /** Drop what the last set-up built (untimed). */
    virtual void reset() = 0;

    /** One set-up: from the workload's description to its job set. */
    virtual void setUp(Tracer *t) = 0;

    /**
     * Run every job once, in order, appending to @p p.jobs, and call
     * @p il.afterJob() after each.
     */
    virtual void runPass(Tracer *t, Interleave &il, PassResult &p) = 0;

    virtual std::size_t size() const = 0;

    /** Stable identity of job @p i within the workload. */
    virtual std::string jobKey(std::size_t i) const = 0;

    /** The leaf span that times set-up's program synthesis. */
    virtual const char *setupLayer() const = 0;

    virtual bool verifies() const = 0;
};

/** A grid document run job by job on fresh Machines. */
class LadderBench final : public Bench
{
  public:
    LadderBench(std::string name, std::string doc, std::uint64_t instrs,
                std::uint64_t seed)
        : name(std::move(name)), doc(std::move(doc)), instrs(instrs),
          seed(seed)
    {}

    void reset() override { jobs.clear(); }

    void
    setUp(Tracer *t) override
    {
        const msp::grid::Grid g = msp::grid::expand(doc);
        jobs = msp::driver::gridJobs(name, g, instrs, seed);
        std::map<std::pair<std::string, std::uint64_t>,
                 std::shared_ptr<const msp::Program>> programs;
        for (msp::driver::CampaignJob &j : jobs) {
            const auto key = std::make_pair(j.workload, j.seed);
            auto it = programs.find(key);
            if (it == programs.end()) {
                ScopedSpan s(t, "workload.build");
                it = programs
                         .emplace(key, std::make_shared<const msp::Program>(
                                           msp::workload::build(j.workload,
                                                                j.seed)))
                         .first;
            }
            j.program = it->second;
        }
    }

    void
    runPass(Tracer *t, Interleave &il, PassResult &p) override
    {
        std::vector<msp::driver::JobResult> results;
        results.reserve(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            runJob(t, i, p, results);
            il.afterJob();
        }
        ScopedSpan s(t, "driver.report");
        p.reportHash = fnv1a(msp::driver::toJson(results));
    }

    std::size_t size() const override { return jobs.size(); }

    std::string
    jobKey(std::size_t i) const override
    {
        return jobs[i].workload + "@" + jobs[i].config.name;
    }

    const char *setupLayer() const override { return "workload.build"; }
    bool verifies() const override { return false; }

  private:
    void
    runJob(Tracer *t, std::size_t i, PassResult &p,
           std::vector<msp::driver::JobResult> &results)
    {
        const msp::driver::CampaignJob &j = jobs[i];
        ScopedSpan job(t, "job");
        JobOutput out;
        out.kind = j.config.core.kind;

        const std::int64_t faults0 = t ? minorFaults() : 0;
        std::optional<msp::Machine> m;
        {
            ScopedSpan s(t, "sim.construct");
            m.emplace(j.config, *j.program);
        }
        if (t)
            p.constructFaults += minorFaults() - faults0;

        msp::RunResult r;
        {
            ScopedSpan s(t, runSpanName(out.kind));
            r = m->run(j.maxInsts, j.maxCycles);
        }
        out.counts = readRunCounts(*m, r);
        results.push_back(msp::driver::JobResult{i, j, std::move(r)});
        p.jobs.push_back(std::move(out));
    }

    std::string name;
    std::string doc;
    std::uint64_t instrs;
    std::uint64_t seed;
    std::vector<msp::driver::CampaignJob> jobs;
};

/**
 * The job set of `msp_sim verify --seeds N --seed S --threads 1`: every
 * standard mix x N fuzz seeds x the default Table I ladder, each job a
 * verify::diffRun, then the ideal >= 16-SP timing invariant and the
 * verify report.
 */
class VerifyBench final : public Bench
{
  public:
    VerifyBench(unsigned seeds, std::uint64_t baseSeed)
        : seeds(seeds), baseSeed(baseSeed)
    {}

    void reset() override { jobs.clear(); }

    void
    setUp(Tracer *t) override
    {
        const std::vector<msp::MachineConfig> configs =
            msp::driver::figureLadder(msp::PredictorKind::Gshare);
        // Seeds as DiffCampaign::addSweep derives them.
        std::uint64_t index = 0;
        for (const msp::verify::FuzzMix &mix :
             msp::verify::standardMixes()) {
            for (unsigned s = 0; s < seeds; ++s) {
                const std::uint64_t seed =
                    msp::driver::jobSeed(baseSeed, index++);
                std::shared_ptr<const msp::Program> prog;
                {
                    ScopedSpan sp(t, "verify.fuzz");
                    prog = std::make_shared<const msp::Program>(
                        msp::verify::fuzzProgram(seed, mix));
                }
                for (const msp::MachineConfig &cfg : configs) {
                    msp::verify::DiffJob j;
                    j.mix = mix;
                    j.seed = seed;
                    j.config = cfg;
                    j.maxInsts = verifyBudget;
                    j.program = prog;
                    jobs.push_back(std::move(j));
                }
            }
        }
    }

    void
    runPass(Tracer *t, Interleave &il, PassResult &p) override
    {
        std::vector<msp::verify::DiffOutcome> outcomes(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            outcomes[i] = runJob(t, i, p);
            il.afterJob();
        }
        // As msp_sim verify: the timing invariant runs on a clean batch.
        if (msp::verify::countDivergences(outcomes) == 0)
            msp::verify::applyTimingInvariant(jobs, outcomes);
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const msp::verify::DiffOutcome &o = outcomes[i];
            JobOutput out;
            out.kind = jobs[i].config.core.kind;
            out.counts = readDiffCounts(o);
            out.streamHash = o.streamHash;
            if (!o.ok()) {
                out.divergence = o.divergences.front().kind + ": " +
                                 o.divergences.front().detail;
            }
            p.jobs.push_back(std::move(out));
        }
        ScopedSpan s(t, "driver.report");
        p.reportHash = fnv1a(msp::verify::toJson(outcomes));
    }

    std::size_t size() const override { return jobs.size(); }

    std::string
    jobKey(std::size_t i) const override
    {
        return csprintf("%s#%llu@%s", jobs[i].mix.name.c_str(),
                        static_cast<unsigned long long>(jobs[i].seed),
                        jobs[i].config.name.c_str());
    }

    const char *setupLayer() const override { return "verify.fuzz"; }
    bool verifies() const override { return true; }

  private:
    msp::verify::DiffOutcome
    runJob(Tracer *t, std::size_t i, PassResult &p)
    {
        const msp::verify::DiffJob &j = jobs[i];
        ScopedSpan job(t, "job");
        if (t) {
            // diffRun builds its Machine inside the library; time an
            // identical construction from outside (a probe that only
            // traced passes pay).
            msp::MachineConfig cfg = j.config;
            cfg.core.oracleCheck = false;
            const std::int64_t faults0 = minorFaults();
            std::optional<msp::Machine> probe;
            {
                ScopedSpan s(t, "sim.construct");
                probe.emplace(cfg, *j.program);
            }
            p.constructFaults += minorFaults() - faults0;
        }
        msp::verify::DiffOptions opt;
        opt.maxInsts = j.maxInsts;
        opt.maxCycles = j.maxCycles;
        msp::verify::DiffOutcome o;
        {
            ScopedSpan s(t, "verify.diff");
            o = msp::verify::diffRun(*j.program, j.config, opt);
        }
        o.index = i;
        o.mix = j.mix.name;
        o.seed = j.seed;
        return o;
    }

    unsigned seeds;
    std::uint64_t baseSeed;
    std::vector<msp::verify::DiffJob> jobs;
};

// ---------------------------------------------------------------------------
// Expectations
// ---------------------------------------------------------------------------

/** The recorded part of a job's output: committed, cycles (, hash). */
std::string
expectText(const JobOutput &o, bool withHash)
{
    std::string s = csprintf(
        "%llu\t%llu", static_cast<unsigned long long>(o.counts[kCommitted]),
        static_cast<unsigned long long>(o.counts[kCycles]));
    if (withHash)
        s += csprintf("\t%016llx",
                      static_cast<unsigned long long>(o.streamHash));
    return s;
}

struct Expectations
{
    bool applies = false;
    std::string note;                            ///< why, for the report
    std::map<std::string, std::string> values;   ///< job key -> text
};

constexpr const char *expectMagic = "# perfbench expectations v1";

/**
 * Load @p path. The file's second line names the run it was recorded
 * for; it applies only to a run with the same @p identity.
 */
Expectations
loadExpectations(const std::string &path, const std::string &identity)
{
    Expectations ex;
    std::ifstream in(path);
    if (!in) {
        ex.note = "no expectation file " + path;
        return ex;
    }
    std::string magic, id;
    std::getline(in, magic);
    std::getline(in, id);
    if (magic != expectMagic || id.rfind("# ", 0) != 0)
        throw std::runtime_error(path + ": not a perfbench expectation file");
    if (id.substr(2) != identity) {
        ex.note = "recorded for '" + id.substr(2) + "'; this run is '" +
                  identity + "': checked for repeats and divergences only";
        return ex;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const std::size_t tab = line.find('\t');
        if (tab == std::string::npos)
            throw std::runtime_error(path + ": malformed line '" + line + "'");
        ex.values[line.substr(0, tab)] = line.substr(tab + 1);
    }
    ex.applies = true;
    ex.note = csprintf("%zu recorded job outputs", ex.values.size());
    return ex;
}

void
writeExpectations(const std::string &path, const std::string &identity,
                  const Bench &bench, const PassResult &p)
{
    std::string out = std::string(expectMagic) + "\n# " + identity + "\n";
    for (std::size_t i = 0; i < p.jobs.size(); ++i)
        out += bench.jobKey(i) + "\t" +
               expectText(p.jobs[i], bench.verifies()) + "\n";
    msp::driver::writeFile(path, out);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    bool applies = true;    ///< false: the layer does no work here (0)
    bool integral = false;
};

std::string
formatValue(const Metric &m)
{
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    if (m.integral)
        return csprintf("%llu", static_cast<unsigned long long>(v));
    return csprintf("%.17g", v);
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        s += csprintf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      i ? ", " : "", ms[i].name.c_str(),
                      formatValue(ms[i]).c_str(), ms[i].unit.c_str());
    }
    return s + "}";
}

/** Everything measured in one run, before it becomes metrics. */
struct RunData
{
    bool verify = false;
    bool traced = false;
    std::vector<PassResult> passes;   ///< the warm-up pass first
    double peakRssMb = 0.0;   ///< after the warm-up round
    const Tracer *tracer = nullptr;
};

/** Median of @p fn over the timed passes that are traced or not. */
template <typename Fn>
double
medianOver(const RunData &d, bool traced, Fn fn)
{
    std::vector<double> v;
    for (const PassResult &p : d.passes)
        if (!p.warmup && p.traced == traced)
            v.push_back(fn(p));
    return median(v);
}

std::vector<Metric>
endToEndMetrics(const RunData &d, const ModelCounts &total)
{
    // Medians of reference-host seconds (Interleave::scale()) over the
    // timed untraced rounds.
    const double wallSec = medianOver(d, false, [](const PassResult &p) {
        return p.wallSec * p.scale;
    });
    const double setupSec = medianOver(d, false, [](const PassResult &p) {
        return p.setupSec;
    });
    const double committed = static_cast<double>(total[kCommitted]);
    return {
        {"setup_s", "s", setupSec},
        {"wall_s", "s", wallSec},
        {"sim_minstr_per_s", "MInstr/s", committed / wallSec / 1e6},
        {"peak_rss_mb", "MB", d.peakRssMb},
        {"sim_ipc", "instr/cycle",
         committed / static_cast<double>(total[kCycles])},
    };
}

std::vector<Metric>
perLayerMetrics(const RunData &d, const ModelCounts &total,
                const std::array<ModelCounts, 3> &byKind)
{
    const auto traced = [&](auto fn) { return medianOver(d, true, fn); };
    // Per pass, in reference-host seconds as the end-to-end times are.
    const auto spanSec = [&](const char *name) {
        return traced([&](const PassResult &p) {
            return d.tracer->totalSec(name, p.firstSpan, p.endSpan) *
                   p.scale;
        });
    };
    const double setupLayerSec = traced([](const PassResult &p) {
        return p.setupLayerSec;
    });
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const auto c = [&](Count k) { return static_cast<double>(total[k]); };

    std::vector<Metric> ms;
    const bool host = d.traced;   // host-time layers need the traced run
    ms.push_back({"workload.build_s", "s",
                  host && !d.verify ? setupLayerSec : 0.0,
                  !d.verify});
    ms.push_back({"verify.fuzz_s", "s",
                  host && d.verify ? setupLayerSec : 0.0,
                  d.verify});
    ms.push_back({"sim.construct_s", "s",
                  host ? spanSec("sim.construct") : 0.0});
    ms.push_back({"sim.construct_faults", "count",
                  host ? traced([](const PassResult &p) {
                      return static_cast<double>(p.constructFaults);
                  })
                       : 0.0});

    static constexpr const char *kindName[3] = {"baseline", "cpr", "msp"};
    static constexpr msp::CoreKind kinds[3] = {
        msp::CoreKind::Baseline, msp::CoreKind::Cpr, msp::CoreKind::Msp};
    for (unsigned k = 0; k < 3; ++k) {
        const ModelCounts &kc = byKind[k];
        const bool has = !d.verify && kc[kCommitted] > 0;
        const double runSec =
            host && has ? spanSec(runSpanName(kinds[k])) : 0.0;
        const std::string pre = csprintf("core.%s.", kindName[k]);
        ms.push_back({pre + "run_s", "s", runSec, has});
        ms.push_back({pre + "ns_per_cycle", "ns",
                      ratio(runSec * 1e9, static_cast<double>(kc[kCycles])),
                      has});
        ms.push_back({pre + "ns_per_exec", "ns",
                      ratio(runSec * 1e9,
                            static_cast<double>(kc[kExecuted])),
                      has});
    }

    const double diffSec = host && d.verify ? spanSec("verify.diff") : 0.0;
    ms.push_back({"verify.diff_s", "s", diffSec, d.verify});
    ms.push_back({"verify.ns_per_commit", "ns",
                  ratio(diffSec * 1e9, c(kVerifyCommits)), d.verify});
    ms.push_back({"driver.report_s", "s",
                  host ? spanSec("driver.report") : 0.0});

    const auto wall = [](const PassResult &p) { return p.wallSec * p.scale; };
    const double untracedWall = medianOver(d, false, wall);
    ms.push_back({"trace.overhead_frac", "frac",
                  host ? ratio(medianOver(d, true, wall) - untracedWall,
                               untracedWall)
                       : 0.0});

    const bool hasMsp = byKind[2][kCommitted] > 0;
    const bool hasCpr = byKind[1][kCommitted] > 0;
    for (unsigned k = 0; k < kNumCounts; ++k) {
        const std::string name = countInfo[k].metric;
        bool applies = true;
        if (k == kCycles || k == kCommitted)
            applies = true;
        else if (name.rfind("verify.", 0) == 0)
            applies = d.verify;
        else if (d.verify)
            applies = false;   // invisible from outside a diffRun
        else if (name.rfind("msp.", 0) == 0)
            applies = hasMsp;
        else if (name.rfind("cpr.", 0) == 0)
            applies = hasCpr;
        ms.push_back({name, countInfo[k].unit, c(static_cast<Count>(k)),
                      applies, true});

        // Ratios follow the counts they are made of.
        if (k == kReExecuted)
            ms.push_back({"pipeline.useful_frac", "frac",
                          ratio(c(kCommitted), c(kExecuted)), !d.verify});
        if (k == kCondMispredicted)
            ms.push_back({"bpred.mispredict_rate", "frac",
                          ratio(c(kCondMispredicted), c(kCondPredicted)),
                          !d.verify});
        if (k == kLsqBlocked)
            ms.push_back({"lsq.blocked_frac", "frac",
                          ratio(c(kLsqBlocked), c(kLsqProbes)), !d.verify});
        if (k == kLcsDirtyBanks)
            ms.push_back({"msp.lcs_dirty_per_cycle", "1/cycle",
                          ratio(c(kLcsDirtyBanks),
                                static_cast<double>(byKind[2][kCycles])),
                          hasMsp});
    }

    ms.push_back({"host.minor_faults", "count",
                  medianOver(d, false, [](const PassResult &p) {
                      return static_cast<double>(p.minorFaults);
                  })});
    return ms;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

std::unique_ptr<Bench>
makeBench(const Options &o, std::string &identity)
{
    for (const WorkloadDef &w : workloadDefs) {
        if (o.workload != w.name)
            continue;
        if (!w.gridFile) {
            const unsigned seeds = o.verifySeeds ? o.verifySeeds : w.verifySeeds;
            identity = csprintf("workload=%s seed=%llu instrs=%llu seeds=%u",
                                w.name, static_cast<unsigned long long>(o.seed),
                                static_cast<unsigned long long>(verifyBudget),
                                seeds);
            return std::make_unique<VerifyBench>(seeds, o.seed);
        }
        const std::uint64_t instrs = o.instrs ? o.instrs : w.instrs;
        identity = csprintf("workload=%s seed=%llu instrs=%llu", w.name,
                            static_cast<unsigned long long>(o.seed),
                            static_cast<unsigned long long>(instrs));
        return std::make_unique<LadderBench>(
            w.name, readText(o.dataDir + "/" + w.gridFile), instrs, o.seed);
    }
    throw std::runtime_error("unknown workload '" + o.workload +
                             "' (msp-ladder, ref-ladder, verify-fuzz)");
}

int
runBenchmark(const Options &o)
{
    std::string identity;
    const std::unique_ptr<Bench> bench = makeBench(o, identity);

    Tracer tracer;
    Tracer *t = o.trace ? &tracer : nullptr;
    const std::int32_t root = t ? tracer.open("run") : -1;

    RunData d;
    d.verify = bench->verifies();
    d.traced = o.trace;
    d.tracer = &tracer;

    // A warm-up round first: it fills the host's caches and the
    // allocator's free lists, gives peak_rss_mb, and is checked like
    // every pass but not timed. Then timed rounds of one set-up and one
    // pass over the job set it built, each with calibration slices
    // beside it (Interleave), until the next round would overrun
    // --seconds. A traced run alternates untraced and traced rounds, so
    // both kinds see the same host conditions.
    const HostSample host0 = sampleHost();
    const auto phase0 = Clock::now();
    std::optional<Calibrator> cal;
    double longest = 0.0;
    const std::size_t minPasses = o.trace ? 3 : 2;
    while (d.passes.size() < minPasses ||
           secondsSince(phase0) + longest <= o.seconds) {
        const auto r0 = Clock::now();
        PassResult p;
        p.warmup = d.passes.empty();
        p.traced = o.trace && !p.warmup && d.passes.size() % 2 == 0;
        Tracer *layers = p.traced ? t : nullptr;
        Calibrator *c = cal ? &*cal : nullptr;

        // Set-ups of 5-60 ms, one a round, left setup_s noisy on
        // verify-fuzz, which fits only a few rounds: each round sets up
        // several times, each between two slices, and runs the last
        // job set.
        std::vector<double> setups, setupLayers;
        for (unsigned k = 0; k < setupsPerRound; ++k) {
            bench->reset();
            Interleave su(c, layers);
            if (c)
                su.slice();
            const std::size_t setupSpan = tracer.size();
            const auto s0 = Clock::now();
            {
                ScopedSpan s(t, p.traced ? "setup" : "setup.untraced");
                bench->setUp(layers);
            }
            const double sec = secondsSince(s0);
            const double layerSec =
                p.traced ? tracer.totalSec(bench->setupLayer(), setupSpan,
                                           tracer.size())
                         : 0.0;
            if (c)
                su.slice();
            setups.push_back(sec * su.scale());
            setupLayers.push_back(layerSec * su.scale());
        }
        p.setupSec = median(setups);
        p.setupLayerSec = median(setupLayers);

        p.jobs.reserve(bench->size());
        Interleave il(c, layers);
        const std::int64_t faults0 = minorFaults();
        p.firstSpan = tracer.size();
        const auto t0 = Clock::now();
        {
            ScopedSpan s(t, p.traced ? "pass" : "pass.untraced");
            bench->runPass(layers, il, p);
            if (c && il.slices == 0)
                il.slice();
        }
        p.wallSec = secondsSince(t0) - il.sliceSec;
        p.scale = il.scale();
        p.endSpan = tracer.size();
        p.minorFaults = minorFaults() - faults0;
        longest = std::max(longest, secondsSince(r0));
        d.passes.push_back(std::move(p));
        if (!c) {
            // What one run of the workload costs, before the calibrator
            // holds any memory; repeated rounds would only add allocator
            // fragmentation, and their number depends on the host's
            // speed.
            d.peakRssMb = peakRssMb();
            cal.emplace();
            cal->slice();
        }
    }
    const HostSample host1 = sampleHost();
    if (t)
        tracer.close(root);

    // Check every job of every pass.
    const std::string expectPath =
        o.expectPath.empty() ? o.dataDir + "/expect/" + o.workload + ".tsv"
                             : o.expectPath;
    const Expectations ex = loadExpectations(expectPath, identity);
    std::vector<std::string> failures;
    std::size_t attempted = 0, failed = 0;
    bool correct = true;
    if (ex.applies && ex.values.size() != bench->size()) {
        correct = false;
        failures.push_back(csprintf("expectations list %zu jobs, the "
                                    "workload has %zu",
                                    ex.values.size(), bench->size()));
    }
    const PassResult &first = d.passes.front();
    for (std::size_t pi = 0; pi < d.passes.size(); ++pi) {
        const PassResult &p = d.passes[pi];
        if (p.reportHash != first.reportHash) {
            correct = false;
            failures.push_back(csprintf("pass %zu: report differs from "
                                        "pass 1", pi + 1));
        }
        for (std::size_t i = 0; i < p.jobs.size(); ++i) {
            ++attempted;
            const JobOutput &jo = p.jobs[i];
            std::string why;
            if (!jo.divergence.empty()) {
                why = "diverged: " + jo.divergence;
            } else if (!(jo == first.jobs[i])) {
                why = "modelled counts differ from pass 1";
            } else if (ex.applies) {
                const auto it = ex.values.find(bench->jobKey(i));
                const std::string got = expectText(jo, d.verify);
                if (it == ex.values.end())
                    why = "no recorded expectation";
                else if (it->second != got)
                    why = "expected '" + it->second + "', got '" + got + "'";
            }
            if (!why.empty()) {
                ++failed;
                if (failures.size() < 20)
                    failures.push_back(csprintf(
                        "pass %zu, job %s: %s", pi + 1,
                        bench->jobKey(i).c_str(), why.c_str()));
            }
        }
    }
    correct = correct && failed == 0;

    if (!o.writeExpectPath.empty())
        writeExpectations(o.writeExpectPath, identity, *bench, first);

    ModelCounts total{};
    std::array<ModelCounts, 3> byKind{};
    for (const JobOutput &jo : first.jobs) {
        addCounts(total, jo.counts);
        addCounts(byKind[static_cast<unsigned>(jo.kind)], jo.counts);
    }
    const std::vector<Metric> e2e = endToEndMetrics(d, total);
    const std::vector<Metric> layers = perLayerMetrics(d, total, byKind);
    const std::vector<Metric> &shown = o.trace ? layers : e2e;

    std::size_t untraced = 0;
    for (const PassResult &p : d.passes)
        untraced += p.traced || p.warmup ? 0 : 1;
    const std::string hostJson = hostRecordJson(host0, host1);

    if (!o.spansPath.empty() && t)
        msp::driver::writeFile(o.spansPath, tracer.toJson(o.workload, o.seed));
    if (!o.outPath.empty()) {
        std::string rep = csprintf(
            "{\"schema\": \"perfbench-run-v1\", \"workload\": \"%s\", "
            "\"seed\": %llu, \"trace\": %s, \"identity\": \"%s\",\n"
            " \"jobs\": %zu, \"passes\": %zu, \"untraced_passes\": %zu,\n ",
            o.workload.c_str(), static_cast<unsigned long long>(o.seed),
            o.trace ? "true" : "false", identity.c_str(), bench->size(),
            d.passes.size(), untraced);
        const auto list = [&](const char *key, auto fn) {
            rep += csprintf("\"%s\": [", key);
            for (std::size_t i = 0; i < d.passes.size(); ++i)
                rep += csprintf("%s%.9f", i ? ", " : "", fn(d.passes[i]));
            rep += "],\n ";
        };
        list("pass_wall_s", [](const PassResult &p) { return p.wallSec; });
        list("pass_scale", [](const PassResult &p) { return p.scale; });
        list("setup_s", [](const PassResult &p) { return p.setupSec; });
        rep += "\"expectations\": \"" + msp::json::escape(ex.note) +
               "\",\n \"host\": " + hostJson + ",\n \"end_to_end\": " +
               metricsJson(e2e) + ",\n \"per_layer\": " + metricsJson(layers) +
               ",\n \"not_applicable\": [";
        bool firstNa = true;
        for (const Metric &m : layers) {
            if (!m.applies) {
                rep += csprintf("%s\"%s\"", firstNa ? "" : ", ",
                                m.name.c_str());
                firstNa = false;
            }
        }
        rep += "],\n \"failures\": [";
        for (std::size_t i = 0; i < failures.size(); ++i)
            rep += (i ? ", \"" : "\"") + msp::json::escape(failures[i]) + "\"";
        rep += csprintf("],\n \"correct\": %s, \"attempted\": %zu, "
                        "\"failed\": %zu}\n",
                        correct ? "true" : "false", attempted, failed);
        msp::driver::writeFile(o.outPath, rep);
    }

    for (const std::string &f : failures)
        std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
    std::printf("perfbench %s, seed %llu, %s: %zu round(s) of set-up + "
                "pass over %zu jobs (a warm-up, then %zu timed untraced); "
                "expectations: %s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.trace ? "traced" : "untraced", d.passes.size(),
                bench->size(), untraced, ex.note.c_str());
    for (const Metric &m : shown) {
        std::printf("  %-30s %22s %s\n", m.name.c_str(),
                    m.applies ? formatValue(m).c_str() : "n/a",
                    m.unit.c_str());
    }
    std::printf("host: %s\n", hostJson.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metricsJson(shown).c_str());
    std::fflush(stdout);
    return 0;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

std::uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    std::uint64_t out = 0;
    const msp::parse::Status st = msp::parse::decimalU64(v, out);
    if (st != msp::parse::Status::Ok)
        throw std::runtime_error(flag + " '" + v + "': " +
                                 msp::parse::statusReason(st));
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = parseU64(a, v);
        } else if (a == "--seconds") {
            char *end = nullptr;
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds >= 0.0))
                throw std::runtime_error("--seconds '" + v + "'");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                throw std::runtime_error("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--data") {
            o.dataDir = v;
        } else if (a == "--out") {
            o.outPath = v;
        } else if (a == "--spans") {
            o.spansPath = v;
        } else if (a == "--expect") {
            o.expectPath = v;
        } else if (a == "--write-expect") {
            o.writeExpectPath = v;
        } else if (a == "--instrs") {
            o.instrs = parseU64(a, v);
        } else if (a == "--verify-seeds") {
            o.verifySeeds = static_cast<unsigned>(parseU64(a, v));
        } else {
            throw std::runtime_error("unknown flag " + a);
        }
    }
    if (o.workload.empty())
        throw std::runtime_error("--workload is required");
    return o;
}

} // anonymous namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        const perfbench::Options o = perfbench::parseArgs(argc, argv);
        if (msp::driver::sanitizedBuild()) {
            std::fprintf(stderr, "perfbench: this is a sanitized build; "
                                 "its timings are meaningless, refusing "
                                 "to report them\n");
            return 3;
        }
        return perfbench::runBenchmark(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
