#include "driver/cli.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "common/logging.hh"
#include "common/parse.hh"
#include "driver/report.hh"
#include "driver/scenario.hh"
#include "sim/presets.hh"
#include "sim/spec.hh"
#include "verify/fuzzer.hh"
#include "workload/registry.hh"

namespace msp {
namespace driver {

std::uint64_t
parseU64Flag(const std::string &flag, const std::string &value)
{
    // strtoull accepts leading whitespace, a sign, and trailing junk,
    // and wraps negatives into huge positives — all of which a flag
    // value must reject outright; parse::decimalU64 is the strict
    // digits-only core every checked reader shares.
    std::uint64_t v = 0;
    switch (parse::decimalU64(value, v)) {
      case parse::Status::Ok:
        return v;
      case parse::Status::Overflow:
        throw CliError(csprintf("%s: value '%s' overflows 64 bits",
                                flag.c_str(), value.c_str()));
      case parse::Status::Empty:
      case parse::Status::BadChar:
        break;
    }
    throw CliError(csprintf("%s: expected a non-negative integer, "
                            "got '%s'", flag.c_str(), value.c_str()));
}

unsigned
parseUnsignedFlag(const std::string &flag, const std::string &value)
{
    const std::uint64_t v = parseU64Flag(flag, value);
    if (v > UINT_MAX) {
        throw CliError(csprintf("%s: value '%s' is out of range",
                                flag.c_str(), value.c_str()));
    }
    return static_cast<unsigned>(v);
}

double
parseDoubleFlag(const std::string &flag, const std::string &value)
{
    if (value.empty() ||
        !((value[0] >= '0' && value[0] <= '9') || value[0] == '.')) {
        throw CliError(csprintf("%s: expected a non-negative number, "
                                "got '%s'", flag.c_str(), value.c_str()));
    }
    // strtod parses C99 hex floats ("0x8" == 8.0), which the decimal
    // contract — and the integer parsers — reject.
    if (value.find('x') != std::string::npos ||
        value.find('X') != std::string::npos) {
        throw CliError(csprintf("%s: expected a decimal number, got "
                                "'%s'", flag.c_str(), value.c_str()));
    }
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end != value.c_str() + value.size()) {
        throw CliError(csprintf("%s: trailing garbage in '%s'",
                                flag.c_str(), value.c_str()));
    }
    if (errno == ERANGE || !std::isfinite(v)) {
        throw CliError(csprintf("%s: value '%s' is out of range",
                                flag.c_str(), value.c_str()));
    }
    return v;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        const std::string item =
            s.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

MachineConfig
configByName(const std::string &name, PredictorKind predictor)
{
    try {
        return presetByName(name, predictor);
    } catch (const SpecError &e) {
        throw CliError(e.what());
    }
}

void
applySpecSets(std::vector<MachineConfig> &machines,
              const std::vector<std::string> &sets)
{
    for (MachineConfig &m : machines) {
        const MachineConfig before = m;
        for (const std::string &kv : sets) {
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0) {
                throw CliError(csprintf("--set needs key=value, got "
                                        "'%s'", kv.c_str()));
            }
            try {
                setParamFromString(m, kv.substr(0, eq),
                                   kv.substr(eq + 1));
            } catch (const SpecError &e) {
                throw CliError(std::string("--set ") + e.what());
            }
        }
        // Overrides that changed the spec invalidate the preset label;
        // a no-op --set keeps the machine's pretty name.
        if (!sameSpec(before, m))
            m.name = describeSpec(m);
    }
}

std::vector<MachineConfig>
resolveMachines(const CliOptions &o)
{
    std::vector<MachineConfig> machines;
    for (const std::string &n : o.configNames)
        machines.push_back(configByName(n, o.predictor));
    if (!o.machinePath.empty()) {
        std::string doc;
        if (!tryReadFile(o.machinePath, doc)) {
            throw CliError(csprintf("cannot read machine spec %s",
                                    o.machinePath.c_str()));
        }
        try {
            // --predictor seeds partial spec files; a file that sets
            // its own "predictor" key keeps it (a spec is complete).
            machines.push_back(specFromJson(doc, o.predictor));
        } catch (const SpecError &e) {
            throw CliError(csprintf("%s: %s", o.machinePath.c_str(),
                                    e.what()));
        }
    }
    applySpecSets(machines, o.sets);
    return machines;
}

namespace {

/** One invocation form and the flags it takes besides --json and
 *  --quiet, which every form takes (--help and --list end parsing). */
struct Form
{
    const char *name;
    std::vector<std::string_view> flags;
};

const std::vector<Form> &
forms()
{
    static const std::vector<Form> v = {
        {"merge", {}},
        {"spec", {"--configs", "--machine", "--set", "--predictor"}},
        {"trace", {"--workloads", "--seed"}},
        {"matrix",
         {"--threads", "--instrs", "--seed", "--csv", "--workloads",
          "--grid", "--configs", "--machine", "--set", "--predictor",
          "--checkpoint", "--checkpoint-every", "--resume", "--shard"}},
        {"verify",
         {"--threads", "--instrs", "--seed", "--seeds", "--mixes",
          "--configs", "--machine", "--set", "--predictor", "--fail-fast",
          "--snapshot-every", "--budget-sec", "--bisect-exact", "--reduce",
          "--coverage", "--corpus", "--waves", "--tune", "--checkpoint",
          "--checkpoint-every", "--resume", "--shard"}},
        // Named workloads run a few jobs sequentially: no fuzzing,
        // triage, coverage or campaign state.
        {"verify --workloads/--grid",
         {"--threads", "--instrs", "--seed", "--workloads", "--grid",
          "--configs", "--machine", "--set", "--predictor",
          "--snapshot-every"}},
        // Replay takes seed, mix and machine from the report itself.
        {"verify --repro", {"--repro", "--instrs", "--snapshot-every"}},
        // A scenario fixes its own matrix (its grid document ships in
        // examples/grids/; matrix --grid runs a variation of it).
        {"scenario", {"--threads", "--instrs", "--csv"}},
    };
    return v;
}

/** The form of a parsed invocation; verify splits the way runVerify
 *  dispatches. @throws CliError on an unknown scenario. */
const Form &
formOf(const CliOptions &o)
{
    std::string_view name = o.mode;
    if (o.mode == "verify" && !o.reproPath.empty()) {
        name = "verify --repro";
    } else if (o.mode == "verify" &&
               (!o.workloads.empty() || !o.gridPath.empty())) {
        name = "verify --workloads/--grid";
    } else if (o.mode != "merge" && o.mode != "spec" &&
               o.mode != "trace" && o.mode != "matrix" &&
               o.mode != "verify") {
        if (!findScenario(o.mode))
            throw CliError(csprintf("unknown scenario '%s' (see --list)",
                                    o.mode.c_str()));
        name = "scenario";
    }
    for (const Form &f : forms())
        if (name == f.name)
            return f;
    msp_panic("no CLI form named %s", std::string(name).c_str());
}

} // namespace

CliOptions
parseCliArgs(const std::vector<std::string> &args)
{
    CliOptions o;
    std::vector<std::string> seen;   ///< every flag, in command-line order
    auto has = [&](std::string_view flag) {
        return std::find(seen.begin(), seen.end(), flag) != seen.end();
    };

    auto value = [&](std::size_t &i) -> const std::string & {
        if (i + 1 >= args.size())
            throw CliError(args[i] + " needs a value");
        return args[++i];
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (!a.empty() && a[0] == '-')
            seen.push_back(a);
        if (a == "--help" || a == "-h") {
            o.help = true;
        } else if (a == "--list") {
            o.list = true;
        } else if (a == "--threads") {
            o.threads = parseUnsignedFlag(a, value(i));
        } else if (a == "--instrs") {
            o.instrs = parseU64Flag(a, value(i));
        } else if (a == "--seed") {
            o.seed = parseU64Flag(a, value(i));
        } else if (a == "--seeds") {
            o.seeds = parseUnsignedFlag(a, value(i));
            if (o.seeds == 0)
                throw CliError("--seeds needs a value > 0");
        } else if (a == "--json") {
            o.jsonPath = value(i);
        } else if (a == "--csv") {
            o.csvPath = value(i);
        } else if (a == "--quiet") {
            o.quiet = true;
        } else if (a == "--fail-fast") {
            o.failFast = true;
        } else if (a == "--snapshot-every") {
            o.snapshotEvery = parseU64Flag(a, value(i));
            if (o.snapshotEvery == 0)
                throw CliError("--snapshot-every needs a value > 0");
        } else if (a == "--budget-sec") {
            o.budgetSec = parseDoubleFlag(a, value(i));
            if (o.budgetSec <= 0.0)
                throw CliError("--budget-sec needs a value > 0");
        } else if (a == "--repro") {
            o.reproPath = value(i);
        } else if (a == "--bisect-exact") {
            o.bisectExact = true;
        } else if (a == "--reduce") {
            o.reduce = true;
        } else if (a == "--coverage") {
            o.coverage = true;
        } else if (a == "--corpus") {
            o.corpusPath = value(i);
        } else if (a == "--waves") {
            o.waves = parseUnsignedFlag(a, value(i));
            if (o.waves == 0)
                throw CliError("--waves needs a value > 0");
        } else if (a == "--tune") {
            o.tune = true;
        } else if (a == "--checkpoint") {
            o.checkpointPath = value(i);
        } else if (a == "--checkpoint-every") {
            o.checkpointEvery = parseUnsignedFlag(a, value(i));
            if (o.checkpointEvery == 0)
                throw CliError("--checkpoint-every needs a value > 0");
        } else if (a == "--resume") {
            o.resumePath = value(i);
        } else if (a == "--shard") {
            const std::string &v = value(i);
            const std::size_t slash = v.find('/');
            if (slash == std::string::npos) {
                throw CliError(csprintf("--shard wants i/N (e.g. 0/3), "
                                        "got '%s'", v.c_str()));
            }
            o.shardIndex = parseUnsignedFlag(a, v.substr(0, slash));
            o.shardCount = parseUnsignedFlag(a, v.substr(slash + 1));
            if (o.shardCount == 0 || o.shardIndex >= o.shardCount) {
                throw CliError(csprintf("--shard %s: the index must be "
                                        "< the shard count (0-based)",
                                        v.c_str()));
            }
        } else if (a == "--machine") {
            o.machinePath = value(i);
        } else if (a == "--grid") {
            o.gridPath = value(i);
        } else if (a == "--set") {
            o.sets.push_back(value(i));
        } else if (a == "--workloads") {
            o.workloads = splitCommas(value(i));
        } else if (a == "--configs") {
            o.configNames = splitCommas(value(i));
        } else if (a == "--mixes") {
            o.mixNames = splitCommas(value(i));
        } else if (a == "--predictor") {
            const std::string &p = value(i);
            if (p == "gshare")
                o.predictor = PredictorKind::Gshare;
            else if (p == "tage")
                o.predictor = PredictorKind::Tage;
            else
                throw CliError(csprintf("unknown predictor '%s'",
                                        p.c_str()));
        } else if (!a.empty() && a[0] == '-') {
            throw CliError("unknown option " + a);
        } else if (o.mode.empty()) {
            o.mode = a;
        } else if (o.mode == "merge") {
            // merge takes shard reports as positional operands.
            o.mergeInputs.push_back(a);
        } else {
            throw CliError("unexpected argument " + a);
        }
    }

    if (o.help || o.list)
        return o;
    if (o.mode.empty())
        throw CliError("missing scenario or mode");

    // A flag the form does not take would be silently ignored and
    // mislabel the run the user asked for.
    const Form &form = formOf(o);
    for (const std::string &flag : seen) {
        if (flag == "--json" || flag == "--quiet" ||
            std::find(form.flags.begin(), form.flags.end(), flag) !=
                form.flags.end())
            continue;
        const std::string where = form.name == std::string_view("scenario")
                                      ? "scenario " + o.mode
                                      : form.name;
        throw CliError(flag + " does not apply to " + where);
    }

    // Every name must resolve (fail at parse, not mid-campaign). Trace
    // files behind trace:FILE workloads are only read at run time.
    for (const std::string &c : o.configNames)
        (void)configByName(c, o.predictor);
    for (const std::string &w : o.workloads) {
        if (!workload::known(w)) {
            throw CliError(csprintf("unknown workload '%s' (want a "
                                    "registry name such as gzip, swim, "
                                    "tight-loop, ptrchase, prodcons or "
                                    "interp, or trace:FILE)",
                                    w.c_str()));
        }
    }
    for (const std::string &m : o.mixNames) {
        if (!verify::findMix(m))
            throw CliError(csprintf("unknown mix '%s' (want mixed, "
                                    "branchy, memory, fploop or "
                                    "fpedge)", m.c_str()));
    }
    // Every --set override must name a registered parameter and carry
    // a valid value, proven against a scratch machine.
    {
        std::vector<MachineConfig> scratch(1);
        applySpecSets(scratch, o.sets);
    }

    // Rules beyond "flag X belongs to form Y".
    if (o.mode == "merge" && o.mergeInputs.empty())
        throw CliError("merge mode needs at least one shard report");
    if (o.mode == "spec" &&
        o.configNames.size() + (o.machinePath.empty() ? 0 : 1) != 1) {
        throw CliError("spec mode needs exactly one machine: one "
                       "--configs preset or one --machine FILE");
    }
    if (o.mode == "trace" && o.workloads.size() != 1) {
        throw CliError("trace mode dumps exactly one workload "
                       "(--workloads NAME)");
    }
    if (o.mode == "matrix" && o.gridPath.empty() &&
        (o.workloads.empty() ||
         (o.configNames.empty() && o.machinePath.empty()))) {
        throw CliError("matrix mode needs --workloads and a machine "
                       "(--configs and/or --machine), or a --grid "
                       "document");
    }
    if (has("--grid") && (has("--configs") || has("--machine"))) {
        throw CliError("--grid carries its own machines; --configs/"
                       "--machine do not combine with it");
    }
    // A matrix grid without workload axes is crossed with --workloads;
    // verify --grid needs a workload-binding grid.
    if (o.mode == "verify" && has("--grid") && has("--workloads")) {
        throw CliError("--grid binds its own workloads in verify mode; "
                       "--workloads does not combine with it");
    }
    if (!o.coverage &&
        (has("--corpus") || has("--waves") || has("--tune"))) {
        throw CliError("--corpus/--waves/--tune need --coverage (they "
                       "manage and steer the coverage map)");
    }
    if (o.coverage &&
        (has("--checkpoint") || has("--resume") || has("--shard"))) {
        throw CliError("--coverage does not combine with --checkpoint/"
                       "--resume/--shard: wave retuning changes the job "
                       "list mid-campaign, which checkpoint identity "
                       "cannot describe");
    }
    if (has("--checkpoint-every") && o.checkpointPath.empty() &&
        o.resumePath.empty()) {
        throw CliError("--checkpoint-every needs --checkpoint or "
                       "--resume");
    }
    // --resume without --checkpoint keeps checkpointing to the file it
    // resumes from: an interrupted resume stays resumable.
    if (!o.resumePath.empty() && o.checkpointPath.empty())
        o.checkpointPath = o.resumePath;
    return o;
}

} // namespace driver
} // namespace msp
