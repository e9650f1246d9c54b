#include "tracer.hh"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string_view>

#include "common/json.hh"
#include "common/logging.hh"

namespace perfbench {

std::int32_t
Tracer::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = openStack.empty() ? -1 : openStack.back();
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch)
                    .count();
    s.endNs = s.startNs;
    all.push_back(s);
    const auto id = static_cast<std::int32_t>(all.size() - 1);
    openStack.push_back(id);
    return id;
}

void
Tracer::close(std::int32_t id)
{
    if (openStack.empty() || openStack.back() != id)
        throw std::logic_error("perfbench: span closed out of order");
    openStack.pop_back();
    all[id].endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - epoch)
                        .count();
}

std::vector<std::int64_t>
Tracer::selfTimes() const
{
    // Children are recorded in start order, so each parent's covered
    // time is a running union: clip every child to the parent's
    // interval and to the end of the previous child.
    std::vector<std::int64_t> covered(all.size(), 0);
    std::vector<std::int64_t> coveredUpTo(all.size(), 0);
    for (std::size_t i = 0; i < all.size(); ++i)
        coveredUpTo[i] = all[i].startNs;
    for (const Span &c : all) {
        if (c.parent < 0)
            continue;
        const Span &p = all[c.parent];
        const std::int64_t lo = std::max(c.startNs, coveredUpTo[c.parent]);
        const std::int64_t hi = std::min(c.endNs, p.endNs);
        if (hi > lo) {
            covered[c.parent] += hi - lo;
            coveredUpTo[c.parent] = hi;
        }
    }
    std::vector<std::int64_t> self(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        self[i] = (all[i].endNs - all[i].startNs) - covered[i];
    return self;
}

double
Tracer::totalSec(const char *name, std::size_t first,
                 std::size_t last) const
{
    std::int64_t ns = 0;
    for (std::size_t i = first; i < last && i < all.size(); ++i)
        if (std::string_view(all[i].name) == name)
            ns += all[i].endNs - all[i].startNs;
    return static_cast<double>(ns) * 1e-9;
}

std::string
Tracer::toJson(const std::string &workload, std::uint64_t seed) const
{
    using msp::csprintf;
    const std::vector<std::int64_t> self = selfTimes();

    struct ByName
    {
        std::uint64_t count = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
    };
    std::map<std::string_view, ByName> byName;

    std::string out = csprintf(
        "{\"schema\": \"perfbench-spans-v1\", \"workload\": \"%s\", "
        "\"seed\": %llu, \"unit\": \"ns\",\n \"spans\": [",
        msp::json::escape(workload).c_str(),
        static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        out += csprintf("%s\n  {\"id\": %zu, \"parent\": %d, \"name\": "
                        "\"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                        "\"self_ns\": %lld}",
                        i == 0 ? "" : ",", i, s.parent, s.name,
                        static_cast<long long>(s.startNs),
                        static_cast<long long>(s.endNs),
                        static_cast<long long>(self[i]));
        ByName &b = byName[s.name];
        ++b.count;
        b.totalNs += s.endNs - s.startNs;
        b.selfNs += self[i];
    }
    out += "\n ],\n \"by_name\": {";
    bool first = true;
    for (const auto &[name, b] : byName) {
        out += csprintf("%s\n  \"%s\": {\"count\": %llu, \"total_ns\": "
                        "%lld, \"self_ns\": %lld}",
                        first ? "" : ",", std::string(name).c_str(),
                        static_cast<unsigned long long>(b.count),
                        static_cast<long long>(b.totalNs),
                        static_cast<long long>(b.selfNs));
        first = false;
    }
    out += "\n }\n}\n";
    return out;
}

} // namespace perfbench
