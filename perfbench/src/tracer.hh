/**
 * @file
 * In-memory spans around the benchmark's own calls into each layer.
 *
 * The benchmark program is single-threaded and opens spans in stack
 * order, so a
 * span's children are exactly the spans opened while it was the
 * innermost open one, and they never overlap. Spans stay in memory
 * until the run ends; toJson() writes them out with their self times.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One timed interval. */
struct Span
{
    const char *name = "";      ///< a string literal
    std::int32_t parent = -1;   ///< enclosing span's index; -1 for a root
    std::int64_t startNs = 0;   ///< since the tracer's epoch
    std::int64_t endNs = 0;
};

/** Records spans; one instance per benchmark run. */
class Tracer
{
  public:
    Tracer() : epoch(Clock::now()) {}

    /** Open a span inside the innermost open one; returns its index. */
    std::int32_t open(const char *name);

    /** Close span @p id, which must be the innermost open span. */
    void close(std::int32_t id);

    std::size_t size() const { return all.size(); }

    /**
     * Self time of every span in nanoseconds: its duration minus the
     * part of its interval that its child spans cover.
     */
    std::vector<std::int64_t> selfTimes() const;

    /** Summed duration in seconds of spans named @p name in [first, last). */
    double totalSec(const char *name, std::size_t first,
                    std::size_t last) const;

    /** The spans and their self times as one JSON document. */
    std::string toJson(const std::string &workload,
                       std::uint64_t seed) const;

  private:
    using Clock = std::chrono::steady_clock;

    Clock::time_point epoch;
    std::vector<Span> all;
    std::vector<std::int32_t> openStack;
};

/** RAII span; with a null tracer it records nothing and reads no clock. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, const char *name)
        : tracer(t), id(t ? t->open(name) : -1)
    {}
    ~ScopedSpan()
    {
        if (tracer)
            tracer->close(id);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer;
    std::int32_t id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
