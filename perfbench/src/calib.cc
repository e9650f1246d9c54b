#include "calib.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <utility>

namespace perfbench {
namespace {

constexpr unsigned codeSize = 8192;          // instructions
constexpr unsigned memWords = 256 * 1024;    // 2 MiB of data
constexpr unsigned narrowSteps = 200000;     // about half a slice's time
constexpr unsigned wideSteps = 250000;       // the other half
constexpr unsigned numKinds = 6;
constexpr unsigned numHandlers = 384;        // 64 per kind
constexpr unsigned logBimodal = 14;
constexpr unsigned logTagged = 10;
constexpr unsigned histLens[] = {4, 8, 13, 21, 34, 55};

enum Kind : unsigned { Alu, Mul, Load, Store, Branch, Loop };

using Inst = Calibrator::Inst;

struct State
{
    std::uint64_t r[16];
    std::uint64_t *mem;
};

/** What a handler did: its kind, and a word address or a branch outcome. */
struct Effect
{
    Kind kind;
    std::uint64_t value;
};

/**
 * Execute one instruction. Handler K serves kind K % numKinds; K also
 * enters its constants, so every instantiation is separate code and the
 * handlers together span tens of KB of instructions, as a simulator's
 * per-opcode and per-stage code does.
 *
 * A slice steps the program first through the six handlers 0..5 alone
 * (narrow: little code), then through all of them (wide). On a busy
 * host the simulator slowed about 1.1-1.35x as much (in log terms) as
 * narrow-only slices and 0.7-0.95x as much as wide-only ones, depending
 * on what else ran; half the time in each tracks it best.
 */
template <unsigned K>
[[gnu::noinline]] Effect
execute(State &s, const Inst &in)
{
    const std::uint64_t a = s.r[in.rs1], b = s.r[in.rs2];
    switch (K % numKinds) {
      case Alu:
        s.r[in.rd] = (a ^ (b >> (K % 7 + 1))) + in.imm + K;
        return {Alu, 0};
      case Mul:
        s.r[in.rd] = a * (b | 1) + K * 0x9e37ull;
        return {Mul, 0};
      case Load: {
        const std::uint64_t w = (a + in.imm + K) % memWords;
        s.r[in.rd] = s.mem[w] ^ K;
        return {Load, w};
      }
      case Store: {
        const std::uint64_t w = (a + in.imm * 3 + K) % memWords;
        s.mem[w] = b + K;
        return {Store, w};
      }
      case Branch:
        return {Branch, (a >> ((in.imm + K) & 31)) & 1};
      default:
        // A counted loop: up to eight trips.
        return {Loop, (++s.r[in.rd] & 7) != 0};
    }
}

using Handler = Effect (*)(State &, const Inst &);

template <std::size_t... K>
constexpr std::array<Handler, sizeof...(K)>
handlerTable(std::index_sequence<K...>)
{
    return {&execute<static_cast<unsigned>(K)>...};
}

constexpr auto handlers =
    handlerTable(std::make_index_sequence<numHandlers>{});

std::uint64_t
next(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

std::uint64_t
fold(std::uint64_t h, unsigned len, unsigned bits)
{
    h &= len >= 64 ? ~0ull : (1ull << len) - 1;
    std::uint64_t f = 0;
    for (; h; h >>= bits)
        f ^= h;
    return f & ((1ull << bits) - 1);
}

} // anonymous namespace

bool
Calibrator::Cache::access(std::uint64_t addr, std::uint64_t stamp)
{
    const std::uint64_t line = addr >> 6;
    Way *set = &lines[(line % sets) * ways];
    Way *victim = set;
    for (unsigned w = 0; w < ways; ++w) {
        if (set[w].tag == line) {
            set[w].stamp = stamp;
            return true;
        }
        if (set[w].stamp < victim->stamp)
            victim = &set[w];
    }
    victim->tag = line;
    victim->stamp = stamp;
    return false;
}

Calibrator::Calibrator()
{
    // A fixed program: arithmetic, loads and stores over 2 MiB, forward
    // branches on data and short counted loops.
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    code.resize(codeSize);
    for (Inst &in : code) {
        const unsigned r = next(s) % 100;
        const unsigned kind = r < 40 ? Alu : r < 48 ? Mul : r < 68 ? Load
                            : r < 78 ? Store : r < 95 ? Branch : Loop;
        in.handler = static_cast<std::uint16_t>(
            next(s) % (numHandlers / numKinds) * numKinds + kind);
        in.rd = next(s) % 16;
        in.rs1 = next(s) % 16;
        in.rs2 = next(s) % 16;
        in.imm = static_cast<std::int32_t>(next(s) % 64);
    }
    initMem.resize(memWords);
    for (std::uint64_t &w : initMem)
        w = next(s);
    l1i = {256, 4, {}};
    l1d = {256, 4, {}};
    l2 = {2048, 8, {}};
    reset();
}

void
Calibrator::reset()
{
    // Sizes never change after the first call, so nothing is allocated.
    mem = initMem;
    for (Cache *c : {&l1i, &l1d, &l2})
        c->lines.assign(std::size_t{c->sets} * c->ways, Way{~0ull, 0});
    bimodal.assign(std::size_t{1} << logBimodal, 0);
    tagged.resize(std::size(histLens));
    for (std::vector<Tagged> &t : tagged)
        t.assign(std::size_t{1} << logTagged, Tagged{0, 0, 0});
    hist = 0;
}

bool
Calibrator::predict(std::uint64_t pc, bool taken)
{
    // Longest matching tagged table provides; bimodal otherwise.
    std::size_t idx[std::size(histLens)];
    std::uint16_t tag[std::size(histLens)];
    int provider = -1;
    for (unsigned t = 0; t < std::size(histLens); ++t) {
        idx[t] = (pc ^ fold(hist, histLens[t], logTagged)) &
                 ((1u << logTagged) - 1);
        tag[t] = static_cast<std::uint16_t>(
            (pc ^ fold(hist, histLens[t], 11) * 3) & 0x7ff);
        if (tagged[t][idx[t]].tag == tag[t])
            provider = static_cast<int>(t);
    }
    std::int8_t &bim = bimodal[pc & ((1u << logBimodal) - 1)];
    const bool pred =
        provider >= 0 ? tagged[provider][idx[provider]].ctr >= 0 : bim >= 0;
    if (provider >= 0) {
        Tagged &e = tagged[provider][idx[provider]];
        e.ctr = static_cast<std::int8_t>(
            std::clamp(e.ctr + (taken ? 1 : -1), -4, 3));
        if (pred == taken && e.useful < 3)
            ++e.useful;
    } else {
        bim = static_cast<std::int8_t>(std::clamp(bim + (taken ? 1 : -1),
                                                  -2, 1));
    }
    // On a miss, allocate in the next longer table.
    const unsigned alloc = static_cast<unsigned>(provider + 1);
    if (pred != taken && alloc < std::size(histLens)) {
        Tagged &e = tagged[alloc][idx[alloc]];
        if (e.useful == 0)
            e = Tagged{tag[alloc], static_cast<std::int8_t>(taken ? 0 : -1), 0};
        else
            --e.useful;
    }
    hist = (hist << 1) | (taken ? 1 : 0);
    return pred == taken;
}

double
Calibrator::slice()
{
    const auto t0 = std::chrono::steady_clock::now();
    reset();
    State st;
    for (unsigned i = 0; i < 16; ++i)
        st.r[i] = initMem[i] | 1;
    st.mem = mem.data();
    std::uint64_t pc = 0, misses = 0;
    for (std::uint64_t step = 1; step <= narrowSteps + wideSteps; ++step) {
        const Inst &in = code[pc];
        std::uint64_t npc = pc + 1;
        if (!l1i.access(pc * 4, step))
            misses += !l2.access(pc * 4, step);
        const unsigned h =
            step > narrowSteps ? in.handler : in.handler % numKinds;
        const Effect e = handlers[h](st, in);
        switch (e.kind) {
          case Load:
          case Store:
            if (!l1d.access(e.value * 8, step))
                misses += !l2.access(e.value * 8, step);
            break;
          case Branch:
            misses += !predict(pc, e.value);
            if (e.value)
                npc = pc + 2 + (in.imm & 7);
            break;
          case Loop:
            // Back over the last 4..67 instructions.
            misses += !predict(pc, e.value);
            if (e.value)
                npc = pc >= 4u + in.imm ? pc - 4 - in.imm : pc;
            break;
          default:
            break;
        }
        pc = npc % codeSize;
    }
    sink += misses + st.r[0];
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace perfbench
