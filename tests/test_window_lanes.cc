/**
 * @file
 * SoA window (WindowLanes) tests: lane/age-list/ready-bit equivalence
 * against a naive DynInst-vector model under randomized insert, wakeup,
 * park/unpark on blocking stores, issue (oldest-ready removal) and
 * squash (youngest-first removal) across age-list compactions, checking
 * the select scan's next ready position and the parked counts of every
 * age range; generation-guarded wakeups across slot reuse; RegWaiters
 * semantics; and the ladder-wide timing pin that anchors the refactor
 * to the pre-SoA cycle counts.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <random>
#include <vector>

#include "pipeline/dyninst.hh"
#include "pipeline/window_lanes.hh"
#include "sim/presets.hh"
#include "verify/fuzzer.hh"
#include "verify/oracle.hh"

namespace msp {
namespace {

/** The naive mirror: what a DynInst-pointer scan would see, in age
 *  order. Every field the lanes duplicate lives here too. */
struct NaiveEntry
{
    DynInst *d;
    SeqNum seq;
    PhysReg src1;
    PhysReg src2;
    unsigned char fu;
    unsigned pending;
    bool ready;
    SeqNum parkedOn = invalidSeqNum;   ///< blocking store when parked
    unsigned parkKind = 0;
};

/** Assert the SoA lanes agree with the naive model, field by field. */
void
expectEquiv(const WindowLanes &iq, const std::vector<NaiveEntry> &model)
{
    ASSERT_EQ(iq.capacity() - iq.freeCount(), model.size());
    // The model is the age list without its holes: map every age
    // position to its model entry (-1 for a hole).
    std::vector<int> entryAt;
    std::size_t live = 0;
    for (std::size_t pos = 0; pos < iq.ageEnd(); ++pos)
        entryAt.push_back(iq.slotAt(pos) >= 0 ? static_cast<int>(live++)
                                              : -1);
    ASSERT_EQ(live, model.size());

    bool anyReady = false;
    std::array<unsigned, WindowLanes::parkKinds> parked{};
    for (std::size_t pos = 0; pos < entryAt.size(); ++pos) {
        if (entryAt[pos] < 0)
            continue;
        const int s = iq.slotAt(pos);
        const NaiveEntry &e = model[entryAt[pos]];
        ASSERT_EQ(iq.at(s), e.d) << "slot " << s;
        EXPECT_EQ(iq.seqOf(s), e.seq);
        EXPECT_EQ(iq.src1Of(s), e.src1);
        EXPECT_EQ(iq.src2Of(s), e.src2);
        EXPECT_EQ(iq.fuOf(s), e.fu);
        EXPECT_EQ(iq.pendingOf(s), e.pending);
        EXPECT_EQ(iq.ready(s), e.ready);
        EXPECT_EQ(iq.parkedOn(s), e.parkedOn);
        EXPECT_EQ(e.d->iqSlot, s);
        anyReady |= e.ready;
        if (e.parkedOn != invalidSeqNum)
            ++parked[e.parkKind];
    }
    EXPECT_EQ(iq.anyReady(), anyReady);
    EXPECT_EQ(iq.anyParked(), parked[0] + parked[1] != 0);

    // The select scan: the next ready position from every start.
    const std::size_t end = entryAt.size();
    int next = -1;
    for (std::size_t from = end + 1; from-- > 0;) {
        if (from < end && entryAt[from] >= 0 && model[entryAt[from]].ready)
            next = static_cast<int>(from);
        EXPECT_EQ(iq.nextReady(from), next) << "from position " << from;
    }

    // Parked counts over every age range, per kind.
    for (unsigned k = 0; k < WindowLanes::parkKinds; ++k) {
        EXPECT_EQ(iq.parkedCount(k), parked[k]);
        std::vector<unsigned> prefix(end + 1, 0);
        for (std::size_t pos = 0; pos < end; ++pos) {
            const bool hit = entryAt[pos] >= 0 &&
                             model[entryAt[pos]].parkedOn != invalidSeqNum &&
                             model[entryAt[pos]].parkKind == k;
            prefix[pos + 1] = prefix[pos] + (hit ? 1 : 0);
        }
        for (std::size_t from = 0; from <= end; ++from) {
            for (std::size_t to = from; to <= end; ++to) {
                ASSERT_EQ(iq.parkedIn(k, from, to),
                          prefix[to] - prefix[from])
                    << "kind " << k << " range [" << from << ", " << to
                    << ")";
            }
        }
    }
}

TEST(WindowLanes, RandomOpsMatchTheNaiveModel)
{
    constexpr unsigned capacity = 24;
    std::mt19937 rng(12345);
    WindowLanes iq(capacity);
    std::deque<DynInst> storage;   // stable addresses
    std::vector<NaiveEntry> model; // age order, oldest first
    SeqNum nextSeq = 1;

    auto insertOne = [&] {
        storage.emplace_back();
        DynInst &d = storage.back();
        d.seq = nextSeq++;
        const int slot = iq.insert(&d);
        const PhysReg s1 = static_cast<PhysReg>(rng() % 64);
        const PhysReg s2 = static_cast<PhysReg>(rng() % 64);
        const unsigned char fu = static_cast<unsigned char>(rng() % 3);
        iq.fillTags(slot, s1, s2, fu);
        const unsigned pending = rng() % 3;
        iq.setPending(slot, pending);
        model.push_back(
            NaiveEntry{&d, d.seq, s1, s2, fu, pending, pending == 0});
    };

    // Loads park on one of a few store seqs, so a wake often frees
    // several at once.
    constexpr SeqNum storeSeqs = 5;
    unsigned compactions = 0;
    for (int op = 0; op < 20000; ++op) {
        const unsigned pick = rng() % 100;
        if (pick < 40) {
            if (!iq.full()) {
                const std::size_t before = iq.ageEnd();
                insertOne();
                compactions += iq.ageEnd() <= before;
            }
        } else if (pick < 50) {
            // A ready load's probe blocks: park it on a store.
            std::vector<std::size_t> ready;
            for (std::size_t i = 0; i < model.size(); ++i)
                if (model[i].ready)
                    ready.push_back(i);
            if (!ready.empty()) {
                NaiveEntry &e = model[ready[rng() % ready.size()]];
                e.parkedOn = 1 + rng() % storeSeqs;
                e.parkKind = rng() % WindowLanes::parkKinds;
                e.ready = false;
                iq.park(e.d->iqSlot, e.parkedOn, e.parkKind);
            }
        } else if (pick < 58) {
            // A store resolves: every load parked on it is ready again.
            const SeqNum store = 1 + rng() % storeSeqs;
            iq.wakeParked(store);
            for (NaiveEntry &e : model) {
                if (e.parkedOn == store) {
                    e.parkedOn = invalidSeqNum;
                    e.ready = true;
                }
            }
        } else if (pick < 70) {
            // Producer writeback: wake one pending entry.
            std::vector<std::size_t> waiting;
            for (std::size_t i = 0; i < model.size(); ++i)
                if (model[i].pending > 0)
                    waiting.push_back(i);
            if (!waiting.empty()) {
                NaiveEntry &e = model[waiting[rng() % waiting.size()]];
                iq.wakeSrc(e.d->iqSlot);
                if (--e.pending == 0)
                    e.ready = true;
            }
        } else if (pick < 90) {
            // Issue: the oldest ready entry leaves the queue; select
            // finds it first.
            for (std::size_t i = 0; i < model.size(); ++i) {
                if (!model[i].ready)
                    continue;
                const int pos = iq.nextReady(0);
                ASSERT_GE(pos, 0);
                EXPECT_EQ(iq.at(iq.slotAt(pos)), model[i].d);
                iq.remove(model[i].d);
                model.erase(model.begin() +
                            static_cast<std::ptrdiff_t>(i));
                break;
            }
        } else {
            // Squash: youngest k entries leave, youngest first, parked
            // loads included.
            std::size_t k = model.empty() ? 0 : rng() % model.size();
            while (k-- > 0 && !model.empty()) {
                iq.remove(model.back().d);
                model.pop_back();
            }
        }
        if (op % 7 == 0)
            expectEquiv(iq, model);
    }
    expectEquiv(iq, model);
    EXPECT_GT(compactions, 100u) << "the age list never compacted";
}

TEST(WindowLanes, StaleGenerationWakeupsAreIgnoredAcrossSlotReuse)
{
    WindowLanes iq(4);
    DynInst a, b;
    a.seq = 1;
    b.seq = 2;

    const int slot = iq.insert(&a);
    iq.setPending(slot, 1);
    const std::uint32_t genA = iq.generation(slot);
    iq.remove(&a);   // a squashes; its subscription is now stale

    // The slot is reused by a younger instruction.
    ASSERT_EQ(iq.insert(&b), slot);
    iq.setPending(slot, 1);

    // a's producer finally writes back: must NOT wake b.
    iq.wakeSrcIfCurrent(slot, genA);
    EXPECT_FALSE(iq.ready(slot));
    EXPECT_EQ(iq.pendingOf(slot), 1u);

    // b's own producer does wake it.
    iq.wakeSrcIfCurrent(slot, iq.generation(slot));
    EXPECT_TRUE(iq.ready(slot));
    EXPECT_TRUE(iq.anyReady());
}

TEST(WindowLanes, RegWaitersDrainWakesOnlyCurrentSubscribers)
{
    WindowLanes iq(4);
    RegWaiters waiters;
    waiters.init(8);

    DynInst a, b;
    a.seq = 1;
    b.seq = 2;
    const int slotA = iq.insert(&a);
    iq.setPending(slotA, 1);
    waiters.watch(3, slotA, iq.generation(slotA));

    const int slotB = iq.insert(&b);
    iq.setPending(slotB, 1);
    waiters.watch(3, slotB, iq.generation(slotB));

    iq.remove(&a);   // a leaves before the producer completes

    waiters.drain(3, iq);
    EXPECT_TRUE(iq.ready(slotB));
    EXPECT_EQ(iq.capacity() - iq.freeCount(), 1u);

    // A drained list is empty: a second drain wakes nobody (wakeSrc on
    // a ready slot would assert).
    waiters.drain(3, iq);
    EXPECT_TRUE(iq.ready(slotB));
}

TEST(WindowLanes, AgeListCompactionPreservesOrderUnderChurn)
{
    // Hammer insert/remove so the order list overflows its 2x bound
    // many times; the fuzz above rarely fills the queue, this always
    // alternates to force compaction.
    constexpr unsigned capacity = 8;
    WindowLanes iq(capacity);
    std::deque<DynInst> storage;
    std::vector<NaiveEntry> model;
    SeqNum nextSeq = 1;

    for (int round = 0; round < 1000; ++round) {
        while (!iq.full()) {
            storage.emplace_back();
            DynInst &d = storage.back();
            d.seq = nextSeq++;
            const int slot = iq.insert(&d);
            iq.fillTags(slot, 1, 2, 0);
            iq.setPending(slot, 0);
            model.push_back(NaiveEntry{&d, d.seq, 1, 2, 0, 0, true});
        }
        // Drain half from the front (issue), half from the back
        // (squash).
        for (int i = 0; i < 2; ++i) {
            iq.remove(model.front().d);
            model.erase(model.begin());
            iq.remove(model.back().d);
            model.pop_back();
        }
        expectEquiv(iq, model);
    }
}

// ---------------------------------------------------------------------------
// Ladder anchor: the SoA window and event-driven wakeup must be
// cycle-exact with the pre-refactor polling core. The differential runs
// prove stream correctness; the pinned cycle counts prove the *timing*
// didn't move (these values were recorded from the polling
// implementation and must never drift).
// ---------------------------------------------------------------------------

TEST(WindowLanes, FullLadderIsCleanAndCycleExact)
{
    struct Pin
    {
        const char *name;
        MachineConfig cfg;
        std::uint64_t cycles;   // recorded pre-SoA; must not drift
    };
    std::vector<Pin> pins;
    pins.push_back({"baseline", baselineConfig(PredictorKind::Gshare), 4211});
    pins.push_back({"cpr", cprConfig(PredictorKind::Gshare), 4913});
    pins.push_back({"8sp", nspConfig(8, PredictorKind::Gshare), 4294});
    pins.push_back({"16sp", nspConfig(16, PredictorKind::Gshare), 4221});
    pins.push_back({"ideal", idealMspConfig(PredictorKind::Gshare), 4138});

    const Program p = verify::fuzzProgram(42);
    for (Pin &pin : pins) {
        const verify::DiffOutcome out = verify::diffRun(p, pin.cfg);
        EXPECT_TRUE(out.ok()) << pin.name;
        if (pin.cycles != 0) {
            EXPECT_EQ(out.cycles, pin.cycles)
                << pin.name << ": timing drifted from the recorded "
                << "pre-refactor cycle count";
        } else {
            ADD_FAILURE() << pin.name << " pin not recorded; cycles="
                          << out.cycles;
        }
    }
}

} // anonymous namespace
} // namespace msp
