/**
 * @file
 * WindowLanes — structure-of-arrays hot state of the instruction queue.
 *
 * The issue stage used to re-poll every IQ occupant's operand readiness
 * through a virtual call and two pointer-chased register-file lookups,
 * every cycle; the profile showed that polling loop (doIssueStage +
 * operandsReady) costing about half of the whole simulation. This class
 * splits the scheduler-scanned fields out of DynInst (the cold record,
 * which stays in the DynInstPool arena) into dense parallel lanes
 * indexed by IQ slot id:
 *
 *   - a pending-source counter driving event-driven wakeup,
 *   - a generation counter guarding against stale wakeups on slot reuse,
 *   - seq / source-tag / FU-class lanes for asserts and diagnostics,
 *   - the age-ordered slot list (sorted by construction, holes
 *     compacted lazily) that fixes select priority, and each slot's
 *     position in it.
 *
 * Readiness becomes *event-driven*: a slot's pending count is set once
 * at insert (counting distinct not-yet-ready source tags) and
 * decremented by wakeSrc() when a producer writes back. This is
 * cycle-exact with the old polling because of two structural facts:
 * (1) the cycle order is commit -> writeback -> issue -> rename, so a
 * value written in cycle T is visible to the poll in cycle T exactly
 * when the wakeup also lands in T; and (2) no core ever un-readies a
 * physical register while a consumer is live in the IQ (registers are
 * only reallocated after their last IQ consumer issued or squashed), so
 * ready can never regress between insert and issue.
 *
 * Age-position select: the ready bits are indexed by *position in the
 * age list*, not by slot, so select finds the oldest ready entry with
 * one count-trailing-zeros per 64 positions (nextReady) instead of
 * walking every age-list entry. Compaction renumbers the positions and
 * moves the bits with them.
 *
 * Parking: a ready load whose store-queue probe is blocked (Unknown or
 * Stall) parks on the blocking store's seq. Its ready bit moves to one
 * of two parked masks (one per probe kind, also age-position indexed)
 * and stays there until wakeParked() names that store — the store
 * resolving at issue, possibly earlier in the same select scan, since
 * the blocker is always older than the load. remove() clears a parked
 * slot like any other, so a squashed load leaves nothing behind. The
 * parked masks let the issue stage count, with one popcount per
 * position range, the probes a polling scan would have repeated.
 *
 * Slot ids are stable while an instruction waits, which is what lets
 * the MSP RelIQ use-bit rows double as the wakeup CAM: the bits the
 * paper already stores per (physical register, IQ slot) are exactly
 * the consumers to wake when the entry's value arrives.
 */

#ifndef MSPLIB_PIPELINE_WINDOW_LANES_HH
#define MSPLIB_PIPELINE_WINDOW_LANES_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "pipeline/dyninst.hh"

namespace msp {

/** SoA instruction-queue window: hot lanes + age-ordered ready select. */
class WindowLanes
{
  public:
    /** Parked-load kinds, counted apart (the caller's probe outcomes). */
    static constexpr unsigned parkKinds = 2;

    explicit WindowLanes(unsigned capacity)
        : cap(capacity), orderLimit(2 * capacity)
    {
        inst.assign(capacity, nullptr);
        seqLane.assign(capacity, invalidSeqNum);
        src1Lane.assign(capacity, noReg);
        src2Lane.assign(capacity, noReg);
        fuLane.assign(capacity, 0);
        pendingLane.assign(capacity, 0);
        genLane.assign(capacity, 0);
        posLane.assign(capacity, -1);
        parkLane.assign(capacity, invalidSeqNum);
        const std::size_t words = (orderLimit + 63) / 64;
        readyWords.assign(words, 0);
        for (auto &w : parkedWords)
            w.assign(words, 0);
        freeSlots.reserve(capacity);
        for (unsigned i = 0; i < capacity; ++i)
            freeSlots.push_back(capacity - 1 - i);
        order.reserve(orderLimit);
    }

    /** Remaining capacity. */
    unsigned freeCount() const { return freeSlots.size(); }

    bool full() const { return freeSlots.empty(); }

    /** Total slots. */
    unsigned capacity() const { return cap; }

    /** Any slot ready for select? Parked loads are not. */
    bool anyReady() const { return readyCount != 0; }

    /** Insert @p d; assigns and returns its slot id. Pending sources
     *  are not known yet — the core calls setPending() after rename. */
    int
    insert(DynInst *d)
    {
        msp_assert(!freeSlots.empty(), "IQ overflow");
        const int slot = static_cast<int>(freeSlots.back());
        freeSlots.pop_back();
        inst[slot] = d;
        seqLane[slot] = d->seq;
        d->iqSlot = slot;
        d->inIq = true;
        // Rename inserts in seq order (seq is assigned at fetch and the
        // fetchQ is a FIFO), so the age list stays sorted by
        // construction. Squashes only remove younger entries, so the
        // last live element is always older than a new insert.
        msp_assert(order.empty() || order.back() < 0 ||
                       seqLane[order.back()] < d->seq,
                   "IQ insert out of age order");
        if (order.size() >= orderLimit)
            compact();
        posLane[slot] = static_cast<std::int32_t>(order.size());
        order.push_back(slot);
        return slot;
    }

    /** Record the hot source/FU lanes once rename assigned the tags. */
    void
    fillTags(int slot, PhysReg src1, PhysReg src2, unsigned char fu)
    {
        src1Lane[slot] = src1;
        src2Lane[slot] = src2;
        fuLane[slot] = fu;
    }

    /**
     * Set the wakeup counter: @p n distinct source tags not yet ready.
     * Zero marks the slot ready for select immediately.
     */
    void
    setPending(int slot, unsigned n)
    {
        pendingLane[slot] = static_cast<std::uint8_t>(n);
        if (n == 0)
            markReady(slot);
    }

    /** A producer of one of @p slot's pending sources wrote back. */
    void
    wakeSrc(int slot)
    {
        msp_assert(inst[slot] != nullptr, "wake of empty IQ slot %d", slot);
        msp_assert(pendingLane[slot] > 0,
                   "wake underflow on IQ slot %d", slot);
        if (--pendingLane[slot] == 0)
            markReady(slot);
    }

    /**
     * Generation-checked wakeup for subscription-based wakers
     * (baseline/CPR register waiter lists): ignores the wake when the
     * slot was reused since the subscription was taken.
     */
    void
    wakeSrcIfCurrent(int slot, std::uint32_t gen)
    {
        if (inst[slot] != nullptr && genLane[slot] == gen)
            wakeSrc(slot);
    }

    /** Generation of the current occupancy (captured by subscribers). */
    std::uint32_t generation(int slot) const { return genLane[slot]; }

    /** Ready for select (operands ready and not parked). */
    bool
    ready(int slot) const
    {
        return inst[slot] != nullptr && testBit(readyWords, posLane[slot]);
    }

    /** Pending distinct unready sources (tests/diagnostics). */
    unsigned pendingOf(int slot) const { return pendingLane[slot]; }

    DynInst *at(int slot) const { return inst[slot]; }

    SeqNum seqOf(int slot) const { return seqLane[slot]; }
    PhysReg src1Of(int slot) const { return src1Lane[slot]; }
    PhysReg src2Of(int slot) const { return src2Lane[slot]; }
    unsigned char fuOf(int slot) const { return fuLane[slot]; }

    /** Remove @p d (at issue or squash). */
    void
    remove(DynInst *d)
    {
        msp_assert(d->inIq && d->iqSlot >= 0, "IQ remove of absent inst");
        const int slot = d->iqSlot;
        msp_assert(inst[slot] == d, "IQ slot mismatch");
        const std::int32_t pos = posLane[slot];
        msp_assert(pos >= 0 && order[pos] == slot, "IQ age-list mismatch");
        if (testBit(readyWords, pos)) {
            clearBit(readyWords, pos);
            --readyCount;
        }
        if (parkLane[slot] != invalidSeqNum)
            unpark(pos);
        inst[slot] = nullptr;
        seqLane[slot] = invalidSeqNum;
        src1Lane[slot] = noReg;
        src2Lane[slot] = noReg;
        pendingLane[slot] = 0;
        posLane[slot] = -1;
        ++genLane[slot];   // invalidate outstanding subscriptions
        freeSlots.push_back(slot);
        order[pos] = -1;   // hole; compacted lazily
        d->inIq = false;
        d->iqSlot = -1;
    }

    /**
     * One past the youngest age position in use. Positions run oldest
     * first, and lazy compaction bounds them at twice the capacity.
     */
    std::size_t ageEnd() const { return order.size(); }

    /** Slot at age position @p pos (-1 for a hole). */
    int slotAt(std::size_t pos) const { return order[pos]; }

    /**
     * Age position of the oldest ready slot at or after @p from; -1 when
     * there is none. Reads the live bits, so slots woken while a scan
     * is under way are found when the scan reaches them.
     */
    int
    nextReady(std::size_t from) const
    {
        std::size_t w = from >> 6;
        if (w >= readyWords.size())
            return -1;
        std::uint64_t bits =
            readyWords[w] & (~std::uint64_t{0} << (from & 63));
        while (bits == 0) {
            if (++w >= readyWords.size())
                return -1;
            bits = readyWords[w];
        }
        return static_cast<int>(w * 64 + std::countr_zero(bits));
    }

    /**
     * Park ready slot @p slot on store @p store: it leaves select until
     * wakeParked(@p store). @p kind (< parkKinds) is the caller's
     * outcome class, counted by parkedIn()/parkedCount().
     */
    void
    park(int slot, SeqNum store, unsigned kind)
    {
        msp_assert(ready(slot), "parking IQ slot %d that is not ready",
                   slot);
        msp_assert(store != invalidSeqNum, "parking on no store");
        const std::int32_t pos = posLane[slot];
        clearBit(readyWords, pos);
        --readyCount;
        setBit(parkedWords[kind], pos);
        ++parkedCounts[kind];
        parkLane[slot] = store;
    }

    /** Return every slot parked on @p store to select. */
    void
    wakeParked(SeqNum store)
    {
        for (auto &words : parkedWords) {
            for (std::size_t w = 0; w < words.size(); ++w) {
                std::uint64_t bits = words[w];
                while (bits) {
                    const std::size_t pos =
                        w * 64 + std::countr_zero(bits);
                    bits &= bits - 1;
                    const int slot = order[pos];
                    if (parkLane[slot] != store)
                        continue;
                    unpark(pos);
                    setBit(readyWords, pos);
                    ++readyCount;
                }
            }
        }
    }

    /** Slots parked as @p kind at age positions [@p from, @p to). */
    unsigned
    parkedIn(unsigned kind, std::size_t from, std::size_t to) const
    {
        const auto &words = parkedWords[kind];
        unsigned n = 0;
        while (from < to) {
            const std::size_t w = from >> 6;
            const unsigned lo = from & 63;
            const std::size_t span = std::min<std::size_t>(64 - lo, to - from);
            std::uint64_t bits = words[w] >> lo;
            if (span < 64)
                bits &= (std::uint64_t{1} << span) - 1;
            n += std::popcount(bits);
            from += span;
        }
        return n;
    }

    /** Slots parked as @p kind. */
    unsigned parkedCount(unsigned kind) const { return parkedCounts[kind]; }

    /** Any slot parked? */
    bool
    anyParked() const
    {
        return (parkedCounts[0] | parkedCounts[1]) != 0;
    }

    /** Store @p slot is parked on; invalidSeqNum when not parked. */
    SeqNum parkedOn(int slot) const { return parkLane[slot]; }

  private:
    static bool
    testBit(const std::vector<std::uint64_t> &w, std::size_t pos)
    {
        return w[pos >> 6] >> (pos & 63) & 1;
    }

    static void
    setBit(std::vector<std::uint64_t> &w, std::size_t pos)
    {
        w[pos >> 6] |= std::uint64_t{1} << (pos & 63);
    }

    static void
    clearBit(std::vector<std::uint64_t> &w, std::size_t pos)
    {
        w[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
    }

    void
    markReady(int slot)
    {
        msp_assert(!testBit(readyWords, posLane[slot]),
                   "slot %d marked ready twice", slot);
        setBit(readyWords, posLane[slot]);
        ++readyCount;
    }

    /** Clear the parked state at age position @p pos. */
    void
    unpark(std::size_t pos)
    {
        for (unsigned k = 0; k < parkKinds; ++k) {
            if (testBit(parkedWords[k], pos)) {
                clearBit(parkedWords[k], pos);
                --parkedCounts[k];
            }
        }
        parkLane[order[pos]] = invalidSeqNum;
    }

    void
    compact()
    {
        // Positions only move down (out <= i), and every position
        // below i was read before it is written, so the bits move in
        // place.
        auto move = [](std::vector<std::uint64_t> &w, std::size_t from,
                       std::size_t to) {
            if (testBit(w, from)) {
                clearBit(w, from);
                setBit(w, to);
            }
        };
        std::size_t out = 0;
        for (std::size_t i = 0; i < order.size(); ++i) {
            const std::int32_t slot = order[i];
            if (slot < 0)
                continue;
            if (out != i) {
                order[out] = slot;
                move(readyWords, i, out);
                for (auto &w : parkedWords)
                    move(w, i, out);
            }
            posLane[slot] = static_cast<std::int32_t>(out);
            ++out;
        }
        order.resize(out);
    }

    unsigned cap;
    std::size_t orderLimit;

    // Hot lanes, indexed by slot id.
    std::vector<DynInst *> inst;
    std::vector<SeqNum> seqLane;
    std::vector<PhysReg> src1Lane;
    std::vector<PhysReg> src2Lane;
    std::vector<std::uint8_t> fuLane;
    std::vector<std::uint8_t> pendingLane;
    std::vector<std::uint32_t> genLane;
    std::vector<std::int32_t> posLane;   ///< age position; -1 when free
    std::vector<SeqNum> parkLane;        ///< blocking store when parked

    // Masks indexed by age position.
    std::vector<std::uint64_t> readyWords;
    std::array<std::vector<std::uint64_t>, parkKinds> parkedWords;
    unsigned readyCount = 0;
    std::array<unsigned, parkKinds> parkedCounts{};

    std::vector<unsigned> freeSlots;

    /** Live slots oldest-first, with -1 holes where entries left. */
    std::vector<std::int32_t> order;
};

/**
 * Per-physical-register wakeup subscription lists for the flat-file
 * cores (baseline/CPR). MSP needs none of this: its RelIQ use-bit rows
 * already record exactly the consumers to wake.
 *
 * Subscriptions are only ever *appended* (at rename, for each source
 * tag not yet ready) and *drained* (when the producer writes back);
 * consumers that left the IQ in between are skipped by the generation
 * check. Lists of squashed producers persist until the register is
 * reallocated and written again, where the drain discards them — so
 * memory stays bounded without any removal path.
 */
class RegWaiters
{
  public:
    void init(std::size_t numPhys) { lists.assign(numPhys, {}); }

    void
    watch(PhysReg p, int slot, std::uint32_t gen)
    {
        lists[p].push_back(Sub{slot, gen});
    }

    void
    drain(PhysReg p, WindowLanes &iq)
    {
        auto &l = lists[p];
        for (const Sub &s : l)
            iq.wakeSrcIfCurrent(s.slot, s.gen);
        l.clear();
    }

  private:
    struct Sub
    {
        std::int32_t slot;
        std::uint32_t gen;
    };
    std::vector<std::vector<Sub>> lists;
};

} // namespace msp

#endif // MSPLIB_PIPELINE_WINDOW_LANES_HH
