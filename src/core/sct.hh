/**
 * @file
 * SctBank — the State Control Table for one logical register (Sec. 3.2.1).
 *
 * Each logical register owns a fixed bank of physical registers. An SCT
 * entry is the descriptor of one physical register: its Lower StateId
 * (the Upper StateId is implicit — the next entry's StateId minus one),
 * a valid bit, the Ready bit (value produced), the RelIQ use-bit row
 * (one bit per instruction-queue slot) and the count of non-assigning
 * instructions belonging to the entry's state.
 *
 * Physical registers are allocated and released in order within the
 * bank (constraint (b) of Sec. 3.1): allocation pushes at the tail
 * (RenP), commit-release pops at the head, recovery-release pops at the
 * tail. Entry *slots* are stable indices so in-flight instructions can
 * name their operands as (bank, slot) pairs.
 *
 * Bank cursor: each bank remembers how far its last LCS scan got (the
 * oldest entry that still held its state back). Every entry before the
 * cursor is known not to hold, so a dirty bank's rescan resumes there
 * instead of walking from the head. Only a new hold on an entry before
 * the cursor moves it back: allocate (the previous tail loses its
 * use-count exclusion), addPendingOp, and setUse on a non-tail entry.
 * Ready bits and cleared uses only release holds, which is why the
 * core may still set them directly through entry().
 *
 * BankMinTree is the software form of the paper's pipelined comparator
 * tree (Sec. 3.2.2): one leaf per bank, a minimum at the root, and an
 * update that re-walks only the path above the leaf that changed.
 */

#ifndef MSPLIB_CORE_SCT_HH
#define MSPLIB_CORE_SCT_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace msp {

/** Maximum instruction-queue size supported by the RelIQ rows. */
constexpr unsigned maxIqSlots = 256;

/** Descriptor of one physical register in a bank. */
struct SctEntry
{
    std::uint32_t stateId = 0;   ///< Lower StateId
    bool valid = false;
    bool ready = false;          ///< Rb: value produced
    std::uint64_t value = 0;
    std::uint32_t useCount = 0;  ///< set bits in the RelIQ row
    std::uint32_t pendingOps = 0;///< unexecuted same-state non-assigners
    std::array<std::uint64_t, maxIqSlots / 64> useBits{};

    /**
     * Local completion: value produced, consumed by every dependent in
     * the IQ, and every same-state instruction executed. This is the
     * predicate the Release Pointer (RelP) stops at.
     */
    bool
    done() const
    {
        return ready && useCount == 0 && pendingOps == 0;
    }
};

/**
 * Minimum over one 32-bit value per bank (at most 64 banks). Leaves are
 * written in place (leaf()) and folded in with fix(), or set() does
 * both; min() is the root. Unused leaves hold the maximum value.
 */
class BankMinTree
{
  public:
    static constexpr unsigned leaves = 64;

    BankMinTree() { node.fill(~std::uint32_t{0}); }

    /** Storage of leaf @p i; call fix(@p i) after writing it. */
    std::uint32_t *leaf(unsigned i) { return &node[leaves + i]; }

    /** Re-derive the minima above leaf @p i. */
    void
    fix(unsigned i)
    {
        for (unsigned n = (leaves + i) >> 1; n != 0; n >>= 1) {
            const std::uint32_t m = std::min(node[2 * n], node[2 * n + 1]);
            if (node[n] == m)
                break;   // nothing above can change either
            node[n] = m;
        }
    }

    void
    set(unsigned i, std::uint32_t v)
    {
        node[leaves + i] = v;
        fix(i);
    }

    std::uint32_t min() const { return node[1]; }

    /** Call @p f(i) for every leaf below @p limit, lowest i first. */
    template <typename F>
    void
    forEachBelow(std::uint32_t limit, F &&f) const
    {
        visit(1, limit, f);
    }

  private:
    template <typename F>
    void
    visit(unsigned n, std::uint32_t limit, F &f) const
    {
        if (node[n] >= limit)
            return;
        if (n >= leaves) {
            f(n - leaves);
            return;
        }
        visit(2 * n, limit, f);
        visit(2 * n + 1, limit, f);
    }

    /** node[1] is the root; node[leaves + i] is leaf i. */
    std::array<std::uint32_t, 2 * leaves> node;
};

/** One logical register's bank of physical registers. */
class SctBank
{
  public:
    /**
     * @param bankId   Unified logical register index (for diagnostics).
     * @param capacity Physical registers in the bank (n of n-SP).
     */
    SctBank(int bankId, unsigned capacity);

    /** True when no more physical registers can be allocated. */
    bool full() const { return order.size() >= cap; }

    /** Live (valid) entries. */
    std::size_t occupancy() const { return order.size(); }

    /**
     * Allocate the next physical register (advance RenP).
     * @return Stable slot index of the new entry.
     */
    int allocate(std::uint32_t stateId);

    /** Slot of the current mapping (RenP target); -1 if bank empty. */
    int
    renameSlot() const
    {
        return order.empty() ? -1 : order.back();
    }

    /** Slot of the oldest live entry (RelP scan base); -1 if empty. */
    int
    oldestSlot() const
    {
        return order.empty() ? -1 : order.front();
    }

    SctEntry &
    entry(int slot)
    {
        msp_assert(slot >= 0 && slot < static_cast<int>(slots.size()) &&
                       slots[slot].valid,
                   "bank %d: access to invalid slot %d", id, slot);
        return slots[slot];
    }

    const SctEntry &
    entry(int slot) const
    {
        return const_cast<SctBank *>(this)->entry(slot);
    }

    /**
     * Set the RelIQ use bit (consumer @p iqSlot depends on @p slot).
     * @return true if the bit was newly set (caller must clear it).
     */
    bool setUse(int slot, int iqSlot);

    /** Count one more unexecuted same-state instruction on @p slot. */
    void addPendingOp(int slot);

    /** Clear a use bit (consumer issued, or squashed). */
    void clearUse(int slot, int iqSlot);

    /**
     * StateId this bank contributes to the LCS minimum: the StateId of
     * the first (oldest) entry that still holds its state back. A bank
     * whose entries are all clear is excluded (the RenP==RelP special
     * condition of Sec. 3.2.2 and its multi-entry generalisation).
     *
     * The *tail* entry (current mapping, RenP target) only holds the
     * LCS until its value is produced — not until consumed: a live
     * architectural value (e.g. a loop-invariant constant) gains new
     * consumers forever, and each consumer already gates the LCS
     * through its own instruction's state. Without this exclusion a
     * single loop-invariant register deadlocks commit.
     *
     * The result is cached: the commit stage queries every bank every
     * cycle, but most banks don't change state in most cycles. Every
     * mutation that can move the first holding entry (allocate,
     * use-bit set/clear, pendingOps and ready transitions, releases)
     * marks the cache dirty; the scan reruns only then, and resumes at
     * the bank cursor (see the file comment).
     */
    std::optional<std::uint32_t>
    lcsContribution() const
    {
        if (lcsDirty) {
            lcsCache = scanLcsContribution();
            lcsDirty = false;
        }
        return lcsCache;
    }

    /**
     * Invalidate the cached lcsContribution(). Public because the MSP
     * core sets ready bits and retires pendingOps directly through
     * entry(). Such direct mutations may only release holds; adding one
     * goes through allocate(), setUse() or addPendingOp(), which also
     * move the bank cursor back.
     */
    void
    markLcsDirty()
    {
        lcsDirty = true;
        if (hotDirtyWord)
            *hotDirtyWord |= hotDirtyMask;
    }

    /** Sentinel for "no release gate / no contribution" in hot lanes. */
    static constexpr std::uint32_t noHotState = ~std::uint32_t{0};

    /**
     * Bind this bank's hot commit-path state into core-owned dense
     * state. The commit stage needs all banks every cycle; touching 64
     * scattered bank objects per cycle is most of its cost, so the bank
     * pushes the two scanned values out instead:
     *
     *  - @p gateSlot receives the successor StateId that gates
     *    releaseCommitted() (noHotState when fewer than two entries),
     *    updated whenever the live order changes, and @p gateDirtyWord
     *    gets bit @p bitIndex set with it, so the core folds only the
     *    changed gates into its gate tree;
     *  - @p dirtyWord gets bit @p bitIndex set whenever the cached
     *    lcsContribution() is invalidated, so the core recomputes only
     *    dirty banks (and clears the bits itself).
     */
    void
    bindHot(std::uint32_t *gateSlot, std::uint64_t *gateDirtyWord,
            std::uint64_t *dirtyWord, unsigned bitIndex)
    {
        hotGate = gateSlot;
        hotGateDirtyWord = gateDirtyWord;
        hotDirtyWord = dirtyWord;
        hotDirtyMask = std::uint64_t{1} << bitIndex;
        publishHotGate();
        *hotDirtyWord |= hotDirtyMask;
    }

    /**
     * Commit-time release: release head entries that have a *committed
     * successor* (successor StateId < @p lcs). The newest entry with
     * StateId < lcs is kept — it holds the architectural value.
     * @return Number of entries released.
     *
     * The no-op case (nothing committed in this bank since the last
     * broadcast) is decided inline — it is the common case for all 64
     * banks, every cycle.
     */
    int
    releaseCommitted(std::uint32_t lcs)
    {
        if (order.size() < 2 || slots[order[1]].stateId >= lcs)
            return 0;
        return releaseCommittedSlow(lcs);
    }

    /** Recovery-time release of the tail entry (squashed allocator). */
    void releaseTail(int expectedSlot);

    /** Subtract @p sub from every stored StateId (Sb flash-clear). */
    void flashClearStateIds(std::uint32_t sub);

    /** Oldest-to-newest slot order (for tests/diagnostics). */
    const std::deque<int> &liveOrder() const { return order; }

    int bankId() const { return id; }

  private:
    int freeSlot();
    int releaseCommittedSlow(std::uint32_t lcs);
    std::optional<std::uint32_t> scanLcsContribution() const;

    void
    publishHotGate()
    {
        if (hotGate) {
            *hotGate = order.size() >= 2 ? slots[order[1]].stateId
                                         : noHotState;
            *hotGateDirtyWord |= hotDirtyMask;
        }
    }

    int id;
    std::size_t cap;
    std::vector<SctEntry> slots;
    std::vector<int> freeSlots;
    std::deque<int> order;   ///< live slots, oldest first

    mutable bool lcsDirty = true;
    mutable std::optional<std::uint32_t> lcsCache;

    /** Index into order of the oldest entry that may hold (entries
     *  before it do not); order.size() when none does. */
    mutable std::size_t cursor = 0;

    // Core-owned hot commit-path slots (see bindHot).
    std::uint32_t *hotGate = nullptr;
    std::uint64_t *hotGateDirtyWord = nullptr;
    std::uint64_t *hotDirtyWord = nullptr;
    std::uint64_t hotDirtyMask = 0;
};

} // namespace msp

#endif // MSPLIB_CORE_SCT_HH
