#include "core/sct.hh"

#include <algorithm>

namespace msp {

SctBank::SctBank(int bankId, unsigned capacity) : id(bankId), cap(capacity)
{
    msp_assert(capacity >= 2, "bank %d: capacity %u too small", bankId,
               capacity);
}

int
SctBank::freeSlot()
{
    if (!freeSlots.empty()) {
        int s = freeSlots.back();
        freeSlots.pop_back();
        return s;
    }
    slots.emplace_back();
    return static_cast<int>(slots.size()) - 1;
}

int
SctBank::allocate(std::uint32_t stateId)
{
    msp_assert(!full(), "bank %d: allocate on full bank", id);
    msp_assert(order.empty() || slots[order.back()].stateId < stateId,
               "bank %d: non-monotonic StateId allocation", id);
    int s = freeSlot();
    SctEntry &e = slots[s];
    e = SctEntry{};
    e.stateId = stateId;
    e.valid = true;
    // The previous tail loses its use-count exclusion; the scan goes on
    // from there to the new, not-ready tail at the latest.
    if (!order.empty())
        cursor = std::min(cursor, order.size() - 1);
    order.push_back(s);
    markLcsDirty();
    publishHotGate();
    return s;
}

bool
SctBank::setUse(int slot, int iqSlot)
{
    msp_assert(iqSlot >= 0 && iqSlot < static_cast<int>(maxIqSlots),
               "bad IQ slot %d", iqSlot);
    SctEntry &e = entry(slot);
    std::uint64_t &w = e.useBits[iqSlot >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (iqSlot & 63);
    if (w & bit)
        return false;
    w |= bit;
    ++e.useCount;
    if (slot != order.back())
        cursor = 0;   // a new hold somewhere before the tail
    markLcsDirty();
    return true;
}

void
SctBank::addPendingOp(int slot)
{
    ++entry(slot).pendingOps;
    cursor = slot == order.back() ? std::min(cursor, order.size() - 1) : 0;
    markLcsDirty();
}

void
SctBank::clearUse(int slot, int iqSlot)
{
    SctEntry &e = entry(slot);
    std::uint64_t &w = e.useBits[iqSlot >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (iqSlot & 63);
    msp_assert(w & bit, "bank %d: clearing unset use bit", id);
    w &= ~bit;
    msp_assert(e.useCount > 0, "bank %d: useCount underflow", id);
    --e.useCount;
    markLcsDirty();
}

std::optional<std::uint32_t>
SctBank::scanLcsContribution() const
{
    const std::size_t tail = order.size() - 1;
    std::size_t i = cursor;
    for (; i < order.size(); ++i) {
        const SctEntry &e = slots[order[i]];
        const bool holding = !e.ready || e.pendingOps > 0 ||
                             (e.useCount > 0 && i != tail);
        if (holding)
            break;
    }
    cursor = i;
    if (i == order.size())
        return std::nullopt;
    return slots[order[i]].stateId;
}

int
SctBank::releaseCommittedSlow(std::uint32_t lcs)
{
    int released = 0;
    markLcsDirty();
    while (order.size() >= 2) {
        const SctEntry &succ = slots[order[1]];
        if (succ.stateId >= lcs)
            break;
        SctEntry &head = slots[order.front()];
        msp_assert(head.done(),
                   "bank %d: releasing a not-done entry (state %u, "
                   "lcs %u)", id, head.stateId, lcs);
        head.valid = false;
        freeSlots.push_back(order.front());
        order.pop_front();
        ++released;
    }
    cursor = cursor > static_cast<std::size_t>(released)
                 ? cursor - released
                 : 0;
    publishHotGate();
    return released;
}

void
SctBank::releaseTail(int expectedSlot)
{
    msp_assert(!order.empty(), "bank %d: releaseTail on empty bank", id);
    msp_assert(order.back() == expectedSlot,
               "bank %d: releaseTail slot mismatch (%d vs %d)", id,
               order.back(), expectedSlot);
    SctEntry &e = slots[order.back()];
    msp_assert(e.useCount == 0 && e.pendingOps == 0,
               "bank %d: releasing tail with pending consumers", id);
    e.valid = false;
    freeSlots.push_back(order.back());
    order.pop_back();
    cursor = std::min(cursor, order.size());
    markLcsDirty();
    publishHotGate();
}

void
SctBank::flashClearStateIds(std::uint32_t sub)
{
    // Saturating subtract: entries whose state committed long ago (the
    // architectural mapping of a rarely-written register) may still
    // carry a pre-saturation StateId. They are older than everything in
    // flight, so clamping to zero preserves every ordering the id is
    // used for. Uncommitted states are guaranteed >= sub (asserted by
    // the caller on the instruction window).
    for (int s : order) {
        SctEntry &e = slots[s];
        e.stateId = e.stateId >= sub ? e.stateId - sub : 0;
    }
    // The first holding entry is unchanged (no flags moved); its
    // StateId shifted exactly like the cache must.
    if (!lcsDirty && lcsCache)
        *lcsCache = *lcsCache >= sub ? *lcsCache - sub : 0;
    // The release gate shifted with every StateId; the hot
    // lcsContribution copies are refreshed by the core, which marks
    // every bank dirty after a flash clear.
    publishHotGate();
}

} // namespace msp
