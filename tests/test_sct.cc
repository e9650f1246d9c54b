/**
 * @file
 * Unit tests for SctBank — allocation order, RelIQ use bits, the RelP
 * "done" predicate, LCS contribution, commit release (keep the newest
 * committed mapping), recovery release, and Sb flash-clear — plus a
 * randomized differential check of the bank cursor and the BankMinTree
 * minima against naive front-to-back scans.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <random>
#include <vector>

#include "core/sct.hh"

namespace msp {
namespace {

SctBank
freshBank(unsigned cap = 4)
{
    SctBank b(2, cap);
    int s = b.allocate(0);   // architectural reset entry
    b.entry(s).ready = true;
    return b;
}

TEST(SctBank, AllocatesInOrderUntilFull)
{
    SctBank b = freshBank(3);
    b.allocate(1);
    b.allocate(2);
    EXPECT_TRUE(b.full());
    EXPECT_EQ(b.occupancy(), 3u);
    // Oldest-to-newest order by StateId.
    std::uint32_t prev = 0;
    bool first = true;
    for (int slot : b.liveOrder()) {
        if (!first)
            EXPECT_GT(b.entry(slot).stateId, prev);
        prev = b.entry(slot).stateId;
        first = false;
    }
}

TEST(SctBank, RenameSlotIsNewest)
{
    SctBank b = freshBank();
    int s1 = b.allocate(1);
    EXPECT_EQ(b.renameSlot(), s1);
    int s2 = b.allocate(2);
    EXPECT_EQ(b.renameSlot(), s2);
    EXPECT_NE(s1, s2);
}

TEST(SctBank, UseBitsGateDone)
{
    SctBank b = freshBank();
    int s = b.allocate(1);
    SctEntry &e = b.entry(s);
    EXPECT_FALSE(e.done());        // not ready
    e.ready = true;
    EXPECT_TRUE(e.done());
    EXPECT_TRUE(b.setUse(s, 7));   // consumer in IQ slot 7
    EXPECT_FALSE(e.done());
    EXPECT_FALSE(b.setUse(s, 7));  // duplicate: not newly set
    b.clearUse(s, 7);
    EXPECT_TRUE(e.done());
}

TEST(SctBank, PendingOpsGateDone)
{
    SctBank b = freshBank();
    int s = b.allocate(1);
    SctEntry &e = b.entry(s);
    e.ready = true;
    e.pendingOps = 2;              // two same-state stores/branches
    EXPECT_FALSE(e.done());
    e.pendingOps = 0;
    EXPECT_TRUE(e.done());
}

TEST(SctBank, LcsContributionIsFirstNotDone)
{
    SctBank b = freshBank();
    int s1 = b.allocate(1);
    int s2 = b.allocate(2);
    b.entry(s2).ready = true;
    b.markLcsDirty();              // direct entry() mutation contract
    // Entry 1 not ready: it is the oldest not-done.
    ASSERT_TRUE(b.lcsContribution().has_value());
    EXPECT_EQ(*b.lcsContribution(), 1u);
    b.entry(s1).ready = true;
    b.markLcsDirty();
    // Everything done: the bank is excluded (RenP==RelP condition).
    EXPECT_FALSE(b.lcsContribution().has_value());
}

TEST(SctBank, ReleaseKeepsNewestCommittedMapping)
{
    SctBank b = freshBank(4);
    int s1 = b.allocate(1);
    int s2 = b.allocate(2);
    b.entry(s1).ready = true;
    b.entry(s2).ready = true;
    // LCS passed state 2: version 1's successor committed, so the
    // reset entry and version 1 release; version 2 is the
    // architectural mapping and must survive.
    EXPECT_EQ(b.releaseCommitted(3), 2);
    EXPECT_EQ(b.occupancy(), 1u);
    EXPECT_EQ(b.renameSlot(), s2);
    // Nothing further releases: the last mapping always stays.
    EXPECT_EQ(b.releaseCommitted(100), 0);
}

TEST(SctBank, ReleaseStopsAtUncommittedSuccessor)
{
    SctBank b = freshBank(4);
    int s1 = b.allocate(5);
    b.entry(s1).ready = true;
    // LCS = 5: version at state 5 is *committable* but its own
    // successor hasn't committed; the reset entry must stay (it is
    // still the newest entry with a committed state).
    EXPECT_EQ(b.releaseCommitted(5), 0);
    EXPECT_EQ(b.releaseCommitted(6), 1);   // now state 5 committed
}

TEST(SctBank, RecoveryReleasesFromTail)
{
    SctBank b = freshBank(4);
    b.allocate(3);
    int s2 = b.allocate(7);
    // Recovery StateId 4: state 7 squashes.
    b.releaseTail(s2);
    EXPECT_EQ(b.occupancy(), 2u);
    EXPECT_EQ(b.entry(b.renameSlot()).stateId, 3u);
}

TEST(SctBank, SlotsAreReusedAfterRelease)
{
    SctBank b = freshBank(2);
    int s1 = b.allocate(1);
    b.entry(s1).ready = true;
    EXPECT_TRUE(b.full());
    b.releaseCommitted(2);         // reset entry leaves
    EXPECT_FALSE(b.full());
    int s2 = b.allocate(2);
    EXPECT_GE(s2, 0);
    EXPECT_TRUE(b.full());
}

TEST(SctBank, FlashClearSaturatesAtZero)
{
    SctBank b = freshBank(4);
    int s1 = b.allocate(100);
    int s2 = b.allocate(600);
    b.flashClearStateIds(512);
    EXPECT_EQ(b.entry(s1).stateId, 0u);     // clamped (committed-old)
    EXPECT_EQ(b.entry(s2).stateId, 88u);    // shifted
}

// ---- exhaustion paths ------------------------------------------------------

TEST(SctBank, ExhaustionIsVisibleBeforeAllocation)
{
    // The rename stage must gate on full() — a bank never reports
    // full() while a slot is free, and always does once the last
    // physical register is handed out.
    SctBank b = freshBank(3);
    EXPECT_FALSE(b.full());
    b.allocate(1);
    EXPECT_FALSE(b.full());
    b.allocate(2);
    EXPECT_TRUE(b.full());
}

TEST(SctBank, ExhaustedBankDrainsThroughCommitRelease)
{
    // Full bank, every entry locally complete: commit release (LCS
    // passing the successors) must free all but the newest mapping,
    // ending the stall without recovery.
    SctBank b = freshBank(3);
    int s1 = b.allocate(1);
    int s2 = b.allocate(2);
    b.entry(s1).ready = true;
    b.entry(s2).ready = true;
    ASSERT_TRUE(b.full());
    EXPECT_EQ(b.releaseCommitted(3), 2);
    EXPECT_FALSE(b.full());
    EXPECT_EQ(b.renameSlot(), s2);
}

TEST(SctBank, ExhaustedBankDrainsThroughRecoveryRelease)
{
    // Full bank whose youngest allocator squashes: tail release frees
    // the slot even while older entries are still in flight.
    SctBank b = freshBank(3);
    b.allocate(1);
    int s2 = b.allocate(2);
    ASSERT_TRUE(b.full());
    b.releaseTail(s2);
    EXPECT_FALSE(b.full());
    EXPECT_EQ(b.entry(b.renameSlot()).stateId, 1u);
}

// ---- randomized differential checks ----------------------------------------

/** The contribution as the paper defines it: a front-to-back scan. */
std::optional<std::uint32_t>
naiveContribution(const SctBank &b)
{
    const auto &order = b.liveOrder();
    for (std::size_t i = 0; i < order.size(); ++i) {
        const SctEntry &e = b.entry(order[i]);
        if (!e.ready || e.pendingOps > 0 ||
            (e.useCount > 0 && i + 1 != order.size()))
            return e.stateId;
    }
    return std::nullopt;
}

std::uint32_t
naiveGate(const SctBank &b)
{
    const auto &order = b.liveOrder();
    return order.size() >= 2 ? b.entry(order[1]).stateId
                             : SctBank::noHotState;
}

TEST(SctBank, CursorAndMinTreesMatchNaiveScansUnderRandomOps)
{
    // Eight small banks bound into an LCS tree and a gate tree the way
    // MspCore binds them; every mutation the core performs is drawn at
    // random, and the cached contributions (queried only some of the
    // time, so several mutations pile up between rescans) and both
    // trees are checked against naive scans.
    constexpr int numBanks = 8;
    std::mt19937 rng(2024);
    std::vector<SctBank> banks;
    banks.reserve(numBanks);
    BankMinTree lcsTree, gateTree;
    std::uint64_t lcsDirty = 0, gateDirty = 0;
    struct Use
    {
        int bank, slot, iqSlot;
    };
    std::vector<Use> uses;   // set RelIQ bits, to clear later
    std::vector<std::uint32_t> nextState(numBanks, 1);
    for (int i = 0; i < numBanks; ++i) {
        banks.emplace_back(i, 6);
        const int s = banks[i].allocate(0);
        banks[i].entry(s).ready = true;
        banks[i].bindHot(gateTree.leaf(i), &gateDirty, &lcsDirty, i);
    }

    auto randomSlot = [&](const SctBank &b) {
        const auto &order = b.liveOrder();
        return order[rng() % order.size()];
    };

    for (int op = 0; op < 40000; ++op) {
        const int bi = static_cast<int>(rng() % numBanks);
        SctBank &b = banks[bi];
        const unsigned pick = rng() % 100;
        if (pick < 18) {
            if (!b.full()) {
                b.allocate(nextState[bi]);
                nextState[bi] += 1 + rng() % 3;
            }
        } else if (pick < 33) {
            const int slot = randomSlot(b);
            const int iqSlot = static_cast<int>(rng() % maxIqSlots);
            if (b.setUse(slot, iqSlot))
                uses.push_back(Use{bi, slot, iqSlot});
        } else if (pick < 48) {
            if (!uses.empty()) {
                const std::size_t i = rng() % uses.size();
                banks[uses[i].bank].clearUse(uses[i].slot, uses[i].iqSlot);
                uses[i] = uses.back();
                uses.pop_back();
            }
        } else if (pick < 60) {
            const int slot = randomSlot(b);
            if (!b.entry(slot).ready) {
                b.entry(slot).ready = true;
                b.markLcsDirty();
            }
        } else if (pick < 68) {
            b.addPendingOp(randomSlot(b));
        } else if (pick < 78) {
            const int slot = randomSlot(b);
            if (b.entry(slot).pendingOps > 0) {
                --b.entry(slot).pendingOps;
                b.markLcsDirty();
            }
        } else if (pick < 88) {
            // Commit release at a random LCS, when every head entry it
            // would free is done (flash-clears can leave equal ids).
            const auto &order = b.liveOrder();
            const std::uint32_t lcs =
                b.entry(order[rng() % order.size()]).stateId + 1;
            std::size_t frees = 0;
            while (frees + 1 < order.size() &&
                   b.entry(order[frees + 1]).stateId < lcs)
                ++frees;
            bool legal = true;
            for (std::size_t i = 0; i < frees; ++i)
                legal &= b.entry(order[i]).done();
            if (legal)
                EXPECT_EQ(b.releaseCommitted(lcs), static_cast<int>(frees));
        } else if (pick < 96) {
            // Recovery release of a quiet tail.
            const SctEntry &t = b.entry(b.renameSlot());
            if (b.occupancy() >= 2 && t.useCount == 0 && t.pendingOps == 0)
                b.releaseTail(b.renameSlot());
        } else {
            // Sb flash-clear across all banks, as MspCore does it.
            const std::uint32_t sub = 1 + rng() % 8;
            for (int i = 0; i < numBanks; ++i) {
                banks[i].flashClearStateIds(sub);
                nextState[i] = nextState[i] > sub ? nextState[i] - sub : 1;
                banks[i].markLcsDirty();
            }
        }

        if (rng() % 2 == 0)
            continue;   // let mutations pile up before the next rescan

        for (; lcsDirty; lcsDirty &= lcsDirty - 1) {
            const int i = std::countr_zero(lcsDirty);
            const auto c = banks[i].lcsContribution();
            ASSERT_EQ(c, naiveContribution(banks[i]))
                << "bank " << i << " after op " << op;
            lcsTree.set(i, c ? *c : SctBank::noHotState);
        }
        for (; gateDirty; gateDirty &= gateDirty - 1)
            gateTree.fix(std::countr_zero(gateDirty));

        std::uint32_t lcsMin = SctBank::noHotState;
        std::uint32_t gateMin = SctBank::noHotState;
        for (int i = 0; i < numBanks; ++i) {
            const auto c = naiveContribution(banks[i]);
            lcsMin = std::min(lcsMin, c ? *c : SctBank::noHotState);
            gateMin = std::min(gateMin, naiveGate(banks[i]));
            ASSERT_EQ(*gateTree.leaf(i), naiveGate(banks[i]));
        }
        ASSERT_EQ(lcsTree.min(), lcsMin) << "after op " << op;
        ASSERT_EQ(gateTree.min(), gateMin) << "after op " << op;

        const std::uint32_t gate = naiveGate(banks[rng() % numBanks]);
        const std::uint32_t limit =
            gate == SctBank::noHotState ? gate : gate + rng() % 4;
        std::vector<unsigned> below, naiveBelow;
        gateTree.forEachBelow(limit, [&](unsigned i) { below.push_back(i); });
        for (int i = 0; i < numBanks; ++i)
            if (naiveGate(banks[i]) < limit)
                naiveBelow.push_back(i);
        ASSERT_EQ(below, naiveBelow) << "limit " << limit;
    }
}

TEST(BankMinTree, MatchesANaiveMinimumUnderBatchedLeafWrites)
{
    std::mt19937 rng(7);
    BankMinTree tree;
    std::vector<std::uint32_t> leaves(BankMinTree::leaves, ~0u);
    EXPECT_EQ(tree.min(), ~0u);
    for (int round = 0; round < 5000; ++round) {
        // Write several leaves in place, then fold each one: the order
        // of writes and folds must not matter.
        std::vector<unsigned> touched;
        for (unsigned n = 1 + rng() % 6; n-- > 0;) {
            const unsigned i = rng() % BankMinTree::leaves;
            const std::uint32_t v =
                rng() % 8 == 0 ? ~0u : static_cast<std::uint32_t>(rng() % 500);
            *tree.leaf(i) = v;
            leaves[i] = v;
            touched.push_back(i);
        }
        std::shuffle(touched.begin(), touched.end(), rng);
        for (unsigned i : touched)
            tree.fix(i);
        ASSERT_EQ(tree.min(),
                  *std::min_element(leaves.begin(), leaves.end()));
    }
}

TEST(SctBankDeath, AllocateOnFullBankPanics)
{
    SctBank b = freshBank(2);
    b.allocate(1);
    ASSERT_TRUE(b.full());
    EXPECT_DEATH(b.allocate(2), "full bank");
}

TEST(SctBankDeath, ReleaseTailWithPendingConsumersPanics)
{
    SctBank b = freshBank();
    int s = b.allocate(1);
    b.setUse(s, 3);
    EXPECT_DEATH(b.releaseTail(s), "pending consumers");
}

TEST(SctBankDeath, CommitReleaseOfNotDoneEntryPanics)
{
    SctBank b = freshBank(4);
    int s0 = b.allocate(1);        // never becomes ready
    int s1 = b.allocate(2);
    b.entry(s1).ready = true;
    // Drop the architectural reset entry legally first.
    b.entry(s0).ready = true;
    b.releaseCommitted(2);
    b.entry(s0).ready = false;     // oldest live entry not done again
    EXPECT_DEATH(b.releaseCommitted(4), "not-done");
}

TEST(SctBankDeath, CapacityBelowTwoPanics)
{
    EXPECT_DEATH(SctBank(0, 1), "too small");
}

TEST(SctBankDeath, InvalidSlotAccessPanics)
{
    SctBank b = freshBank();
    EXPECT_DEATH(b.entry(99), "invalid slot");
}

TEST(SctBankDeath, NonMonotonicAllocationPanics)
{
    SctBank b = freshBank();
    b.allocate(5);
    EXPECT_DEATH(b.allocate(4), "non-monotonic");
}

TEST(SctBankDeath, TailMismatchPanics)
{
    SctBank b = freshBank();
    int s1 = b.allocate(1);
    b.allocate(2);
    EXPECT_DEATH(b.releaseTail(s1), "mismatch");
}

} // namespace
} // namespace msp
