/**
 * @file
 * Unit tests for the hierarchical store queue: program-order
 * allocation, forwarding semantics (including the conservative
 * unknown-address rule), L2-region search latency, drain and squash.
 */

#include <gtest/gtest.h>

#include "lsq/store_queue.hh"

namespace msp {
namespace {

TEST(StoreQueue, ForwardFromYoungestOlderMatch)
{
    HierStoreQueue sq(4, 8, false);
    sq.allocate(1);
    sq.allocate(2);
    sq.resolve(1, 0x100, 11);
    sq.resolve(2, 0x100, 22);
    ForwardResult r = sq.probe(3, 0x100);
    EXPECT_EQ(r.kind, ForwardResult::Kind::Forward);
    EXPECT_EQ(r.data, 22u);   // youngest older store wins
}

TEST(StoreQueue, LoadSeesOnlyOlderStores)
{
    HierStoreQueue sq(4, 8, false);
    sq.allocate(5);
    sq.resolve(5, 0x80, 7);
    ForwardResult r = sq.probe(4, 0x80);   // load older than the store
    EXPECT_EQ(r.kind, ForwardResult::Kind::None);
}

TEST(StoreQueue, UnknownOlderAddressBlocksLoads)
{
    HierStoreQueue sq(4, 8, false);
    sq.allocate(1);                      // address not yet resolved
    ForwardResult r = sq.probe(2, 0x40);
    EXPECT_EQ(r.kind, ForwardResult::Kind::Unknown);
}

TEST(StoreQueue, BlockedProbesNameTheStoreThatBlocked)
{
    // The issue stage parks a blocked load on the store a probe names,
    // so the name must be the one store whose resolve can unblock it.
    HierStoreQueue sq(4, 8, false);
    for (SeqNum s = 1; s <= 4; ++s)
        sq.allocate(s);
    sq.resolve(4, 0x200, 44);

    // Unknown: the youngest older store with an unknown address.
    ForwardResult r = sq.probe(5, 0x100);
    EXPECT_EQ(r.kind, ForwardResult::Kind::Unknown);
    EXPECT_EQ(r.store, 3u);
    r = sq.probe(3, 0x100);   // stores 1 and 2 are older than seq 3
    EXPECT_EQ(r.kind, ForwardResult::Kind::Unknown);
    EXPECT_EQ(r.store, 2u);

    // Stall: the youngest older matching store, data still unknown.
    sq.resolveAddress(3, 0x100);
    r = sq.probe(5, 0x100);
    EXPECT_EQ(r.kind, ForwardResult::Kind::Stall);
    EXPECT_EQ(r.store, 3u);

    // Its data arriving turns the stall into a forward from it.
    sq.resolve(3, 0x100, 33);
    r = sq.probe(5, 0x100);
    EXPECT_EQ(r.kind, ForwardResult::Kind::Forward);
    EXPECT_EQ(r.store, 3u);
    EXPECT_EQ(r.data, 33u);

    // A different address walks on to the next unresolved store.
    r = sq.probe(5, 0x300);
    EXPECT_EQ(r.kind, ForwardResult::Kind::Unknown);
    EXPECT_EQ(r.store, 2u);

    // None names no store.
    sq.resolve(1, 0x400, 11);
    sq.resolve(2, 0x500, 22);
    r = sq.probe(5, 0x300);
    EXPECT_EQ(r.kind, ForwardResult::Kind::None);
    EXPECT_EQ(r.store, invalidSeqNum);
}

TEST(StoreQueue, L2RegionForwardCostsExtraLatency)
{
    HierStoreQueue sq(2, 8, false, 4);
    for (SeqNum s = 1; s <= 5; ++s) {
        sq.allocate(s);
        sq.resolve(s, 0x1000 + 64 * s, s);
    }
    // Store 1 is now outside the youngest-2 (L1) region.
    ForwardResult far = sq.probe(10, 0x1000 + 64);
    EXPECT_EQ(far.kind, ForwardResult::Kind::Forward);
    EXPECT_EQ(far.extraLatency, 4u);
    // Store 5 is in the L1 region.
    ForwardResult near = sq.probe(10, 0x1000 + 64 * 5);
    EXPECT_EQ(near.extraLatency, 0u);
}

TEST(StoreQueue, DrainInOrder)
{
    HierStoreQueue sq(4, 4, false);
    sq.allocate(1);
    sq.allocate(2);
    sq.resolve(1, 0x8, 1);
    sq.resolve(2, 0x10, 2);
    ASSERT_NE(sq.oldest(), nullptr);
    EXPECT_EQ(sq.oldest()->seq, 1u);
    sq.drainOldest(1);
    EXPECT_EQ(sq.oldest()->seq, 2u);
    sq.drainOldest(2);
    EXPECT_TRUE(sq.empty());
}

TEST(StoreQueue, SquashRemovesYoungerAndReportsL2Scan)
{
    HierStoreQueue sq(2, 8, false);
    for (SeqNum s = 1; s <= 6; ++s)
        sq.allocate(s);
    // Entries 1..4 are in the L2 region (6 - l1Cap 2).
    const std::size_t scanned = sq.squashAfter(2);
    EXPECT_EQ(sq.size(), 2u);
    EXPECT_EQ(scanned, 4u);   // four squashed entries sat in L2 space
}

TEST(StoreQueue, CapacityAndInfiniteMode)
{
    HierStoreQueue sq(1, 1, false);
    sq.allocate(1);
    sq.allocate(2);
    EXPECT_FALSE(sq.canAllocate());

    HierStoreQueue inf(1, 1, true);
    for (SeqNum s = 1; s <= 100; ++s)
        inf.allocate(s);
    EXPECT_TRUE(inf.canAllocate());
}

// ---- full-queue behaviour --------------------------------------------------

TEST(StoreQueue, FullQueueRecoversThroughDrain)
{
    HierStoreQueue sq(2, 2, false);
    for (SeqNum s = 1; s <= 4; ++s) {
        sq.allocate(s);
        sq.resolve(s, 0x100 + 8 * s, s);
    }
    EXPECT_FALSE(sq.canAllocate());
    sq.drainOldest(1);
    EXPECT_TRUE(sq.canAllocate());
    sq.allocate(5);
    EXPECT_FALSE(sq.canAllocate());
}

TEST(StoreQueue, FullQueueRecoversThroughSquash)
{
    HierStoreQueue sq(2, 2, false);
    for (SeqNum s = 1; s <= 4; ++s)
        sq.allocate(s);
    EXPECT_FALSE(sq.canAllocate());
    sq.squashAfter(1);
    EXPECT_EQ(sq.size(), 1u);
    EXPECT_TRUE(sq.canAllocate());
    // Re-filling after the squash keeps program order from seq 2 on.
    sq.allocate(6);
    sq.allocate(7);
    sq.allocate(8);
    EXPECT_FALSE(sq.canAllocate());
}

TEST(StoreQueue, SquashOfEverythingLeavesAnEmptyReusableQueue)
{
    HierStoreQueue sq(1, 1, false);
    sq.allocate(3);
    sq.allocate(4);
    sq.squashAfter(0);
    EXPECT_TRUE(sq.empty());
    EXPECT_TRUE(sq.canAllocate());
    sq.allocate(1);   // older seq is legal again: the queue is empty
    EXPECT_EQ(sq.oldest()->seq, 1u);
}

TEST(StoreQueueDeath, AllocatePastCapacityPanics)
{
    HierStoreQueue sq(1, 1, false);
    sq.allocate(1);
    sq.allocate(2);
    EXPECT_DEATH(sq.allocate(3), "overflow");
}

// ---- forwarding granularity and partial overlap ----------------------------

TEST(StoreQueue, AdjacentWordsNeverForward)
{
    // The ISA is word-granular (every effective address is 8-byte
    // aligned), so "partial overlap" means adjacent-word accesses —
    // which must miss the queue and go to the cache, not forward.
    HierStoreQueue sq(4, 4, false);
    sq.allocate(1);
    sq.resolve(1, 0x100, 77);
    EXPECT_EQ(sq.probe(2, 0x0f8).kind, ForwardResult::Kind::None);
    EXPECT_EQ(sq.probe(2, 0x108).kind, ForwardResult::Kind::None);
    EXPECT_EQ(sq.probe(2, 0x100).kind, ForwardResult::Kind::Forward);
}

TEST(StoreQueue, YoungerResolvedMatchMasksOlderUnknown)
{
    // The youngest-first walk stops at the first *matching* resolved
    // store; an older unresolved address only blocks loads that reach
    // it. A load covered by a younger match forwards immediately.
    HierStoreQueue sq(4, 4, false);
    sq.allocate(1);                 // address still unknown
    sq.allocate(2);
    sq.resolve(2, 0x40, 22);
    ForwardResult covered = sq.probe(3, 0x40);
    EXPECT_EQ(covered.kind, ForwardResult::Kind::Forward);
    EXPECT_EQ(covered.data, 22u);
    // A different word walks past store 2 and hits the unknown.
    EXPECT_EQ(sq.probe(3, 0x48).kind, ForwardResult::Kind::Unknown);
}

TEST(StoreQueueDeath, OutOfOrderAllocationPanics)
{
    HierStoreQueue sq(4, 4, false);
    sq.allocate(5);
    EXPECT_DEATH(sq.allocate(3), "program order");
}

TEST(StoreQueueDeath, DrainUnresolvedPanics)
{
    HierStoreQueue sq(4, 4, false);
    sq.allocate(1);
    EXPECT_DEATH(sq.drainOldest(1), "unresolved");
}

} // namespace
} // namespace msp
