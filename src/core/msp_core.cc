#include "core/msp_core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace msp {

namespace {

/** Bank capacity used to emulate the ideal (infinite) MSP. */
constexpr unsigned idealBankCapacity = 1u << 18;

unsigned
bankCapacity(const CoreParams &p)
{
    return p.infiniteBanks ? idealBankCapacity : p.regsPerBank;
}

} // anonymous namespace

MspCore::MspCore(const CoreParams &p, const Program &program,
                 PredictorKind predictor, StatGroup &statGroup)
    : CoreBase(p, program, predictor, statGroup),
      lcs(p.lcsLatency),
      stateM(p.infiniteBanks
                 ? (1u << 24)
                 : static_cast<std::uint32_t>(numLogRegs) * p.regsPerBank),
      intraOverflowStat(statGroup.add("msp.intraIdOverflow",
                                      "5-bit intra-state id saturations")),
      portConflictStat(statGroup.add("msp.portConflicts",
                                     "read-port arbitration losses"))
{
    msp_assert(p.iqSize <= maxIqSlots, "IQ larger than RelIQ rows");
    // Per-cycle hooks are pay-for-use: rename bookkeeping always, the
    // port-mask reset only when arbitration is modelled.
    hookFlags |= kHookRenameCycleBegin;
    if (p.arbitration)
        hookFlags |= kHookCycleBegin;
    banks.reserve(numLogRegs);
    for (int b = 0; b < numLogRegs; ++b) {
        banks.emplace_back(b, bankCapacity(p));
        // Architectural reset: one live physical register per logical
        // register, holding zero, valid for state 0 (the R1.0 / R2.0
        // entries of Fig. 2).
        int slot = banks[b].allocate(0);
        SctEntry &e = banks[b].entry(slot);
        e.ready = true;
        e.value = 0;
    }
    for (int b = 0; b < numLogRegs; ++b)
        banks[b].bindHot(gateTree.leaf(b), &gateDirtyWord, &bankDirtyWord,
                         static_cast<unsigned>(b));
}

// ---------------------------------------------------------------------------
// StateId counter (Sec. 3.6)
// ---------------------------------------------------------------------------

void
MspCore::flashClear(const DynInst &renaming)
{
    const std::uint32_t m = stateM;
    for (auto &bk : banks)
        bk.flashClearStateIds(m);
    // Every lcsContribution() shifted; refresh them all on the next
    // scan. (Gates were republished by flashClearStateIds itself.)
    bankDirtyWord = numLogRegs == 64
                        ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << numLogRegs) - 1;
    for (DynInst *d : window) {
        if (d == &renaming)
            continue;   // mid-rename: StateId assigned just after this
        msp_assert(d->stateId >= m,
                   "flash-clear: in-flight StateId %u below M", d->stateId);
        d->stateId -= m;
    }
    msp_assert(sc >= m, "flash-clear with small SC");
    sc -= m;
    lcs.flashClear(m);
    if (anchorPending > 0) {
        msp_assert(anchorState >= m, "flash-clear: live anchor below M");
        anchorState -= m;
    } else {
        anchorState = 0;
    }
    ++numFlashClears;
}

std::uint32_t
MspCore::bumpState(const DynInst &renaming)
{
    if (sc == 2 * stateM - 1)
        flashClear(renaming);
    return ++sc;
}

// ---------------------------------------------------------------------------
// Per-cycle resets
// ---------------------------------------------------------------------------

void
MspCore::cycleBegin()
{
    if (params.arbitration) {
        readPortUsed.fill(0);
        writePortUsed.fill(0);
    }
}

void
MspCore::renameCycleBegin()
{
    destsThisCycle = 0;
    bankRenamesThisCycle.fill(0);
}

// ---------------------------------------------------------------------------
// Rename (Sec. 3.3)
// ---------------------------------------------------------------------------

bool
MspCore::canRename(const DynInst &d)
{
    if (!d.si.writesReg())
        return true;
    const int b = d.si.dstUnified();
    if (destsThisCycle >= params.maxRenameDests)
        return false;   // width limit, not a head-of-queue stall
    if (bankRenamesThisCycle[b] >= params.maxSameRegRenames)
        return false;   // >2 renames of one logical register this cycle
    if (banks[b].full()) {
        stallReason = StallReason::Registers;
        stallBank = b;
        return false;
    }
    if (sc == 2 * stateM - 1) {
        // About to saturate the SC: the Sb flash-clear needs every live
        // StateId to have its saturation bit set. Extremely old
        // stragglers (possible only after an exception resumed inside a
        // committed state) briefly stall renaming instead.
        const bool safe =
            (anchorPending == 0 || anchorState >= stateM) &&
            (window.empty() || window.front()->stateId >= stateM);
        if (!safe) {
            stallReason = StallReason::Registers;
            stallBank = -1;
            return false;
        }
    }
    return true;
}

void
MspCore::renameOne(DynInst &d)
{
    // Source lookup first: a destination that names the same logical
    // register must not shadow its own source (read-then-shift RenP).
    auto takeSrc = [&](int unified, SrcInfo &src) {
        if (unified < 0)
            return;
        SctBank &bk = banks[unified];
        const int slot = bk.renameSlot();
        msp_assert(slot >= 0, "bank %d has no live mapping", unified);
        src.phys = encode(unified, slot);
        if (d.iqSlot >= 0)
            src.useBitSet = bk.setUse(slot, d.iqSlot);
    };
    takeSrc(d.si.src1Unified(), d.src1);
    takeSrc(d.si.src2Unified(), d.src2);

    if (d.si.writesReg()) {
        const int b = d.si.dstUnified();
        const std::uint32_t s = bumpState(d);
        const int slot = banks[b].allocate(s);
        d.dstPhys = encode(b, slot);
        d.stateId = s;
        d.intraId = 0;
        d.createsState = true;
        curOwnerBank = b;
        curOwnerSlot = slot;
        intraNext = 1;
        ++destsThisCycle;
        ++bankRenamesThisCycle[b];
    } else {
        d.stateId = sc;
        d.intraId = intraNext++;
        if (d.intraId > params.maxIntraStateId)
            ++intraOverflowStat;
        d.ownerBank = curOwnerBank;
        d.ownerIdx = curOwnerSlot;
        if (d.needsExecution()) {
            if (curOwnerBank < 0)
                ++anchorPending;
            else
                banks[curOwnerBank].addPendingOp(curOwnerSlot);
        }
    }
}

// ---------------------------------------------------------------------------
// Issue / register read (banked file, 1R/1W per bank)
// ---------------------------------------------------------------------------

bool
MspCore::operandsReady(const DynInst &d) const
{
    auto ready = [&](const SrcInfo &s) {
        if (s.phys == noReg)
            return true;
        return banks[bankOf(s.phys)].entry(slotOf(s.phys)).ready;
    };
    return ready(d.src1) && ready(d.src2);
}

void
MspCore::initWakeup(DynInst &d)
{
    // No subscription lists needed: the RelIQ use bits set during
    // rename are exactly the consumers to wake when an SCT entry's
    // value arrives. Count the distinct not-yet-ready source entries;
    // writebackDest broadcasts one wake per use-bit holder when the
    // entry's ready bit flips (exactly once per allocation — committed
    // releases stop at done() entries, so a live consumer never
    // outlives its entry).
    unsigned pending = 0;
    auto unready = [&](PhysReg p) {
        return p != noReg && !banks[bankOf(p)].entry(slotOf(p)).ready;
    };
    if (unready(d.src1.phys))
        ++pending;
    if (d.src2.phys != d.src1.phys && unready(d.src2.phys))
        ++pending;
    iq.setPending(d.iqSlot, pending);
}

bool
MspCore::issuePortsAvailable(const DynInst &d)
{
    if (!params.arbitration)
        return true;
    const int b1 = d.src1.phys == noReg ? -1 : bankOf(d.src1.phys);
    const int b2 = d.src2.phys == noReg ? -1 : bankOf(d.src2.phys);
    if (b1 >= 0 && readPortUsed[b1]) {
        ++portConflictStat;
        return false;
    }
    if (b2 >= 0 && b2 != b1 && readPortUsed[b2]) {
        ++portConflictStat;
        return false;
    }
    return true;
}

void
MspCore::readOperands(DynInst &d)
{
    auto read = [&](const SrcInfo &s) -> std::uint64_t {
        if (s.phys == noReg)
            return 0;
        return banks[bankOf(s.phys)].entry(slotOf(s.phys)).value;
    };
    d.srcVal1 = read(d.src1);
    d.srcVal2 = read(d.src2);
}

void
MspCore::onIssued(DynInst &d)
{
    auto consume = [&](SrcInfo &s) {
        if (s.useBitSet) {
            banks[bankOf(s.phys)].clearUse(slotOf(s.phys), d.iqSlot);
            s.useBitSet = false;
        }
    };
    consume(d.src1);
    consume(d.src2);

    if (params.arbitration) {
        if (d.src1.phys != noReg)
            readPortUsed[bankOf(d.src1.phys)] = 1;
        if (d.src2.phys != noReg)
            readPortUsed[bankOf(d.src2.phys)] = 1;
    }
}

bool
MspCore::writebackDest(DynInst &d)
{
    const int b = bankOf(d.dstPhys);
    if (params.arbitration) {
        if (writePortUsed[b])
            return false;   // 1 write port per bank: retry next cycle
        writePortUsed[b] = 1;
    }
    SctEntry &e = banks[b].entry(slotOf(d.dstPhys));
    e.value = d.result;
    e.ready = true;
    banks[b].markLcsDirty();
    // RelIQ wakeup broadcast: every use-bit holder counted this entry
    // as a pending source at insert (the ready bit was false then and
    // flips exactly once, here).
    for (unsigned w = 0; w < maxIqSlots / 64; ++w) {
        std::uint64_t bits = e.useBits[w];
        while (bits) {
            const int iqSlot =
                static_cast<int>(w * 64) + std::countr_zero(bits);
            bits &= bits - 1;
            iq.wakeSrc(iqSlot);
        }
    }
    return true;
}

void
MspCore::ownerPendingDec(const DynInst &d)
{
    if (d.ownerBank < 0) {
        msp_assert(anchorPending > 0, "anchorPending underflow");
        --anchorPending;
    } else {
        SctEntry &e = banks[d.ownerBank].entry(d.ownerIdx);
        msp_assert(e.pendingOps > 0, "pendingOps underflow (bank %d)",
                   static_cast<int>(d.ownerBank));
        --e.pendingOps;
        banks[d.ownerBank].markLcsDirty();
    }
}

void
MspCore::onExecuted(DynInst &d)
{
    if (!d.createsState && d.needsExecution())
        ownerPendingDec(d);
}

// ---------------------------------------------------------------------------
// Commit (LCS, Sec. 3.2.2)
// ---------------------------------------------------------------------------

std::uint32_t
MspCore::computeRawLcs()
{
    // The current state is still "open": instructions in the front end
    // may yet join it (Fig. 3 tracks pre-rename instructions for this
    // reason). It may only commit once fetch has drained.
    std::uint32_t m =
        (fetchStopped && fetchQ.empty()) ? sc + 1 : sc;
    if (anchorPending > 0)
        m = std::min(m, anchorState);
    // Refresh only the banks whose contribution changed since the last
    // scan, then read the tree's root. Live StateIds are far below
    // noHotState, so contribution-less banks drop out of the minimum
    // without a branch.
    std::uint64_t dirty = bankDirtyWord;
    bankDirtyWord = 0;
    if (dirty)
        ++pathEvents.lcsRecompute;
    while (dirty) {
        const int b = std::countr_zero(dirty);
        dirty &= dirty - 1;
        ++pathEvents.lcsDirtyBank;
        const auto c = banks[b].lcsContribution();
        lcsTree.set(b, c ? *c : SctBank::noHotState);
    }
    return std::min(m, lcsTree.min());
}

void
MspCore::foldGates()
{
    for (std::uint64_t dirty = gateDirtyWord; dirty; dirty &= dirty - 1)
        gateTree.fix(std::countr_zero(dirty));
    gateDirtyWord = 0;
}

void
MspCore::doCommit()
{
    const std::uint32_t eff = lcs.advance(computeRawLcs());

    // Commit every state older than LCS (possibly many per cycle).
    while (!window.empty() && !haltCommitted) {
        DynInst &h = *window.front();
        if (h.stateId >= eff)
            break;
        if (h.isTrap()) {
            takeException();
            break;
        }
        msp_assert(h.executed,
                   "MSP commit of unexecuted head (state %u, lcs %u)",
                   h.stateId, eff);
        commitOne();
    }

    // Broadcast LCS: release superseded physical registers. The limit
    // is additionally bounded by what actually retired from the window:
    // StateId < LCS means *committable*, and an exception taken between
    // two committable states must still find the older mapping alive.
    std::uint32_t releaseLimit = lcs.effective();
    if (!window.empty())
        releaseLimit = std::min(releaseLimit, window.front()->stateId);
    // The gate tree's leaves mirror each bank's releaseCommitted()
    // early-out (the successor StateId of the head entry), so the common
    // all-banks-idle cycle reads only the root. The gates the releases
    // republish are folded in at the next cycle's commit, before any
    // other read of the tree.
    foldGates();
    gateTree.forEachBelow(releaseLimit, [&](unsigned b) {
        ++pathEvents.sctGateRelease;
        banks[b].releaseCommitted(releaseLimit);
    });
}

// ---------------------------------------------------------------------------
// Recovery (Sec. 3.5)
// ---------------------------------------------------------------------------

void
MspCore::recoverBranch(DynInst &branch)
{
    // Precise: the Recovery StateId is the branch's own state; only
    // strictly younger work (greater StateId, or equal StateId with a
    // greater intra-state id — i.e., greater seq) is squashed.
    squashAndRedirect(branch.seq, branch.seq, branch.actualNextPc, 0,
                      false, branch);
}

void
MspCore::onSquashInst(DynInst &d)
{
    auto unconsume = [&](SrcInfo &s) {
        if (s.useBitSet) {
            banks[bankOf(s.phys)].clearUse(slotOf(s.phys), d.iqSlot);
            s.useBitSet = false;
        }
    };
    unconsume(d.src1);
    unconsume(d.src2);

    if (!d.createsState && d.needsExecution() && !d.executed)
        ownerPendingDec(d);

    if (d.createsState) {
        // Recovery release: StateId > Recovery StateId. Squash runs
        // youngest-to-oldest, so this is always the bank tail.
        banks[bankOf(d.dstPhys)].releaseTail(slotOf(d.dstPhys));
    }
}

void
MspCore::afterSquash(const DynInst &trigger, bool exception)
{
    sc = trigger.stateId;
    if (exception) {
        // The trap was committed; fetch resumes inside an
        // already-committed state. Re-anchor pending tracking there.
        intraNext = trigger.intraId;
        curOwnerBank = -1;
        curOwnerSlot = -1;
        msp_assert(anchorPending == 0,
                   "exception with a live state-0 anchor");
        anchorState = sc;
        lcs.clamp(sc);
    } else if (trigger.createsState) {
        intraNext = 1;
        curOwnerBank = bankOf(trigger.dstPhys);
        curOwnerSlot = slotOf(trigger.dstPhys);
    } else {
        intraNext = trigger.intraId + 1;
        curOwnerBank = trigger.ownerBank;
        curOwnerSlot = trigger.ownerIdx;
    }
    lcs.flush();
}

void
MspCore::warmArchState(const ArchState &warm)
{
    // Reset state: one live, ready entry per bank (the architectural
    // mapping). Only its value changes — readiness and StateIds are
    // untouched, so no LCS invalidation is needed.
    for (int b = 0; b < numLogRegs; ++b) {
        SctEntry &e = banks[b].entry(banks[b].renameSlot());
        e.value = b < numIntRegs ? warm.readInt(b)
                                 : warm.readFp(b - numIntRegs);
    }
}

} // namespace msp
