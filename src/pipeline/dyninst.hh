/**
 * @file
 * DynInst — the in-flight record of one fetched instruction.
 *
 * One struct serves all three cores; the rename fields are interpreted
 * per-core (flat physical index for baseline/CPR, bank:entry for MSP).
 */

#ifndef MSPLIB_PIPELINE_DYNINST_HH
#define MSPLIB_PIPELINE_DYNINST_HH

#include <cstdint>

#include "bpred/branch_unit.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace msp {

/** Encoded physical register id; -1 when absent. */
using PhysReg = std::int32_t;
constexpr PhysReg noReg = -1;

/** Per-source rename bookkeeping. */
struct SrcInfo
{
    PhysReg phys = noReg;
    bool useBitSet = false;   ///< MSP: RelIQ bit currently set
};

/** An in-flight dynamic instruction. */
struct DynInst
{
    SeqNum seq = invalidSeqNum;
    Addr pc = 0;
    Instruction si;

    // ---- fetch / prediction ----------------------------------------------
    Cycle renameReadyAt = 0;   ///< earliest cycle it may rename
    bool isControl = false;
    bool predTaken = false;
    Addr predNextPc = 0;
    bool lowConfidence = false;
    bool forcedOutcome = false; ///< CPR override: originally mispredicted
    BpSnapshot bpSnap;

    // ---- rename ------------------------------------------------------------
    SrcInfo src1, src2;
    PhysReg dstPhys = noReg;
    PhysReg oldDstPhys = noReg;     ///< superseded mapping (baseline/CPR)
    int iqSlot = -1;

    // MSP state management.
    std::uint32_t stateId = 0;
    std::uint32_t intraId = 0;
    bool createsState = false;
    std::int32_t ownerBank = -1;    ///< bank of the state-owning SCT entry
    std::int32_t ownerIdx = -1;     ///< entry index of the owner

    // CPR.
    int ckptId = -1;

    // ---- status -------------------------------------------------------------
    bool inIq = false;
    bool evaluated = false;     ///< operands read and executed once
    bool issued = false;
    bool executed = false;
    bool squashed = false;
    bool ldqReleased = false;   ///< CPR: load-buffer entry freed early
    Cycle execDoneAt = 0;

    // ---- values -------------------------------------------------------------
    std::uint64_t srcVal1 = 0;
    std::uint64_t srcVal2 = 0;
    std::uint64_t result = 0;

    // ---- memory -------------------------------------------------------------
    Addr effAddr = invalidAddr;
    std::uint64_t storeData = 0;
    int sqIndex = -1;               ///< store-queue handle (stores)

    // ---- control resolution ---------------------------------------------------
    bool taken = false;
    Addr actualNextPc = 0;
    bool mispredicted = false;

    const OpInfo &info() const { return si.info(); }
    bool isLoad() const { return info().isLoad; }
    bool isStore() const { return info().isStore; }
    bool isBranch() const { return info().isCondBranch; }
    bool isHalt() const { return info().isHalt; }
    bool isTrap() const { return info().isTrap; }

    /** Instructions that occupy an IQ entry and execute on an FU. */
    bool
    needsExecution() const
    {
        return info().fu != FuClass::None;
    }
};

} // namespace msp

#endif // MSPLIB_PIPELINE_DYNINST_HH
