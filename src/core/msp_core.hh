/**
 * @file
 * MspCore — the Multi-State Processor (the paper's contribution).
 *
 * Distributed register and state management: one SctBank per logical
 * register, a global StateId counter with the Sec. 3.6 saturation-bit
 * overflow scheme, the LCS commit mechanism, RelIQ use-bit dependence
 * tracking, banked-register-file port arbitration, and precise
 * misprediction/exception recovery by Recovery-StateId broadcast.
 *
 * The commit stage keeps the per-cycle LCS work proportional to what
 * changed. The LCS is the minimum of the banks' SCT contributions, and
 * the commit-release broadcast only reaches banks whose release gate
 * (the head's successor StateId) lies below the release limit. Both are
 * BankMinTree minima over one leaf per bank (the comparator tree of
 * Sec. 3.2.2): a bank whose contribution was invalidated is rescanned
 * from its cursor and its leaf re-folded, a bank whose gate moved has
 * its leaf re-folded, and an idle cycle reads two roots.
 */

#ifndef MSPLIB_CORE_MSP_CORE_HH
#define MSPLIB_CORE_MSP_CORE_HH

#include <array>
#include <vector>

#include "core/lcs_unit.hh"
#include "core/sct.hh"
#include "pipeline/core_base.hh"

namespace msp {

/** The Multi-State Processor core. */
class MspCore : public CoreBase
{
  public:
    MspCore(const CoreParams &params, const Program &program,
            PredictorKind predictor, StatGroup &stats);

    /** Effective LCS this cycle (for tests). */
    std::uint32_t effectiveLcs() const { return lcs.effective(); }

    /** Current StateId counter (for tests). */
    std::uint32_t stateCounter() const { return sc; }

    /** Bank accessor (for tests). */
    const SctBank &bank(int b) const { return banks[b]; }

    /** Number of Sb flash-clears performed (for tests). */
    std::uint64_t flashClears() const { return numFlashClears; }

  protected:
    void cycleBegin() override;
    void renameCycleBegin() override;
    bool canRename(const DynInst &d) override;
    void renameOne(DynInst &d) override;
    bool operandsReady(const DynInst &d) const override;
    void initWakeup(DynInst &d) override;
    bool issuePortsAvailable(const DynInst &d) override;
    void readOperands(DynInst &d) override;
    void onIssued(DynInst &d) override;
    bool writebackDest(DynInst &d) override;
    void onExecuted(DynInst &d) override;
    void doCommit() override;
    void recoverBranch(DynInst &branch) override;
    void onSquashInst(DynInst &d) override;
    void afterSquash(const DynInst &trigger, bool exception) override;
    void warmArchState(const ArchState &warm) override;

  private:
    static constexpr int slotShift = 20;

    static PhysReg
    encode(int bankIdx, int slot)
    {
        return (bankIdx << slotShift) | slot;
    }

    static int bankOf(PhysReg p) { return p >> slotShift; }
    static int slotOf(PhysReg p) { return p & ((1 << slotShift) - 1); }

    /** Advance the StateId counter, flash-clearing on saturation.
     *  @p renaming is the instruction being renamed (already in the
     *  window but without a StateId yet; exempt from the sweep). */
    std::uint32_t bumpState(const DynInst &renaming);

    /** Subtract M from every live StateId (Sec. 3.6). */
    void flashClear(const DynInst &renaming);

    /** Raw LCS minimum over all banks plus the state-0 anchor. */
    std::uint32_t computeRawLcs();

    /** Decrement the pending-operation count of @p d's owning state. */
    void ownerPendingDec(const DynInst &d);

    std::vector<SctBank> banks;
    LcsUnit lcs;

    /** Fold the gates published since the last fold into gateTree. */
    void foldGates();

    // Commit-path minima over per-bank state (see SctBank::bindHot).
    // lcsTree leaves are refreshed lazily: bankDirtyWord has one bit per
    // bank whose cached lcsContribution() was invalidated since the last
    // computeRawLcs(). Banks publish their release gates straight into
    // the gateTree leaves and flag them in gateDirtyWord.
    static_assert(numLogRegs <= BankMinTree::leaves,
                  "bank dirty bits held in one word");
    BankMinTree lcsTree;
    BankMinTree gateTree;
    std::uint64_t bankDirtyWord = 0;
    std::uint64_t gateDirtyWord = 0;

    std::uint32_t sc = 0;          ///< State Counter (SC)
    std::uint32_t stateM;          ///< M: total physical registers
    std::uint32_t intraNext = 1;   ///< next intra-state id in current state
    std::uint32_t anchorPending = 0; ///< unexecuted anchor-state followers
    std::uint32_t anchorState = 0;   ///< state tracked by the anchor

    /** Owner entry of the current state (-1 bank = state-0 anchor). */
    int curOwnerBank = -1;
    int curOwnerSlot = -1;

    // Per-cycle register-file port arbitration state.
    std::array<std::uint8_t, numLogRegs> readPortUsed{};
    std::array<std::uint8_t, numLogRegs> writePortUsed{};

    // Per-cycle rename limits.
    unsigned destsThisCycle = 0;
    std::array<std::uint8_t, numLogRegs> bankRenamesThisCycle{};

    std::uint64_t numFlashClears = 0;
    Stat &intraOverflowStat;
    Stat &portConflictStat;
};

} // namespace msp

#endif // MSPLIB_CORE_MSP_CORE_HH
