/**
 * @file
 * A fixed stand-in for simulator work, timed next to the real thing so
 * that host speed can be divided out of the benchmark's timings.
 *
 * The VM this benchmark runs on changes speed by up to 2x within
 * seconds and over minutes, with no steal time: the CPU itself runs
 * slower. Simple loops (integer ALU work, an L2-resident table, a DRAM
 * pointer chase, a bytecode interpreter) slow down by other factors than
 * the simulator does, so dividing by them left most of the spread. Work
 * shaped like a simulator's — hundreds of distinct per-instruction
 * handlers stepping a program while a set-associative cache model and a
 * tagged branch predictor follow it — slows down with the simulator.
 * This is such work, written here, apart from msplib, so that no change
 * to the simulator changes it.
 */

#ifndef PERFBENCH_CALIB_HH
#define PERFBENCH_CALIB_HH

#include <cstdint>
#include <vector>

namespace perfbench {

class Calibrator
{
  public:
    Calibrator();

    /**
     * Run one slice: reset the model to its cold state and step the
     * fixed program a fixed number of times. Every slice does the same
     * work. @return host seconds the slice took.
     */
    double slice();

    /**
     * Host seconds of one slice on the machine the benchmark's timings
     * are scaled to (see README.md). A timing t measured beside slices
     * averaging s seconds reads t * nominalSliceSec / s.
     */
    static constexpr double nominalSliceSec = 0.010;

    struct Inst
    {
        std::uint16_t handler;
        std::uint8_t rd, rs1, rs2;
        std::int32_t imm;
    };

  private:
    struct Way
    {
        std::uint64_t tag;
        std::uint64_t stamp;
    };

    struct Cache
    {
        unsigned sets = 0, ways = 0;
        std::vector<Way> lines;
        bool access(std::uint64_t addr, std::uint64_t stamp);
    };

    struct Tagged
    {
        std::uint16_t tag;
        std::int8_t ctr;
        std::uint8_t useful;
    };

    bool predict(std::uint64_t pc, bool taken);
    void reset();

    std::vector<Inst> code;
    std::vector<std::uint64_t> initMem;
    std::vector<std::uint64_t> mem;
    Cache l1i, l1d, l2;
    std::vector<std::int8_t> bimodal;
    std::vector<std::vector<Tagged>> tagged;
    std::uint64_t hist = 0;
    std::uint64_t sink = 0;
};

} // namespace perfbench

#endif // PERFBENCH_CALIB_HH
