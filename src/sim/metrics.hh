/**
 * @file
 * Per-epoch metrics sampling for the timing simulation.
 *
 * An EpochRecorder attached to System::run() snapshots the hierarchy,
 * LLC and DRAM counters every time the simulated clock crosses an
 * epoch boundary, producing a stream of EpochSample counter deltas.
 * deriveEpochMetrics() then turns the raw deltas into the observable
 * quantities the study plots over time: IPC, L2/L3 MPKI, DRAM
 * bandwidth, memory-hierarchy power (through the section-4.3 power
 * model) and stack temperature (through the section-4.3 thermal
 * model).
 *
 * Epochs close at their exact boundary cycles (multiples of the
 * interval), even when the simulated clock jumps over one, so every
 * epoch but the final partial one is exactly interval cycles long;
 * begin/end cycles are recorded so every rate normalizes by the actual
 * span.  The stream is a pure function of the (deterministic,
 * single-threaded) simulation, so it is bit-identical across
 * StudyRunner worker-pool sizes.
 */

#ifndef ARCHSIM_METRICS_HH
#define ARCHSIM_METRICS_HH

#include <cstdint>
#include <vector>

#include "sim/cache/coherence.hh"
#include "sim/dram/dram.hh"
#include "sim/thermal/thermal.hh"

namespace archsim {

struct PowerParams;

/** One sampling interval: raw counter deltas + derived metrics. */
struct EpochSample {
    int index = 0;
    Cycle beginCycle = 0;
    Cycle endCycle = 0;

    // --- Raw deltas over [beginCycle, endCycle).
    std::uint64_t instructions = 0;
    std::uint64_t l1Reads = 0, l1Writes = 0;
    std::uint64_t l2Reads = 0, l2Writes = 0, l2Misses = 0;
    std::uint64_t xbarTransfers = 0;
    std::uint64_t llcReads = 0, llcWrites = 0;
    std::uint64_t llcHits = 0, llcMisses = 0;
    std::uint64_t dramActivates = 0, dramReads = 0, dramWrites = 0;
    std::uint64_t dramRowHits = 0, dramBusBytes = 0;
    double poweredDownFraction = 0.0;

    // --- Derived by deriveEpochMetrics().
    double ipc = 0.0;
    double l2Mpki = 0.0;          ///< L2 misses per kilo-instruction
    double l3Mpki = 0.0;          ///< LLC misses per kilo-instruction
    double dramBandwidthGBs = 0.0;
    double memHierPowerW = 0.0;
    double stackTempK = 0.0;

    Cycle cycles() const { return endCycle - beginCycle; }
};

/**
 * Collects the per-epoch counter deltas during System::run().  The
 * recorder differences cumulative totals handed to it at each epoch
 * close, so the caller never resets simulator counters.
 */
class EpochRecorder
{
  public:
    /** @param interval epoch length in CPU cycles (> 0). */
    explicit EpochRecorder(Cycle interval);

    Cycle interval() const { return interval_; }

    /** Bind to the simulated machine (called once by System::run). */
    void start(const HierarchyParams &hp);

    /** The boundary cycle the current epoch closes at. */
    Cycle nextBoundary() const { return epochStart_ + interval_; }

    /**
     * Close the current epoch at @p now with the given cumulative
     * totals.  Empty epochs (now == epoch start) are skipped.
     */
    void close(Cycle now, std::uint64_t instructions,
               const HierCounters &hier, const Llc *llc,
               const DramCounters &dram);

    const std::vector<EpochSample> &samples() const { return samples_; }
    std::vector<EpochSample> take() { return std::move(samples_); }

  private:
    Cycle interval_;
    Cycle epochStart_ = 0;
    int nChannels_ = 1;
    EpochSample prev_; ///< cumulative totals at the last close
    std::uint64_t prevPowerDownCycles_ = 0;
    std::vector<EpochSample> samples_;
};

/** Inputs for turning raw epoch deltas into derived metrics. */
struct EpochDeriveParams {
    /** Per-bank L3 standby power (leakage + refresh), W. */
    double l3BankStandbyPowerW = 0.0;
    /** Solve the stack temperature per epoch (closed form). */
    bool computeThermal = true;
    ThermalParams thermal;
};

/**
 * Fill in ipc / MPKI / bandwidth / power / temperature for every
 * sample, using the study's power and thermal models.
 */
void deriveEpochMetrics(std::vector<EpochSample> &samples,
                        const PowerParams &power,
                        const EpochDeriveParams &dp);

} // namespace archsim

#endif // ARCHSIM_METRICS_HH
