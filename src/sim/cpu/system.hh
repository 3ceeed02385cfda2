/**
 * @file
 * Full-system timing simulation: 8 cores x 4 threads over the MESI
 * hierarchy, executing one synthetic application.
 */

#ifndef ARCHSIM_CPU_SYSTEM_HH
#define ARCHSIM_CPU_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/cache/coherence.hh"
#include "sim/cpu/core.hh"
#include "sim/workload/npb.hh"
#include "sim/workload/trace_file.hh"

namespace archsim {

class EpochRecorder;

/**
 * Watchdog budgets (and the fault-injection hook) of one run.  All
 * limits default to "unlimited"; a System with default limits runs
 * byte-identically to one without the parameter.
 *
 * The cycle budget trips at exactly simulated cycle maxCycles if the
 * run is still live then (one that ends at maxCycles fits) — a pure
 * function of the deterministic simulation, so a sweep converts
 * runaway runs into TimedOut results at the same cycle for any
 * worker count.  The wall-clock budget is polled every few thousand
 * simulated cycles and is inherently machine-dependent; it exists to
 * bound damage, not to be reproducible.
 */
struct RunLimits {
    Cycle maxCycles = 0;         ///< 0 = unlimited; trips SimTimeout
    std::uint64_t maxWallMs = 0; ///< 0 = unlimited; trips SimTimeout

    /**
     * Deterministic fault injection (sim/resilience.hh): at cycle
     * faultCycle, exactly, the run raises InjectedFault (or SimTimeout
     * when faultIsTimeout), as a model bug or a hung run would at that
     * point.  0 disables.
     */
    Cycle faultCycle = 0;
    bool faultIsTimeout = false;
};

/** Aggregated results of one simulation run. */
struct SimStats {
    std::string workload;
    std::string config;
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;
    double avgReadLatency = 0.0; ///< CPU cycles

    // Execution-cycle breakdown, normalized fractions (Figure 4(b)).
    double fInstruction = 0.0;
    double fL2 = 0.0;
    double fL3 = 0.0;
    double fMemory = 0.0;
    double fBarrier = 0.0;
    double fLock = 0.0;

    HierCounters hier;
    DramCounters dram;

    // Sparse-directory occupancy/traffic (zero unless the run used
    // one; see sim/cache/sparsedir.hh).  Surfaced as sim.dir.* in the
    // obs registry, never in the golden-pinned study exports.
    std::uint64_t dirLive = 0;     ///< entries live at end of run
    std::uint64_t dirCapacity = 0; ///< sets x assoc
    std::uint64_t dirPeakLive = 0;
    std::uint64_t dirEvictions = 0;
    std::uint64_t dirEvictionInvals = 0;
    std::uint64_t dirOverflows = 0;
    std::uint64_t dirDemotions = 0;
    /** 1 when DirectoryMode::Auto resolved to sparse (>16 cores). */
    std::uint64_t dirImplicitSparse = 0;

    double memPoweredDownFraction = 0.0;
    std::uint64_t llcReads = 0;
    std::uint64_t llcWrites = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t llcPageHits = 0;   ///< page-mode operation only
    std::uint64_t llcPageMisses = 0;

    /** Wall-clock execution time at the CPU clock. */
    double seconds(double clock_hz) const { return cycles / clock_hz; }
};

/** The simulated machine. */
class System
{
  public:
    /**
     * @param hp              hierarchy parameters (from CACTI-D)
     * @param workload        synthetic application
     * @param inst_per_thread instruction budget per hardware thread
     * @param n_cores         cores (8 in the study)
     * @param threads_per_core hardware threads per core (4)
     */
    System(const HierarchyParams &hp, const WorkloadParams &workload,
           std::uint64_t inst_per_thread, int n_cores = 8,
           int threads_per_core = 4);

    /**
     * Replay a recorded trace (one InstSource per hardware thread;
     * the trace must cover n_cores * threads_per_core threads).
     */
    System(const HierarchyParams &hp, const TraceFile &trace,
           std::uint64_t inst_per_thread, int n_cores = 8,
           int threads_per_core = 4);

    /**
     * Run to completion and return the statistics.  When @p rec is
     * given, counter deltas are sampled into it at every epoch
     * boundary (see sim/metrics.hh).
     *
     * Event semantics: every scheduled event fires at its exact
     * cycle, even when the clock jumps over it because no core can
     * issue.  Epoch boundaries close at multiples of the interval,
     * DRAM refreshes and power-down entries fire when due (an event
     * strictly before a boundary lands in that boundary's epoch, one
     * at the boundary cycle in the next), and the watchdogs of
     * @p limits trip at their threshold cycle.  The output is thus a
     * pure function of simulated time, not of which cycles the loop
     * visits.  Cores are stepped off a ready-queue instead of being
     * scanned every cycle; observables are byte-identical to
     * runReference().  A System can be run once; call either run()
     * or runReference(), not both.
     *
     * @p limits arms the watchdogs: the run raises SimTimeout when a
     * budget expires and InjectedFault at a fault-injection site (see
     * RunLimits); a deadlock raises SimDeadlock with the workload,
     * cycle and per-core wait states.  All three derive from
     * std::runtime_error.
     */
    SimStats run(EpochRecorder *rec = nullptr,
                 const RunLimits &limits = {});

    /**
     * Reference implementation: the original scan-every-core cycle
     * loop, which fires due events on every visited cycle instead of
     * caching the next deadline.  Kept as the executable
     * specification that run() is tested and benchmarked against.
     */
    SimStats runReference(EpochRecorder *rec = nullptr,
                          const RunLimits &limits = {});

    CacheHierarchy &hierarchy() { return hier_; }

    /**
     * Attach an event trace ring before run(): memory requests, MESI
     * transitions, DRAM commands and sync stalls are recorded with
     * simulated-cycle timestamps.  The stream is a pure function of
     * the (deterministic) simulation.
     */
    void
    setTrace(obs::TraceBuffer *trace)
    {
        trace_ = trace;
        hier_.setTrace(trace);
        sync_->setTrace(trace);
    }

    /**
     * Attach a latency recorder before run(): demand-access latencies
     * by serving level plus LLC/DRAM queueing detail, in simulated
     * cycles.  Like the trace, a pure function of the simulation —
     * byte-identical for any --jobs.
     */
    void
    setLatency(LatencyStats *lat)
    {
        hier_.setLatency(lat);
    }

  private:
    /** Sum of retired instructions over all threads. */
    std::uint64_t totalInstructions() const;

    /**
     * Raise SimDeadlock at @p cycle with actionable context: the
     * workload name and how many threads of each core are waiting at
     * the barrier, queued on the lock, retired, or otherwise blocked.
     */
    [[noreturn]] void throwDeadlock(Cycle cycle) const;

    /**
     * Close every epoch boundary and fire every DRAM event at or
     * before @p now, in time order (an event strictly before a
     * boundary lands in that boundary's epoch; an event at the
     * boundary cycle lands in the next one).
     * @return the next epoch boundary (~0 without a recorder)
     */
    Cycle advanceEventsTo(Cycle now, EpochRecorder *rec);

    /** Close the run at @p end and assemble the aggregate statistics. */
    SimStats finalize(Cycle end, EpochRecorder *rec);

    CacheHierarchy hier_;
    std::vector<std::unique_ptr<Thread>> threads_;
    std::vector<Core> cores_;
    std::unique_ptr<SyncState> sync_;
    std::string workloadName_;
    obs::TraceBuffer *trace_ = nullptr;
};

} // namespace archsim

#endif // ARCHSIM_CPU_SYSTEM_HH
