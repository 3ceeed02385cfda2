/**
 * @file
 * Main-memory model: DDR channels, ranks and banks with the timing
 * interface of paper section 2.3.4 (ACTIVATE / READ / WRITE /
 * PRECHARGE, tRCD / CL / tRP / tRC / tRRD, burst transfers, multibank
 * interleaving) under an open- or closed-page policy.
 */

#ifndef ARCHSIM_DRAM_DRAM_HH
#define ARCHSIM_DRAM_DRAM_HH

#include <cstdint>
#include <vector>

#include "sim/common.hh"

namespace archsim {

struct LatencyStats;

/** Page management policy (paper section 2.3.4). */
enum class PagePolicy : std::uint8_t { Open, Closed };

/** Channel/device timing in CPU cycles (from CACTI-D, quantized). */
struct DramParams {
    int nChannels = 2;
    int banksPerChannel = 8; ///< one single-ranked DIMM per channel
    int lineBytes = 64;
    std::uint64_t pageBytes = 16384; ///< rank page (8 chips x 2KB)
    Cycle tRcd = 30;
    Cycle tCas = 30;
    Cycle tRp = 22;
    Cycle tRas = 68;
    Cycle tRrd = 12;   ///< multibank interleave limit
    Cycle tBurst = 5;  ///< 64B over the 64-bit channel
    Cycle tController = 8; ///< controller + queue pipeline
    PagePolicy policy = PagePolicy::Open;

    // --- Power-down modes (the paper's future-work suggestion): after
    // powerDownAfter idle cycles a rank drops CKE and pays
    // tPowerDownExit on the next access.
    bool powerDown = false;
    Cycle powerDownAfter = 60; ///< 30 ns idle timer at 2 GHz
    Cycle tPowerDownExit = 12;

    // --- Refresh: every tRefi cycles each rank performs an all-bank
    // refresh that closes every open row and occupies the banks for
    // tRfc.  0 disables refresh timing (the refresh *power* is always
    // accounted separately by the power model).
    Cycle tRefi = 0;
    Cycle tRfc = 0;
};

/** Command/energy counters for the power model. */
struct DramCounters {
    std::uint64_t activates = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t busBytes = 0;
    std::uint64_t powerDownEntries = 0;
    std::uint64_t powerDownCycles = 0; ///< summed over channels
    std::uint64_t refreshes = 0;       ///< all-bank refreshes issued
};

/** The two-channel main memory subsystem. */
class MemorySystem
{
  public:
    explicit MemorySystem(const DramParams &p);

    /**
     * Timed 64B line access.  The accessed channel's refreshes and
     * power-down entry due at or before @p now fire first, so a bare
     * MemorySystem driven only by accesses sees the same machine
     * state as one whose events the system loop fires on time.  Other
     * channels' events are left to the loop: @p now may lie ahead of
     * its clock (a request issued past the LLC latency).
     * @return total latency in CPU cycles (queue + DRAM + transfer)
     */
    Cycle access(Addr addr, bool write, Cycle now);

    /**
     * Fire every event up to @p end, then book the powered-down tail
     * of each sleeping rank (so the power-down statistics cover the
     * whole run).
     */
    void finish(Cycle end);

    /**
     * Earliest pending scheduled event: the next refresh due, or the
     * first cycle a rank's idle timer has expired (CKE dropped at
     * lastUse + powerDownAfter); ~0 when nothing is pending.  Kept up
     * to date by access() and fireEventsUpTo(), so a caller may cache
     * min(this, its own deadlines) and re-read it after accesses.
     */
    Cycle nextEvent() const { return next_; }

    /**
     * Fire every scheduled event at or before @p t in time order
     * (refresh before power-down entry at equal times, lower channel
     * first).  Refreshes fire at their tRefi multiples even across
     * idle gaps, and a power-down entry is counted when the idle
     * timer expires, not when a later access observes the gap.
     */
    void fireEventsUpTo(Cycle t);

    /**
     * Fraction of channel-time spent powered down over @p total cycles
     * (0 when power-down is disabled).
     */
    double poweredDownFraction(Cycle total) const;

    const DramCounters &counters() const { return counters_; }
    const DramParams &params() const { return p_; }

    /** Attach a command trace ring (simulated-cycle clock domain). */
    void setTrace(obs::TraceBuffer *trace) { trace_ = trace; }

    /**
     * Attach a latency recorder (row-hit/row-miss split of the total
     * access latency, plus the queueing component).  nullptr detaches.
     */
    void setLatency(LatencyStats *lat) { lat_ = lat; }

  private:
    struct Bank {
        Cycle readyAt = 0;      ///< earliest next ACTIVATE completion base
        std::int64_t openRow = -1;
        Cycle lastActivate = 0;
        bool everActivated = false;
    };

    struct Channel {
        std::vector<Bank> banks;
        Cycle busFree = 0;
        Cycle lastActivate = 0;
        bool everActivated = false;
        Cycle lastUse = 0;     ///< for power-down accounting
        Cycle nextRefresh = 0; ///< next refresh due time (tRefi > 0)
        bool poweredDown = false;
        Cycle pdSince = 0; ///< entry cycle while poweredDown
    };

    /** Perform every refresh due by @p t on @p ch. */
    void refreshUpTo(Channel &ch, int chIdx, Cycle t);

    /** @p ch's earliest pending event (see nextEvent()); ~0 if none. */
    Cycle channelNext(const Channel &ch) const;

    /** Fire @p ch's earliest pending event. */
    void fireNext(Channel &ch, int chIdx);

    /** Recompute next_ over all channels. */
    void updateNext();

    DramParams p_;
    std::vector<Channel> channels_;
    DramCounters counters_;
    Cycle next_ = 0; ///< min channelNext() over the channels
    obs::TraceBuffer *trace_ = nullptr;
    LatencyStats *lat_ = nullptr;
};

} // namespace archsim

#endif // ARCHSIM_DRAM_DRAM_HH
