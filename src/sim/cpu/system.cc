/**
 * @file
 * System simulation loop.
 */

#include "sim/cpu/system.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "sim/metrics.hh"
#include "sim/resilience.hh"

namespace archsim {

namespace {

/**
 * Per-run watchdog: trips the cycle budget and the injected fault at
 * their exact threshold cycles (deterministic), and polls the
 * wall-clock budget every kWallPoll simulated cycles (not).
 */
class BudgetGuard
{
  public:
    BudgetGuard(const RunLimits &lim, const std::string &workload)
        : lim_(lim), workload_(workload),
          start_(std::chrono::steady_clock::now()),
          fault_(lim.faultCycle ? lim.faultCycle : kNever),
          budget_(lim.maxCycles ? lim.maxCycles : kNever),
          nextPoll_(lim.maxWallMs ? kWallPoll : kNever)
    {}

    /** Earliest cycle at which check() can trip or poll. */
    Cycle nextDue() const { return std::min({fault_, budget_, nextPoll_}); }

    /**
     * Trip the earliest threshold at or before @p now (the fault
     * first on a tie) and report that threshold as the cycle: the
     * clock only jumps when nothing issues, so the machine state at
     * the threshold equals the state at the cycle the loop reached.
     */
    void
    check(Cycle now)
    {
        if (fault_ <= now && fault_ <= budget_) {
            if (lim_.faultIsTimeout) {
                throw SimTimeout("injected timeout (" + workload_ +
                                     ", step site, cycle " +
                                     std::to_string(fault_) + ")",
                                 fault_);
            }
            throw InjectedFault("injected fault (" + workload_ +
                                    ", step site, cycle " +
                                    std::to_string(fault_) + ")",
                                fault_);
        }
        if (budget_ <= now) {
            throw SimTimeout("cycle budget exceeded: " + workload_ +
                                 " reached " + std::to_string(budget_) +
                                 " cycles",
                             budget_);
        }
        if (nextPoll_ <= now) {
            nextPoll_ = now + kWallPoll;
            const auto elapsed =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
            if (static_cast<std::uint64_t>(elapsed) >= lim_.maxWallMs) {
                throw SimTimeout(
                    "wall-clock budget exceeded: " + workload_ +
                        " ran " + std::to_string(elapsed) + " ms (" +
                        std::to_string(lim_.maxWallMs) +
                        " allowed) at cycle " + std::to_string(now),
                    now);
            }
        }
    }

  private:
    static constexpr Cycle kNever = std::numeric_limits<Cycle>::max();
    /** Every loop iteration advances the clock, so this also bounds
     * the iterations between two wall-clock reads. */
    static constexpr Cycle kWallPoll = 2048;

    const RunLimits &lim_;
    const std::string &workload_;
    std::chrono::steady_clock::time_point start_;
    const Cycle fault_;
    const Cycle budget_;
    Cycle nextPoll_;
};

/** Wire threads into cores and the shared synchronization state. */
void
assemble(std::vector<std::unique_ptr<Thread>> &threads,
         std::vector<Core> &cores, std::unique_ptr<SyncState> &sync,
         int n_cores, int threads_per_core)
{
    std::vector<Thread *> all;
    all.reserve(threads.size());
    for (auto &t : threads)
        all.push_back(t.get());
    sync = std::make_unique<SyncState>(all);
    cores.reserve(n_cores);
    for (int c = 0; c < n_cores; ++c) {
        std::vector<Thread *> mine(
            all.begin() + std::size_t(c) * threads_per_core,
            all.begin() + std::size_t(c + 1) * threads_per_core);
        cores.emplace_back(c, std::move(mine));
    }
    // Thread -> core back-pointers (for O(1) wake notifications) only
    // once every Core has its final address in the vector.
    for (Core &core : cores)
        core.wire();
}

} // namespace

System::System(const HierarchyParams &hp, const WorkloadParams &workload,
               std::uint64_t inst_per_thread, int n_cores,
               int threads_per_core)
    : hier_(hp), workloadName_(workload.name)
{
    const int n_threads = n_cores * threads_per_core;
    for (int t = 0; t < n_threads; ++t) {
        threads_.push_back(std::make_unique<Thread>(
            workload, t, n_threads, inst_per_thread));
    }
    assemble(threads_, cores_, sync_, n_cores, threads_per_core);
}

System::System(const HierarchyParams &hp, const TraceFile &trace,
               std::uint64_t inst_per_thread, int n_cores,
               int threads_per_core)
    : hier_(hp), workloadName_("trace")
{
    const int n_threads = n_cores * threads_per_core;
    if (trace.threads() < n_threads) {
        throw std::invalid_argument(
            "trace covers " + std::to_string(trace.threads()) +
            " threads; " + std::to_string(n_threads) + " required");
    }
    for (int t = 0; t < n_threads; ++t) {
        threads_.push_back(std::make_unique<Thread>(
            trace.source(t), t, inst_per_thread));
    }
    assemble(threads_, cores_, sync_, n_cores, threads_per_core);
}

SimStats
System::run(EpochRecorder *rec, const RunLimits &limits)
{
    OBS_PROFILE_SCOPE("sim.run");
    if (rec)
        rec->start(hier_.params());
    BudgetGuard guard(limits, workloadName_);
    const MemorySystem &mem = hier_.memory();

    // Event-driven loop: cores come off a lazy min-heap keyed on
    // their next ready cycle instead of being scanned every cycle.
    // The visited-cycle sequence and per-cycle step order (ascending
    // core id) are identical to runReference(): a cycle's eligible
    // set is fixed before the first step of that cycle (wakes always
    // land at now + 1), and a core issues if and only if its exact
    // minReady_ cache is due.
    ReadyQueue rq(cores_.size());
    const auto fresh = [this](int id) {
        const Core &c = cores_[std::size_t(id)];
        return c.done() ? std::numeric_limits<Cycle>::max()
                        : c.nextReady();
    };
    int cores_left = 0;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        cores_[i].attach(&rq);
        if (cores_[i].done())
            continue;
        ++cores_left;
        rq.offer(cores_[i].nextReady(), int(i));
    }

    Cycle cycle = 0;
    // The next epoch boundary or watchdog threshold.  Together with
    // the memory's own next event (read live: an access can re-arm a
    // power-down timer) it is never later than the next scheduled
    // event, so one compare per visited cycle suffices.
    // A run whose last instruction retired before a threshold
    // finished within it: the watchdogs trip only while cores are
    // live.
    const auto advance = [&](Cycle now) {
        if (cores_left > 0)
            guard.check(now);
        return std::min(guard.nextDue(), advanceEventsTo(now, rec));
    };
    Cycle due = advance(cycle);
    std::vector<int> eligible;
    eligible.reserve(cores_.size());
    while (cores_left > 0) {
        rq.collect(cycle, fresh, eligible);
        if (!eligible.empty()) {
            for (const int id : eligible) {
                Core &core = cores_[std::size_t(id)];
                core.step(cycle, hier_, *sync_);
                if (core.done())
                    --cores_left;
                else
                    rq.offer(core.nextReady(), id);
            }
            ++cycle;
        } else {
            // Nothing eligible: jump to the next fresh wake-up.  The
            // reference loop visits the cycle after an issue
            // unconditionally; collect() at that cycle is an O(1)
            // empty pop, matching its cheap no-issue pass.
            const Cycle next = rq.nextTime(fresh);
            if (next == std::numeric_limits<Cycle>::max())
                throwDeadlock(cycle);
            cycle = next;
        }
        if (cycle >= std::min(due, mem.nextEvent()))
            due = advance(cycle);
    }
    return finalize(cycle, rec);
}

Cycle
System::advanceEventsTo(Cycle now, EpochRecorder *rec)
{
    MemorySystem &mem = hier_.memory();
    if (rec) {
        while (rec->nextBoundary() <= now) {
            // Events strictly before a boundary land in its epoch.
            // No instructions retire between the last visited cycle
            // and @p now, so the instruction total is already the
            // boundary's value.
            const Cycle boundary = rec->nextBoundary();
            mem.fireEventsUpTo(boundary - 1);
            OBS_EVENT(trace_, .name = "epoch", .cat = "sim", .ph = 'i',
                      .ts = boundary, .argName = "index",
                      .argValue = std::uint64_t(rec->samples().size()));
            rec->close(boundary, totalInstructions(), hier_.counters(),
                       hier_.llc(), hier_.dramCounters());
        }
    }
    mem.fireEventsUpTo(now);
    return rec ? rec->nextBoundary() : std::numeric_limits<Cycle>::max();
}

SimStats
System::runReference(EpochRecorder *rec, const RunLimits &limits)
{
    OBS_PROFILE_SCOPE("sim.run");
    if (rec)
        rec->start(hier_.params());
    BudgetGuard guard(limits, workloadName_);

    Cycle cycle = 0;
    guard.check(cycle);
    advanceEventsTo(cycle, rec);
    for (;;) {
        bool all_done = true;
        bool issued = false;
        bool live = false; // some core is still running after this pass
        // The jump target for the no-issue case is collected during
        // the same pass over the cores: when nothing issues, no wake
        // can have moved any core's O(1) minReady_ cache, so the
        // values read here equal a post-pass rescan.
        Cycle next = std::numeric_limits<Cycle>::max();
        for (Core &core : cores_) {
            if (core.done())
                continue;
            all_done = false;
            if (core.nextReady() <= cycle) {
                core.step(cycle, hier_, *sync_);
                issued = true;
            }
            live |= !core.done();
            next = std::min(next, core.nextReady());
        }
        if (all_done)
            break;

        if (issued) {
            ++cycle;
        } else {
            // Nothing could issue: jump to the next thread wake-up.
            // No wake can ever arrive when nothing issued and no
            // thread has a finite ready cycle (wakes only happen at
            // issue time), so that state is a genuine deadlock.
            if (next == std::numeric_limits<Cycle>::max())
                throwDeadlock(cycle);
            cycle = std::max(next, cycle + 1);
        }
        // Uncached: every visited cycle checks and fires what is
        // due, which is what run()'s cached deadline must reproduce.
        if (live)
            guard.check(cycle);
        advanceEventsTo(cycle, rec);
    }
    return finalize(cycle, rec);
}

void
System::throwDeadlock(Cycle cycle) const
{
    // Per-core wait-state census so a Failed sweep result points at
    // the synchronization structure that wedged, not just a cycle.
    struct Waits {
        int barrier = 0, lock = 0, retired = 0, other = 0;
    };
    const std::size_t per_core = threads_.size() / cores_.size();
    std::vector<Waits> cores(cores_.size());
    Waits total;
    for (const auto &t : threads_) {
        Waits &w = cores[std::size_t(t->id) / per_core];
        if (t->done()) {
            ++w.retired;
            ++total.retired;
        } else if (t->waitingBarrier) {
            ++w.barrier;
            ++total.barrier;
        } else if (t->waitingLock) {
            ++w.lock;
            ++total.lock;
        } else {
            ++w.other;
            ++total.other;
        }
    }
    std::string msg =
        "simulation deadlock: all remaining threads are blocked on "
        "synchronization at cycle " +
        std::to_string(cycle) + " (workload " + workloadName_ +
        "; waiting: " + std::to_string(total.barrier) + " barrier, " +
        std::to_string(total.lock) + " lock, " +
        std::to_string(total.other) + " other; " +
        std::to_string(total.retired) + " retired; per core [";
    // Wide systems would produce a census line hundreds of cores long,
    // almost all of them fully retired: past 16 cores list only the
    // cores that still have blocked threads, capped at 16 entries.
    const bool compact = cores.size() > 16;
    constexpr std::size_t kMaxListed = 16;
    std::size_t listed = 0, suppressed = 0;
    for (std::size_t c = 0; c < cores.size(); ++c) {
        const Waits &w = cores[c];
        if (compact && w.barrier + w.lock + w.other == 0)
            continue;
        if (listed >= kMaxListed) {
            ++suppressed;
            continue;
        }
        if (listed++)
            msg += ' ';
        msg += 'c';
        msg += std::to_string(c);
        msg += ':';
        msg += std::to_string(w.barrier);
        msg += "b/";
        msg += std::to_string(w.lock);
        msg += "l/";
        msg += std::to_string(w.retired);
        msg += "r/";
        msg += std::to_string(w.other);
        msg += 'o';
    }
    if (suppressed)
        msg += " +" + std::to_string(suppressed) + " more";
    msg += "])";
    throw SimDeadlock(msg, cycle);
}

std::uint64_t
System::totalInstructions() const
{
    std::uint64_t n = 0;
    for (const auto &t : threads_)
        n += t->stats.instructions;
    return n;
}

SimStats
System::finalize(Cycle cycle, EpochRecorder *rec)
{
    // One run-spanning slice so Perfetto frames the event stream.
    OBS_EVENT(trace_, .name = "run", .cat = "sim", .ph = 'X', .ts = 0,
              .dur = cycle);

    SimStats s;
    s.workload = workloadName_;
    s.cycles = cycle;
    double busy = 0, l2 = 0, l3 = 0, mem = 0, bar = 0, lock = 0;
    for (const auto &t : threads_) {
        const ThreadStats &st = t->stats;
        s.instructions += st.instructions;
        s.avgReadLatency += double(st.readLatency);
        busy += double(st.busy);
        l2 += double(st.l2);
        l3 += double(st.l3);
        mem += double(st.memory);
        bar += double(st.barrier);
        lock += double(st.lock);
    }
    std::uint64_t reads = 0;
    for (const auto &t : threads_)
        reads += t->stats.reads;
    s.avgReadLatency = reads ? s.avgReadLatency / double(reads) : 0.0;
    s.ipc = s.cycles ? double(s.instructions) / double(s.cycles) : 0.0;

    const double total = busy + l2 + l3 + mem + bar + lock;
    if (total > 0) {
        s.fInstruction = busy / total;
        s.fL2 = l2 / total;
        s.fL3 = l3 / total;
        s.fMemory = mem / total;
        s.fBarrier = bar / total;
        s.fLock = lock / total;
    }

    hier_.memory().finish(cycle);
    s.hier = hier_.counters();
    s.dram = hier_.dramCounters();
    if (const SparseDirectory *d = hier_.sparseDir()) {
        s.dirLive = d->size();
        s.dirCapacity = d->capacity();
        s.dirPeakLive = d->stats().peakLive;
        s.dirEvictions = d->stats().evictions;
        s.dirEvictionInvals = d->stats().evictionInvals;
        s.dirOverflows = d->stats().overflows;
        s.dirDemotions = d->stats().demotions;
        s.dirImplicitSparse = hier_.implicitSparse() ? 1 : 0;
    }
    s.memPoweredDownFraction =
        hier_.memory().poweredDownFraction(cycle);
    if (const Llc *l = hier_.llc()) {
        s.llcReads = l->reads;
        s.llcWrites = l->writes;
        s.llcHits = l->hits;
        s.llcMisses = l->misses;
        s.llcPageHits = l->pageHits;
        s.llcPageMisses = l->pageMisses;
    }
    if (rec) {
        // Close the final (partial) epoch after the trailing idle
        // time has been accounted.
        rec->close(cycle, totalInstructions(), hier_.counters(),
                   hier_.llc(), hier_.dramCounters());
    }
    return s;
}

} // namespace archsim
