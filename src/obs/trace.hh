/**
 * @file
 * Event tracing: bounded single-writer ring buffers of POD trace
 * events, a process-wide tracer with per-thread rings for wall-clock
 * profiling spans, and the OBS_* macros that make every hook
 * compile-time zero when CACTID_OBS_TRACING is 0.
 *
 * Two clock domains coexist:
 *
 *  - Simulator events carry *simulated* timestamps (CPU cycles).  Each
 *    simulation run is single-threaded and deterministic, so a
 *    TraceBuffer attached to a System records a stream that is a pure
 *    function of the run — bit-identical for any StudyRunner jobs
 *    count.
 *
 *  - Profiling spans (solver phases, optimizer passes, runner
 *    executes) carry *wall-clock* microseconds from the global Tracer.
 *    Those are inherently nondeterministic and are kept out of the
 *    deterministic study trace export.
 *
 * Event names/categories must be string literals (or otherwise outlive
 * the buffer): events store the pointers, never copies, so recording
 * is allocation-free.
 */

#ifndef CACTID_OBS_TRACE_HH
#define CACTID_OBS_TRACE_HH

#ifndef CACTID_OBS_TRACING
#define CACTID_OBS_TRACING 1
#endif

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace cactid::obs {

/**
 * One Chrome-trace-event-format record.  `ph` follows the trace-event
 * spec: 'X' complete (ts + dur), 'i' instant, 'M' metadata (only
 * synthesized by the exporter).
 */
struct TraceEvent {
    const char *name = "";
    const char *cat = "";
    char ph = 'i';
    std::uint64_t ts = 0;  ///< cycles (sim) or µs (wall clock)
    std::uint64_t dur = 0; ///< 'X' events only
    std::uint32_t pid = 0; ///< logical process (study: run index)
    std::uint32_t tid = 0; ///< logical track (core/channel/thread id)

    // At most one integer and one string argument, both optional.
    const char *argName = nullptr;
    std::uint64_t argValue = 0;
    const char *argStrName = nullptr;
    const char *argStr = nullptr;
};

/**
 * Fixed-capacity single-writer ring.  Recording never allocates and
 * never blocks; once full, the oldest events are overwritten and
 * counted in dropped().  take()/events() return chronological order.
 */
class TraceBuffer {
public:
    explicit TraceBuffer(std::size_t capacity = 1 << 16)
        : ring_(capacity ? capacity : 1)
    {
    }

    void
    emit(const TraceEvent &e)
    {
        ring_[head_] = e;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        if (size_ < ring_.size())
            ++size_;
        else
            ++dropped_;
    }

    std::size_t capacity() const { return ring_.size(); }
    std::size_t size() const { return size_; }

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /** Logical track id of the owning thread (global Tracer only). */
    std::uint32_t tid() const { return tid_; }
    void setTid(std::uint32_t tid) { tid_ = tid; }

    /** Copy out in chronological order. */
    std::vector<TraceEvent> events() const;

    /** Move out in chronological order and reset the ring. */
    std::vector<TraceEvent> take();

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
        dropped_ = 0;
    }

private:
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0; ///< next write slot
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint32_t tid_ = 0;
};

/**
 * Process-wide tracer for wall-clock profiling spans.  Threads record
 * into private rings (registered once, under a mutex; recording itself
 * is lock-free), so concurrent spans never contend.  A ring lives as
 * long as the process, so the ring count is bounded by the threads
 * that ever record: the shared executor's persistent workers plus the
 * calling threads.  collect() must only run once the recording work
 * has finished — for work run through util::parallelFor, the call
 * returning is the executor's completion barrier, which provides the
 * necessary happens-before edge from every worker's events.
 */
class Tracer {
public:
    static Tracer &instance();

    void
    enable(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** This thread's ring (registered on first use). */
    TraceBuffer &local();

    /** Microseconds since the tracer epoch (process start). */
    std::uint64_t nowMicros() const;

    /** Merge every thread's events, ordered by timestamp. */
    std::vector<TraceEvent> collect() const;

    /** Total events overwritten across all thread rings. */
    std::uint64_t dropped() const;

    /** Thread rings registered so far (one per recording thread). */
    std::size_t ringCount() const;

private:
    Tracer();

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mtx_;
    std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

/**
 * RAII wall-clock span recorded into the global Tracer; free when
 * tracing is disabled at runtime (one relaxed load) and absent from
 * the binary when compiled out (use via OBS_PROFILE_SCOPE).
 */
class ProfileScope {
public:
    explicit ProfileScope(const char *name, const char *cat = "profile")
    {
        if (Tracer::instance().enabled()) {
            name_ = name;
            cat_ = cat;
            start_ = Tracer::instance().nowMicros();
        }
    }

    ~ProfileScope()
    {
        if (!name_)
            return;
        Tracer &t = Tracer::instance();
        TraceBuffer &buf = t.local();
        TraceEvent e;
        e.name = name_;
        e.cat = cat_;
        e.ph = 'X';
        e.ts = start_;
        e.dur = t.nowMicros() - start_;
        e.tid = buf.tid();
        buf.emit(e);
    }

    ProfileScope(const ProfileScope &) = delete;
    ProfileScope &operator=(const ProfileScope &) = delete;

private:
    const char *name_ = nullptr;
    const char *cat_ = nullptr;
    std::uint64_t start_ = 0;
};

} // namespace cactid::obs

// --- Hook macros: every instrumentation site goes through these so a
// -DCACTID_OBS_TRACING=OFF build contains no tracing code at all.

#if CACTID_OBS_TRACING
#define CACTID_OBS_CONCAT_(a, b) a##b
#define CACTID_OBS_CONCAT(a, b) CACTID_OBS_CONCAT_(a, b)

/** Record a TraceEvent (designated initializers) if @p buf is set. */
#define OBS_EVENT(buf, ...)                                            \
    do {                                                               \
        if (buf)                                                       \
            (buf)->emit(::cactid::obs::TraceEvent{__VA_ARGS__});       \
    } while (0)

/** Wall-clock span over the enclosing scope (global Tracer). */
#define OBS_PROFILE_SCOPE(name)                                        \
    ::cactid::obs::ProfileScope CACTID_OBS_CONCAT(obs_scope_,          \
                                                  __LINE__)(name)
#else
#define OBS_EVENT(buf, ...)                                            \
    do {                                                               \
    } while (0)
#define OBS_PROFILE_SCOPE(name)                                        \
    do {                                                               \
    } while (0)
#endif

#endif // CACTID_OBS_TRACE_HH
