/**
 * @file
 * The shared executor: a fixed pool of workers that joins the calling
 * thread on one index range at a time.
 */

#include "util/executor.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.hh"

namespace cactid::util {

namespace {

/** True on pool workers, and on the pool's owner while it runs tasks. */
thread_local bool tl_inTask = false;

/** One parallelFor call: the index range and its failures. */
struct Job {
    const std::function<void(std::size_t)> *fn = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};

    std::mutex errMtx; ///< guards errIndex and err
    std::size_t errIndex = 0;
    std::exception_ptr err;

    /** Claim and run indices until the range is exhausted. */
    void
    drain()
    {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
            try {
                (*fn)(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(errMtx);
                if (!err || i < errIndex) {
                    err = std::current_exception();
                    errIndex = i;
                }
            }
        }
    }
};

class Pool {
public:
    explicit Pool(int workers)
    {
        threads_.reserve(static_cast<std::size_t>(workers));
        try {
            for (int w = 0; w < workers; ++w)
                threads_.emplace_back([this] { workerLoop(); });
        } catch (...) {
            stopAndJoin(); // a thread failed to start
            throw;
        }
    }

    ~Pool() { stopAndJoin(); }

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /**
     * Run @p job on the caller plus up to @p helpers workers.  Returns
     * false, having run nothing, when another call holds the pool.
     */
    bool
    tryRun(Job &job, int helpers)
    {
        if (busy_.exchange(true, std::memory_order_acquire))
            return false;
        {
            const std::lock_guard<std::mutex> lock(mtx_);
            job_ = &job;
            tickets_ = helpers;
        }
        wake_.notify_all();

        tl_inTask = true;
        job.drain();
        tl_inTask = false;

        // Completion barrier: every worker that joined has left the
        // job, and its writes happen-before this thread's reads.
        {
            std::unique_lock<std::mutex> lock(mtx_);
            tickets_ = 0;
            job_ = nullptr;
            idle_.wait(lock, [this] { return active_ == 0; });
        }
        busy_.store(false, std::memory_order_release);
        return true;
    }

private:
    void
    stopAndJoin()
    {
        {
            const std::lock_guard<std::mutex> lock(mtx_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    void
    workerLoop()
    {
        tl_inTask = true;
        std::unique_lock<std::mutex> lock(mtx_);
        for (;;) {
            wake_.wait(lock, [this] { return stop_ || tickets_ > 0; });
            if (stop_)
                return;
            --tickets_;
            ++active_;
            Job &job = *job_;
            lock.unlock();
            {
                OBS_PROFILE_SCOPE("executor.worker");
                job.drain();
            }
            lock.lock();
            if (--active_ == 0)
                idle_.notify_one();
        }
    }

    std::atomic<bool> busy_{false}; ///< one caller owns the pool

    std::mutex mtx_; ///< guards job_, tickets_, active_, stop_
    std::condition_variable wake_; ///< workers: tickets_ or stop_
    std::condition_variable idle_; ///< owner: active_ reached 0
    Job *job_ = nullptr;
    int tickets_ = 0; ///< workers still invited to join job_
    int active_ = 0;  ///< workers inside job_
    bool stop_ = false;

    std::vector<std::thread> threads_; ///< last: uses the members above
};

Pool &
pool()
{
    static Pool p(executorWidth() - 1);
    return p;
}

} // namespace

int
resolveJobs(int jobs)
{
    // Queried once: hardware_concurrency() reads sysfs on Linux.
    static const int hw = [] {
        const unsigned n = std::thread::hardware_concurrency();
        return n > 0 ? static_cast<int>(n) : 1;
    }();
    return jobs > 0 ? jobs : hw;
}

int
executorWidth()
{
    return resolveJobs(0);
}

void
parallelFor(std::size_t n, int width,
            const std::function<void(std::size_t)> &fn)
{
    Job job;
    job.fn = &fn;
    job.n = n;
    const std::size_t w = std::min<std::size_t>(
        {n, static_cast<std::size_t>(std::max(width, 1)),
         static_cast<std::size_t>(executorWidth())});
    const bool pooled =
        w > 1 && !tl_inTask && pool().tryRun(job, static_cast<int>(w) - 1);
    if (!pooled)
        job.drain(); // width 1, a nested call, or the pool is taken
    if (job.err)
        std::rethrow_exception(job.err);
}

} // namespace cactid::util
