/**
 * @file
 * The process-wide executor: one persistent pool of worker threads
 * shared by every parallel loop in the program (the solver engine's
 * candidate evaluation, the study runner's simulations).
 *
 * The pool is created on first use, at hardware-concurrency width
 * (resolveJobs(0) - 1 workers plus the calling thread), and lives
 * until process exit; no parallelFor call after the first creates a
 * thread.  The pool runs one parallelFor at a time:
 *
 *  - the calling thread runs tasks alongside the workers;
 *  - a call made from inside a task the pool is running, or while
 *    another thread's call holds the pool, runs inline on the calling
 *    thread (so nested parallelism never deadlocks and never
 *    oversubscribes);
 *  - results are the caller's to order: tasks write index-addressed
 *    slots, and parallelFor returning is the completion barrier that
 *    makes every task's writes visible to the caller.
 */

#ifndef CACTID_UTIL_EXECUTOR_HH
#define CACTID_UTIL_EXECUTOR_HH

#include <cstddef>
#include <functional>

namespace cactid::util {

/**
 * The width a jobs setting asks for: @p jobs when positive, else
 * std::thread::hardware_concurrency() (at least 1).
 */
int resolveJobs(int jobs);

/** Threads the shared pool runs tasks on at once (workers + caller). */
int executorWidth();

/**
 * Run @p fn(i) once for every i in [0, n), on at most
 * min(@p width, executorWidth()) threads, and return when all have
 * finished.  Width 1 runs every task inline on the calling thread, in
 * index order.
 *
 * If tasks throw, every task still runs; the exception of the lowest
 * throwing index is then rethrown.  The pool stays usable.
 */
void parallelFor(std::size_t n, int width,
                 const std::function<void(std::size_t)> &fn);

} // namespace cactid::util

#endif // CACTID_UTIL_EXECUTOR_HH
