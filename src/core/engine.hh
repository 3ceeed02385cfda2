/**
 * @file
 * SolverEngine: the streaming, parallel, instrumented solve pipeline.
 *
 * The engine replaces the old enumerate-everything-then-filter path
 * with a four-stage pipeline:
 *
 *   1. partition candidates stream from forEachPartition (no up-front
 *      materialization of the solution space),
 *   2. bank construction + solution combination fan out across the
 *      process-wide executor (util/executor.hh) in bounded blocks of
 *      64 x width candidates, each worker writing its own index slot,
 *   3. the calling thread folds each finished block in enumeration
 *      order, with an incremental max-area prune bounding the live
 *      working set,
 *   4. the composable optimizer passes pick the winner.
 *
 * Determinism guarantee: the merge folds candidate results in
 * enumeration-index order and every per-candidate computation is
 * independent, so a run with jobs=N produces bit-identical
 * SolveResult::best and SolveResult::filtered to a run with jobs=1.
 *
 * The engine is stateless: one engine may solve many configs, from
 * many threads, concurrently.
 */

#ifndef CACTID_CORE_ENGINE_HH
#define CACTID_CORE_ENGINE_HH

#include <cstddef>
#include <vector>

#include "core/config.hh"
#include "core/engine_stats.hh"
#include "core/result.hh"
#include "tech/technology.hh"

namespace cactid {

class SolveCache;

/** Knobs controlling how a solve executes (not what it computes). */
struct SolverOptions {
    /**
     * Threads for candidate evaluation: a cap on the width of the
     * shared executor (util/executor.hh), whose own width is
     * std::thread::hardware_concurrency().  0 asks for that full
     * width, 1 runs fully serial on the calling thread.  A solve
     * issued from inside an executor task (e.g. from a StudyRunner
     * run), or while another thread's solve holds the pool, runs
     * inline on its calling thread.  Results are bit-identical for
     * every setting.
     */
    int jobs = 0;

    /**
     * Keep every feasible solution in SolveResult::all (design-space
     * scatter plots).  When false the engine streams: only solutions
     * that can still survive the max-area constraint stay live, which
     * bounds peak memory on large sweeps.
     */
    bool collectAll = true;

    /**
     * Memoization cache consulted by run(cfg) and solveBatch().
     * nullptr falls back to globalSolveCache() (itself nullptr by
     * default, i.e. no caching).  Caching never changes results: the
     * engine's determinism guarantee makes a hit byte-identical to
     * re-solving.  The explicit-Technology run(t, cfg) overload never
     * caches — the cache key cannot see a caller-constructed
     * Technology, so memoizing it could serve stale physics.
     */
    SolveCache *cache = nullptr;
};

/** What solveBatch did with its requests (dedup effectiveness). */
struct BatchStats {
    std::size_t requests = 0;     ///< configs passed in
    std::size_t uniqueSolves = 0; ///< distinct canonical fingerprints
    std::size_t cacheHits = 0;    ///< unique solves served by the cache
    std::size_t shareGroups = 0;  ///< pipelines actually executed
};

/** The streaming, parallel, instrumented solve pipeline. */
class SolverEngine {
public:
    explicit SolverEngine(SolverOptions opts = {}) : opts_(opts) {}

    /**
     * Solve @p cfg against @p t.  Statistics are always collected into
     * the result's stats field; pass @p stats to also receive a copy
     * (convenient when the result itself is discarded).
     *
     * @throws std::runtime_error when no candidate is feasible.
     */
    SolveResult run(const Technology &t, const MemoryConfig &cfg,
                    EngineStats *stats = nullptr) const;

    /**
     * Construct the technology from the config, then run.  This
     * overload consults the configured (or global) SolveCache: a hit
     * returns the memoized result — byte-identical best/filtered/all,
     * stats from the solve that populated the entry — and a miss
     * solves and memoizes.
     */
    SolveResult run(const MemoryConfig &cfg,
                    EngineStats *stats = nullptr) const;

    /**
     * Solve many configs at once, returning results in request order,
     * each bit-identical (best/filtered/all) to an independent
     * run(cfg) call at any jobs setting.
     *
     * The batch is collapsed twice before any work happens: requests
     * with equal canonical fingerprints share one solve, and requests
     * that differ only in objective weights share one partition
     * enumeration + evaluation + constraint pipeline (the weights
     * only enter the final objective pass, which runs per request).
     * Unique solves go through the cache like run(cfg).
     *
     * @throws std::runtime_error when any request has no feasible
     *         candidates (batch requests are all-or-nothing; callers
     *         needing per-request isolation fall back to run()).
     */
    std::vector<SolveResult>
    solveBatch(const std::vector<MemoryConfig> &cfgs,
               BatchStats *batch_stats = nullptr) const;

    const SolverOptions &options() const { return opts_; }

    /** The width a jobs setting asks for (util::resolveJobs). */
    static int resolveJobs(int jobs);

private:
    /**
     * Stages 1-3 plus the access-time pass: everything before the
     * objective.  Fills res.all (when collecting) and res.stats, and
     * returns the constraint survivors with objectives unset.  This
     * is the weight-independent prefix solveBatch shares across a
     * group.
     */
    std::vector<Solution> runPipeline(const Technology &t,
                                      const MemoryConfig &cfg,
                                      SolveResult &res) const;

    SolverOptions opts_;
};

} // namespace cactid

#endif // CACTID_CORE_ENGINE_HH
