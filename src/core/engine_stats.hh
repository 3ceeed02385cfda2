/**
 * @file
 * Instrumentation counters collected by the SolverEngine while it
 * enumerates, evaluates and filters the organization space.  Kept in
 * its own header so result.hh can embed the stats in a SolveResult
 * without depending on the engine itself.
 */

#ifndef CACTID_CORE_ENGINE_STATS_HH
#define CACTID_CORE_ENGINE_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace cactid {

namespace obs {
class Registry;
}

/**
 * What happened during one solve.  The counters obey the identity
 *
 *   partitionsEnumerated == partitionsInfeasible + solutionsBuilt
 *   solutionsBuilt == areaPruned + timePruned + |filtered|
 *
 * so every enumerated candidate is accounted for exactly once.
 */
struct EngineStats {
    // --- Enumeration / evaluation counters.
    std::uint64_t partitionsEnumerated = 0; ///< candidates visited
    std::uint64_t partitionsInfeasible = 0; ///< rejected by buildBank
    std::uint64_t solutionsBuilt = 0;       ///< complete solutions made

    // --- Constraint-pass counters.
    std::uint64_t areaPruned = 0; ///< dropped by the max-area criterion
                                  ///< (streaming prune + final pass)
    std::uint64_t timePruned = 0; ///< dropped by the max-acctime pass

    /** High-water mark of live retained solutions during streaming. */
    std::size_t peakLiveSolutions = 0;

    /**
     * Width the solve asked for (SolverOptions::jobs resolved); the
     * shared executor runs it on at most its own width of threads.
     */
    int jobsUsed = 0;

    // --- Per-stage wall time (seconds).
    double setupSeconds = 0.0;    ///< validate + tag path + enumeration
    double evaluateSeconds = 0.0; ///< buildBank + combine + chip level
    double filterSeconds = 0.0;   ///< constraint passes + objective
    double totalSeconds = 0.0;    ///< whole solve

    /** Multi-line human-readable report (for cactid --stats). */
    std::string report() const;
};

/**
 * Publish the stats under the registry's solver.* namespace (counters
 * for the pipeline identities, gauges for the per-stage wall times).
 */
void registerEngineStats(obs::Registry &r, const EngineStats &s);

} // namespace cactid

#endif // CACTID_CORE_ENGINE_STATS_HH
