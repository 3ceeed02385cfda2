/**
 * @file
 * Shared plumbing of the perfbench program: command-line arguments,
 * the seeded generator, wall/CPU clocks, order statistics, and the
 * Report every workload fills in and main() prints.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/result.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** User + system CPU seconds of the whole process so far. */
double processCpuSeconds();

/** Peak resident set size of the process (MiB). */
double peakRssMb();

/** Host threads the benchmark may use (std::thread, >= 1). */
int hostThreads();

/** Nearest-rank quantile of @p v (0 for an empty vector). */
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/**
 * The loop of every untraced run.  @p unit runs until @p seconds have
 * passed (at least once).  @p setup runs before the first unit; it is
 * timed in short bursts (>= 50 ms, >= 1 run) before every unit and
 * once after the last, so its samples are spread over the run like
 * the units' and see the same host conditions.  Returns the median
 * set-up time.
 */
double measureLoop(double seconds, const std::function<void()> &setup,
                   const std::function<void()> &unit);

/** Sum of @p v. */
double sum(const std::vector<double> &v);

/** Durations (s) of the recorded obs profile spans named @p name. */
std::vector<double> spanSeconds(const std::string &name);

/** Rounds of each mode traceOverheadPct runs. */
constexpr int kTraceRounds = 5;

/**
 * obs.trace_overhead_pct of @p pass, which returns the seconds it
 * measured: runs it kTraceRounds times with the obs tracer off, each
 * time followed by once with it on (@p pass receives whether it is
 * traced), and returns the median over rounds of how much slower the
 * traced pass was (%).  Pairing the passes of a round keeps the host's
 * slow drift out of the gap.  The tracer is off on return.
 */
double traceOverheadPct(const std::function<double(bool)> &pass);

/** splitmix64: the benchmark's only source of randomness. */
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform integer in [0, n). */
    std::size_t below(std::size_t n);

private:
    std::uint64_t state_;
};

/** What main() parsed from the command line. */
struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/**
 * Everything one run reports: the metric set of its mode, the
 * operation counts, correctness checks and human-readable notes.
 */
class Report {
public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Record a correctness check; a false @p ok fails the run. */
    void check(bool ok, const std::string &what);

    /** Free-form line printed before the result. */
    void note(const std::string &line);

    /** A note listing every sample of @p name, e.g. each unit's wall. */
    void series(const std::string &name, const std::vector<double> &v);

    std::uint64_t attempted = 0; ///< operations executed
    std::uint64_t failed = 0;    ///< operations with a wrong outcome

    bool correct() const { return failedChecks_.empty(); }

    /**
     * Human-readable lines, then the one-line JSON result holding
     * exactly the metrics of @p schema (a layer the workload does not
     * exercise reads 0).  Metrics outside the schema print as
     * human-readable lines only.
     */
    void print(const std::vector<std::pair<std::string, std::string>>
                   &schema) const;

private:
    struct Value {
        double value;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    std::vector<std::string> order_;
    std::vector<std::string> notes_;
    std::vector<std::string> failedChecks_;
    std::size_t checks_ = 0;
};

/**
 * The end-to-end and per-layer metric names with their units, in
 * print order.  BENCHMARK.json lists the same sets.
 */
const std::vector<std::pair<std::string, std::string>> &endToEndNames();
const std::vector<std::pair<std::string, std::string>> &perLayerNames();

/**
 * The fixed Table 2 configuration: the 78 nm Micron 1 Gb DDR3-1066 x8
 * part the paper validates against, as the repository's Table 2
 * bench sets it up.
 */
cactid::MemoryConfig table2Config();

/**
 * Mean |error| (%) of a Table 2 solution against the Micron actuals
 * the Table 2 bench holds (area efficiency, tRCD, CAS, tRC, ACTIVATE,
 * READ and WRITE energy, refresh power).
 */
double table2ErrorPct(const cactid::Solution &s);

/** The same error from the eight values in SI units. */
double table2ErrorPct(double area_eff, double trcd_s, double tcas_s,
                      double trc_s, double act_j, double rd_j,
                      double wr_j, double refresh_w);

/**
 * A byte-exact digest of everything a solve determines (best plus
 * every constraint survivor), for identity checks.
 */
std::string solveDigest(const cactid::SolveResult &r);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
