/**
 * @file
 * Parallel benchmark for the SolverEngine, in two sections.
 *
 *  1. Speedup: the Table-3 projection sweep (L2, the five L3 options,
 *     the 8Gb main-memory chip, all at 32 nm) serially and at 2, 4,
 *     ... max_jobs, checking the results are bit-identical and
 *     printing the wall-clock speedup per job count.
 *  2. Per-solve overhead: ~200 small, distinct SRAM / LP-DRAM caches
 *     solved one at a time at jobs 1 and at jobs N (the hardware
 *     concurrency), where the fixed cost of fanning one solve out to
 *     the executor is a large share of the solve.  Results must be
 *     bit-identical to serial; the medians over reps land in the
 *     --out JSON (the committed record is BENCH_engine_parallel.json).
 *
 * Usage: bench_engine_parallel [max_jobs] [--reps N] [--out FILE]
 *                              [--baseline FILE]
 *   max_jobs   largest Table-3 job count (default 8)
 *   --reps     per-solve timing repetitions (default 5)
 *   --out      JSON output (default: none is written)
 *   --baseline a JSON this bench wrote for another build; its build
 *              stamp and per-solve medians are copied under
 *              "baseline" for the before/after record
 *
 * Exits 1 when any result differs from serial.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cacti.hh"
#include "obs/build_info.hh"
#include "obs/numfmt.hh"

namespace {

using namespace cactid;

MemoryConfig
l3Config(const char *, double capacity, int assoc, RamCellTech tech,
         bool ed)
{
    MemoryConfig c;
    c.capacityBytes = capacity;
    c.blockBytes = 64;
    c.associativity = assoc;
    c.nBanks = 8;
    c.type = MemoryType::Cache;
    c.accessMode = AccessMode::Sequential;
    c.featureNm = 32.0;
    c.dataCellTech = tech;
    c.tagCellTech = tech;
    c.sleepTransistors = tech == RamCellTech::Sram;
    if (ed) {
        c.maxAreaConstraint = 0.60;
        c.maxAccTimeConstraint = 0.60;
        c.weights = {2.0, 2.0, 2.0, 2.0, 1.0, 0.0};
    } else {
        c.maxAreaConstraint = 0.15;
        c.maxAccTimeConstraint = 2.00;
        c.weights = {1.0, 2.0, 0.5, 0.5, 0.0, 2.0};
    }
    return c;
}

std::vector<std::pair<std::string, MemoryConfig>>
table3Sweep()
{
    std::vector<std::pair<std::string, MemoryConfig>> sweep;

    MemoryConfig l2;
    l2.capacityBytes = 1 << 20;
    l2.blockBytes = 64;
    l2.associativity = 8;
    l2.type = MemoryType::Cache;
    l2.accessMode = AccessMode::Fast;
    l2.featureNm = 32.0;
    l2.sleepTransistors = true;
    l2.maxAccTimeConstraint = 0.15;
    sweep.emplace_back("L2 1MB SRAM", l2);

    sweep.emplace_back("L3 24MB SRAM",
                       l3Config("sram", 24.0 * (1 << 20), 12,
                                RamCellTech::Sram, true));
    sweep.emplace_back("L3 48MB LP-DRAM ED",
                       l3Config("lp_ed", 48.0 * (1 << 20), 12,
                                RamCellTech::LpDram, true));
    sweep.emplace_back("L3 72MB LP-DRAM C",
                       l3Config("lp_c", 72.0 * (1 << 20), 18,
                                RamCellTech::LpDram, false));
    sweep.emplace_back("L3 96MB CM-DRAM ED",
                       l3Config("cm_ed", 96.0 * (1 << 20), 12,
                                RamCellTech::CommDram, true));
    sweep.emplace_back("L3 192MB CM-DRAM C",
                       l3Config("cm_c", 192.0 * (1 << 20), 24,
                                RamCellTech::CommDram, false));

    MemoryConfig mm;
    mm.capacityBytes = 8192.0 * 1024.0 * 1024.0 / 8.0; // 8 Gb
    mm.blockBytes = 8;
    mm.type = MemoryType::MainMemoryChip;
    mm.nBanks = 8;
    mm.featureNm = 32.0;
    mm.dataCellTech = RamCellTech::CommDram;
    mm.pageBytes = 1024;
    mm.maxAreaConstraint = 0.10;
    mm.maxAccTimeConstraint = 1.00;
    mm.weights = {1.0, 0.0, 1.0, 0.0, 0.0, 4.0};
    sweep.emplace_back("MM 8Gb DDR chip", mm);

    return sweep;
}

/** Solve the whole sweep; returns wall seconds and the best picks. */
double
runSweep(const std::vector<std::pair<std::string, MemoryConfig>> &sweep,
         int jobs, std::vector<Solution> &bests)
{
    // Streaming mode: the sweep only needs the winners.
    const SolverOptions opts{jobs, false};
    bests.clear();
    const auto start = std::chrono::steady_clock::now();
    for (const auto &[name, cfg] : sweep)
        bests.push_back(solve(cfg, opts).best);
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Small distinct caches: where per-solve fixed costs show. */
std::vector<MemoryConfig>
smallConfigs()
{
    std::vector<MemoryConfig> out;
    for (const RamCellTech tech : {RamCellTech::Sram, RamCellTech::LpDram})
        for (const double kib : {16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
                                 1024.0})
            for (const int assoc : {2, 4, 8, 16})
                for (const int block : {32, 64})
                    for (const int banks : {1, 2}) {
                        MemoryConfig c;
                        c.capacityBytes = kib * 1024.0;
                        c.blockBytes = block;
                        c.associativity = assoc;
                        c.nBanks = banks;
                        c.type = MemoryType::Cache;
                        c.featureNm = 32.0;
                        c.dataCellTech = tech;
                        c.tagCellTech = tech;
                        if (tech != RamCellTech::Sram)
                            c.accessMode = AccessMode::Sequential;
                        out.push_back(c);
                    }
    return out;
}

/** One solve's outcome, compared bit for bit across job counts. */
struct Outcome {
    bool ok = false;
    Solution best;
    std::size_t survivors = 0;

    bool
    operator==(const Outcome &o) const
    {
        return ok == o.ok && survivors == o.survivors &&
               (!ok || (best.accessTime == o.best.accessTime &&
                        best.totalArea == o.best.totalArea &&
                        best.readEnergy == o.best.readEnergy &&
                        best.leakage == o.best.leakage &&
                        best.objective == o.best.objective));
    }
};

/** Solve each config alone at @p jobs; returns mean µs per solve. */
double
perSolveUs(const std::vector<MemoryConfig> &cfgs, int jobs,
           std::vector<Outcome> &outcomes)
{
    const SolverEngine engine(SolverOptions{jobs, false});
    outcomes.assign(cfgs.size(), Outcome{});
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        try {
            const SolveResult r = engine.run(cfgs[i]);
            outcomes[i] = {true, r.best, r.filtered.size()};
        } catch (const std::exception &) {
            // Infeasible point: the outcome records it.
        }
    }
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return s * 1e6 / double(cfgs.size());
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The value after `"key": ` in @p json (a flat bench JSON). */
std::string
jsonField(const std::string &json, const std::string &key)
{
    const std::string tag = "\"" + key + "\": ";
    const std::size_t at = json.find(tag);
    if (at == std::string::npos)
        return "";
    const std::size_t b = at + tag.size();
    return json.substr(b, json.find_first_of(",\n}", b) - b);
}

} // namespace

int
main(int argc, char **argv)
{
    int max_jobs = 8;
    int reps = 5;
    std::string out_path; // no file unless --out is given
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
            reps = std::max(1, std::atoi(argv[++i]));
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
        else if (!std::strcmp(argv[i], "--baseline") && i + 1 < argc)
            baseline_path = argv[++i];
        else if (argv[i][0] != '-')
            max_jobs = std::atoi(argv[i]);
        else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }
    const auto sweep = table3Sweep();

    std::printf("=== SolverEngine parallel speedup: Table-3 projection "
                "sweep (%zu solves, 32 nm) ===\n", sweep.size());
    std::printf("hardware concurrency: %d\n",
                cactid::SolverEngine::resolveJobs(0));

    std::vector<cactid::Solution> serial_best;
    const double t1 = runSweep(sweep, 1, serial_best);
    std::printf("%6s %10s %9s\n", "jobs", "wall(s)", "speedup");
    std::printf("%6d %10.3f %9.2fx\n", 1, t1, 1.0);

    bool identical = true;
    for (int jobs = 2; jobs <= max_jobs; jobs *= 2) {
        std::vector<cactid::Solution> best;
        const double tn = runSweep(sweep, jobs, best);
        for (std::size_t i = 0; i < best.size(); ++i) {
            identical = identical &&
                        best[i].accessTime ==
                            serial_best[i].accessTime &&
                        best[i].totalArea == serial_best[i].totalArea &&
                        best[i].readEnergy == serial_best[i].readEnergy;
        }
        std::printf("%6d %10.3f %9.2fx\n", jobs, tn, t1 / tn);
    }
    std::printf("parallel results bit-identical to serial: %s\n",
                identical ? "yes" : "NO");

    // --- Per-solve overhead on small configs, jobs 1 vs jobs N.
    const std::vector<MemoryConfig> small = smallConfigs();
    const int jobs_n = SolverEngine::resolveJobs(0);
    std::vector<Outcome> serial_out, pooled_out;
    std::vector<double> us1, usn;
    bool small_identical = true;
    for (int r = 0; r < reps; ++r) {
        us1.push_back(perSolveUs(small, 1, serial_out));
        usn.push_back(perSolveUs(small, jobs_n, pooled_out));
        small_identical = small_identical && serial_out == pooled_out;
    }
    const std::size_t feasible = static_cast<std::size_t>(std::count_if(
        serial_out.begin(), serial_out.end(),
        [](const Outcome &o) { return o.ok; }));
    const double med1 = median(us1), medn = median(usn);
    std::printf("\n=== Per-solve overhead: %zu small configs (%zu "
                "feasible), one solve at a time, %d reps ===\n",
                small.size(), feasible, reps);
    std::printf("jobs 1: %.1f us/solve   jobs %d: %.1f us/solve   "
                "(%.2fx)\n",
                med1, jobs_n, medn, med1 / medn);
    std::printf("small-config results bit-identical to serial: %s\n",
                small_identical ? "yes" : "NO");

    std::string baseline;
    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        const std::string b = ss.str();
        const std::string b1 = jsonField(b, "per_solve_us_jobs1_median");
        const std::string bn = jsonField(b, "per_solve_us_jobsN_median");
        if (b1.empty() || bn.empty()) {
            std::fprintf(stderr, "no per-solve medians in %s\n",
                         baseline_path.c_str());
            return 2;
        }
        baseline = "  \"baseline\": {\"build\": " +
                   jsonField(b, "build") +
                   ", \"per_solve_us_jobs1_median\": " + b1 +
                   ", \"per_solve_us_jobsN_median\": " + bn + "},\n";
    }

    using cactid::obs::fmtDouble;
    std::ostringstream os;
    os << "{\n"
       << "  \"schema\": \"cactid-bench-v1\",\n"
       << "  \"bench\": \"engine_parallel\",\n"
       << "  \"build\": \""
       << cactid::obs::jsonEscape(cactid::obs::buildInfo().gitDescribe)
       << "\",\n"
       << "  \"table3_identical\": " << (identical ? "true" : "false")
       << ",\n"
       << "  \"small_configs\": " << small.size() << ",\n"
       << "  \"small_feasible\": " << feasible << ",\n"
       << "  \"jobs_n\": " << jobs_n << ",\n"
       << "  \"per_solve_us_jobs1_median\": " << fmtDouble(med1) << ",\n"
       << "  \"per_solve_us_jobsN_median\": " << fmtDouble(medn) << ",\n"
       << "  \"small_identical\": "
       << (small_identical ? "true" : "false") << ",\n"
       << baseline << "  \"reps\": " << reps << "\n"
       << "}\n";
    if (!out_path.empty()) {
        std::ofstream(out_path, std::ios::binary) << os.str();
        std::printf("wrote %s\n", out_path.c_str());
    }
    return identical && small_identical ? 0 : 1;
}
