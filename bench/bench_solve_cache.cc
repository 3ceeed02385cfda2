/**
 * @file
 * Solve-cache and batch-API benchmark with identity gates.
 *
 * Measures, on a 9-configuration sweep spanning the three cell
 * technologies:
 *
 *  - cold vs hot solves/sec through a fresh SolveCache (the hot path
 *    is a memoized lookup; `--check` gates the ratio at >= 10x),
 *  - solveBatch vs an equivalent loop of independent solve() calls
 *    (bit-identical results required, for jobs 1 and 4),
 *  - the batch dedup/share ratios on a sweep with duplicates and
 *    weight-only variants,
 *  - the pinned bench/golden study sweep run with the cache installed
 *    cold and then warm (the exports must stay byte-identical to the
 *    goldens — a cached sweep may never change a byte).
 *
 * Results land in the JSON file named by --out (the committed record is
 * BENCH_solve_cache.json); without --out no file is written.
 *
 * Usage: bench_solve_cache [--golden-dir DIR] [--out FILE] [--reps N]
 *                          [--check]
 *        (defaults: bench/golden, no JSON file, 5)
 * Exit status is non-zero when an identity gate fails, or, with
 * --check, when the hot/cold speedup is below 10x.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/cacti.hh"
#include "core/solve_cache.hh"
#include "obs/build_info.hh"
#include "obs/numfmt.hh"
#include "sim/runner.hh"

namespace {

using namespace cactid;

MemoryConfig
cacheConfig(double capacity, int assoc, RamCellTech tech)
{
    MemoryConfig c;
    c.capacityBytes = capacity;
    c.blockBytes = 64;
    c.associativity = assoc;
    c.nBanks = 4;
    c.type = MemoryType::Cache;
    c.accessMode = AccessMode::Sequential;
    c.featureNm = 45.0;
    c.dataCellTech = tech;
    c.tagCellTech = tech;
    c.sleepTransistors = tech == RamCellTech::Sram;
    return c;
}

/** Nine unique solves: three capacities per cell technology. */
std::vector<MemoryConfig>
uniqueSweep()
{
    std::vector<MemoryConfig> sweep;
    for (const RamCellTech tech :
         {RamCellTech::Sram, RamCellTech::LpDram,
          RamCellTech::CommDram}) {
        sweep.push_back(cacheConfig(256 << 10, 4, tech));
        sweep.push_back(cacheConfig(512 << 10, 8, tech));
        sweep.push_back(cacheConfig(1 << 20, 8, tech));
    }
    return sweep;
}

bool
sameSolution(const Solution &a, const Solution &b)
{
    return a.data.part.rowsPerSubarray == b.data.part.rowsPerSubarray &&
           a.data.part.colsPerSubarray == b.data.part.colsPerSubarray &&
           a.data.part.blMux == b.data.part.blMux &&
           a.data.part.samMux == b.data.part.samMux &&
           a.data.nMats == b.data.nMats &&
           a.nSubbanks == b.nSubbanks &&
           a.accessTime == b.accessTime &&
           a.randomCycle == b.randomCycle &&
           a.interleaveCycle == b.interleaveCycle &&
           a.totalArea == b.totalArea &&
           a.areaEfficiency == b.areaEfficiency &&
           a.readEnergy == b.readEnergy &&
           a.writeEnergy == b.writeEnergy &&
           a.leakage == b.leakage &&
           a.refreshPower == b.refreshPower && a.tRcd == b.tRcd &&
           a.tCas == b.tCas && a.tRp == b.tRp && a.tRas == b.tRas &&
           a.tRc == b.tRc && a.tRrd == b.tRrd &&
           a.activateEnergy == b.activateEnergy &&
           a.readBurstEnergy == b.readBurstEnergy &&
           a.writeBurstEnergy == b.writeBurstEnergy &&
           a.objective == b.objective;
}

bool
sameResult(const SolveResult &a, const SolveResult &b)
{
    if (!sameSolution(a.best, b.best) ||
        a.filtered.size() != b.filtered.size() ||
        a.stats.solutionsBuilt != b.stats.solutionsBuilt)
        return false;
    for (std::size_t i = 0; i < a.filtered.size(); ++i) {
        if (!sameSolution(a.filtered[i], b.filtered[i]))
            return false;
    }
    return true;
}

double
secondsSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream os;
    os << is.rdbuf();
    out = os.str();
    return true;
}

/** Drop the build-stamp lines (they differ across commits). */
std::string
stripBuildLines(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t end = s.find('\n', pos);
        end = end == std::string::npos ? s.size() : end + 1;
        const std::string_view line(&s[pos], end - pos);
        if (line.find("\"build\"") == std::string_view::npos)
            out.append(line);
        pos = end;
    }
    return out;
}

/** The pinned bench/golden sweep, with whatever cache is installed. */
std::string
goldenSweepJson()
{
    // Study's LLC solves run in its constructor, so constructing it
    // here sends them through the installed global cache.
    const archsim::Study study;
    archsim::RunnerOptions opts;
    opts.instrPerThread = 20000;
    opts.epochCycles = 20000;
    opts.thermal = false;
    opts.configs = {"nol3", "cm_dram_ed"};
    opts.workloads = {"mg.B", "cg.C"};
    opts.jobs = 1;
    const archsim::StudyRunner runner(study, opts);
    const std::vector<archsim::RunResult> runs = runner.runAll();
    std::ostringstream os;
    archsim::exportJson(os, runs, runner);
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string golden_dir = "bench/golden";
    std::string out_path; // no file unless --out is given
    int reps = 5;
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--golden-dir") && i + 1 < argc)
            golden_dir = argv[++i];
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
        else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
            reps = std::atoi(argv[++i]);
        else if (!std::strcmp(argv[i], "--check"))
            check = true;
        else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }

    std::printf("=== solve cache (%s) ===\n",
                cactid::obs::versionLine("bench_solve_cache").c_str());

    const std::vector<MemoryConfig> sweep = uniqueSweep();
    bool ok = true;

    // --- Cold vs hot solves/sec through a fresh in-memory cache. ---
    SolveCache cache{SolveCacheConfig{}};
    SolverOptions copts;
    copts.collectAll = false;
    copts.cache = &cache;
    const SolverEngine cached(copts);

    const auto cold_start = std::chrono::steady_clock::now();
    std::vector<SolveResult> cold_results;
    for (const MemoryConfig &cfg : sweep)
        cold_results.push_back(cached.run(cfg));
    const double cold_s = secondsSince(cold_start);

    const int hot_sweeps = 50 * reps;
    const auto hot_start = std::chrono::steady_clock::now();
    for (int r = 0; r < hot_sweeps; ++r) {
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            const SolveResult res = cached.run(sweep[i]);
            ok &= sameResult(res, cold_results[i]);
        }
    }
    const double hot_s = secondsSince(hot_start);

    const double cold_sps = sweep.size() / cold_s;
    const double hot_sps = sweep.size() * hot_sweeps / hot_s;
    const double speedup = cold_sps > 0 ? hot_sps / cold_sps : 0.0;
    const bool fast_enough = speedup >= 10.0;
    std::printf("cold: %zu solves in %.3f s = %.1f solves/s\n",
                sweep.size(), cold_s, cold_sps);
    std::printf("hot:  %zu solves in %.3f s = %.3e solves/s\n",
                sweep.size() * hot_sweeps, hot_s, hot_sps);
    std::printf("hot/cold speedup: %.1fx (gate: >= 10x %s)\n", speedup,
                fast_enough ? "PASS" : check ? "FAIL" : "unchecked");
    if (check)
        ok &= fast_enough;
    const SolveCacheCounters cc = cache.counters();
    std::printf("counters: %llu hits, %llu misses, %llu entries, "
                "%llu bytes\n",
                static_cast<unsigned long long>(cc.hits),
                static_cast<unsigned long long>(cc.misses),
                static_cast<unsigned long long>(cc.entries),
                static_cast<unsigned long long>(cc.bytes));

    // --- Batch vs loop identity (no cache involved). ---
    // Duplicates and weight-only variants exercise both sharing tiers.
    std::vector<MemoryConfig> batch = sweep;
    for (std::size_t i = 0; i < 3; ++i)
        batch.push_back(sweep[i]); // exact duplicates
    for (std::size_t i = 0; i < 3; ++i) {
        MemoryConfig v = sweep[3 + i]; // weight-only variants
        v.weights = {1.0, 2.0, 0.5, 0.5, 0.0, 2.0};
        batch.push_back(v);
    }

    bool batch_identical = true;
    BatchStats bstats{};
    for (const int jobs : {1, 4}) {
        SolverOptions plain;
        plain.jobs = jobs;
        plain.collectAll = false;
        const SolverEngine engine(plain);
        const std::vector<SolveResult> batched =
            engine.solveBatch(batch, &bstats);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            batch_identical &=
                sameResult(batched[i], engine.run(batch[i]));
        }
        std::printf("batch vs loop (jobs=%d): %s\n", jobs,
                    batch_identical ? "IDENTICAL" : "DIFFERS");
    }
    ok &= batch_identical;
    const double dedup_ratio =
        bstats.uniqueSolves
            ? double(bstats.requests) / double(bstats.uniqueSolves)
            : 0.0;
    const double share_ratio =
        bstats.shareGroups
            ? double(bstats.uniqueSolves) / double(bstats.shareGroups)
            : 0.0;
    std::printf("batch stats: %zu requests -> %zu unique solves "
                "(dedup %.2fx) in %zu share groups (share %.2fx)\n",
                bstats.requests, bstats.uniqueSolves, dedup_ratio,
                bstats.shareGroups, share_ratio);

    // --- Cached study sweep vs the pinned goldens. ---
    std::string golden_json;
    if (!readFile(golden_dir + "/sim_hotpath.json", golden_json)) {
        std::fprintf(stderr,
                     "cannot read goldens under %s (run from the repo "
                     "root, or pass --golden-dir)\n",
                     golden_dir.c_str());
        return 2;
    }
    const std::string golden = stripBuildLines(golden_json);
    SolveCache study_cache{SolveCacheConfig{}};
    setGlobalSolveCache(&study_cache);
    const bool sweep_cold_ok =
        stripBuildLines(goldenSweepJson()) == golden;
    const bool sweep_warm_ok =
        stripBuildLines(goldenSweepJson()) == golden;
    setGlobalSolveCache(nullptr);
    const bool study_hits = study_cache.counters().hits > 0;
    std::printf("cached study sweep vs %s: cold %s, warm %s "
                "(%llu warm hits)\n",
                golden_dir.c_str(),
                sweep_cold_ok ? "IDENTICAL" : "DIFFERS",
                sweep_warm_ok ? "IDENTICAL" : "DIFFERS",
                static_cast<unsigned long long>(
                    study_cache.counters().hits));
    ok &= sweep_cold_ok && sweep_warm_ok && study_hits;

    using cactid::obs::fmtDouble;
    using cactid::obs::jsonEscape;
    std::ostringstream os;
    os << "{\n"
       << "  \"schema\": \"cactid-bench-v1\",\n"
       << "  \"bench\": \"solve_cache\",\n"
       << "  \"build\": \""
       << jsonEscape(cactid::obs::buildInfo().gitDescribe) << "\",\n"
       << "  \"unique_configs\": " << sweep.size() << ",\n"
       << "  \"cold_solves_per_sec\": " << fmtDouble(cold_sps) << ",\n"
       << "  \"hot_solves_per_sec\": " << fmtDouble(hot_sps) << ",\n"
       << "  \"hot_cold_speedup\": " << fmtDouble(speedup) << ",\n"
       << "  \"speedup_gate_10x\": "
       << (fast_enough ? "true" : "false") << ",\n"
       << "  \"batch_identical\": "
       << (batch_identical ? "true" : "false") << ",\n"
       << "  \"batch_requests\": " << bstats.requests << ",\n"
       << "  \"batch_unique_solves\": " << bstats.uniqueSolves << ",\n"
       << "  \"batch_share_groups\": " << bstats.shareGroups << ",\n"
       << "  \"batch_dedup_ratio\": " << fmtDouble(dedup_ratio)
       << ",\n"
       << "  \"batch_share_ratio\": " << fmtDouble(share_ratio)
       << ",\n"
       << "  \"cached_study_identical\": "
       << (sweep_cold_ok && sweep_warm_ok ? "true" : "false") << ",\n"
       << "  \"reps\": " << reps << "\n"
       << "}\n";
    if (!out_path.empty()) {
        std::ofstream(out_path, std::ios::binary) << os.str();
        std::printf("wrote %s\n", out_path.c_str());
    }

    if (!ok)
        std::fprintf(stderr, "bench_solve_cache: a gate failed\n");
    return ok ? 0 : 1;
}
