/**
 * @file
 * Sparse-directory ablation: entries x pointers sizing at 32 cores,
 * plus sparse-vs-broadcast host throughput scaling at 32/64/128 cores.
 *
 * The sizing sweep runs a coherence-bound shared-write workload
 * against progressively smaller directories.  An undersized directory
 * evicts live entries, and every eviction invalidates the tracked
 * sharers — visible as extra simulated cycles and eviction-invalidation
 * counts.  Narrow pointer fields overflow instead, which costs nothing
 * in simulated time (probing a non-holder is free) but shows up in the
 * overflow counter.  The scaling sweep pins why the directory exists
 * at all: broadcast probes every remote L2 per transaction, so its
 * host throughput collapses with the core count while the sparse
 * directory's does not.
 *
 * Usage: bench_ablation_directory [--out FILE] [--reps N]
 *        (defaults: no JSON file, 2)
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/build_info.hh"
#include "obs/numfmt.hh"
#include "sim/cpu/system.hh"

namespace {

using namespace archsim;

constexpr std::uint64_t kInstr = 2000;
constexpr int kThreadsPerCore = 2;

System
makeSystem(int cores, DirectoryMode mode, SparseDirParams dir)
{
    HierarchyParams hp;
    hp.nCores = cores;
    hp.llc.reset();
    hp.dirMode = mode;
    hp.dir = dir;
    WorkloadParams w;
    w.name = "sharestorm";
    w.memFrac = 0.5;
    w.hotFrac = 0.0;
    w.streamFrac = 0.0;
    w.alpha = 1.0;
    w.wsBytes = 512 << 10;
    w.sharedFrac = 1.0;
    w.barrierEvery = 0;
    return System(hp, w, kInstr, cores, kThreadsPerCore);
}

struct Timed {
    SimStats stats;
    double secs = 0;
};

Timed
timeRun(int cores, DirectoryMode mode, SparseDirParams dir, int reps)
{
    Timed t;
    t.secs = 1e300;
    for (int i = 0; i < reps; ++i) {
        System sys = makeSystem(cores, mode, dir);
        const auto start = std::chrono::steady_clock::now();
        t.stats = sys.run();
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (secs < t.secs)
            t.secs = secs;
    }
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path; // no file unless --out is given
    int reps = 2;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
        else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
            reps = std::atoi(argv[++i]);
        else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }

    std::printf("=== directory ablation (%s) ===\n",
                cactid::obs::versionLine("bench_ablation_directory")
                    .c_str());

    using cactid::obs::fmtDouble;
    using cactid::obs::jsonEscape;
    std::ostringstream os;
    os << "{\n"
       << "  \"schema\": \"cactid-bench-v1\",\n"
       << "  \"bench\": \"ablation_directory\",\n"
       << "  \"build\": \""
       << jsonEscape(cactid::obs::buildInfo().gitDescribe) << "\",\n"
       << "  \"instr_per_thread\": " << kInstr << ",\n"
       << "  \"threads_per_core\": " << kThreadsPerCore << ",\n"
       << "  \"reps\": " << reps << ",\n";

    // --- Sizing: entries (sets x 8 ways) x pointers at 32 cores. ---
    std::printf("sizing at 32 cores (512KB shared working set, "
                "%llu instr/thread):\n"
                "  %8s %4s | %10s %10s %10s %10s | %12s\n",
                static_cast<unsigned long long>(kInstr), "entries",
                "ptrs", "evictions", "ev-invals", "overflows",
                "peak-live", "sim-cycles");
    os << "  \"sizing_32core\": [\n";
    const std::size_t kSets[] = {64, 256, 1024, 4096};
    const int kPtrs[] = {1, 2, 4, 8};
    bool first = true;
    for (std::size_t sets : kSets) {
        for (int ptrs : kPtrs) {
            SparseDirParams dir;
            dir.sets = sets;
            dir.assoc = 8;
            dir.pointers = ptrs;
            const Timed t =
                timeRun(32, DirectoryMode::Sparse, dir, reps);
            std::printf("  %8zu %4d | %10llu %10llu %10llu %10llu | "
                        "%12llu\n",
                        sets * 8, ptrs,
                        static_cast<unsigned long long>(
                            t.stats.dirEvictions),
                        static_cast<unsigned long long>(
                            t.stats.dirEvictionInvals),
                        static_cast<unsigned long long>(
                            t.stats.dirOverflows),
                        static_cast<unsigned long long>(
                            t.stats.dirPeakLive),
                        static_cast<unsigned long long>(
                            t.stats.cycles));
            os << (first ? "" : ",\n") << "    {\"entries\": "
               << sets * 8 << ", \"pointers\": " << ptrs
               << ", \"evictions\": " << t.stats.dirEvictions
               << ", \"eviction_invals\": " << t.stats.dirEvictionInvals
               << ", \"overflows\": " << t.stats.dirOverflows
               << ", \"peak_live\": " << t.stats.dirPeakLive
               << ", \"sim_cycles\": " << t.stats.cycles
               << ", \"wall_s\": " << fmtDouble(t.secs) << "}";
            first = false;
        }
    }
    os << "\n  ],\n";

    // --- Scaling: sparse (auto geometry) vs broadcast. ---
    std::printf("core scaling (auto directory geometry):\n"
                "  %5s | %13s %13s | %8s %10s\n", "cores",
                "sparse cyc/s", "bcast cyc/s", "speedup", "aggregates");
    os << "  \"scaling\": [\n";
    bool all_same = true;
    first = true;
    for (int cores : {32, 64, 128}) {
        const Timed sd =
            timeRun(cores, DirectoryMode::Sparse, {}, reps);
        const Timed bc =
            timeRun(cores, DirectoryMode::Broadcast, {}, reps);
        const double sd_cps =
            sd.secs > 0 ? double(sd.stats.cycles) / sd.secs : 0.0;
        const double bc_cps =
            bc.secs > 0 ? double(bc.stats.cycles) / bc.secs : 0.0;
        const double speedup = bc_cps > 0 ? sd_cps / bc_cps : 0.0;
        // With auto geometry the directory covers 2x every L2 line,
        // so nothing evicts and the two machines are identical.
        const bool same =
            sd.stats.cycles == bc.stats.cycles &&
            sd.stats.instructions == bc.stats.instructions &&
            sd.stats.hier.l2Misses == bc.stats.hier.l2Misses &&
            sd.stats.hier.c2cTransfers == bc.stats.hier.c2cTransfers &&
            sd.stats.dirEvictions == 0;
        all_same &= same;
        std::printf("  %5d | %13.3e %13.3e | %7.2fx %10s\n", cores,
                    sd_cps, bc_cps, speedup,
                    same ? "IDENTICAL" : "DIFFER");
        os << (first ? "" : ",\n") << "    {\"cores\": " << cores
           << ", \"sparse_cycles_per_sec\": " << fmtDouble(sd_cps)
           << ", \"broadcast_cycles_per_sec\": " << fmtDouble(bc_cps)
           << ", \"speedup\": " << fmtDouble(speedup)
           << ", \"aggregates_identical\": "
           << (same ? "true" : "false") << "}";
        first = false;
    }
    os << "\n  ],\n"
       << "  \"scaling_aggregates_identical\": "
       << (all_same ? "true" : "false") << "\n"
       << "}\n";
    if (!out_path.empty()) {
        std::ofstream(out_path, std::ios::binary) << os.str();
        std::printf("wrote %s\n", out_path.c_str());
    }

    if (!all_same)
        std::fprintf(stderr,
                     "bench_ablation_directory: sparse and broadcast "
                     "aggregates diverged\n");
    return all_same ? 0 : 1;
}
