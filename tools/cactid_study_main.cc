/**
 * @file
 * The `cactid-study` command-line tool: run the section-4 LLC study
 * sweep (6 configurations x 8 NPB workloads) across a worker pool and
 * export the Figure-4/5 aggregates and the per-epoch metric streams
 * as JSON and CSV.
 *
 * Usage:
 *   cactid-study                         full sweep, aggregate table
 *   cactid-study --jobs 8                worker threads (0 = all cores)
 *   cactid-study --instr 50000           instruction budget per thread
 *   cactid-study --epoch 20000           epoch interval (cycles)
 *   cactid-study --configs nol3,sram     subset of configurations
 *   cactid-study --workloads ft.B,cg.C   subset of workloads
 *   cactid-study --json FILE             JSON export ("-" = stdout)
 *   cactid-study --csv FILE              per-epoch CSV export
 *   cactid-study --summary-csv FILE      per-run aggregate CSV export
 *   cactid-study --no-thermal            skip the stack thermal solves
 *   cactid-study --table3                print Table 3 first
 *   cactid-study --quiet                 suppress the aggregate table
 *   cactid-study --trace FILE            simulator events as Chrome
 *                                        trace JSON (deterministic)
 *   cactid-study --cache on|off          memoize the LLC solves
 *   cactid-study --cache-dir DIR         persist the solve cache
 *   cactid-study --registry FILE         per-run counter registries
 *   cactid-study --openmetrics FILE      the same counters in the
 *                                        OpenMetrics text format
 *   cactid-study --latency-histograms    per-level latency and queue
 *                                        distributions (sim.lat.*)
 *   cactid-study --telemetry FILE        live JSONL sweep heartbeat
 *   cactid-study --telemetry-interval MS heartbeat period (default
 *                                        1000)
 *   cactid-study --profile               wall-clock span summary
 *   cactid-study --checkpoint DIR        persist each completed run
 *   cactid-study --checkpoint DIR --resume
 *                                        reuse valid records, re-run
 *                                        the missing and failed ones
 *   cactid-study --max-cycles N          per-run simulated-cycle budget
 *   cactid-study --max-wall-ms N         per-run wall-clock budget
 *   cactid-study --retry N               attempts per failed run
 *   cactid-study --cores N               cores per system (default 8)
 *   cactid-study --threads-per-core N    hardware threads per core (4)
 *   cactid-study --dir-mode MODE         sharer tracking: auto, snoop,
 *                                        broadcast or sparse
 *   cactid-study --dir-sets/--dir-assoc/--dir-pointers
 *                                        sparse-directory geometry
 *   cactid-study --version               build stamp
 *
 * Exit codes: 0 every run Ok; 1 the sweep completed but some run is
 * non-Ok (failed / timed out); 2 usage or configuration error; 3
 * internal error (unexpected exception, failed output write).
 */

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "obs/build_info.hh"
#include "obs/export.hh"
#include "obs/trace.hh"
#include "sim/resilience.hh"
#include "sim/runner.hh"
#include "tools/cache_cli.hh"
#include "util/atomic_file.hh"

namespace {

using namespace archsim;

void
printHelp()
{
    std::printf(
        "cactid-study - parallel LLC study sweep (paper section 4)\n"
        "\n"
        "usage: cactid-study [options]\n"
        "  --jobs N           worker threads (0 = all cores; default 0)\n"
        "  --instr N          instructions per hardware thread\n"
        "                     (default: ARCHSIM_INSTR or 150000)\n"
        "  --epoch N          epoch sampling interval in CPU cycles\n"
        "                     (default 20000; 0 disables sampling)\n"
        "  --configs a,b      subset of: nol3 sram lp_dram_ed lp_dram_c\n"
        "                     cm_dram_ed cm_dram_c\n"
        "  --workloads x,y    subset of: bt.C cg.C ft.B is.C lu.C mg.B\n"
        "                     sp.C ua.C\n"
        "  --json FILE        write the sweep as JSON (- for stdout)\n"
        "  --csv FILE         write per-epoch metrics CSV (- for stdout)\n"
        "  --summary-csv FILE write per-run aggregate CSV (- for stdout)\n"
        "  --no-thermal       skip stack-temperature solves\n"
        "  --table3           print the Table-3 projections first\n"
        "  --quiet            suppress the aggregate table\n"
        "  --trace FILE       write simulator events as Chrome trace\n"
        "                     JSON (- for stdout; simulated-cycle\n"
        "                     clock, byte-identical for any --jobs)\n"
        "  --trace-capacity N per-run event ring size (default 16384)\n"
        "  --cache on|off     memoize the study's LLC solves (default\n"
        "                     off, on when --cache-dir is given; the\n"
        "                     sweep output is byte-identical either\n"
        "                     way)\n"
        "  --cache-dir DIR    persist solve-cache records under DIR,\n"
        "                     shared across runs; records from another\n"
        "                     build are rejected and re-solved\n"
        "  --registry FILE    write per-run counters as cactid-obs-v1\n"
        "  --openmetrics FILE write per-run counters in the\n"
        "                     OpenMetrics text exposition (- for\n"
        "                     stdout; run=\"workload/config\" labels)\n"
        "  --latency-histograms\n"
        "                     record per-level access-latency and\n"
        "                     queueing distributions (sim.lat.* in\n"
        "                     the registry, percentiles in the JSON;\n"
        "                     byte-identical for any --jobs)\n"
        "  --telemetry FILE   append a live cactid-telemetry-v1 JSONL\n"
        "                     snapshot (atomically rewritten; wall-\n"
        "                     clock fields under per-record \"host\"\n"
        "                     objects, everything else deterministic)\n"
        "  --telemetry-interval MS\n"
        "                     heartbeat period in milliseconds\n"
        "                     (default 1000)\n"
        "  --profile          wall-clock span summary on stderr\n"
        "  --checkpoint DIR   persist each completed run atomically\n"
        "                     under DIR (incompatible with --trace)\n"
        "  --resume           with --checkpoint: reuse valid records,\n"
        "                     re-run missing/failed; merged output is\n"
        "                     byte-identical to an uninterrupted sweep\n"
        "  --max-cycles N     per-run simulated-cycle budget; a run\n"
        "                     over budget lands as timed_out at\n"
        "                     exactly cycle N (0 = unlimited)\n"
        "  --max-wall-ms N    per-run wall-clock budget in ms\n"
        "                     (machine-dependent; 0 = unlimited)\n"
        "  --retry N          total attempts per failed run\n"
        "                     (default 1 = no retry)\n"
        "  --retry-timeouts   also retry timed-out runs\n"
        "  --cores N          cores per simulated system (default 8;\n"
        "                     >16 needs a directory: auto switches to\n"
        "                     the sparse directory with a warning)\n"
        "  --threads-per-core N\n"
        "                     hardware threads per core (default 4)\n"
        "  --dir-mode MODE    sharer tracking: auto (default), snoop\n"
        "                     (exact filter, <=16 cores), broadcast,\n"
        "                     or sparse (limited-pointer directory)\n"
        "  --dir-sets N       sparse-directory sets (power of two;\n"
        "                     0 = auto-size to 2x the L2 lines)\n"
        "  --dir-assoc N      sparse-directory ways per set (default 8)\n"
        "  --dir-pointers N   exact core pointers per entry (default 4)\n"
        "  --fault-plan SPEC  inject deterministic faults (testing);\n"
        "                     SPEC = INDEX@SITE[:CYCLE][xN],... with\n"
        "                     SITE one of solve step timeout export\n"
        "  --version          print the build stamp\n"
        "\n"
        "exit codes: 0 all runs ok; 1 sweep completed with non-ok\n"
        "runs; 2 usage/configuration error; 3 internal error\n");
}

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

struct CliArgs {
    int jobs = 0;
    std::uint64_t instr = 0;
    archsim::Cycle epoch = 20000;
    std::string configs, workloads;
    std::string jsonPath, csvPath, summaryPath;
    std::string tracePath, registryPath, openMetricsPath;
    std::string telemetryPath;
    std::uint64_t telemetryIntervalMs = 1000;
    bool telemetryIntervalSet = false;
    bool latencyHistograms = false;
    std::string checkpointDir, faultPlanSpec;
    std::string cacheMode, cacheDir;
    std::size_t traceCapacity = 1 << 14;
    archsim::Cycle maxCycles = 0;
    std::uint64_t maxWallMs = 0;
    int retry = 1;
    int cores = 0;
    int threadsPerCore = 0;
    std::string dirMode = "auto";
    std::size_t dirSets = 0;
    int dirAssoc = 8;
    int dirPointers = 4;
    bool retryTimeouts = false;
    bool resume = false;
    bool profile = false;
    bool thermal = true;
    bool table3 = false;
    bool quiet = false;
    bool version = false;
    bool help = false;
    bool ok = true;
};

CliArgs
parseArgs(int argc, char **argv)
{
    CliArgs a;
    auto value = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "cactid-study: %s needs a value\n",
                         flag);
            a.ok = false;
            return nullptr;
        }
        return argv[++i];
    };
    for (int i = 1; i < argc && a.ok; ++i) {
        const char *arg = argv[i];
        const char *v = nullptr;
        if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h"))
            a.help = true;
        else if (!std::strcmp(arg, "--jobs"))
            a.jobs = (v = value(i, arg)) ? std::atoi(v) : 0;
        else if (!std::strcmp(arg, "--instr"))
            a.instr = (v = value(i, arg))
                          ? std::strtoull(v, nullptr, 10)
                          : 0;
        else if (!std::strcmp(arg, "--epoch"))
            a.epoch = (v = value(i, arg))
                          ? std::strtoull(v, nullptr, 10)
                          : 0;
        else if (!std::strcmp(arg, "--configs"))
            a.configs = (v = value(i, arg)) ? v : "";
        else if (!std::strcmp(arg, "--workloads"))
            a.workloads = (v = value(i, arg)) ? v : "";
        else if (!std::strcmp(arg, "--json"))
            a.jsonPath = (v = value(i, arg)) ? v : "";
        else if (!std::strcmp(arg, "--csv"))
            a.csvPath = (v = value(i, arg)) ? v : "";
        else if (!std::strcmp(arg, "--summary-csv"))
            a.summaryPath = (v = value(i, arg)) ? v : "";
        else if (!std::strcmp(arg, "--trace"))
            a.tracePath = (v = value(i, arg)) ? v : "";
        else if (!std::strcmp(arg, "--trace-capacity"))
            a.traceCapacity = (v = value(i, arg))
                                  ? std::strtoull(v, nullptr, 10)
                                  : 0;
        else if (!std::strcmp(arg, "--registry"))
            a.registryPath = (v = value(i, arg)) ? v : "";
        else if (!std::strcmp(arg, "--openmetrics"))
            a.openMetricsPath = (v = value(i, arg)) ? v : "";
        else if (!std::strcmp(arg, "--telemetry"))
            a.telemetryPath = (v = value(i, arg)) ? v : "";
        else if (!std::strcmp(arg, "--telemetry-interval")) {
            a.telemetryIntervalMs = (v = value(i, arg))
                                        ? std::strtoull(v, nullptr, 10)
                                        : 0;
            a.telemetryIntervalSet = true;
        } else if (!std::strcmp(arg, "--latency-histograms"))
            a.latencyHistograms = true;
        else if (!std::strcmp(arg, "--cache"))
            a.cacheMode = (v = value(i, arg)) ? v : "";
        else if (!std::strcmp(arg, "--cache-dir"))
            a.cacheDir = (v = value(i, arg)) ? v : "";
        else if (!std::strcmp(arg, "--checkpoint"))
            a.checkpointDir = (v = value(i, arg)) ? v : "";
        else if (!std::strcmp(arg, "--resume"))
            a.resume = true;
        else if (!std::strcmp(arg, "--max-cycles"))
            a.maxCycles = (v = value(i, arg))
                              ? std::strtoull(v, nullptr, 10)
                              : 0;
        else if (!std::strcmp(arg, "--max-wall-ms"))
            a.maxWallMs = (v = value(i, arg))
                              ? std::strtoull(v, nullptr, 10)
                              : 0;
        else if (!std::strcmp(arg, "--retry"))
            a.retry = (v = value(i, arg)) ? std::atoi(v) : 0;
        else if (!std::strcmp(arg, "--cores"))
            a.cores = (v = value(i, arg)) ? std::atoi(v) : 0;
        else if (!std::strcmp(arg, "--threads-per-core"))
            a.threadsPerCore = (v = value(i, arg)) ? std::atoi(v) : 0;
        else if (!std::strcmp(arg, "--dir-mode"))
            a.dirMode = (v = value(i, arg)) ? v : "";
        else if (!std::strcmp(arg, "--dir-sets"))
            a.dirSets = (v = value(i, arg))
                            ? std::strtoull(v, nullptr, 10)
                            : 0;
        else if (!std::strcmp(arg, "--dir-assoc"))
            a.dirAssoc = (v = value(i, arg)) ? std::atoi(v) : 0;
        else if (!std::strcmp(arg, "--dir-pointers"))
            a.dirPointers = (v = value(i, arg)) ? std::atoi(v) : 0;
        else if (!std::strcmp(arg, "--retry-timeouts"))
            a.retryTimeouts = true;
        else if (!std::strcmp(arg, "--fault-plan"))
            a.faultPlanSpec = (v = value(i, arg)) ? v : "";
        else if (!std::strcmp(arg, "--profile"))
            a.profile = true;
        else if (!std::strcmp(arg, "--version"))
            a.version = true;
        else if (!std::strcmp(arg, "--no-thermal"))
            a.thermal = false;
        else if (!std::strcmp(arg, "--table3"))
            a.table3 = true;
        else if (!std::strcmp(arg, "--quiet"))
            a.quiet = true;
        else {
            std::fprintf(stderr, "cactid-study: unknown flag %s\n",
                         arg);
            a.ok = false;
        }
    }
    if (a.ok && a.resume && a.checkpointDir.empty()) {
        std::fprintf(stderr,
                     "cactid-study: --resume requires --checkpoint\n");
        a.ok = false;
    }
    if (a.ok && !a.checkpointDir.empty() && !a.tracePath.empty()) {
        std::fprintf(stderr,
                     "cactid-study: --checkpoint cannot be combined "
                     "with --trace (event streams are not "
                     "checkpointed)\n");
        a.ok = false;
    }
    if (a.ok && !a.checkpointDir.empty() && a.latencyHistograms) {
        std::fprintf(stderr,
                     "cactid-study: --checkpoint cannot be combined "
                     "with --latency-histograms (distributions are "
                     "not checkpointed)\n");
        a.ok = false;
    }
    if (a.ok && a.telemetryIntervalSet && a.telemetryPath.empty()) {
        std::fprintf(stderr,
                     "cactid-study: --telemetry-interval requires "
                     "--telemetry\n");
        a.ok = false;
    }
    if (a.ok && a.telemetryIntervalSet && a.telemetryIntervalMs < 1) {
        std::fprintf(stderr,
                     "cactid-study: --telemetry-interval needs a "
                     "value >= 1\n");
        a.ok = false;
    }
    if (a.ok && a.retry < 1) {
        std::fprintf(stderr,
                     "cactid-study: --retry needs a value >= 1\n");
        a.ok = false;
    }
    if (a.ok && a.dirMode != "auto" && a.dirMode != "snoop" &&
        a.dirMode != "broadcast" && a.dirMode != "sparse") {
        std::fprintf(stderr,
                     "cactid-study: --dir-mode must be auto, snoop, "
                     "broadcast or sparse (got %s)\n",
                     a.dirMode.c_str());
        a.ok = false;
    }
    if (a.ok && a.cores < 0) {
        std::fprintf(stderr,
                     "cactid-study: --cores needs a value >= 1\n");
        a.ok = false;
    }
    if (a.ok && a.dirSets != 0 && (a.dirSets & (a.dirSets - 1)) != 0) {
        std::fprintf(stderr,
                     "cactid-study: --dir-sets must be a power of two "
                     "(got %zu)\n",
                     a.dirSets);
        a.ok = false;
    }
    if (a.ok && (a.dirAssoc < 1 || a.dirPointers < 1)) {
        std::fprintf(stderr,
                     "cactid-study: --dir-assoc and --dir-pointers "
                     "need values >= 1\n");
        a.ok = false;
    }
    if (a.ok && a.dirMode == "snoop" && a.cores > 16) {
        std::fprintf(stderr,
                     "cactid-study: --dir-mode snoop tracks at most "
                     "16 cores (--cores %d); use sparse\n",
                     a.cores);
        a.ok = false;
    }
    return a;
}

/**
 * Write to FILE (atomically: tmp + fsync + rename, so a crash or a
 * full disk never leaves a torn export), or to stdout when the path
 * is "-".  Stream failures are reported, not swallowed.
 */
bool
withStream(const std::string &path,
           const std::function<void(std::ostream &)> &fn)
{
    if (path == "-") {
        fn(std::cout);
        std::cout.flush();
        if (!std::cout) {
            std::fprintf(stderr,
                         "cactid-study: write to stdout failed\n");
            return false;
        }
        return true;
    }
    std::string err;
    if (!cactid::util::writeFileAtomic(path, fn, &err)) {
        std::fprintf(stderr, "cactid-study: %s\n", err.c_str());
        return false;
    }
    return true;
}

void
printAggregates(const std::vector<RunResult> &runs, bool thermal)
{
    std::printf("%-6s %-11s %8s %6s %12s %9s %9s",
                "app", "config", "cycles", "IPC", "read-lat(cyc)",
                "mh-pwr(W)", "EDP-norm");
    if (thermal)
        std::printf(" %9s", "Tmax(K)");
    std::printf("\n");
    std::string last_workload;
    double edp_base = 0.0;
    for (const RunResult &r : runs) {
        if (r.workload != last_workload && !last_workload.empty())
            std::printf("\n");
        if (r.workload != last_workload)
            edp_base = 0.0;
        last_workload = r.workload;
        if (!r.ok()) {
            std::printf("%-6s %-11s %s (phase %s, cycle %llu): %s\n",
                        r.workload.c_str(), r.config.c_str(),
                        runStatusName(r.status),
                        r.error.phase.empty() ? "?"
                                              : r.error.phase.c_str(),
                        static_cast<unsigned long long>(r.error.cycle),
                        r.error.message.c_str());
            continue;
        }
        if (r.config == "nol3")
            edp_base = r.power.edp();
        std::printf("%-6s %-11s %8llu %6.2f %12.1f %9.2f %9.3f",
                    r.workload.c_str(), r.config.c_str(),
                    static_cast<unsigned long long>(r.stats.cycles),
                    r.stats.ipc, r.stats.avgReadLatency,
                    r.power.memoryHierarchy(),
                    edp_base > 0 ? r.power.edp() / edp_base : 0.0);
        if (thermal)
            std::printf(" %9.2f", r.thermal.maxTemp);
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args = parseArgs(argc, argv);
    if (!args.ok)
        return 2;
    if (args.version) {
        std::printf(
            "%s\n",
            cactid::obs::versionLine("cactid-study").c_str());
        return 0;
    }
    if (args.help) {
        printHelp();
        return 0;
    }
    if (args.profile)
        cactid::obs::Tracer::instance().enable(true);

    try {
        // Install the solve cache before the Study constructor runs
        // its eight LLC solves, so those are memoized too.
        std::string cache_err;
        if (!cactid::tools::installSolveCache(
                args.cacheMode, args.cacheDir, &cache_err)) {
            std::fprintf(stderr, "cactid-study: %s\n",
                         cache_err.c_str());
            return 2;
        }

        Study study;
        if (args.table3)
            study.printTable3(std::cout);

        RunnerOptions opts;
        opts.jobs = args.jobs;
        opts.instrPerThread = args.instr;
        opts.epochCycles = args.epoch;
        opts.thermal = args.thermal;
        opts.configs = splitList(args.configs);
        opts.workloads = splitList(args.workloads);
        opts.trace = !args.tracePath.empty();
        opts.traceCapacity = args.traceCapacity;
        opts.latencyHistograms = args.latencyHistograms;

        // Telemetry write failures degrade like checkpoint failures:
        // the sweep completes, the tool exits 3.
        std::mutex telem_mtx;
        std::string telem_err;
        bool telem_ok = true;
        if (!args.telemetryPath.empty()) {
            opts.telemetry.path = args.telemetryPath;
            opts.telemetry.intervalMs = args.telemetryIntervalMs;
            opts.telemetry.onError = [&](const std::string &msg) {
                const std::lock_guard<std::mutex> lock(telem_mtx);
                telem_ok = false;
                if (telem_err.empty())
                    telem_err = msg;
            };
        }
        opts.maxCycles = args.maxCycles;
        opts.maxWallMs = args.maxWallMs;
        opts.nCores = args.cores;
        opts.threadsPerCore = args.threadsPerCore;
        if (args.dirMode == "snoop")
            opts.dirMode = DirectoryMode::Snoop;
        else if (args.dirMode == "broadcast")
            opts.dirMode = DirectoryMode::Broadcast;
        else if (args.dirMode == "sparse")
            opts.dirMode = DirectoryMode::Sparse;
        opts.dir.sets = args.dirSets;
        opts.dir.assoc = args.dirAssoc;
        opts.dir.pointers = args.dirPointers;
        opts.retry.maxAttempts = args.retry;
        opts.retry.retryTimeouts = args.retryTimeouts;
        if (!args.faultPlanSpec.empty())
            opts.faultPlan = FaultPlan::parse(args.faultPlanSpec);

        // Checkpointing hangs off the runner hooks: completed runs
        // persist atomically from the worker that ran them, and
        // --resume places Ok records back into their slots without
        // re-executing; a rejected record re-runs (the first one is
        // reported).  A directory that cannot be created is a usage
        // error (exit 2) before any run starts; a save failure
        // degrades to a warning plus exit code 3 — the sweep itself
        // still completes.
        std::unique_ptr<CheckpointStore> store;
        std::mutex ckpt_mtx;
        std::string ckpt_err;
        bool ckpt_ok = true;
        std::atomic<bool> ckpt_warned{false}; // first reject only
        if (!args.checkpointDir.empty()) {
            const StudyRunner probe(study, opts);
            store = std::make_unique<CheckpointStore>(
                args.checkpointDir, probe.fingerprint());
            std::string err;
            if (!store->ensureDir(&err)) {
                std::fprintf(stderr, "cactid-study: --checkpoint: %s\n",
                             err.c_str());
                return 2;
            }
            const FaultPlan plan = opts.faultPlan;
            CheckpointStore *st = store.get();
            opts.onRunComplete = [&, plan,
                                  st](std::size_t index,
                                      const RunResult &r) {
                std::string save_err;
                bool saved = false;
                if (plan.fires(index, FaultSite::Export, r.attempts))
                    save_err = "injected export fault (run " +
                               std::to_string(index) + ")";
                else
                    saved = st->save(r, &save_err);
                if (!saved) {
                    const std::lock_guard<std::mutex> lock(ckpt_mtx);
                    ckpt_ok = false;
                    if (ckpt_err.empty())
                        ckpt_err = save_err;
                }
            };
            if (args.resume) {
                opts.reuseRun = [st, &ckpt_warned](
                                    std::size_t,
                                    const std::string &config,
                                    const std::string &workload,
                                    RunResult &out) {
                    RunResult r;
                    std::string why;
                    const CheckpointStore::Load got =
                        st->load(config, workload, r, &why);
                    if (got == CheckpointStore::Load::Rejected &&
                        !ckpt_warned.exchange(true))
                        std::fprintf(stderr,
                                     "cactid-study: rejected checkpoint "
                                     "record %s: %s\n",
                                     st->path(config, workload).c_str(),
                                     why.c_str());
                    if (got != CheckpointStore::Load::Loaded)
                        return false;
                    if (!r.ok()) // failed runs re-execute on resume
                        return false;
                    out = std::move(r);
                    return true;
                };
            }
        }
        const StudyRunner runner(study, opts);

        const std::vector<RunResult> runs = runner.runAll();

        if (!args.quiet)
            printAggregates(runs, args.thermal);

        bool io_ok = true;
        if (!args.jsonPath.empty())
            io_ok &= withStream(args.jsonPath, [&](std::ostream &os) {
                exportJson(os, runs, runner);
            });
        if (!args.csvPath.empty())
            io_ok &= withStream(args.csvPath, [&](std::ostream &os) {
                exportEpochsCsv(os, runs);
            });
        if (!args.summaryPath.empty())
            io_ok &=
                withStream(args.summaryPath, [&](std::ostream &os) {
                    exportSummaryCsv(os, runs);
                });
        if (!args.tracePath.empty())
            io_ok &= withStream(args.tracePath, [&](std::ostream &os) {
                exportTraceJson(os, runs, runner);
            });
        if (!args.registryPath.empty())
            io_ok &=
                withStream(args.registryPath, [&](std::ostream &os) {
                    exportRegistry(os, runs, runner);
                });
        if (!args.openMetricsPath.empty())
            io_ok &=
                withStream(args.openMetricsPath, [&](std::ostream &os) {
                    exportOpenMetrics(os, runs, runner);
                });
        if (args.profile) {
            cactid::obs::writeProfileSummary(
                std::cerr, cactid::obs::Tracer::instance().collect());
        }
        if (!ckpt_ok)
            std::fprintf(stderr,
                         "cactid-study: checkpoint write failed: %s\n",
                         ckpt_err.c_str());
        if (!telem_ok)
            std::fprintf(stderr, "cactid-study: %s\n",
                         telem_err.c_str());
        if (!io_ok || !ckpt_ok || !telem_ok)
            return 3;
        for (const RunResult &r : runs) {
            if (!r.ok())
                return 1;
        }
        return 0;
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "cactid-study: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cactid-study: internal error: %s\n",
                     e.what());
        return 3;
    } catch (...) {
        std::fprintf(stderr,
                     "cactid-study: internal error: unknown "
                     "exception\n");
        return 3;
    }
}
