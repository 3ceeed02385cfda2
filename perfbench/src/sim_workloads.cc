/**
 * @file
 * The simulator workloads: paper_sweep (the section-4 48-run study
 * through StudyRunner::runAll) and manycore_run (one seeded 64-core
 * sparse-directory System run on one host thread).
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "sim/latency.hh"
#include "sim/metrics.hh"
#include "sim/runner.hh"
#include "sim/workload/npb.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using archsim::RunResult;
using archsim::RunnerOptions;
using archsim::SimStats;
using archsim::Study;
using archsim::StudyRunner;

/** cactid-study's default epoch interval (CPU cycles). */
constexpr archsim::Cycle kEpochCycles = 20000;

/** Fig 5b average normalized EDP the paper reports. */
constexpr double kPaperEdpCmEd = 0.67;
constexpr double kPaperEdpCmC = 0.60;

/** The Table 2 solve every workload reports beside its speed. */
double
table2Check(Report &rep)
{
    const cactid::SolverEngine engine(cactid::SolverOptions{
        .jobs = hostThreads(), .collectAll = false, .cache = nullptr});
    const double err = table2ErrorPct(engine.run(table2Config()).best);
    rep.check(err > 0.0 && err < 30.0,
              "table2_err_pct within the paper's error class (< 30%)");
    return err;
}

/** Aggregate simulated counters over a set of runs. */
struct SimTotals {
    std::uint64_t instructions = 0, cycles = 0, l1 = 0, l2Misses = 0,
                  llcHits = 0, llcMisses = 0, dramReads = 0,
                  rowHits = 0, c2c = 0, xbar = 0, dirEvictions = 0,
                  dirOverflows = 0, dirPeakLive = 0, epochs = 0;
    double fMemory = 0, fL3 = 0, fBarrier = 0, fLock = 0;
    std::size_t runs = 0;

    void
    add(const SimStats &s, std::size_t n_epochs)
    {
        instructions += s.instructions;
        cycles += s.cycles;
        l1 += s.hier.l1Reads + s.hier.l1Writes;
        l2Misses += s.hier.l2Misses;
        llcHits += s.llcHits;
        llcMisses += s.llcMisses;
        dramReads += s.dram.reads;
        rowHits += s.dram.rowHits;
        c2c += s.hier.c2cTransfers;
        xbar += s.hier.xbarTransfers;
        dirEvictions += s.dirEvictions;
        dirOverflows += s.dirOverflows;
        dirPeakLive = std::max(dirPeakLive, s.dirPeakLive);
        epochs += n_epochs;
        fMemory += s.fMemory;
        fL3 += s.fL3;
        fBarrier += s.fBarrier;
        fLock += s.fLock;
        ++runs;
    }

    /** The counters a simulator-speed change must leave unchanged. */
    std::string
    key() const
    {
        return std::to_string(instructions) + "/" +
               std::to_string(cycles) + "/" + std::to_string(l1) + "/" +
               std::to_string(dramReads) + "/" +
               std::to_string(dirEvictions) + "/" +
               std::to_string(epochs);
    }

    void
    report(Report &rep) const
    {
        const double n = runs ? double(runs) : 1.0;
        rep.metric("sim.instructions", double(instructions), "count");
        rep.metric("sim.cycles", double(cycles), "cycles");
        rep.metric("sim.ipc",
                   cycles ? double(instructions) / double(cycles) : 0.0,
                   "ratio");
        rep.metric("sim.l1_accesses", double(l1), "count");
        rep.metric("sim.l2_misses", double(l2Misses), "count");
        rep.metric("sim.llc_hits", double(llcHits), "count");
        rep.metric("sim.llc_misses", double(llcMisses), "count");
        rep.metric("sim.dram_reads", double(dramReads), "count");
        rep.metric("sim.dram_row_hits", double(rowHits), "count");
        rep.metric("sim.c2c_transfers", double(c2c), "count");
        rep.metric("sim.xbar_transfers", double(xbar), "count");
        rep.metric("sim.f_memory", fMemory / n, "ratio");
        rep.metric("sim.f_l3", fL3 / n, "ratio");
        rep.metric("sim.f_barrier", fBarrier / n, "ratio");
        rep.metric("sim.f_lock", fLock / n, "ratio");
        rep.metric("sim.dir_evictions", double(dirEvictions), "count");
        rep.metric("sim.dir_overflows", double(dirOverflows), "count");
        rep.metric("sim.dir_peak_live", double(dirPeakLive), "count");
    }
};

/** p99 of the four waiting distributions, merged over @p lats. */
void
reportLatency(Report &rep, const std::vector<const archsim::LatencyStats *>
                               &lats)
{
    archsim::LatencyStats all;
    for (const archsim::LatencyStats *l : lats) {
        all.l3.merge(l->l3);
        all.mem.merge(l->mem);
        all.dramQueue.merge(l->dramQueue);
        all.llcQueue.merge(l->llcQueue);
    }
    rep.metric("sim.lat.l3_p99_cycles", all.l3.quantile(0.99), "cycles");
    rep.metric("sim.lat.mem_p99_cycles", all.mem.quantile(0.99),
               "cycles");
    rep.metric("sim.lat.dram_queue_p99_cycles",
               all.dramQueue.quantile(0.99), "cycles");
    rep.metric("sim.lat.llc_wait_p99_cycles", all.llcQueue.quantile(0.99),
               "cycles");
}

// --- paper_sweep -------------------------------------------------------

RunnerOptions
sweepOptions()
{
    RunnerOptions opts;
    opts.jobs = hostThreads();
    opts.epochCycles = kEpochCycles;
    opts.thermal = true;
    return opts;
}

/** One runAll, with per-run latencies taken from the runner hooks. */
struct SweepUnit {
    std::vector<RunResult> runs;
    std::vector<double> runSeconds;
    double wall = 0.0;
    double cpu = 0.0;
};

SweepUnit
runSweep(const Study &study, RunnerOptions opts)
{
    const std::size_t n = StudyRunner(study, opts).tasks().size();
    std::vector<Clock::time_point> start(n);
    SweepUnit u;
    u.runSeconds.assign(n, 0.0);
    // Each slot is written by the one worker that owns the run; runAll
    // joins its pool before returning.
    opts.reuseRun = [&](std::size_t i, const std::string &,
                        const std::string &, RunResult &) {
        start[i] = Clock::now();
        return false;
    };
    opts.onRunComplete = [&](std::size_t i, const RunResult &) {
        u.runSeconds[i] = secondsSince(start[i]);
    };
    const StudyRunner runner(study, opts);
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    u.runs = runner.runAll();
    u.wall = secondsSince(t0);
    u.cpu = processCpuSeconds() - cpu0;
    return u;
}

SimTotals
totals(const std::vector<RunResult> &runs)
{
    SimTotals t;
    for (const RunResult &r : runs)
        t.add(r.stats, r.epochs.size());
    return t;
}

/**
 * Thermal solutions in the sweep's output: epochs whose derived
 * record carries a stack temperature, plus runs with a whole-run
 * ThermalResult.  The thermal solver's own call count is not
 * observable from outside src/, so this counts what it produced.
 */
std::uint64_t
thermalResults(const std::vector<RunResult> &runs)
{
    std::uint64_t n = 0;
    for (const RunResult &r : runs) {
        n += r.thermal.maxTemp > 0.0 ? 1 : 0;
        for (const archsim::EpochSample &e : r.epochs)
            n += e.stackTempK > 0.0 ? 1 : 0;
    }
    return n;
}

/**
 * Average normalized EDP of the two COMM-DRAM configurations over the
 * eight applications (each normalized to its no-L3 run), and their
 * mean |error| (%) against the paper's Fig 5b values.
 */
double
edpErrorPct(const std::vector<RunResult> &runs, double &cm_ed,
            double &cm_c)
{
    std::map<std::string, double> base;
    for (const RunResult &r : runs) {
        if (r.config == "nol3")
            base[r.workload] = r.power.edp();
    }
    double ed = 0.0, c = 0.0;
    int n_ed = 0, n_c = 0;
    for (const RunResult &r : runs) {
        const double norm = r.power.edp() / base.at(r.workload);
        if (r.config == "cm_dram_ed") {
            ed += norm;
            ++n_ed;
        } else if (r.config == "cm_dram_c") {
            c += norm;
            ++n_c;
        }
    }
    cm_ed = n_ed ? ed / n_ed : 0.0;
    cm_c = n_c ? c / n_c : 0.0;
    return (std::fabs(cm_ed - kPaperEdpCmEd) / kPaperEdpCmEd +
            std::fabs(cm_c - kPaperEdpCmC) / kPaperEdpCmC) /
           2.0 * 100.0;
}

std::string
exportBytes(const std::vector<RunResult> &runs, const StudyRunner &runner)
{
    std::ostringstream os;
    archsim::exportJson(os, runs, runner);
    return os.str();
}

/**
 * Replay every run of the sweep serially through the public per-phase
 * calls StudyRunner::runAll makes, timing each phase, and return the
 * results in enumeration order.
 */
std::vector<RunResult>
replaySweep(const Study &study, const StudyRunner &runner, Report &rep)
{
    const RunnerOptions &opts = runner.options();
    double solve_s = 0, sim_s = 0, power_s = 0, derive_s = 0,
           thermal_s = 0;
    std::vector<double> thermal_us;
    std::uint64_t instructions = 0;
    std::vector<RunResult> out;
    for (const archsim::WorkloadParams &w : runner.workloads()) {
        for (const std::string &c : runner.configs()) {
            RunResult r;
            r.config = c;
            r.workload = w.name;

            auto t = Clock::now();
            archsim::HierarchyParams hp = study.hierarchyFor(c);
            hp.dirMode = opts.dirMode;
            hp.dir = opts.dir;
            archsim::System sys(hp, study.scaledWorkload(w),
                                runner.instrPerThread(), hp.nCores, 4);
            solve_s += secondsSince(t);

            t = Clock::now();
            archsim::EpochRecorder rec(opts.epochCycles);
            r.stats = sys.run(&rec);
            r.epochs = rec.take();
            r.stats.config = c;
            sim_s += secondsSince(t);
            instructions += r.stats.instructions;

            t = Clock::now();
            const archsim::PowerParams pp = study.powerFor(c);
            r.power = archsim::computePower(pp, r.stats);
            power_s += secondsSince(t);

            t = Clock::now();
            const double bank_standby = study.l3BankStandbyPower(c);
            archsim::EpochDeriveParams dp;
            dp.l3BankStandbyPowerW = bank_standby;
            dp.computeThermal = opts.thermal;
            dp.thermal = opts.thermalParams;
            archsim::deriveEpochMetrics(r.epochs, pp, dp);
            derive_s += secondsSince(t);

            t = Clock::now();
            r.thermal = archsim::solveStudyStack(
                opts.thermalParams, pp.corePowerW,
                bank_standby + r.power.l3Dyn / 8.0);
            const double dt = secondsSince(t);
            thermal_s += dt;
            thermal_us.push_back(dt * 1e6);
            out.push_back(std::move(r));
        }
    }
    rep.metric("runner.solve_s", solve_s, "s");
    rep.metric("runner.sim_s", sim_s, "s");
    rep.metric("runner.power_s", power_s, "s");
    rep.metric("runner.derive_s", derive_s, "s");
    rep.metric("runner.thermal_s", thermal_s, "s");
    rep.metric("thermal.solve_us", median(thermal_us), "us");
    rep.metric("sim.host_ns_per_instr",
               instructions ? sim_s * 1e9 / double(instructions) : 0.0,
               "ns");
    return out;
}

void
paperSweepUntraced(const Args &args, Report &rep)
{
    // Set-up: the Study constructor runs the eight CACTI-D solves.
    std::unique_ptr<Study> study;
    std::vector<double> walls, rates, run_ms;
    std::vector<RunResult> first;
    std::string counters;
    std::size_t ok = 0;
    const double setup_s = measureLoop(
        args.seconds, [&] { study = std::make_unique<Study>(); }, [&] {
        SweepUnit u = runSweep(*study, sweepOptions());
        const SimTotals t = totals(u.runs);
        walls.push_back(u.wall);
        rates.push_back(double(t.instructions) / u.wall);
        for (double s : u.runSeconds)
            run_ms.push_back(s * 1e3);
        for (const RunResult &r : u.runs) {
            ++rep.attempted;
            if (r.ok())
                ++ok;
            else
                ++rep.failed;
        }
        if (first.empty()) {
            counters = t.key();
            first = std::move(u.runs);
        } else {
            rep.check(t.key() == counters,
                      "simulated counters repeat exactly across sweeps");
        }
    });

    rep.check(ok == rep.attempted, "every run of the sweep is Ok");
    rep.check(first.size() == 48, "the sweep covers 6 configs x 8 apps");
    double cm_ed = 0.0, cm_c = 0.0;
    const double edp_err = edpErrorPct(first, cm_ed, cm_c);
    rep.check(cm_ed > 0.0 && cm_ed < 1.0 && cm_c > 0.0 && cm_c < 1.0,
              "COMM-DRAM L3s improve average EDP over no L3 (Fig 5b)");
    const double t2_err = table2Check(rep);

    rep.series("unit_wall_s", walls);
    rep.metric("setup_s", setup_s, "s");
    rep.metric("wall_s", median(walls), "s");
    rep.metric("work_per_s", median(rates), "1/s");
    rep.metric("op_p50_ms", quantile(run_ms, 0.5), "ms");
    rep.metric("op_tail_ms", quantile(run_ms, 0.9), "ms");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    rep.metric("ok_pct", 100.0 * double(ok) / double(rep.attempted), "%");
    rep.metric("model_err_pct", edp_err, "%");
    // The same numbers under the names of the per-workload view.
    rep.metric("sim_instr_per_s", median(rates), "1/s");
    rep.metric("fail_rate", double(rep.attempted - ok) / rep.attempted,
               "ratio");
    rep.metric("edp_err_pct", edp_err, "%");
    rep.metric("table2_err_pct", t2_err, "%");
    rep.metric("edp_cm_dram_ed", cm_ed, "ratio");
    rep.metric("edp_cm_dram_c", cm_c, "ratio");
    rep.metric("sweeps", double(walls.size()), "count");
}

void
paperSweepTraced(const Args &, Report &rep)
{
    const auto study = std::make_unique<Study>();
    const RunnerOptions base = sweepOptions();
    const StudyRunner runner(*study, base);
    const int jobs = StudyRunner::resolveJobs(base.jobs);

    // Untraced reference: the same sweep, bytes and wall time.
    SweepUnit plain = runSweep(*study, base);
    const std::string ref = exportBytes(plain.runs, runner);

    // Traced: program spans on, latency histograms attached.
    RunnerOptions traced_opts = base;
    traced_opts.latencyHistograms = true;
    cactid::obs::Tracer::instance().enable(true);
    SweepUnit traced = runSweep(*study, traced_opts);
    cactid::obs::Tracer::instance().enable(false);
    const std::vector<double> exec = spanSeconds("runner.execute");

    rep.check(exec.size() == traced.runs.size(),
              "one runner.execute span per run");
    rep.metric("obs.trace_overhead_pct",
               (traced.wall - plain.wall) / plain.wall * 100.0, "%");
    rep.metric("host.cpu_util", traced.cpu / (traced.wall * jobs),
               "ratio");
    rep.metric("runner.worker_idle_s",
               std::max(0.0, traced.wall * jobs - sum(exec)), "s");
    rep.metric("runner.run_p50_s", quantile(exec, 0.5), "s");
    rep.metric("runner.run_max_s", quantile(exec, 1.0), "s");
    std::size_t failed = 0;
    std::vector<const archsim::LatencyStats *> lats;
    for (const RunResult &r : traced.runs) {
        failed += r.ok() ? 0 : 1;
        lats.push_back(&r.lat);
    }
    rep.metric("runner.runs_failed", double(failed), "count");
    reportLatency(rep, lats);

    const SimTotals t = totals(plain.runs);
    rep.check(totals(traced.runs).key() == t.key(),
              "latency histograms leave the simulation unchanged");
    t.report(rep);
    rep.metric("thermal.solves", double(thermalResults(traced.runs)),
               "count");

    // Serial replay through the public per-phase calls.
    const std::vector<RunResult> replay = replaySweep(*study, runner, rep);
    const auto t0 = Clock::now();
    const std::string bytes = exportBytes(replay, runner);
    rep.metric("runner.export_s", secondsSince(t0), "s");
    rep.check(bytes == ref, "serial phase replay exports the bytes of "
                            "runAll at jobs = nproc");
    rep.attempted = plain.runs.size() + traced.runs.size() + replay.size();
    for (const RunResult &r : plain.runs)
        rep.failed += r.ok() ? 0 : 1;
    rep.failed += failed;
}

// --- manycore_run ------------------------------------------------------

constexpr int kManyCores = 64;
constexpr int kManyThreadsPerCore = 2;
constexpr std::uint64_t kManyInstrPerThread = 40000;
const char *const kManyConfig = "cm_dram_c";

/**
 * A memory-bound application drawn from @p seed around the NPB cg.C
 * profile (random gathers over a large working set).
 */
archsim::WorkloadParams
manycoreWorkload(std::uint64_t seed)
{
    Rng rng(seed ^ 0x6d616e79636f7265ULL);
    const auto around = [&](double v, double lo, double hi) {
        return v * (lo + (hi - lo) * rng.uniform());
    };
    archsim::WorkloadParams w = archsim::npbWorkload("cg.C");
    w.name = "cg.C~" + std::to_string(seed);
    w.memFrac = around(w.memFrac, 0.99, 1.01);
    w.storeFrac = around(w.storeFrac, 0.98, 1.02);
    w.hotFrac = around(w.hotFrac, 0.995, 1.005);
    w.streamFrac = around(w.streamFrac, 0.95, 1.05);
    w.wsBytes = around(w.wsBytes, 0.98, 1.02);
    w.alpha = around(w.alpha, 1.0, 1.02);
    w.sharedFrac = around(w.sharedFrac, 0.98, 1.02);
    w.barrierEvery = std::uint64_t(around(double(w.barrierEvery), 0.98,
                                          1.02));
    return w;
}

archsim::HierarchyParams
manycoreHierarchy(const Study &study)
{
    archsim::HierarchyParams hp = study.hierarchyFor(kManyConfig);
    hp.nCores = kManyCores;
    hp.dirMode = archsim::DirectoryMode::Sparse;
    return hp;
}

struct SimUnit {
    SimStats stats;
    double wall = 0.0;
    double cpu = 0.0;
};

SimUnit
runManycore(const Study &study, const archsim::WorkloadParams &w,
            archsim::LatencyStats *lat)
{
    SimUnit u;
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    archsim::System sys(manycoreHierarchy(study), study.scaledWorkload(w),
                        kManyInstrPerThread, kManyCores,
                        kManyThreadsPerCore);
    if (lat)
        sys.setLatency(lat);
    u.stats = sys.run();
    u.wall = secondsSince(t0);
    u.cpu = processCpuSeconds() - cpu0;
    return u;
}

std::string
simKey(const SimStats &s)
{
    SimTotals t;
    t.add(s, 0);
    return t.key();
}

void
checkManycore(const SimStats &s, Report &rep)
{
    rep.check(s.instructions >= std::uint64_t(kManyCores) *
                                    kManyThreadsPerCore *
                                    kManyInstrPerThread,
              "every hardware thread retires its instruction budget");
    rep.check(s.dirCapacity > 0, "the sparse directory is in use");
}

void
manycoreUntraced(const Args &args, Report &rep)
{
    const archsim::WorkloadParams w = manycoreWorkload(args.seed);
    std::unique_ptr<Study> study;
    std::vector<double> walls, rates;
    std::string key;
    const double setup_s = measureLoop(
        args.seconds, [&] { study = std::make_unique<Study>(); }, [&] {
        ++rep.attempted;
        const SimUnit u = runManycore(*study, w, nullptr);
        walls.push_back(u.wall);
        rates.push_back(double(u.stats.instructions) / u.wall);
        if (key.empty()) {
            key = simKey(u.stats);
            checkManycore(u.stats, rep);
        } else {
            rep.check(simKey(u.stats) == key,
                      "simulated counters repeat exactly across runs");
        }
    });
    const double t2_err = table2Check(rep);

    rep.series("unit_wall_s", walls);
    rep.metric("setup_s", setup_s, "s");
    rep.metric("wall_s", median(walls), "s");
    rep.metric("work_per_s", median(rates), "1/s");
    rep.metric("op_p50_ms", median(walls) * 1e3, "ms");
    rep.metric("op_tail_ms", quantile(walls, 1.0) * 1e3, "ms");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    rep.metric("ok_pct", 100.0, "%");
    rep.metric("model_err_pct", t2_err, "%");
    rep.metric("sim_instr_per_s", median(rates), "1/s");
    rep.metric("fail_rate", 0.0, "ratio");
    rep.metric("table2_err_pct", t2_err, "%");
    rep.metric("simulations", double(walls.size()), "count");
}

void
manycoreTraced(const Args &args, Report &rep)
{
    const auto study = std::make_unique<Study>();
    const archsim::WorkloadParams w = manycoreWorkload(args.seed);

    const SimUnit plain = runManycore(*study, w, nullptr);
    archsim::LatencyStats lat;
    cactid::obs::Tracer::instance().enable(true);
    const SimUnit traced = runManycore(*study, w, &lat);
    cactid::obs::Tracer::instance().enable(false);
    const std::vector<double> sim_run = spanSeconds("sim.run");
    rep.attempted = 2;

    checkManycore(traced.stats, rep);
    rep.check(simKey(traced.stats) == simKey(plain.stats),
              "latency histograms leave the simulation unchanged");
    rep.check(sim_run.size() == 1, "one sim.run span");
    rep.metric("obs.trace_overhead_pct",
               (traced.wall - plain.wall) / plain.wall * 100.0, "%");
    rep.metric("host.cpu_util", traced.cpu / (traced.wall * hostThreads()),
               "ratio");
    rep.metric("sim.host_ns_per_instr",
               sum(sim_run) * 1e9 / double(traced.stats.instructions),
               "ns");
    SimTotals t;
    t.add(traced.stats, 0);
    t.report(rep);
    reportLatency(rep, {&lat});
}

} // namespace

void
paperSweep(const Args &args, Report &rep)
{
    if (args.trace)
        paperSweepTraced(args, rep);
    else
        paperSweepUntraced(args, rep);
}

void
manycoreRun(const Args &args, Report &rep)
{
    if (args.trace)
        manycoreTraced(args, rep);
    else
        manycoreUntraced(args, rep);
}

} // namespace perfbench
