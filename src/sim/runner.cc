/**
 * @file
 * StudyRunner implementation and sweep serialization.
 */

#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>

#include "obs/build_info.hh"
#include "obs/export.hh"
#include "obs/numfmt.hh"
#include "obs/openmetrics.hh"
#include "obs/registry.hh"
#include "sim/obs.hh"
#include "sim/telemetry.hh"
#include "util/executor.hh"

namespace archsim {

namespace {

/** Round-trip-exact, locale-proof double (shared obs helper). */
std::string
num(double v)
{
    return cactid::obs::fmtDouble(v);
}

std::string
jstr(const std::string &s)
{
    return "\"" + s + "\"";
}

} // namespace

StudyRunner::StudyRunner(const Study &study, RunnerOptions opts)
    : study_(&study), opts_(std::move(opts))
{
    const std::vector<std::string> &all = Study::configNames();
    if (opts_.configs.empty()) {
        configs_ = all;
    } else {
        for (const std::string &c : opts_.configs) {
            if (std::find(all.begin(), all.end(), c) == all.end())
                throw std::invalid_argument("unknown config: " + c);
            configs_.push_back(c);
        }
    }

    const std::vector<WorkloadParams> suite = study.workloads();
    if (opts_.workloads.empty()) {
        workloads_ = suite;
    } else {
        for (const std::string &name : opts_.workloads) {
            const auto it = std::find_if(
                suite.begin(), suite.end(),
                [&](const WorkloadParams &w) { return w.name == name; });
            if (it == suite.end())
                throw std::invalid_argument("unknown workload: " + name);
            workloads_.push_back(*it);
        }
    }

    instr_ = opts_.instrPerThread ? opts_.instrPerThread
                                  : defaultInstrPerThread();
}

int
StudyRunner::resolveJobs(int jobs)
{
    return cactid::util::resolveJobs(jobs);
}

RunResult
StudyRunner::execute(const std::string &config,
                     const WorkloadParams &w, std::size_t index,
                     int attempt, const char **phase) const
{
    OBS_PROFILE_SCOPE("runner.execute");
    const char *local_phase = "setup";
    const char **ph = phase ? phase : &local_phase;

    *ph = "solve";
    if (opts_.faultPlan.fires(index, FaultSite::Solve, attempt)) {
        throw InjectedFault("injected fault (" + w.name + "/" +
                            config + ", solve site)");
    }
    HierarchyParams hp = study_->hierarchyFor(config);
    if (opts_.nCores > 0)
        hp.nCores = opts_.nCores;
    hp.dirMode = opts_.dirMode;
    hp.dir = opts_.dir;
    if (opts_.tweakHierarchy)
        opts_.tweakHierarchy(config, hp);

    // The System's core count follows the hierarchy's (possibly
    // tweaked) geometry, so an ablation changing hp.nCores gets the
    // matching number of simulated cores.
    const int tpc = opts_.threadsPerCore > 0 ? opts_.threadsPerCore : 4;
    System sys(hp, study_->scaledWorkload(w), instr_, hp.nCores, tpc);

    RunResult r;
    r.config = config;
    r.workload = w.name;
    // The per-run ring records simulated-cycle events; each run is
    // single-threaded, so the stream is jobs-independent.
    obs::TraceBuffer trace(opts_.trace ? opts_.traceCapacity : 0);
    if (opts_.trace)
        sys.setTrace(&trace);
    // Latency histograms, like the trace, observe simulated cycles
    // from this run's single thread — jobs-independent by nature.
    LatencyStats lat;
    if (opts_.latencyHistograms)
        sys.setLatency(&lat);

    *ph = "sim";
    RunLimits limits;
    limits.maxCycles = opts_.maxCycles;
    limits.maxWallMs = opts_.maxWallMs;
    if (const FaultSpec *f =
            opts_.faultPlan.find(index, FaultSite::Step)) {
        if (attempt <= f->failAttempts) {
            limits.faultCycle = f->cycle ? f->cycle : 1;
            limits.faultIsTimeout = f->action == FaultAction::Timeout;
        }
    }
    if (opts_.epochCycles > 0) {
        EpochRecorder rec(opts_.epochCycles);
        r.stats = sys.run(&rec, limits);
        r.epochs = rec.take();
    } else {
        r.stats = sys.run(nullptr, limits);
    }
    if (opts_.trace) {
        r.traceDropped = trace.dropped(); // take() resets the count
        r.trace = trace.take();
    }
    if (opts_.latencyHistograms) {
        r.lat = std::move(lat);
        r.latEnabled = true;
    }
    r.stats.config = config;

    *ph = "power";
    PowerParams pp;
    double bank_standby = 0.0;
    {
        OBS_PROFILE_SCOPE("runner.power");
        pp = study_->powerFor(config);
        if (opts_.tweakPower)
            opts_.tweakPower(config, pp);
        r.power = computePower(pp, r.stats);
        bank_standby = study_->l3BankStandbyPower(config);
    }

    if (!r.epochs.empty()) {
        *ph = "derive";
        OBS_PROFILE_SCOPE("runner.derive");
        EpochDeriveParams dp;
        dp.l3BankStandbyPowerW = bank_standby;
        dp.computeThermal = opts_.thermal;
        dp.thermal = opts_.thermalParams;
        deriveEpochMetrics(r.epochs, pp, dp);
    }
    if (opts_.thermal) {
        *ph = "thermal";
        OBS_PROFILE_SCOPE("runner.thermal");
        r.thermal = solveStudyStack(opts_.thermalParams, pp.corePowerW,
                                    bank_standby + r.power.l3Dyn / 8.0);
    }
    return r;
}

RunResult
StudyRunner::executeGuarded(std::size_t index,
                            const std::string &config,
                            const WorkloadParams &w) const
{
    const int max_attempts = std::max(1, opts_.retry.maxAttempts);
    for (int attempt = 1;; ++attempt) {
        RunResult r;
        const char *phase = "setup";
        try {
            r = execute(config, w, index, attempt, &phase);
        } catch (const SimTimeout &e) {
            r = RunResult{};
            r.status = RunStatus::TimedOut;
            r.error = {e.what(), phase, e.atCycle};
        } catch (const SimDeadlock &e) {
            r = RunResult{};
            r.status = RunStatus::Failed;
            r.error = {e.what(), phase, e.atCycle};
        } catch (const InjectedFault &e) {
            r = RunResult{};
            r.status = RunStatus::Failed;
            r.error = {e.what(), phase, e.atCycle};
        } catch (const std::exception &e) {
            r = RunResult{};
            r.status = RunStatus::Failed;
            r.error = {e.what(), phase, 0};
        } catch (...) {
            r = RunResult{};
            r.status = RunStatus::Failed;
            r.error = {"unknown exception", phase, 0};
        }
        r.config = config;
        r.workload = w.name;
        r.attempts = attempt;
        if (!r.ok()) {
            // Identity fields so exports and tables stay labeled.
            r.stats.config = config;
            r.stats.workload = w.name;
            if (opts_.trace) {
                // A minimal stream so --trace shows *that* and where
                // the run died even though its ring never survived.
                obs::TraceEvent e;
                e.name = "run_status";
                e.cat = "runner";
                e.ph = 'i';
                e.ts = r.error.cycle;
                e.argName = "status";
                e.argValue =
                    static_cast<std::uint64_t>(r.status);
                r.trace.push_back(e);
            }
        }

        const bool retryable =
            r.status == RunStatus::Failed ||
            (r.status == RunStatus::TimedOut &&
             opts_.retry.retryTimeouts);
        if (r.ok() || !retryable || attempt >= max_attempts)
            return r;
    }
}

RunResult
StudyRunner::runOne(const std::string &config,
                    const std::string &workload) const
{
    const std::vector<std::string> &all = Study::configNames();
    if (std::find(all.begin(), all.end(), config) == all.end())
        throw std::invalid_argument("unknown config: " + config);
    for (const WorkloadParams &w : workloads_) {
        if (w.name == workload)
            return execute(config, w);
    }
    // Fall back to the full suite (the runner may cover a subset).
    return execute(config, npbWorkload(workload));
}

std::vector<std::pair<std::string, std::string>>
StudyRunner::tasks() const
{
    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(configs_.size() * workloads_.size());
    for (const WorkloadParams &w : workloads_) {
        for (const std::string &c : configs_)
            out.emplace_back(c, w.name);
    }
    return out;
}

std::string
StudyRunner::fingerprint() const
{
    std::string fp = sweepFingerprint(instr_, opts_.epochCycles,
                                      opts_.thermal, opts_.maxCycles);
    // Many-core / directory knobs join the fingerprint only when set,
    // so checkpoints of default-geometry sweeps keep their old keys.
    const SparseDirParams def;
    const bool dir_default = opts_.dir.sets == def.sets &&
                             opts_.dir.assoc == def.assoc &&
                             opts_.dir.pointers == def.pointers;
    if (opts_.nCores > 0 || opts_.threadsPerCore > 0 ||
        opts_.dirMode != DirectoryMode::Auto || !dir_default) {
        fp += "|cores=" + std::to_string(opts_.nCores) + "x" +
              std::to_string(opts_.threadsPerCore) + "|dir=" +
              std::to_string(int(opts_.dirMode)) + ":" +
              std::to_string(opts_.dir.sets) + ":" +
              std::to_string(opts_.dir.assoc) + ":" +
              std::to_string(opts_.dir.pointers);
    }
    return fp;
}

std::vector<RunResult>
StudyRunner::runAll() const
{
    struct Task {
        const std::string *config;
        const WorkloadParams *workload;
    };
    std::vector<Task> tasks;
    tasks.reserve(configs_.size() * workloads_.size());
    for (const WorkloadParams &w : workloads_) {
        for (const std::string &c : configs_)
            tasks.push_back({&c, &w});
    }

    std::vector<RunResult> results(tasks.size());

    // The heartbeat writer (off unless a telemetry path is set); its
    // hooks are thread-safe and its wall-clock output is segregated
    // from the deterministic fields (sim/telemetry.hh).
    std::unique_ptr<SweepTelemetry> telem;
    if (!opts_.telemetry.path.empty()) {
        telem = std::make_unique<SweepTelemetry>(opts_.telemetry,
                                                 tasks.size());
    }

    // Per-run failures never leave this lambda: executeGuarded folds
    // them into the slot, so a bad point costs one slot, not the
    // sweep.  Only the caller-supplied hooks can still throw; those
    // are infrastructure errors and abort after the pool drains.
    auto runTask = [&](std::size_t i) {
        const std::string &c = *tasks[i].config;
        const WorkloadParams &w = *tasks[i].workload;
        if (telem)
            telem->runStarted(i, c, w.name);
        const HostUsageTimer timer;
        RunResult reused;
        if (opts_.reuseRun && opts_.reuseRun(i, c, w.name, reused)) {
            results[i] = std::move(reused);
            if (telem)
                telem->runFinished(i, results[i], timer.stop());
            return;
        }
        results[i] = executeGuarded(i, c, w);
        if (telem)
            telem->runFinished(i, results[i], timer.stop());
        if (opts_.onRunComplete)
            opts_.onRunComplete(i, results[i]);
    };

    // Each simulation is independent and internally deterministic;
    // results land in enumeration-indexed slots, so the sweep output
    // never depends on completion order.  A solve issued from a task
    // runs inline on that task's thread (util/executor.hh).
    std::exception_ptr hook_error;
    try {
        cactid::util::parallelFor(tasks.size(), resolveJobs(opts_.jobs),
                                  runTask);
    } catch (...) {
        hook_error = std::current_exception();
    }
    if (telem)
        telem->finish(); // summary written even when a hook failed
    if (hook_error)
        std::rethrow_exception(hook_error);
    return results;
}

bool
sweepNeedsV2(const std::vector<RunResult> &runs)
{
    for (const RunResult &r : runs) {
        if (r.status != RunStatus::Ok || r.attempts != 1)
            return true;
    }
    return false;
}

void
exportJson(std::ostream &os, const std::vector<RunResult> &runs,
           const StudyRunner &runner)
{
    // The v1 byte stream is pinned by the golden gate; status fields
    // appear only when there is a status to report (sweepNeedsV2), so
    // a clean sweep — including a resumed one — reproduces v1 exactly.
    const bool v2 = sweepNeedsV2(runs);
    os << "{\n";
    os << "  \"schema\": \""
       << (v2 ? "cactid-study-v2" : "cactid-study-v1") << "\",\n";
    os << "  \"build\": ";
    cactid::obs::writeBuildInfoJson(os);
    os << ",\n";
    os << "  \"instr_per_thread\": " << runner.instrPerThread() << ",\n";
    os << "  \"epoch_cycles\": " << runner.options().epochCycles
       << ",\n";
    os << "  \"clock_hz\": " << num(2e9) << ",\n";
    os << "  \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunResult &r = runs[i];
        const SimStats &s = r.stats;
        const PowerBreakdown &b = r.power;
        os << (i ? ",\n    {" : "\n    {");
        os << "\"config\": " << jstr(r.config)
           << ", \"workload\": " << jstr(r.workload);
        if (v2) {
            os << ", \"status\": " << jstr(runStatusName(r.status))
               << ", \"attempts\": " << r.attempts;
            if (r.status != RunStatus::Ok) {
                os << ",\n     \"error\": {\"message\": \""
                   << cactid::obs::jsonEscape(r.error.message)
                   << "\", \"phase\": \""
                   << cactid::obs::jsonEscape(r.error.phase)
                   << "\", \"cycle\": " << r.error.cycle << "}}";
                continue;
            }
        }
        os << ", \"cycles\": " << s.cycles;
        os << ", \"instructions\": " << s.instructions;
        os << ", \"ipc\": " << num(s.ipc);
        os << ", \"avg_read_latency\": " << num(s.avgReadLatency);
        os << ",\n     \"breakdown\": {\"instruction\": "
           << num(s.fInstruction) << ", \"l2\": " << num(s.fL2)
           << ", \"l3\": " << num(s.fL3)
           << ", \"memory\": " << num(s.fMemory)
           << ", \"barrier\": " << num(s.fBarrier)
           << ", \"lock\": " << num(s.fLock) << "}";
        os << ",\n     \"llc\": {\"reads\": " << s.llcReads
           << ", \"writes\": " << s.llcWrites
           << ", \"hits\": " << s.llcHits
           << ", \"misses\": " << s.llcMisses << "}";
        os << ",\n     \"dram\": {\"activates\": " << s.dram.activates
           << ", \"reads\": " << s.dram.reads
           << ", \"writes\": " << s.dram.writes
           << ", \"row_hits\": " << s.dram.rowHits
           << ", \"bus_bytes\": " << s.dram.busBytes
           << ", \"refreshes\": " << s.dram.refreshes << "}";
        os << ",\n     \"power\": {\"memory_hierarchy_w\": "
           << num(b.memoryHierarchy())
           << ", \"system_w\": " << num(b.system())
           << ", \"l1_w\": " << num(b.l1Leak + b.l1Dyn)
           << ", \"l2_w\": " << num(b.l2Leak + b.l2Dyn)
           << ", \"xbar_w\": " << num(b.xbarLeak + b.xbarDyn)
           << ", \"l3_leak_w\": " << num(b.l3Leak)
           << ", \"l3_dyn_w\": " << num(b.l3Dyn)
           << ", \"l3_refresh_w\": " << num(b.l3Refresh)
           << ", \"main_dyn_w\": " << num(b.mainDyn)
           << ", \"main_standby_w\": " << num(b.mainStandby)
           << ", \"main_refresh_w\": " << num(b.mainRefresh)
           << ", \"bus_w\": " << num(b.bus)
           << ", \"edp_js\": " << num(b.edp()) << "}";
        os << ",\n     \"thermal\": {\"max_temp_k\": "
           << num(r.thermal.maxTemp)
           << ", \"top_die_k\": " << num(r.thermal.maxTempTopDie)
           << ", \"bottom_die_k\": " << num(r.thermal.maxTempBottomDie)
           << "}";
        if (r.latEnabled) {
            // Optional (only under --latency-histograms, so the v1
            // bytes of plain sweeps are untouched): nearest-rank
            // percentiles of the per-level distributions, in
            // simulated cycles.
            const auto q = [&os](const char *key,
                                 const cactid::obs::Histogram &h,
                                 bool first) {
                os << (first ? "" : ", ") << "\"" << key
                   << "\": {\"p50\": " << num(h.quantile(0.50))
                   << ", \"p90\": " << num(h.quantile(0.90))
                   << ", \"p99\": " << num(h.quantile(0.99))
                   << ", \"count\": " << h.total() << "}";
            };
            os << ",\n     \"latency\": {";
            q("l1", r.lat.l1, true);
            q("l2", r.lat.l2, false);
            q("remote_l2", r.lat.remoteL2, false);
            q("l3", r.lat.l3, false);
            q("mem", r.lat.mem, false);
            q("dram_row_hit", r.lat.dramRowHit, false);
            q("dram_row_miss", r.lat.dramRowMiss, false);
            q("dram_queue", r.lat.dramQueue, false);
            q("llc_queue", r.lat.llcQueue, false);
            os << "}";
        }
        os << ",\n     \"epochs\": [";
        for (std::size_t e = 0; e < r.epochs.size(); ++e) {
            const EpochSample &ep = r.epochs[e];
            os << (e ? ",\n       {" : "\n       {");
            os << "\"begin\": " << ep.beginCycle
               << ", \"end\": " << ep.endCycle
               << ", \"instructions\": " << ep.instructions
               << ", \"ipc\": " << num(ep.ipc)
               << ", \"l2_mpki\": " << num(ep.l2Mpki)
               << ", \"l3_mpki\": " << num(ep.l3Mpki)
               << ", \"dram_gbps\": " << num(ep.dramBandwidthGBs)
               << ", \"mem_power_w\": " << num(ep.memHierPowerW)
               << ", \"stack_temp_k\": " << num(ep.stackTempK) << "}";
        }
        os << (r.epochs.empty() ? "]" : "\n     ]");
        os << "}";
    }
    os << (runs.empty() ? "]\n" : "\n  ]\n");
    os << "}\n";
}

void
exportEpochsCsv(std::ostream &os, const std::vector<RunResult> &runs)
{
    os << "config,workload,epoch,begin_cycle,end_cycle,instructions,"
          "ipc,l2_mpki,l3_mpki,dram_gbps,mem_power_w,stack_temp_k\n";
    for (const RunResult &r : runs) {
        for (const EpochSample &e : r.epochs) {
            os << r.config << ',' << r.workload << ',' << e.index << ','
               << e.beginCycle << ',' << e.endCycle << ','
               << e.instructions << ',' << num(e.ipc) << ','
               << num(e.l2Mpki) << ',' << num(e.l3Mpki) << ','
               << num(e.dramBandwidthGBs) << ','
               << num(e.memHierPowerW) << ',' << num(e.stackTempK)
               << '\n';
        }
    }
}

void
exportTraceJson(std::ostream &os, const std::vector<RunResult> &runs,
                const StudyRunner &runner)
{
    (void)runner;
    cactid::obs::TraceMeta meta;
    std::vector<cactid::obs::TraceEvent> events;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunResult &r = runs[i];
        const auto pid = static_cast<std::uint32_t>(i);
        meta.processes.emplace_back(pid, r.workload + "/" + r.config);
        meta.dropped += r.traceDropped;
        for (cactid::obs::TraceEvent e : r.trace) {
            e.pid = pid;
            events.push_back(e);
        }
    }
    meta.clockDomain = "cycles";
    if (meta.dropped > 0) {
        // Once per process: a bounded ring silently losing events is
        // exactly the kind of thing a reader of the export would
        // otherwise miss (it is recorded in the header, but nobody
        // reads headers until the data looks wrong).
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true)) {
            std::fprintf(stderr,
                         "warning: trace ring dropped %llu events; "
                         "raise --trace-capacity for a complete "
                         "stream\n",
                         static_cast<unsigned long long>(meta.dropped));
        }
    }
    cactid::obs::canonicalizeTrace(events);
    cactid::obs::writeChromeTrace(os, events, meta);
}

namespace {

/**
 * The shared registry set behind exportRegistry and
 * exportOpenMetrics: one registry per run (sim.* + power.*, run
 * status under v2, sim.lat.* when recorded, obs.trace.dropped when
 * the ring lost events) plus the v2 sweep-failure registry.
 */
void
buildRunRegistries(
    const std::vector<RunResult> &runs,
    std::vector<cactid::obs::Registry> &regs,
    std::vector<std::pair<std::string, const cactid::obs::Registry *>>
        &items)
{
    const bool v2 = sweepNeedsV2(runs);
    regs.resize(runs.size() + 1);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunResult &r = runs[i];
        registerSimStats(regs[i], r.stats);
        registerPowerBreakdown(regs[i], r.power);
        if (r.latEnabled)
            registerLatencyStats(regs[i], r.lat);
        if (r.traceDropped > 0)
            regs[i].counter("obs.trace.dropped") = r.traceDropped;
        if (v2)
            registerRunStatus(regs[i], r.status, r.attempts);
        items.emplace_back(r.workload + "/" + r.config, &regs[i]);
    }
    if (v2) {
        // Sweep-level failure counters, one registry at the end.
        cactid::obs::Registry &sweep = regs[runs.size()];
        std::uint64_t ok = 0, failed = 0, timed_out = 0, skipped = 0,
                      retries = 0;
        for (const RunResult &r : runs) {
            switch (r.status) {
            case RunStatus::Ok:
                ++ok;
                break;
            case RunStatus::Failed:
                ++failed;
                break;
            case RunStatus::TimedOut:
                ++timed_out;
                break;
            case RunStatus::Skipped:
                ++skipped;
                break;
            }
            retries += static_cast<std::uint64_t>(r.attempts - 1);
        }
        sweep.counter("runner.runs") = runs.size();
        sweep.counter("runner.ok") = ok;
        sweep.counter("runner.failed") = failed;
        sweep.counter("runner.timed_out") = timed_out;
        sweep.counter("runner.skipped") = skipped;
        sweep.counter("runner.retries") = retries;
        items.emplace_back("sweep", &sweep);
    }
}

} // namespace

void
exportRegistry(std::ostream &os, const std::vector<RunResult> &runs,
               const StudyRunner &runner)
{
    (void)runner;
    std::vector<cactid::obs::Registry> regs;
    std::vector<std::pair<std::string, const cactid::obs::Registry *>>
        items;
    buildRunRegistries(runs, regs, items);
    cactid::obs::writeRegistryDump(os, items);
}

void
exportOpenMetrics(std::ostream &os, const std::vector<RunResult> &runs,
                  const StudyRunner &runner)
{
    (void)runner;
    std::vector<cactid::obs::Registry> regs;
    std::vector<std::pair<std::string, const cactid::obs::Registry *>>
        items;
    buildRunRegistries(runs, regs, items);
    cactid::obs::writeOpenMetrics(os, items);
}

void
exportSummaryCsv(std::ostream &os, const std::vector<RunResult> &runs)
{
    const bool v2 = sweepNeedsV2(runs);
    os << "config,workload,cycles,instructions,ipc,avg_read_latency,"
          "mem_power_w,system_power_w,edp_js,max_temp_k";
    if (v2)
        os << ",status,attempts";
    os << '\n';
    for (const RunResult &r : runs) {
        os << r.config << ',' << r.workload << ',' << r.stats.cycles
           << ',' << r.stats.instructions << ',' << num(r.stats.ipc)
           << ',' << num(r.stats.avgReadLatency) << ','
           << num(r.power.memoryHierarchy()) << ','
           << num(r.power.system()) << ',' << num(r.power.edp()) << ','
           << num(r.thermal.maxTemp);
        if (v2)
            os << ',' << runStatusName(r.status) << ','
               << r.attempts;
        os << '\n';
    }
}

} // namespace archsim
