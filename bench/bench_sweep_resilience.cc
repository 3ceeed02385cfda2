/**
 * @file
 * End-to-end resilience exercise for the StudyRunner: a seeded fault
 * plan knocks out a handful of runs in the full section-4 sweep, and
 * the bench verifies the four contracts the tooling depends on —
 *
 *  1. isolation: every un-faulted run still completes, and the
 *     faulted sweep is byte-identical for any jobs count;
 *  2. watchdog: a cycle budget (half the shortest clean run) converts
 *     every run to timed_out at exactly the budget cycle, serial
 *     or pooled;
 *  3. retry: transient faults recover with the attempt recorded;
 *  4. resume: a checkpointed, fault-interrupted sweep, resumed
 *     without the faults, exports the same bytes as an uninterrupted
 *     clean sweep.
 *
 * Usage: bench_sweep_resilience [jobs] [instr_per_thread] [seed]
 *        (defaults: 8 jobs, defaultInstrPerThread()/8, seed 42)
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/resilience.hh"
#include "sim/runner.hh"

namespace {

using namespace archsim;

struct SweepOut {
    std::vector<RunResult> runs;
    std::string json;
    double secs = 0;
};

SweepOut
runSweep(const Study &study, RunnerOptions opts)
{
    const StudyRunner runner(study, opts);
    SweepOut out;
    const auto start = std::chrono::steady_clock::now();
    out.runs = runner.runAll();
    out.secs = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    std::ostringstream os;
    exportJson(os, out.runs, runner);
    out.json = os.str();
    return out;
}

int
countStatus(const std::vector<RunResult> &runs, RunStatus s)
{
    int n = 0;
    for (const RunResult &r : runs)
        n += r.status == s;
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    const int jobs = argc > 1 ? std::atoi(argv[1]) : 8;
    const std::uint64_t instr =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                 : defaultInstrPerThread() / 8;
    const std::uint64_t seed =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;

    Study study;
    RunnerOptions base;
    base.jobs = jobs;
    base.instrPerThread = instr;
    base.epochCycles = 20000;
    const std::size_t n_runs =
        StudyRunner(study, base).tasks().size();

    std::printf("=== sweep resilience: %zu runs, %llu instr/thread, "
                "jobs %d, fault seed %llu ===\n",
                n_runs, static_cast<unsigned long long>(instr), jobs,
                static_cast<unsigned long long>(seed));
    bool all_ok = true;
    const auto verdict = [&](const char *name, bool pass) {
        std::printf("  %-38s %s\n", name, pass ? "pass" : "FAIL");
        all_ok = all_ok && pass;
    };

    // 1. Isolation: 3 seeded mid-simulation faults; the other runs
    //    finish, and the result is jobs-independent.
    RunnerOptions faulted = base;
    faulted.faultPlan = FaultPlan::seeded(seed, n_runs, 3);
    std::printf("fault plan: %s\n",
                faulted.faultPlan.canonical().c_str());
    const SweepOut f_pool = runSweep(study, faulted);
    RunnerOptions faulted_serial = faulted;
    faulted_serial.jobs = 1;
    const SweepOut f_serial = runSweep(study, faulted_serial);
    verdict("isolation: failures contained",
            countStatus(f_pool.runs, RunStatus::Failed) == 3 &&
                countStatus(f_pool.runs, RunStatus::Ok) ==
                    static_cast<int>(n_runs) - 3);
    verdict("isolation: jobs-independent bytes",
            f_pool.json == f_serial.json);
    std::printf("    faulted sweep: %.3fs pooled, %.3fs serial\n",
                f_pool.secs, f_serial.secs);

    // The clean sweep: the resume reference, and the run lengths the
    // watchdog budget derives from (a fixed budget would let short
    // runs finish at small instruction counts).
    const SweepOut clean = runSweep(study, base);
    Cycle shortest = std::numeric_limits<Cycle>::max();
    for (const RunResult &r : clean.runs) {
        if (r.ok())
            shortest = std::min(shortest, r.stats.cycles);
    }

    // 2. Watchdog: half the shortest clean run times every run out at
    //    exactly the budget cycle.
    RunnerOptions budget = base;
    budget.maxCycles = shortest / 2;
    std::printf("watchdog budget: %llu cycles\n",
                static_cast<unsigned long long>(budget.maxCycles));
    const SweepOut b_pool = runSweep(study, budget);
    RunnerOptions budget_serial = budget;
    budget_serial.jobs = 1;
    const SweepOut b_serial = runSweep(study, budget_serial);
    bool budget_det =
        countStatus(b_pool.runs, RunStatus::TimedOut) ==
        static_cast<int>(n_runs);
    for (std::size_t i = 0; i < n_runs && budget_det; ++i)
        budget_det = b_pool.runs[i].error.cycle ==
                         b_serial.runs[i].error.cycle &&
                     b_pool.runs[i].error.cycle == budget.maxCycles;
    verdict("watchdog: deterministic timeout cycle", budget_det);

    // 3. Retry: make the seeded faults transient (fail only the
    //    first attempt); two attempts recover every run.
    RunnerOptions transient = faulted;
    for (FaultSpec &f : transient.faultPlan.faults)
        f.failAttempts = 1;
    transient.retry.maxAttempts = 2;
    const SweepOut t = runSweep(study, transient);
    bool retried = countStatus(t.runs, RunStatus::Ok) ==
                   static_cast<int>(n_runs);
    int attempts2 = 0;
    for (const RunResult &r : t.runs)
        attempts2 += r.attempts == 2;
    verdict("retry: transients recover, attempts kept",
            retried && attempts2 == 3);

    // 4. Resume: checkpoint the faulted sweep, then resume without
    //    faults; the merged bytes must equal a clean sweep's.
    const std::string dir = "/tmp/bench_sweep_resilience.ckpt";
    std::remove(dir.c_str());
    RunnerOptions pass1 = faulted;
    {
        const StudyRunner probe(study, pass1);
        CheckpointStore store(dir, probe.fingerprint());
        std::string err;
        if (!store.ensureDir(&err)) {
            std::fprintf(stderr, "checkpoint dir: %s\n", err.c_str());
            return 1;
        }
        pass1.onRunComplete = [&store](std::size_t,
                                       const RunResult &r) {
            std::string serr;
            if (!store.save(r, &serr))
                std::fprintf(stderr, "checkpoint save: %s\n",
                             serr.c_str());
        };
        (void)runSweep(study, pass1);
    }
    RunnerOptions pass2 = base;
    const CheckpointStore store(
        dir, StudyRunner(study, pass2).fingerprint());
    std::atomic<std::size_t> reused{0}, rejected{0};
    pass2.reuseRun = [&](std::size_t, const std::string &config,
                         const std::string &workload, RunResult &out) {
        RunResult r;
        std::string why;
        const CheckpointStore::Load got =
            store.load(config, workload, r, &why);
        if (got == CheckpointStore::Load::Rejected) {
            ++rejected;
            std::fprintf(stderr, "checkpoint %s rejected: %s\n",
                         store.path(config, workload).c_str(),
                         why.c_str());
        }
        if (got != CheckpointStore::Load::Loaded || !r.ok())
            return false; // failed runs re-execute on resume
        ++reused;
        out = std::move(r);
        return true;
    };
    const SweepOut resumed = runSweep(study, pass2);
    verdict("resume: byte-identical to clean sweep",
            resumed.json == clean.json && rejected == 0 &&
                reused == n_runs - 3);
    std::printf("    resume %.3fs vs clean %.3fs (%zu of %zu runs "
                "reused, %zu rejected)\n",
                resumed.secs, clean.secs, reused.load(), n_runs,
                rejected.load());

    std::printf("sweep resilience contracts: %s\n",
                all_ok ? "all pass" : "FAILED");
    return all_ok ? 0 : 1;
}
