/**
 * @file
 * StudyRunner tests: the worker pool must reproduce the serial sweep
 * bit-for-bit (aggregates, per-epoch streams, and the exported JSON
 * bytes) for any jobs count, and the epoch streams must tile the run
 * exactly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/runner.hh"

using namespace archsim;

namespace {

/** One Study for the whole file: its CACTI solves dominate setup. */
class RunnerTest : public ::testing::Test
{
  public:
    static void SetUpTestSuite() { study_ = new Study(); }
    static void TearDownTestSuite()
    {
        delete study_;
        study_ = nullptr;
    }

    /** Small sweep: 2 configs x 2 workloads, epoch sampling on. */
    static RunnerOptions smallSweep(int jobs)
    {
        RunnerOptions o;
        o.jobs = jobs;
        o.instrPerThread = 3000;
        o.epochCycles = 2000;
        o.configs = {"nol3", "cm_dram_ed"};
        o.workloads = {"ft.B", "cg.C"};
        return o;
    }

    static Study *study_;
};

Study *RunnerTest::study_ = nullptr;

std::string
sweepJson(const Study &study, int jobs)
{
    const StudyRunner runner(study, RunnerTest::smallSweep(jobs));
    std::ostringstream os;
    exportJson(os, runner.runAll(), runner);
    return os.str();
}

} // namespace

// Satellite 4 (the tentpole's determinism contract): a sweep with
// jobs=8 must be byte-identical to jobs=1, including every epoch.
TEST_F(RunnerTest, ParallelSweepBitIdenticalToSerial)
{
    const std::string serial = sweepJson(*study_, 1);
    EXPECT_EQ(sweepJson(*study_, 4), serial);
    EXPECT_EQ(sweepJson(*study_, 8), serial);
}

TEST_F(RunnerTest, SummaryCsvBitIdenticalAcrossJobs)
{
    auto csv = [](int jobs) {
        const StudyRunner runner(*study_, smallSweep(jobs));
        std::ostringstream os;
        exportSummaryCsv(os, runner.runAll());
        return os.str();
    };
    const std::string serial = csv(1);
    EXPECT_EQ(csv(4), serial);
    EXPECT_EQ(csv(8), serial);
}

// A throwing hook aborts the sweep only after every run finished, and
// the failure reported is the lowest index's, for any jobs.
TEST_F(RunnerTest, HookFailureRethrowsLowestIndexAfterAllRuns)
{
    for (const int jobs : {1, 4}) {
        RunnerOptions o = smallSweep(jobs);
        std::atomic<int> completed{0};
        o.onRunComplete = [&completed](std::size_t i, const RunResult &) {
            completed.fetch_add(1);
            if (i == 1 || i == 3)
                throw std::runtime_error("hook " + std::to_string(i));
        };
        const StudyRunner runner(*study_, o);
        std::string what;
        try {
            runner.runAll();
        } catch (const std::runtime_error &e) {
            what = e.what();
        }
        EXPECT_EQ(what, "hook 1") << "jobs=" << jobs;
        EXPECT_EQ(completed.load(), 4) << "jobs=" << jobs;
    }
}

TEST_F(RunnerTest, ParallelAggregatesAndEpochsMatchSerial)
{
    const StudyRunner serial(*study_, smallSweep(1));
    const StudyRunner pooled(*study_, smallSweep(8));
    const std::vector<RunResult> a = serial.runAll();
    const std::vector<RunResult> b = pooled.runAll();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].config, b[i].config);
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].stats.cycles, b[i].stats.cycles);
        EXPECT_EQ(a[i].stats.instructions, b[i].stats.instructions);
        EXPECT_EQ(a[i].stats.ipc, b[i].stats.ipc); // exact, not near
        EXPECT_EQ(a[i].power.memoryHierarchy(),
                  b[i].power.memoryHierarchy());
        EXPECT_EQ(a[i].thermal.maxTemp, b[i].thermal.maxTemp);
        ASSERT_EQ(a[i].epochs.size(), b[i].epochs.size());
        for (std::size_t e = 0; e < a[i].epochs.size(); ++e) {
            EXPECT_EQ(a[i].epochs[e].beginCycle,
                      b[i].epochs[e].beginCycle);
            EXPECT_EQ(a[i].epochs[e].instructions,
                      b[i].epochs[e].instructions);
            EXPECT_EQ(a[i].epochs[e].ipc, b[i].epochs[e].ipc);
            EXPECT_EQ(a[i].epochs[e].memHierPowerW,
                      b[i].epochs[e].memHierPowerW);
        }
    }
}

TEST_F(RunnerTest, RunOneMatchesSweepSlot)
{
    const StudyRunner runner(*study_, smallSweep(2));
    const std::vector<RunResult> runs = runner.runAll();
    const RunResult one = runner.runOne("cm_dram_ed", "ft.B");
    // Sweep order is workload-major: ft.B/nol3, ft.B/cm_dram_ed, ...
    ASSERT_EQ(runs[1].config, "cm_dram_ed");
    ASSERT_EQ(runs[1].workload, "ft.B");
    EXPECT_EQ(one.stats.cycles, runs[1].stats.cycles);
    EXPECT_EQ(one.stats.ipc, runs[1].stats.ipc);
    EXPECT_EQ(one.epochs.size(), runs[1].epochs.size());
}

TEST_F(RunnerTest, EpochStreamTilesTheRun)
{
    const StudyRunner runner(*study_, smallSweep(1));
    for (const RunResult &r : runner.runAll()) {
        ASSERT_FALSE(r.epochs.empty());
        std::uint64_t instr_sum = 0;
        Cycle prev_end = 0;
        for (std::size_t e = 0; e < r.epochs.size(); ++e) {
            const EpochSample &ep = r.epochs[e];
            EXPECT_EQ(ep.index, static_cast<int>(e));
            // Contiguous, non-empty, at-least-interval epochs (the
            // final one may be the short remainder).
            EXPECT_EQ(ep.beginCycle, prev_end);
            EXPECT_GT(ep.endCycle, ep.beginCycle);
            if (e + 1 < r.epochs.size()) {
                EXPECT_GE(ep.cycles(), 2000u);
            }
            prev_end = ep.endCycle;
            instr_sum += ep.instructions;
        }
        EXPECT_EQ(prev_end, r.stats.cycles);
        EXPECT_EQ(instr_sum, r.stats.instructions);
    }
}

TEST_F(RunnerTest, EpochSamplingOffByDefault)
{
    RunnerOptions o = smallSweep(1);
    o.epochCycles = 0;
    const StudyRunner runner(*study_, o);
    for (const RunResult &r : runner.runAll())
        EXPECT_TRUE(r.epochs.empty());
}

TEST_F(RunnerTest, UnknownNamesThrow)
{
    RunnerOptions bad_cfg;
    bad_cfg.configs = {"no_such_config"};
    EXPECT_THROW(StudyRunner(*study_, bad_cfg),
                 std::invalid_argument);

    RunnerOptions bad_wl;
    bad_wl.workloads = {"no_such_workload"};
    EXPECT_THROW(StudyRunner(*study_, bad_wl), std::invalid_argument);

    const StudyRunner runner(*study_, smallSweep(1));
    EXPECT_THROW(runner.runOne("no_such_config", "ft.B"),
                 std::invalid_argument);
}

TEST_F(RunnerTest, DefaultsCoverTheFullStudy)
{
    const StudyRunner runner(*study_, RunnerOptions{});
    EXPECT_EQ(runner.configs().size(), 6u);
    EXPECT_EQ(runner.workloads().size(), 8u);
    EXPECT_EQ(runner.instrPerThread(), defaultInstrPerThread());
}

TEST(RunnerJobs, ResolveJobs)
{
    EXPECT_EQ(StudyRunner::resolveJobs(3), 3);
    EXPECT_GE(StudyRunner::resolveJobs(0), 1);
}

TEST(EpochRecorderTest, ZeroIntervalThrows)
{
    EXPECT_THROW(EpochRecorder rec(0), std::invalid_argument);
}
