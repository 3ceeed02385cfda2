/**
 * @file
 * Sweep resilience tests: the atomic write helper, the deterministic
 * fault-injection plan, checkpoint record integrity, and the
 * StudyRunner's isolation / watchdog / retry / resume contracts.
 *
 * The load-bearing claims: a faulted run costs exactly one slot (the
 * sweep around it is byte-identical for any jobs count), a cycle
 * budget trips at a deterministic simulated cycle, retries are
 * recorded, torn or alien checkpoint records never load, and a
 * resumed sweep exports the same bytes as an uninterrupted one.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/resilience.hh"
#include "sim/runner.hh"
#include "util/atomic_file.hh"

using namespace archsim;

namespace {

/** One Study for the whole file: its CACTI solves dominate setup. */
class ResilienceTest : public ::testing::Test
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

    /** A fresh directory under the gtest temp root. */
    static std::string tempDir(const std::string &leaf)
    {
        const std::string dir = ::testing::TempDir() + leaf;
        std::remove(dir.c_str());
        return dir;
    }

    static Study *study_;
};

Study *ResilienceTest::study_ = nullptr;

std::string
sweepJson(const Study &study, const RunnerOptions &opts)
{
    const StudyRunner runner(study, opts);
    std::ostringstream os;
    exportJson(os, runner.runAll(), runner);
    return os.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

} // namespace

// ---------------------------------------------------------------- //
// util/atomic_file.hh                                              //
// ---------------------------------------------------------------- //

TEST(AtomicFileTest, WriteReadOverwrite)
{
    const std::string path = ::testing::TempDir() + "atomic_wro.txt";
    std::string err;
    ASSERT_TRUE(cactid::util::writeFileAtomic(path, "first", &err))
        << err;
    EXPECT_EQ(slurp(path), "first");
    ASSERT_TRUE(cactid::util::writeFileAtomic(path, "second", &err));
    EXPECT_EQ(slurp(path), "second");
    // No temporary survives a successful write.
    std::string tmp_probe;
    EXPECT_FALSE(cactid::util::readFile(
        path + ".tmp." + std::to_string(::getpid()), tmp_probe));
}

TEST(AtomicFileTest, RenderCallbackVariant)
{
    const std::string path = ::testing::TempDir() + "atomic_cb.txt";
    std::string err;
    ASSERT_TRUE(cactid::util::writeFileAtomic(
        path, [](std::ostream &os) { os << "rendered " << 42; },
        &err))
        << err;
    EXPECT_EQ(slurp(path), "rendered 42");
}

TEST(AtomicFileTest, FailedRenderLeavesTargetUntouched)
{
    const std::string path = ::testing::TempDir() + "atomic_fail.txt";
    std::string err;
    ASSERT_TRUE(cactid::util::writeFileAtomic(path, "keep me", &err));
    EXPECT_FALSE(cactid::util::writeFileAtomic(
        path,
        [](std::ostream &os) { os.setstate(std::ios::failbit); },
        &err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(slurp(path), "keep me");
}

TEST(AtomicFileTest, MissingDirectoryReportsError)
{
    std::string err;
    EXPECT_FALSE(cactid::util::writeFileAtomic(
        ::testing::TempDir() + "no-such-dir/x.txt", "data", &err));
    EXPECT_NE(err.find("x.txt"), std::string::npos);
}

// ---------------------------------------------------------------- //
// FaultPlan                                                        //
// ---------------------------------------------------------------- //

TEST(FaultPlanTest, ParsesEverySiteAndModifier)
{
    const FaultPlan p =
        FaultPlan::parse("3@timeout:8000,0@solve,2@step:5000x1,1@export");
    ASSERT_EQ(p.faults.size(), 4u);

    const FaultSpec *solve = p.find(0, FaultSite::Solve);
    ASSERT_NE(solve, nullptr);
    EXPECT_EQ(solve->action, FaultAction::Throw);

    const FaultSpec *step = p.find(2, FaultSite::Step);
    ASSERT_NE(step, nullptr);
    EXPECT_EQ(step->cycle, 5000u);
    EXPECT_EQ(step->failAttempts, 1); // transient: attempt 2 passes
    EXPECT_TRUE(p.fires(2, FaultSite::Step, 1));
    EXPECT_FALSE(p.fires(2, FaultSite::Step, 2));

    const FaultSpec *to = p.find(3, FaultSite::Step);
    ASSERT_NE(to, nullptr);
    EXPECT_EQ(to->action, FaultAction::Timeout);
    EXPECT_EQ(to->cycle, 8000u);

    EXPECT_NE(p.find(1, FaultSite::Export), nullptr);
    EXPECT_EQ(p.find(9, FaultSite::Solve), nullptr);
}

TEST(FaultPlanTest, CanonicalRoundTrips)
{
    const std::string spec = "3@timeout:8000,0@solve,2@step:5000x1";
    const FaultPlan p = FaultPlan::parse(spec);
    const std::string canon = p.canonical();
    // Canonical form is sorted by run index and itself parseable.
    EXPECT_LT(canon.find("0@solve"), canon.find("2@step"));
    EXPECT_EQ(FaultPlan::parse(canon).canonical(), canon);
}

TEST(FaultPlanTest, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultPlan::parse("banana"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("1@bogus"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("x@solve"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("1@step:abc"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("1@solve,,2@solve"),
                 std::invalid_argument);
}

TEST(FaultPlanTest, SeededPlansAreReproducible)
{
    const FaultPlan a = FaultPlan::seeded(7, 48, 3);
    const FaultPlan b = FaultPlan::seeded(7, 48, 3);
    EXPECT_EQ(a.canonical(), b.canonical());
    ASSERT_EQ(a.faults.size(), 3u);
    for (std::size_t i = 0; i < a.faults.size(); ++i) {
        EXPECT_LT(a.faults[i].run, 48u);
        if (i) {
            EXPECT_LT(a.faults[i - 1].run, a.faults[i].run);
        }
    }
    EXPECT_NE(FaultPlan::seeded(8, 48, 3).canonical(), a.canonical());
}

// ---------------------------------------------------------------- //
// CheckpointStore                                                  //
// ---------------------------------------------------------------- //

TEST_F(ResilienceTest, CheckpointRoundTripIsExact)
{
    const StudyRunner runner(*study_, smallSweep(1));
    const RunResult r = runner.runOne("nol3", "ft.B");

    CheckpointStore store(tempDir("ckpt_roundtrip"),
                          runner.fingerprint());
    std::string err;
    ASSERT_TRUE(store.ensureDir(&err)) << err;
    ASSERT_TRUE(store.save(r, &err)) << err;

    RunResult back;
    ASSERT_EQ(store.load("nol3", "ft.B", back),
              CheckpointStore::Load::Loaded);
    EXPECT_EQ(back.status, RunStatus::Ok);
    EXPECT_EQ(back.attempts, r.attempts);
    EXPECT_EQ(back.stats.cycles, r.stats.cycles);
    EXPECT_EQ(back.stats.ipc, r.stats.ipc); // bit-exact via %.17g
    EXPECT_EQ(back.power.edp(), r.power.edp());
    EXPECT_EQ(back.thermal.maxTemp, r.thermal.maxTemp);
    ASSERT_EQ(back.epochs.size(), r.epochs.size());
    for (std::size_t e = 0; e < r.epochs.size(); ++e) {
        EXPECT_EQ(back.epochs[e].beginCycle, r.epochs[e].beginCycle);
        EXPECT_EQ(back.epochs[e].ipc, r.epochs[e].ipc);
        EXPECT_EQ(back.epochs[e].memHierPowerW,
                  r.epochs[e].memHierPowerW);
    }
}

TEST_F(ResilienceTest, CheckpointPersistsFailureRecords)
{
    RunResult r;
    r.config = "nol3";
    r.workload = "ft.B";
    r.status = RunStatus::TimedOut;
    r.attempts = 2;
    r.error = {"cycle budget exceeded", "sim", 5000};

    CheckpointStore store(tempDir("ckpt_failrec"), "fp-test");
    std::string err;
    ASSERT_TRUE(store.ensureDir(&err)) << err;
    ASSERT_TRUE(store.save(r, &err)) << err;

    RunResult back;
    ASSERT_EQ(store.load("nol3", "ft.B", back),
              CheckpointStore::Load::Loaded);
    EXPECT_EQ(back.status, RunStatus::TimedOut);
    EXPECT_EQ(back.attempts, 2);
    EXPECT_EQ(back.error.message, "cycle budget exceeded");
    EXPECT_EQ(back.error.phase, "sim");
    EXPECT_EQ(back.error.cycle, 5000u);
}

TEST_F(ResilienceTest, CheckpointRejectsTornAndCorruptRecords)
{
    const StudyRunner runner(*study_, smallSweep(1));
    const RunResult r = runner.runOne("nol3", "ft.B");
    CheckpointStore store(tempDir("ckpt_corrupt"),
                          runner.fingerprint());
    const std::string good = store.encode(r);

    RunResult out;
    // Torn write: any truncation must be rejected, not half-loaded.
    for (std::size_t cut : {std::size_t(0), std::size_t(1),
                            good.size() / 2, good.size() - 1}) {
        EXPECT_EQ(store.decode(good.substr(0, cut), out),
                  CheckpointStore::Load::Invalid)
            << "cut=" << cut;
    }
    // A single flipped byte breaks the trailing checksum.
    std::string flipped = good;
    flipped[good.size() / 3] ^= 0x01;
    EXPECT_EQ(store.decode(flipped, out),
              CheckpointStore::Load::Invalid);
    // Appended garbage is torn too (checksum covers the whole body).
    EXPECT_EQ(store.decode(good + "trailing\n", out),
              CheckpointStore::Load::Invalid);
    // The untouched record still loads.
    EXPECT_EQ(store.decode(good, out), CheckpointStore::Load::Loaded);
}

TEST_F(ResilienceTest, CheckpointRejectsRecordsFromOtherSweeps)
{
    const StudyRunner runner(*study_, smallSweep(1));
    const RunResult r = runner.runOne("nol3", "ft.B");
    const std::string dir = tempDir("ckpt_alien");

    CheckpointStore store(dir, runner.fingerprint());
    std::string err;
    ASSERT_TRUE(store.ensureDir(&err)) << err;
    ASSERT_TRUE(store.save(r, &err)) << err;

    // Same record bytes, read under a different sweep fingerprint:
    // the key no longer matches, so the record must not load.
    CheckpointStore other(dir, runner.fingerprint() + "|different");
    RunResult out;
    EXPECT_NE(other.load("nol3", "ft.B", out),
              CheckpointStore::Load::Loaded);
}

TEST_F(ResilienceTest, CheckpointMissingRecordIsMissing)
{
    CheckpointStore store(tempDir("ckpt_missing"), "fp");
    std::string err;
    ASSERT_TRUE(store.ensureDir(&err)) << err;
    RunResult out;
    EXPECT_EQ(store.load("nol3", "ft.B", out),
              CheckpointStore::Load::Missing);
}

// ---------------------------------------------------------------- //
// StudyRunner isolation / watchdog / retry                         //
// ---------------------------------------------------------------- //

TEST_F(ResilienceTest, FaultedRunCostsExactlyOneSlot)
{
    RunnerOptions opts = smallSweep(1);
    opts.faultPlan = FaultPlan::parse("1@solve");
    const StudyRunner runner(*study_, opts);
    const std::vector<RunResult> runs = runner.runAll();
    ASSERT_EQ(runs.size(), 4u);

    EXPECT_EQ(runs[1].status, RunStatus::Failed);
    EXPECT_EQ(runs[1].error.phase, "solve");
    EXPECT_NE(runs[1].error.message.find("injected"),
              std::string::npos);
    EXPECT_EQ(runs[1].config, "cm_dram_ed"); // slot stays labeled
    EXPECT_EQ(runs[1].stats.cycles, 0u);     // and zeroed

    for (std::size_t i : {std::size_t(0), std::size_t(2),
                          std::size_t(3)}) {
        EXPECT_EQ(runs[i].status, RunStatus::Ok) << "slot " << i;
        EXPECT_GT(runs[i].stats.cycles, 0u);
    }
}

TEST_F(ResilienceTest, FaultedSweepIsJobsIndependent)
{
    RunnerOptions serial = smallSweep(1);
    serial.faultPlan = FaultPlan::parse("0@step:3000,2@timeout:4000");
    RunnerOptions pooled = serial;
    pooled.jobs = 4;
    EXPECT_EQ(sweepJson(*study_, serial), sweepJson(*study_, pooled));
}

TEST_F(ResilienceTest, FaultedSweepExportsV2Schema)
{
    RunnerOptions opts = smallSweep(1);
    opts.faultPlan = FaultPlan::parse("1@solve");
    const std::string json = sweepJson(*study_, opts);
    EXPECT_NE(json.find("cactid-study-v2"), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
    EXPECT_NE(json.find("\"phase\": \"solve\""), std::string::npos);

    // Clean sweeps keep the pinned v1 bytes, whatever options ran.
    EXPECT_NE(sweepJson(*study_, smallSweep(1)).find("cactid-study-v1"),
              std::string::npos);

    const StudyRunner runner(*study_, opts);
    std::ostringstream csv;
    exportSummaryCsv(csv, runner.runAll());
    EXPECT_NE(csv.str().find(",status,attempts"), std::string::npos);
    EXPECT_NE(csv.str().find("failed,1"), std::string::npos);
}

TEST_F(ResilienceTest, CycleBudgetTripsDeterministically)
{
    RunnerOptions serial = smallSweep(1);
    serial.maxCycles = 5000;
    const StudyRunner a(*study_, serial);
    const std::vector<RunResult> ra = a.runAll();
    for (const RunResult &r : ra) {
        EXPECT_EQ(r.status, RunStatus::TimedOut);
        EXPECT_EQ(r.error.phase, "sim");
        EXPECT_GE(r.error.cycle, 5000u);
    }

    RunnerOptions pooled = serial;
    pooled.jobs = 4;
    const StudyRunner b(*study_, pooled);
    const std::vector<RunResult> rb = b.runAll();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i)
        EXPECT_EQ(ra[i].error.cycle, rb[i].error.cycle) << i;
}

TEST_F(ResilienceTest, TransientFaultRecoversUnderRetry)
{
    RunnerOptions opts = smallSweep(1);
    opts.faultPlan = FaultPlan::parse("0@solvex1");
    opts.retry.maxAttempts = 2;
    const StudyRunner runner(*study_, opts);
    const std::vector<RunResult> runs = runner.runAll();
    EXPECT_EQ(runs[0].status, RunStatus::Ok);
    EXPECT_EQ(runs[0].attempts, 2);
    EXPECT_GT(runs[0].stats.cycles, 0u);
    EXPECT_EQ(runs[1].attempts, 1); // untouched runs never retry

    // The retried sweep serializes as v2 (attempts != 1 is an event
    // worth recording) with every run Ok.
    std::ostringstream os;
    exportJson(os, runs, runner);
    EXPECT_NE(os.str().find("cactid-study-v2"), std::string::npos);
    EXPECT_EQ(os.str().find("\"status\": \"failed\""),
              std::string::npos);
}

TEST_F(ResilienceTest, PersistentFaultExhaustsAttempts)
{
    RunnerOptions opts = smallSweep(1);
    opts.faultPlan = FaultPlan::parse("0@solve");
    opts.retry.maxAttempts = 3;
    const StudyRunner runner(*study_, opts);
    const std::vector<RunResult> runs = runner.runAll();
    EXPECT_EQ(runs[0].status, RunStatus::Failed);
    EXPECT_EQ(runs[0].attempts, 3);
}

TEST_F(ResilienceTest, TimeoutsOnlyRetryWhenAsked)
{
    RunnerOptions opts = smallSweep(1);
    opts.configs = {"nol3"};
    opts.workloads = {"ft.B"};
    opts.faultPlan = FaultPlan::parse("0@timeout:3000x1");
    opts.retry.maxAttempts = 2;

    const StudyRunner no_retry(*study_, opts);
    EXPECT_EQ(no_retry.runAll()[0].status, RunStatus::TimedOut);
    EXPECT_EQ(no_retry.runAll()[0].attempts, 1);

    opts.retry.retryTimeouts = true;
    const StudyRunner retried(*study_, opts);
    const RunResult r = retried.runAll()[0];
    EXPECT_EQ(r.status, RunStatus::Ok);
    EXPECT_EQ(r.attempts, 2);
}

// ---------------------------------------------------------------- //
// Resume identity                                                  //
// ---------------------------------------------------------------- //

TEST_F(ResilienceTest, ResumedSweepIsByteIdenticalToUninterrupted)
{
    const std::string dir = tempDir("ckpt_resume");

    // Pass 1: one run dies mid-simulation; the other three
    // checkpoint.  (The failed slot also writes a record, which
    // resume must ignore.)
    RunnerOptions first = smallSweep(2);
    first.faultPlan = FaultPlan::parse("2@step:3000");
    {
        const StudyRunner probe(*study_, first);
        CheckpointStore store(dir, probe.fingerprint());
        std::string err;
        ASSERT_TRUE(store.ensureDir(&err)) << err;
        first.onRunComplete = [&store](std::size_t,
                                       const RunResult &r) {
            std::string save_err;
            ASSERT_TRUE(store.save(r, &save_err)) << save_err;
        };
        const StudyRunner runner(*study_, first);
        const std::vector<RunResult> runs = runner.runAll();
        EXPECT_EQ(runs[2].status, RunStatus::Failed);
    }

    // Pass 2: resume without the fault.  Only the failed slot may
    // execute; the sweep bytes must match a clean uninterrupted run.
    RunnerOptions second = smallSweep(2);
    std::atomic<int> executed{0};
    second.tweakHierarchy = [&executed](const std::string &,
                                        HierarchyParams &) {
        ++executed;
    };
    const CheckpointStore store(
        dir, StudyRunner(*study_, second).fingerprint());
    second.reuseRun = [store](std::size_t, const std::string &config,
                              const std::string &workload,
                              RunResult &out) {
        RunResult r;
        if (store.load(config, workload, r) !=
            CheckpointStore::Load::Loaded)
            return false;
        if (!r.ok())
            return false;
        out = std::move(r);
        return true;
    };
    const std::string resumed = sweepJson(*study_, second);
    EXPECT_EQ(executed.load(), 1);

    const std::string clean = sweepJson(*study_, smallSweep(2));
    EXPECT_EQ(resumed, clean);
    EXPECT_NE(resumed.find("cactid-study-v1"), std::string::npos);
}

TEST_F(ResilienceTest, ThermalModelChangeReRunsOnlyThermalOnRecords)
{
    for (const bool thermal : {true, false}) {
        RunnerOptions opts = smallSweep(2);
        opts.thermal = thermal;
        const std::string dir =
            tempDir(thermal ? "ckpt_thermal_on" : "ckpt_thermal_off");
        // The sweep key as written before thermal-on keys carried the
        // thermal model's tag.
        const std::string old_fp =
            std::string("cactid-sweep-v1|instr=3000|epoch=2000|exact=0") +
            "|thermal=" + (thermal ? "1" : "0") + "|maxcycles=0";
        {
            CheckpointStore old(dir, old_fp);
            std::string err;
            ASSERT_TRUE(old.ensureDir(&err)) << err;
            RunnerOptions first = opts;
            first.onRunComplete = [&old](std::size_t, const RunResult &r) {
                std::string save_err;
                ASSERT_TRUE(old.save(r, &save_err)) << save_err;
            };
            StudyRunner(*study_, first).runAll();
        }

        RunnerOptions second = opts;
        std::atomic<int> executed{0};
        second.tweakHierarchy = [&executed](const std::string &,
                                            HierarchyParams &) {
            ++executed;
        };
        const std::string fp = StudyRunner(*study_, second).fingerprint();
        EXPECT_EQ(fp == old_fp, !thermal) << fp;
        const CheckpointStore store(dir, fp);
        second.reuseRun = [store](std::size_t, const std::string &config,
                                  const std::string &workload,
                                  RunResult &out) {
            return store.load(config, workload, out) ==
                   CheckpointStore::Load::Loaded;
        };
        const std::string resumed = sweepJson(*study_, second);
        // Thermal-on: every old record is alien and re-runs.
        // Thermal-off: the key is unchanged and every record loads.
        EXPECT_EQ(executed.load(), thermal ? 4 : 0)
            << "thermal=" << thermal;
        EXPECT_EQ(resumed, sweepJson(*study_, opts));
    }
}
