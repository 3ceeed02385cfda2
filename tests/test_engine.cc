/**
 * @file
 * Tests for the SolverEngine: parallel/serial determinism across all
 * three cell technologies, streaming mode, stats accounting, and
 * equivalence with the legacy enumerate-then-optimize path.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>

#include "core/cacti.hh"
#include "core/engine.hh"
#include "obs/trace.hh"
#include "util/executor.hh"

namespace {

using namespace cactid;

MemoryConfig
sramCache()
{
    MemoryConfig c;
    c.capacityBytes = 4 << 20;
    c.blockBytes = 64;
    c.associativity = 8;
    c.nBanks = 4;
    c.type = MemoryType::Cache;
    c.featureNm = 32.0;
    return c;
}

MemoryConfig
lpDramCache()
{
    MemoryConfig c = sramCache();
    c.capacityBytes = 16 << 20;
    c.dataCellTech = RamCellTech::LpDram;
    c.tagCellTech = RamCellTech::LpDram;
    c.accessMode = AccessMode::Sequential;
    return c;
}

MemoryConfig
commDramChip()
{
    MemoryConfig c;
    c.capacityBytes = 1024.0 * 1024.0 * 1024.0 / 8.0; // 1 Gb
    c.blockBytes = 8;
    c.type = MemoryType::MainMemoryChip;
    c.nBanks = 8;
    c.featureNm = 78.0;
    c.dataCellTech = RamCellTech::CommDram;
    c.pageBytes = 1024;
    return c;
}

/** Exact (bit-identical) comparison of every rolled-up metric. */
void
expectIdentical(const Solution &a, const Solution &b)
{
    EXPECT_EQ(a.totalArea, b.totalArea);
    EXPECT_EQ(a.bankArea, b.bankArea);
    EXPECT_EQ(a.areaEfficiency, b.areaEfficiency);
    EXPECT_EQ(a.accessTime, b.accessTime);
    EXPECT_EQ(a.randomCycle, b.randomCycle);
    EXPECT_EQ(a.interleaveCycle, b.interleaveCycle);
    EXPECT_EQ(a.readEnergy, b.readEnergy);
    EXPECT_EQ(a.writeEnergy, b.writeEnergy);
    EXPECT_EQ(a.leakage, b.leakage);
    EXPECT_EQ(a.refreshPower, b.refreshPower);
    EXPECT_EQ(a.tRcd, b.tRcd);
    EXPECT_EQ(a.tRc, b.tRc);
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.data.part.rowsPerSubarray, b.data.part.rowsPerSubarray);
    EXPECT_EQ(a.data.part.colsPerSubarray, b.data.part.colsPerSubarray);
    EXPECT_EQ(a.data.part.blMux, b.data.part.blMux);
    EXPECT_EQ(a.data.part.samMux, b.data.part.samMux);
}

class EngineDeterminism
    : public ::testing::TestWithParam<MemoryConfig>
{
};

TEST_P(EngineDeterminism, ParallelMatchesSerialBitExactly)
{
    const MemoryConfig cfg = GetParam();
    const SolveResult serial = solve(cfg, SolverOptions{1, true});
    const SolveResult parallel = solve(cfg, SolverOptions{8, true});

    expectIdentical(serial.best, parallel.best);
    ASSERT_EQ(serial.filtered.size(), parallel.filtered.size());
    ASSERT_EQ(serial.all.size(), parallel.all.size());
    for (std::size_t i = 0; i < serial.filtered.size(); ++i)
        expectIdentical(serial.filtered[i], parallel.filtered[i]);
    EXPECT_EQ(serial.stats.partitionsEnumerated,
              parallel.stats.partitionsEnumerated);
    EXPECT_EQ(serial.stats.partitionsInfeasible,
              parallel.stats.partitionsInfeasible);
    EXPECT_EQ(serial.stats.areaPruned, parallel.stats.areaPruned);
    EXPECT_EQ(serial.stats.timePruned, parallel.stats.timePruned);
}

INSTANTIATE_TEST_SUITE_P(AllTechnologies, EngineDeterminism,
                         ::testing::Values(sramCache(), lpDramCache(),
                                           commDramChip()));

TEST(Engine, MatchesLegacyEnumerateThenOptimize)
{
    const MemoryConfig cfg = sramCache();
    const Technology t(cfg.featureNm, cfg.temperatureK);
    const SolveResult legacy =
        optimize(cfg, enumerateSolutions(t, cfg));
    const SolveResult engine =
        SolverEngine(SolverOptions{4, true}).run(t, cfg);
    expectIdentical(legacy.best, engine.best);
    ASSERT_EQ(legacy.filtered.size(), engine.filtered.size());
    for (std::size_t i = 0; i < legacy.filtered.size(); ++i)
        expectIdentical(legacy.filtered[i], engine.filtered[i]);
    EXPECT_EQ(legacy.all.size(), engine.all.size());
}

TEST(Engine, StatsAccountingIdentityHolds)
{
    for (const MemoryConfig &cfg :
         {sramCache(), lpDramCache(), commDramChip()}) {
        EngineStats st;
        const SolveResult res = solve(cfg, SolverOptions{2, true}, &st);
        EXPECT_EQ(st.partitionsEnumerated,
                  st.partitionsInfeasible + st.solutionsBuilt);
        EXPECT_EQ(st.solutionsBuilt,
                  st.areaPruned + st.timePruned + res.filtered.size());
        EXPECT_EQ(st.solutionsBuilt, res.all.size());
        EXPECT_GT(st.partitionsEnumerated, 0u);
        EXPECT_GT(st.totalSeconds, 0.0);
        EXPECT_GE(st.totalSeconds,
                  st.evaluateSeconds); // stages nest inside the total
        EXPECT_EQ(st.jobsUsed, 2);
        EXPECT_LE(st.peakLiveSolutions, st.solutionsBuilt);
        // The out-param copy mirrors the embedded stats.
        EXPECT_EQ(st.partitionsEnumerated,
                  res.stats.partitionsEnumerated);
    }
}

TEST(Engine, StreamingModeMatchesCollectAll)
{
    const MemoryConfig cfg = lpDramCache();
    const SolveResult full = solve(cfg, SolverOptions{1, true});
    const SolveResult streamed = solve(cfg, SolverOptions{1, false});
    expectIdentical(full.best, streamed.best);
    ASSERT_EQ(full.filtered.size(), streamed.filtered.size());
    for (std::size_t i = 0; i < full.filtered.size(); ++i)
        expectIdentical(full.filtered[i], streamed.filtered[i]);
    EXPECT_TRUE(streamed.all.empty());
    // Streaming keeps only potential area-constraint survivors live.
    EXPECT_LE(streamed.stats.peakLiveSolutions,
              streamed.stats.solutionsBuilt);
}

TEST(Engine, ZeroJobsResolvesToHardwareConcurrency)
{
    EXPECT_GE(SolverEngine::resolveJobs(0), 1);
    EXPECT_EQ(SolverEngine::resolveJobs(3), 3);
    EngineStats st;
    solve(sramCache(), SolverOptions{0, false}, &st);
    EXPECT_EQ(st.jobsUsed, SolverEngine::resolveJobs(0));
}

TEST(Engine, MoreJobsThanCandidatesStillWorks)
{
    MemoryConfig c = sramCache();
    c.capacityBytes = 64 << 10; // tiny space
    c.nBanks = 1;
    const SolveResult serial = solve(c, SolverOptions{1, true});
    const SolveResult wide = solve(c, SolverOptions{64, true});
    expectIdentical(serial.best, wide.best);
    EXPECT_EQ(serial.filtered.size(), wide.filtered.size());
}

TEST(Engine, StatsReportMentionsEveryStage)
{
    EngineStats st;
    solve(sramCache(), SolverOptions{2, true}, &st);
    const std::string r = st.report();
    EXPECT_NE(r.find("enumerated"), std::string::npos);
    EXPECT_NE(r.find("infeasible"), std::string::npos);
    EXPECT_NE(r.find("max-area"), std::string::npos);
    EXPECT_NE(r.find("max-acctime"), std::string::npos);
    EXPECT_NE(r.find("evaluate"), std::string::npos);
    EXPECT_NE(r.find("total"), std::string::npos);
}

TEST(Engine, SolveInsideExecutorTaskMatchesSerial)
{
    const std::vector<MemoryConfig> cfgs = {sramCache(), lpDramCache(),
                                            commDramChip()};
    std::vector<SolveResult> nested(cfgs.size());
    // Each task's solve asks for 4 threads but runs inline on the
    // task's thread: the pool is already running this loop.
    util::parallelFor(cfgs.size(), 4, [&](std::size_t i) {
        nested[i] = solve(cfgs[i], SolverOptions{4, true});
    });
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const SolveResult serial = solve(cfgs[i], SolverOptions{1, true});
        expectIdentical(serial.best, nested[i].best);
        ASSERT_EQ(serial.filtered.size(), nested[i].filtered.size());
        for (std::size_t k = 0; k < serial.filtered.size(); ++k)
            expectIdentical(serial.filtered[k], nested[i].filtered[k]);
        EXPECT_EQ(serial.all.size(), nested[i].all.size());
    }
}

MemoryConfig
smallSram()
{
    MemoryConfig c = sramCache();
    c.capacityBytes = 64 << 10;
    c.nBanks = 1;
    return c;
}

TEST(Engine, TracedSolvesAddAtMostExecutorWidthRings)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    const std::size_t before = tracer.ringCount();
    tracer.enable(true);
    for (int i = 0; i < 200; ++i)
        solve(smallSram(), SolverOptions{4, false});
    tracer.enable(false);
    // One ring per thread that ever recorded: the persistent workers
    // plus this caller, never a fresh set per solve.
    EXPECT_LE(tracer.ringCount() - before,
              static_cast<std::size_t>(util::executorWidth()));
}

TEST(Engine, SolvesCreateNoThreadsAfterTheFirst)
{
    const std::filesystem::path tasks = "/proc/self/task";
    if (!std::filesystem::exists(tasks))
        GTEST_SKIP() << "no per-thread listing on this platform";
    auto threads = [&] {
        return std::distance(std::filesystem::directory_iterator(tasks),
                             std::filesystem::directory_iterator());
    };
    solve(smallSram(), SolverOptions{0, false}); // creates the pool
    const auto warm = threads();
    for (int i = 0; i < 50; ++i)
        solve(smallSram(), SolverOptions{0, false});
    EXPECT_EQ(threads(), warm);
}

TEST(Engine, InfeasibleConfigThrows)
{
    MemoryConfig c = sramCache();
    c.capacityBytes = 0.0; // invalid: rejected by validate()
    EXPECT_THROW(SolverEngine().run(c), std::invalid_argument);
}

} // namespace
