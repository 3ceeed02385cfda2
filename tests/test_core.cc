/**
 * @file
 * Tests for the core solver layer: config validation, tag path, access
 * modes, optimizer filters and weights, DRAM chip model, crossbar,
 * and the paper's Table 2 validation band.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/cacti.hh"
#include "core/cache_model.hh"
#include "table2_micron.hh"

namespace {

using namespace cactid;

MemoryConfig
cacheConfig(double bytes, int assoc = 8, int banks = 1)
{
    MemoryConfig c;
    c.capacityBytes = bytes;
    c.blockBytes = 64;
    c.associativity = assoc;
    c.nBanks = banks;
    c.type = MemoryType::Cache;
    c.featureNm = 32.0;
    return c;
}

MemoryConfig
dramChipConfig(double gbit = 1.0, double feature = 78.0)
{
    MemoryConfig c;
    c.capacityBytes = gbit * 1024 * 1024 * 1024 / 8.0;
    c.blockBytes = 8;
    c.type = MemoryType::MainMemoryChip;
    c.nBanks = 8;
    c.featureNm = feature;
    c.dataCellTech = RamCellTech::CommDram;
    c.pageBytes = 1024;
    return c;
}

// --- Config validation ---------------------------------------------------

TEST(Config, RejectsNonsense)
{
    MemoryConfig c = cacheConfig(1 << 20);
    c.capacityBytes = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);

    c = cacheConfig(1 << 20);
    c.blockBytes = 48;
    EXPECT_THROW(c.validate(), std::invalid_argument);

    c = cacheConfig(1 << 20);
    c.nBanks = 3;
    EXPECT_THROW(c.validate(), std::invalid_argument);

    c = cacheConfig(1 << 20);
    c.repeaterDerate = 0.5;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, MainMemoryMustBeDram)
{
    MemoryConfig c = dramChipConfig();
    c.dataCellTech = RamCellTech::Sram;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, OutputBitsPerAccessMode)
{
    MemoryConfig c = cacheConfig(1 << 20, 8);
    c.accessMode = AccessMode::Normal;
    EXPECT_EQ(c.dataOutputBits(), 64 * 8 * 8);
    c.accessMode = AccessMode::Fast;
    EXPECT_EQ(c.dataOutputBits(), 64 * 8);
    c.accessMode = AccessMode::Sequential;
    EXPECT_EQ(c.dataOutputBits(), 64 * 8);
}

TEST(Config, MainMemoryOutputIsPrefetch)
{
    const MemoryConfig c = dramChipConfig();
    EXPECT_EQ(c.dataOutputBits(), c.ioBits * c.prefetchWidth);
}

TEST(Config, SummaryMentionsTechnology)
{
    const MemoryConfig c = cacheConfig(1 << 20);
    EXPECT_NE(c.summary().find("SRAM"), std::string::npos);
}

// --- Tag path ------------------------------------------------------------

TEST(TagPath, BitsAccountForIndexAndOffset)
{
    MemoryConfig c = cacheConfig(1 << 20, 8);
    // 1MB / (64B * 8) = 2048 sets -> 11 index bits, 6 offset bits.
    // 40 - 11 - 6 + 2 status = 25.
    EXPECT_EQ(tagBitsPerEntry(c), 25);
}

TEST(TagPath, SolvesAndIsFast)
{
    const Technology t(32.0);
    MemoryConfig c = cacheConfig(4 << 20, 16);
    const TagPath tag = solveTagPath(t, c);
    EXPECT_TRUE(tag.bank.feasible);
    EXPECT_GT(tag.matchDelay(), tag.bank.accessTime);
    EXPECT_LT(tag.bank.accessTime, 1e-9);
}

TEST(TagPath, TaglessMemoryThrows)
{
    const Technology t(32.0);
    MemoryConfig c = cacheConfig(1 << 20);
    c.type = MemoryType::PlainRam;
    EXPECT_THROW(solveTagPath(t, c), std::logic_error);
}

// --- End-to-end solves -----------------------------------------------------

TEST(Solve, SequentialSlowerButLeanerThanNormal)
{
    MemoryConfig c = cacheConfig(4 << 20, 8);
    c.accessMode = AccessMode::Normal;
    const Solution normal = solve(c).best;
    c.accessMode = AccessMode::Sequential;
    const Solution seq = solve(c).best;
    EXPECT_GT(seq.accessTime, normal.accessTime * 0.99);
    EXPECT_LT(seq.readEnergy, normal.readEnergy);
}

TEST(Solve, EccAddsTwelvePercent)
{
    MemoryConfig c = cacheConfig(2 << 20, 8);
    const Solution plain = solve(c).best;
    c.includeEcc = true;
    const Solution ecc = solve(c).best;
    EXPECT_NEAR(ecc.totalArea / plain.totalArea, 72.0 / 64.0, 1e-6);
    EXPECT_NEAR(ecc.leakage / plain.leakage, 72.0 / 64.0, 1e-6);
}

TEST(Solve, BiggerCacheCostsMore)
{
    const Solution small = solve(cacheConfig(1 << 20)).best;
    const Solution big = solve(cacheConfig(8 << 20)).best;
    EXPECT_GT(big.totalArea, 4.0 * small.totalArea);
    EXPECT_GT(big.leakage, 2.0 * small.leakage);
    EXPECT_GT(big.accessTime, small.accessTime);
}

TEST(Solve, DramCacheDenserThanSram)
{
    MemoryConfig c = cacheConfig(8 << 20, 8);
    const Solution sram = solve(c).best;
    c.dataCellTech = RamCellTech::CommDram;
    c.tagCellTech = RamCellTech::CommDram;
    const Solution dram = solve(c).best;
    EXPECT_LT(dram.totalArea, sram.totalArea / 2.0);
}

TEST(Solve, LpDramFasterThanCommDram)
{
    MemoryConfig c = cacheConfig(8 << 20, 8);
    c.dataCellTech = RamCellTech::LpDram;
    c.tagCellTech = RamCellTech::LpDram;
    const Solution lp = solve(c).best;
    c.dataCellTech = RamCellTech::CommDram;
    c.tagCellTech = RamCellTech::CommDram;
    const Solution cm = solve(c).best;
    EXPECT_LT(lp.accessTime, cm.accessTime);
    EXPECT_GT(lp.refreshPower, cm.refreshPower);
}

TEST(Solve, ReportIsNonEmpty)
{
    const Solution s = solve(cacheConfig(1 << 20)).best;
    EXPECT_NE(s.report().find("access time"), std::string::npos);
}

// --- Optimizer ---------------------------------------------------------------

TEST(Optimizer, AreaFilterHonored)
{
    MemoryConfig c = cacheConfig(4 << 20, 8);
    c.maxAreaConstraint = 0.10;
    const SolveResult r = solve(c);
    double best_area = 1e18;
    for (const Solution &s : r.all)
        best_area = std::min(best_area, s.totalArea);
    for (const Solution &s : r.filtered)
        EXPECT_LE(s.totalArea, best_area * 1.10 * 1.0001);
}

TEST(Optimizer, AccTimeFilterHonored)
{
    MemoryConfig c = cacheConfig(4 << 20, 8);
    c.maxAreaConstraint = 1.0;
    c.maxAccTimeConstraint = 0.05;
    const SolveResult r = solve(c);
    double best = 1e18;
    for (const Solution &s : r.filtered)
        best = std::min(best, s.accessTime);
    for (const Solution &s : r.filtered)
        EXPECT_LE(s.accessTime, best * 1.05 * 1.01);
}

TEST(Optimizer, EnergyWeightPrefersLowEnergy)
{
    MemoryConfig c = cacheConfig(4 << 20, 8);
    c.maxAccTimeConstraint = 1.0;
    c.maxAreaConstraint = 1.0;
    c.weights = {1.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    const Solution energy_opt = solve(c).best;
    c.weights = {0.0, 0.0, 0.0, 0.0, 1.0, 0.0};
    const Solution time_opt = solve(c).best;
    EXPECT_LE(energy_opt.readEnergy, time_opt.readEnergy * 1.0001);
    EXPECT_LE(time_opt.accessTime, energy_opt.accessTime * 1.0001);
}

TEST(Optimizer, EmptySolutionSpaceThrows)
{
    const MemoryConfig c = cacheConfig(1 << 20);
    EXPECT_THROW(optimize(c, {}), std::runtime_error);
}

/** Synthetic solution with just the optimizer-visible metrics set. */
Solution
syntheticSolution(double area, double acctime, double energy,
                  double leak, double refresh = 0.0)
{
    Solution s;
    s.totalArea = area;
    s.accessTime = acctime;
    s.readEnergy = energy;
    s.leakage = leak;
    s.refreshPower = refresh;
    return s;
}

TEST(Optimizer, AreaPassKeepsExactBoundary)
{
    // slack 0.5: limit is exactly 1.5; the boundary solution stays
    // (<= semantics), 1.5 + epsilon goes.
    std::vector<Solution> v = {
        syntheticSolution(1.0, 1.0, 1.0, 1.0),
        syntheticSolution(1.5, 1.0, 1.0, 1.0),
        syntheticSolution(std::nextafter(1.5, 2.0), 1.0, 1.0, 1.0),
    };
    EXPECT_EQ(filterByArea(v, 0.5), 1u);
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[1].totalArea, 1.5);
}

TEST(Optimizer, AccessTimePassKeepsExactBoundary)
{
    std::vector<Solution> v = {
        syntheticSolution(1.0, 2.0, 1.0, 1.0),
        syntheticSolution(1.0, 2.2, 1.0, 1.0),
        syntheticSolution(1.0, std::nextafter(2.2, 3.0), 1.0, 1.0),
    };
    EXPECT_EQ(filterByAccessTime(v, 0.1), 1u);
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[1].accessTime, 2.2);
}

TEST(Optimizer, FilterPassesOnEmptyInputAreNoOps)
{
    std::vector<Solution> v;
    EXPECT_EQ(filterByArea(v, 0.4), 0u);
    EXPECT_EQ(filterByAccessTime(v, 0.1), 0u);
}

TEST(Optimizer, SingleSolutionInputSurvivesEverything)
{
    MemoryConfig c = cacheConfig(1 << 20);
    c.maxAreaConstraint = 0.0; // tightest possible constraints
    c.maxAccTimeConstraint = 0.0;
    const Solution only = syntheticSolution(2.0, 3.0, 4.0, 5.0, 1.0);
    const SolveResult r = optimize(c, {only});
    ASSERT_EQ(r.filtered.size(), 1u);
    EXPECT_EQ(r.best.totalArea, 2.0);
    EXPECT_EQ(r.stats.areaPruned, 0u);
    EXPECT_EQ(r.stats.timePruned, 0u);
}

TEST(Optimizer, AllZeroWeightsPicksFirstSurvivor)
{
    MemoryConfig c = cacheConfig(1 << 20);
    c.maxAreaConstraint = 10.0;
    c.maxAccTimeConstraint = 10.0;
    c.weights = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    std::vector<Solution> v = {
        syntheticSolution(2.0, 1.0, 9.0, 9.0),
        syntheticSolution(1.0, 2.0, 1.0, 1.0),
    };
    const SolveResult r = optimize(c, v);
    ASSERT_EQ(r.filtered.size(), 2u);
    for (const Solution &s : r.filtered)
        EXPECT_EQ(s.objective, 0.0);
    // Every objective is 0, so enumeration order breaks the tie.
    EXPECT_EQ(r.best.totalArea, 2.0);
}

TEST(Optimizer, ObjectiveScalesNormalizeStaticPowerWithRefresh)
{
    const std::vector<Solution> v = {
        syntheticSolution(1.0, 1.0, 1.0, 1.0, 1.0),  // static 2.0
        syntheticSolution(1.0, 1.0, 1.8, 0.5, 1.0),  // static 1.5
    };
    const ObjectiveScales sc = objectiveScales(v);
    EXPECT_DOUBLE_EQ(sc.staticPower, 1.5); // min(leak + refresh)
    EXPECT_DOUBLE_EQ(sc.readEnergy, 1.0);
}

/**
 * Regression for the leakage-normalization bug: the objective used to
 * score leakage + refresh against the minimum of leakage alone, which
 * overweighted the static-power term for DRAM solutions.  With the
 * weights below, solution A (low energy, higher static power) is the
 * correct winner once static power is normalized consistently, while
 * the buggy normalization picked B.
 */
TEST(Optimizer, LeakageNormalizationCountsRefreshPower)
{
    MemoryConfig c = cacheConfig(1 << 20);
    c.maxAreaConstraint = 10.0;
    c.maxAccTimeConstraint = 10.0;
    c.weights = {1.0, 1.0, 0.0, 0.0, 0.0, 0.0};
    const Solution a = syntheticSolution(1.0, 1.0, 1.0, 1.0, 1.0);
    const Solution b = syntheticSolution(1.0, 1.0, 1.8, 0.5, 1.0);
    const SolveResult r = optimize(c, {a, b});
    // A: 1/1 + 2.0/1.5 = 2.33; B: 1.8/1 + 1.5/1.5 = 2.8.  The old
    // normalization (min leakage = 0.5) gave A: 1 + 4 = 5, B: 1.8 + 3
    // = 4.8 and mis-picked B.
    EXPECT_DOUBLE_EQ(r.best.readEnergy, 1.0);
}

TEST(Optimizer, SelectBestAssignsObjectives)
{
    std::vector<Solution> v = {
        syntheticSolution(1.0, 1.0, 2.0, 2.0),
        syntheticSolution(1.0, 1.0, 1.0, 1.0),
    };
    OptimizationWeights w;
    const Solution best = selectBest(v, w);
    EXPECT_DOUBLE_EQ(best.readEnergy, 1.0);
    for (const Solution &s : v)
        EXPECT_GT(s.objective, 0.0);
    std::vector<Solution> empty;
    EXPECT_THROW(selectBest(empty, w), std::runtime_error);
}

// --- DRAM chip ----------------------------------------------------------------

TEST(DramChip, TimingAndEnergySane)
{
    const Solution s = solve(dramChipConfig()).best;
    EXPECT_GT(s.tRcd, 5e-9);
    EXPECT_LT(s.tRcd, 30e-9);
    EXPECT_GT(s.tRc, s.tRcd + s.tRp);
    EXPECT_GT(s.tRrd, 0.0);
    EXPECT_LT(s.tRrd, s.tRc);
    EXPECT_GT(s.activateEnergy, 0.5e-9);
    EXPECT_GT(s.refreshPower, 0.0);
    EXPECT_GT(s.areaEfficiency, 0.35);
}

TEST(DramChip, ScalingShrinksDie)
{
    const Solution at78 = solve(dramChipConfig(1.0, 78.0)).best;
    const Solution at45 = solve(dramChipConfig(1.0, 45.0)).best;
    EXPECT_LT(at45.totalArea, at78.totalArea);
}

TEST(DramChip, BiggerPartBiggerDie)
{
    const Solution g1 = solve(dramChipConfig(1.0)).best;
    const Solution g4 = solve(dramChipConfig(4.0)).best;
    EXPECT_GT(g4.totalArea, 2.5 * g1.totalArea);
}

TEST(DramChip, WiderBurstMovesMoreEnergy)
{
    MemoryConfig c = dramChipConfig();
    c.burstLength = 4;
    const Solution b4 = solve(c).best;
    c.burstLength = 8;
    const Solution b8 = solve(c).best;
    EXPECT_GT(b8.readBurstEnergy, b4.readBurstEnergy);
}

// --- Crossbar -------------------------------------------------------------------

TEST(Crossbar, ScalesWithPortsAndWidth)
{
    const Technology t(32.0);
    const Crossbar small(t, 4, 128);
    const Crossbar big(t, 8, 512);
    EXPECT_GT(big.area(), small.area());
    EXPECT_GT(big.energyPerTransfer(), small.energyPerTransfer());
    EXPECT_GT(big.delay(), 0.0);
    EXPECT_GT(big.leakage(), small.leakage());
}

TEST(Crossbar, ExplicitRouteLengthDominatesDelay)
{
    const Technology t(32.0);
    const Crossbar short_route(t, 8, 512, 1e-3);
    const Crossbar long_route(t, 8, 512, 8e-3);
    EXPECT_GT(long_route.delay(), short_route.delay());
}

/** Technology sweep: every cache tech solves at every node. */
class SolveSweep
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(SolveSweep, SolvesEverywhere)
{
    const auto tech = static_cast<RamCellTech>(std::get<0>(GetParam()));
    MemoryConfig c = cacheConfig(2 << 20, 8);
    c.featureNm = std::get<1>(GetParam());
    c.dataCellTech = tech;
    c.tagCellTech = tech;
    const Solution s = solve(c).best;
    EXPECT_GT(s.accessTime, 0.0);
    EXPECT_GT(s.totalArea, 0.0);
    EXPECT_GT(s.readEnergy, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    TechNodes, SolveSweep,
    ::testing::Combine(::testing::Range(0, kNumRamCellTechs),
                       ::testing::Values(32.0, 45.0, 65.0, 90.0)));

} // namespace

TEST(PaperTable2, AverageErrorAgainstMicronPartWithinSixteenPercent)
{
    // The bench_table2_dram_validation part: 14.2% mean |error| over
    // the eight metrics; the paper's own CACTI-D reported 16%.  A
    // model change that drifts past the paper's figure fails here.
    const SolveResult res = solve(table2::micronConfig());
    EXPECT_LE(table2::averageAbsErrorPct(res.best), 16.0);
}
