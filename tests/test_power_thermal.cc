/**
 * @file
 * Tests for the power roll-up and the stack thermal model: the
 * closed form against the Gauss-Seidel grid oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/power/power.hh"
#include "sim/study.hh"
#include "sim/thermal/thermal.hh"
#include "thermal_oracle.hh"

namespace {

using namespace archsim;

SimStats
statsFixture()
{
    SimStats s;
    s.cycles = 2'000'000'000; // exactly one second at 2 GHz
    s.hier.l1Reads = 1'000'000'000;
    s.hier.l1Writes = 500'000'000;
    s.hier.l2Reads = 100'000'000;
    s.hier.l2Writes = 50'000'000;
    s.hier.xbarTransfers = 20'000'000;
    s.llcReads = 10'000'000;
    s.llcWrites = 5'000'000;
    s.dram.activates = 1'000'000;
    s.dram.reads = 800'000;
    s.dram.writes = 200'000;
    s.dram.busBytes = 64'000'000;
    return s;
}

PowerParams
paramsFixture()
{
    PowerParams p;
    p.l1 = {0.1e-9, 0.1e-9, 0.1, 0.0};
    p.l2 = {0.3e-9, 0.3e-9, 0.2, 0.0};
    p.l3 = {0.5e-9, 0.6e-9, 2.0, 0.05};
    p.xbarEnergyPerTransfer = 1e-9;
    p.xbarLeakage = 0.05;
    p.eActivate = 20e-9;
    p.eRead = 12e-9;
    p.eWrite = 13e-9;
    p.memStandbyW = 1.4;
    p.memRefreshW = 0.12;
    return p;
}

TEST(Power, LeakagePassesThrough)
{
    const PowerBreakdown b =
        computePower(paramsFixture(), statsFixture());
    EXPECT_DOUBLE_EQ(b.l1Leak, 0.1);
    EXPECT_DOUBLE_EQ(b.l2Leak, 0.2);
    EXPECT_DOUBLE_EQ(b.l3Leak, 2.0);
    EXPECT_DOUBLE_EQ(b.l3Refresh, 0.05);
    EXPECT_DOUBLE_EQ(b.mainStandby, 1.4);
    EXPECT_DOUBLE_EQ(b.mainRefresh, 0.12);
}

TEST(Power, DynamicIsEnergyOverTime)
{
    const PowerBreakdown b =
        computePower(paramsFixture(), statsFixture());
    // 1.5e9 L1 accesses x 0.1 nJ over 1 s = 0.15 W.
    EXPECT_NEAR(b.l1Dyn, 0.15, 1e-9);
    EXPECT_NEAR(b.xbarDyn, 0.02, 1e-9);
    // Main dyn: 1e6*20nJ + 0.8e6*12nJ + 0.2e6*13nJ = 0.0322 W.
    EXPECT_NEAR(b.mainDyn, 0.0322, 1e-6);
}

TEST(Power, BusPowerAtTwoPjPerBit)
{
    const PowerBreakdown b =
        computePower(paramsFixture(), statsFixture());
    EXPECT_NEAR(b.bus, 64e6 * 8 * 1.15 * 2e-12, 1e-9);
}

TEST(Power, HierarchyTotalIsSumOfParts)
{
    const PowerBreakdown b =
        computePower(paramsFixture(), statsFixture());
    const double sum = b.l1Leak + b.l1Dyn + b.l2Leak + b.l2Dyn +
                       b.xbarLeak + b.xbarDyn + b.l3Leak + b.l3Dyn +
                       b.l3Refresh + b.mainDyn + b.mainStandby +
                       b.mainRefresh + b.bus;
    EXPECT_NEAR(b.memoryHierarchy(), sum, 1e-12);
}

TEST(Power, EdpQuadraticInTime)
{
    PowerParams p = paramsFixture();
    SimStats s = statsFixture();
    const PowerBreakdown fast = computePower(p, s);
    s.cycles *= 2;
    const PowerBreakdown slow = computePower(p, s);
    // Same leakage-dominated power, double the time: EDP scales ~4x.
    EXPECT_GT(slow.edp(), 3.0 * fast.edp());
}

TEST(Power, ZeroCyclesYieldsZero)
{
    SimStats s;
    const PowerBreakdown b = computePower(paramsFixture(), s);
    EXPECT_DOUBLE_EQ(b.memoryHierarchy(), 0.0);
}

TEST(Power, SystemAddsCore)
{
    const PowerBreakdown b =
        computePower(paramsFixture(), statsFixture());
    EXPECT_NEAR(b.system(), b.corePower + b.memoryHierarchy(), 1e-12);
    EXPECT_DOUBLE_EQ(b.corePower, 22.3);
}

// --- Thermal: Gauss-Seidel grid oracle -------------------------------

using oracle::kGrid;
using oracle::tileMap;

TEST(Thermal, TileMapPreservesTotalPower)
{
    const std::vector<double> tiles(8, 2.0);
    const auto map = tileMap(16, tiles);
    double sum = 0.0;
    for (double p : map)
        sum += p;
    EXPECT_NEAR(sum, 16.0, 1e-9);
}

TEST(Thermal, TileMapRejectsWrongCount)
{
    EXPECT_THROW(tileMap(16, std::vector<double>(7, 1.0)),
                 std::invalid_argument);
}

TEST(Thermal, TileMapRejectsGridsThatSplitTiles)
{
    // Grid 10 would put columns 8-9 in a fifth tile column (index 8,
    // past the 8 tiles); grids below 4 would give empty tiles.
    for (int grid : {10, 6, 2, 0, -4}) {
        try {
            tileMap(grid, std::vector<double>(8, 1.0));
            ADD_FAILURE() << "grid " << grid << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(std::to_string(grid)),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(tileMap(8, std::vector<double>(8, 1.0)).size(), 64u);
}

TEST(Thermal, NoPowerMeansAmbient)
{
    ThermalParams p;
    const std::vector<double> zero(kGrid * kGrid, 0.0);
    const ThermalResult r = oracle::solveStack(p, kGrid, zero, zero);
    EXPECT_NEAR(r.maxTemp, p.ambient, 0.01);
}

TEST(Thermal, MorePowerIsHotter)
{
    ThermalParams p;
    const auto low = tileMap(kGrid, std::vector<double>(8, 1.0));
    const auto high = tileMap(kGrid, std::vector<double>(8, 3.0));
    const std::vector<double> zero(kGrid * kGrid, 0.0);
    const ThermalResult a = oracle::solveStack(p, kGrid, low, zero);
    const ThermalResult b = oracle::solveStack(p, kGrid, high, zero);
    EXPECT_GT(b.maxTemp, a.maxTemp + 1.0);
}

TEST(Thermal, BottomDieHotterThanTopUnderBottomPower)
{
    // The heat sink sits on the top die, so a powered bottom die runs
    // hotter than the top die above it.
    ThermalParams p;
    const auto power = tileMap(kGrid, std::vector<double>(8, 2.5));
    const std::vector<double> zero(kGrid * kGrid, 0.0);
    const ThermalResult r = oracle::solveStack(p, kGrid, power, zero);
    EXPECT_GT(r.maxTempBottomDie, r.maxTempTopDie);
}

TEST(Thermal, HotSpotSpreadsButPersists)
{
    ThermalParams p;
    std::vector<double> tiles(8, 0.1);
    tiles[0] = 5.0; // one hot bank
    const auto uneven = tileMap(kGrid, tiles);
    const auto even = tileMap(kGrid, std::vector<double>(8, 5.8 / 8.0));
    const std::vector<double> zero(kGrid * kGrid, 0.0);
    const ThermalResult hot = oracle::solveStack(p, kGrid, zero, uneven);
    const ThermalResult flat = oracle::solveStack(p, kGrid, zero, even);
    EXPECT_GT(hot.maxTemp, flat.maxTemp);
}

TEST(Thermal, PowerMapSizeValidated)
{
    ThermalParams p;
    const std::vector<double> wrong(10, 0.0);
    const std::vector<double> right(kGrid * kGrid, 0.0);
    EXPECT_THROW(oracle::solveStack(p, kGrid, wrong, right),
                 std::invalid_argument);
    EXPECT_THROW(oracle::solveStack(p, 0, {}, {}), std::invalid_argument);
}

// --- Thermal: the closed form solveStudyStack -------------------------

TEST(Thermal, ClosedFormMatchesGaussSeidel)
{
    // Uniform maps carry no lateral flow, so the grid converges to the
    // two-node closed form; the oracle stops within its 1e-6 K update
    // tolerance of it.
    ThermalParams p;
    for (int c = 0; c <= 8; ++c) {
        for (int b = 0; b <= 6; ++b) {
            const double core_w = 5.0 * c;   // 0 .. 40 W
            const double bank_w = 0.1 * b;   // 0 .. 0.6 W
            const ThermalResult closed = solveStudyStack(p, core_w, bank_w);
            const ThermalResult gs =
                oracle::solveStudyStack(p, core_w, bank_w);
            for (const double d :
                 {closed.maxTemp - gs.maxTemp,
                  closed.maxTempTopDie - gs.maxTempTopDie,
                  closed.maxTempBottomDie - gs.maxTempBottomDie}) {
                EXPECT_LE(std::abs(d), 2e-6)
                    << "core " << core_w << " W, bank " << bank_w << " W";
            }
        }
    }
}

TEST(Thermal, ClosedFormZeroPowerIsExactlyAmbient)
{
    ThermalParams p;
    const ThermalResult r = solveStudyStack(p, 0.0, 0.0);
    EXPECT_EQ(r.maxTemp, p.ambient);
    EXPECT_EQ(r.maxTempTopDie, p.ambient);
    EXPECT_EQ(r.maxTempBottomDie, p.ambient);
}

TEST(Thermal, ClosedFormBondDropIsCorePowerOverBondConductance)
{
    ThermalParams p;
    const double area = p.dieEdge * p.dieEdge;
    const double g_bond = p.kBond * area / p.bondThickness;
    for (const double core_w : {1.0, 22.3, 40.0}) {
        const ThermalResult r = solveStudyStack(p, core_w, 0.45);
        EXPECT_NEAR(r.maxTempBottomDie - r.maxTempTopDie, core_w / g_bond,
                    1e-9);
        EXPECT_EQ(r.maxTemp, r.maxTempBottomDie);
    }
}

TEST(Thermal, StudyScaleDifferenceIsSmall)
{
    // The paper's headline: < 1.5 K between LLC technologies.  An SRAM
    // L3 adds ~3.4 W over a COMM-DRAM L3's ~0 W.
    ThermalParams p;
    const double d = solveStudyStack(p, 22.3, 0.43).maxTemp -
                     solveStudyStack(p, 22.3, 0.02).maxTemp;
    EXPECT_GT(d, 0.0);
    EXPECT_LT(d, 2.5);
}

TEST(Thermal, PaperSection43MaxDeltaBelowOnePointFiveK)
{
    // bench_thermal_stack's inputs: 22.3 W of cores under each L3's
    // per-bank standby power plus a nominal 20 mW dynamic share.
    const Study study;
    const ThermalParams p;
    double t_min = 1e9;
    double t_max = 0.0;
    for (const std::string &cfg : Study::configNames()) {
        if (cfg == "nol3")
            continue;
        const double bank_w = study.l3BankStandbyPower(cfg) + 0.020;
        const double t = solveStudyStack(p, 22.3, bank_w).maxTemp;
        t_min = std::min(t_min, t);
        t_max = std::max(t_max, t);
    }
    EXPECT_GT(t_max - t_min, 0.0);
    EXPECT_LT(t_max - t_min, 1.5);
}

} // namespace
