/**
 * @file
 * Paper Table 2's validation target, defined once: the CACTI-D
 * configuration of a 78 nm Micron 1Gb DDR3-1066 x8 part, its
 * datasheet timing and Micron power-calculator energies, and the
 * error the paper's own CACTI-D reported for each metric.  The
 * Table 2 bench prints these; a unit test bands their average error.
 */

#ifndef CACTID_BENCH_TABLE2_MICRON_HH
#define CACTID_BENCH_TABLE2_MICRON_HH

#include <array>
#include <cmath>

#include "core/cacti.hh"

namespace cactid::table2 {

/** The Micron part as a CACTI-D main-memory chip. */
inline MemoryConfig
micronConfig()
{
    MemoryConfig cfg;
    cfg.capacityBytes = 1024.0 * 1024.0 * 1024.0 / 8.0; // 1 Gb
    cfg.blockBytes = 8;
    cfg.type = MemoryType::MainMemoryChip;
    cfg.nBanks = 8;
    cfg.featureNm = 78.0;
    cfg.dataCellTech = RamCellTech::CommDram;
    cfg.pageBytes = 1024; // 8 Kb page (1 Gb x8 DDR3)
    cfg.ioBits = 8;
    cfg.burstLength = 8;
    cfg.prefetchWidth = 8;
    // Commodity DRAM carries a premium on price per bit: select a high
    // area-efficiency solution (paper section 2.5).
    cfg.maxAreaConstraint = 0.10;
    cfg.maxAccTimeConstraint = 1.00;
    cfg.weights = {1.0, 0.0, 1.0, 0.0, 0.0, 4.0};
    return cfg;
}

/** One validated metric: the part's value and the model's. */
struct Metric {
    const char *name;
    double actual;
    double paperErrorPct; ///< error the paper's CACTI-D reported
    const char *unit;
    double (*model)(const Solution &); ///< in @c unit
};

inline const std::array<Metric, 8> &
metrics()
{
    static const std::array<Metric, 8> m = {{
        {"Area efficiency", 56.0, -6.2, "%",
         [](const Solution &s) { return s.areaEfficiency * 100.0; }},
        {"Activation delay (tRCD)", 13.1, 4.5, "ns",
         [](const Solution &s) { return s.tRcd * 1e9; }},
        {"CAS latency", 13.1, -5.8, "ns",
         [](const Solution &s) { return s.tCas * 1e9; }},
        {"Row cycle time (tRC)", 52.5, -8.2, "ns",
         [](const Solution &s) { return s.tRc * 1e9; }},
        {"ACTIVATE energy", 3.1, -25.2, "nJ",
         [](const Solution &s) { return s.activateEnergy * 1e9; }},
        {"READ energy", 1.6, -32.2, "nJ",
         [](const Solution &s) { return s.readBurstEnergy * 1e9; }},
        {"WRITE energy", 1.8, -33.0, "nJ",
         [](const Solution &s) { return s.writeBurstEnergy * 1e9; }},
        {"Refresh power", 3.5, 29.0, "mW",
         [](const Solution &s) { return s.refreshPower * 1e3; }},
    }};
    return m;
}

/** Signed error of @p s on @p m, in percent of the actual value. */
inline double
errorPct(const Metric &m, const Solution &s)
{
    return (m.model(s) - m.actual) / m.actual * 100.0;
}

/** Mean |error| over every metric, in percent (the paper: 16%). */
inline double
averageAbsErrorPct(const Solution &s)
{
    double sum = 0.0;
    for (const Metric &m : metrics())
        sum += std::fabs(errorPct(m, s));
    return sum / double(metrics().size());
}

} // namespace cactid::table2

#endif // CACTID_BENCH_TABLE2_MICRON_HH
