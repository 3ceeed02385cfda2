/**
 * @file
 * Paper Table 2: CACTI-D DRAM model validation against a 78 nm Micron
 * 1Gb DDR3-1066 x8 part (datasheet timing + Micron power calculator
 * energies).  Prints model vs. actual and the error, next to the error
 * the paper itself reported.  The part and its values live in
 * table2_micron.hh, shared with the unit test that bands the average
 * error.
 */

#include <cstdio>

#include "table2_micron.hh"

int
main()
{
    using namespace cactid;

    const SolveResult res = solve(table2::micronConfig());
    const Solution &s = res.best;

    std::printf("=== Table 2: DRAM validation vs 78nm Micron 1Gb "
                "DDR3-1066 x8 ===\n");
    std::printf("%-28s %10s %10s %9s %13s\n", "Metric", "Actual",
                "CACTI-D", "Error", "PaperError");
    for (const table2::Metric &m : table2::metrics()) {
        std::printf("%-28s %10.2f %10.2f %8.1f%% %12.1f%% %s\n", m.name,
                    m.actual, m.model(s), table2::errorPct(m, s),
                    m.paperErrorPct, m.unit);
    }
    std::printf("\naverage |error|: %.1f%% (paper reports 16%%)\n",
                table2::averageAbsErrorPct(s));
    std::printf("\nchosen organization:\n%s\n", s.report().c_str());
    return 0;
}
