/**
 * @file
 * Paper section 4.3 thermal study: maximum temperature of the 2-die
 * stack for each LLC technology (the exact steady-state solve of the
 * uniformly powered stack, see sim/thermal/thermal.hh).  The paper
 * reports a maximum difference between the technologies below 1.5 K,
 * with the SRAM L3 densest (~450 mW/bank).
 */

#include <cstdio>
#include <vector>

#include "sim/study.hh"

int
main()
{
    using namespace archsim;
    Study study;

    ThermalParams tp;
    // Bottom die: 22.3 W over 8 core tiles (L1/L2 leakage included).
    const double core_die_w = 22.3;

    std::printf("=== Thermal: 2-die stack, max temperature per LLC "
                "technology ===\n");
    std::printf("%-11s %12s %12s %12s\n", "config", "bank P (mW)",
                "Tmax (K)", "dT vs nol3");

    double t_nol3 = 0.0;
    double t_min = 1e9;
    double t_max = 0.0;
    for (const std::string &cfg : Study::configNames()) {
        // Per-bank L3 power: standby + refresh + a nominal dynamic
        // share (the paper's max observed bank power is ~450 mW for
        // SRAM).
        double bank_p = study.l3BankStandbyPower(cfg);
        if (cfg != "nol3")
            bank_p += 0.020; // nominal dynamic per bank

        const ThermalResult r = solveStudyStack(tp, core_die_w, bank_p);
        if (cfg == "nol3") {
            t_nol3 = r.maxTemp;
        } else {
            t_min = std::min(t_min, r.maxTemp);
            t_max = std::max(t_max, r.maxTemp);
        }
        std::printf("%-11s %12.1f %12.2f %+12.3f\n", cfg.c_str(),
                    bank_p * 1e3, r.maxTemp, r.maxTemp - t_nol3);
    }
    std::printf("\nmax temperature difference between stacked L3 "
                "technologies: %.3f K (paper: < 1.5 K)\n",
                t_max - t_min);
    return 0;
}
