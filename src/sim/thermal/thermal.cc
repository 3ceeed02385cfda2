/**
 * @file
 * Closed-form solve of the study's uniformly powered 2-die stack.
 */

#include "sim/thermal/thermal.hh"

#include <algorithm>

namespace archsim {

ThermalResult
solveStudyStack(const ThermalParams &p, double core_die_w,
                double l3_bank_w)
{
    const double area = p.dieEdge * p.dieEdge;
    ThermalResult r;
    r.maxTempTopDie = p.ambient +
                      (core_die_w + 8.0 * l3_bank_w) * p.rSinkPerArea /
                          area;
    r.maxTempBottomDie = r.maxTempTopDie + core_die_w * p.bondThickness /
                                               (p.kBond * area);
    r.maxTemp = std::max(r.maxTempBottomDie, r.maxTempTopDie);
    return r;
}

} // namespace archsim
