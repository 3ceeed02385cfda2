/**
 * @file
 * Steady-state thermal model of the 2-die stack (paper section 4.3's
 * HotSpot study).  The heat sink sits on the top (LLC) die; the bottom
 * (core) die conducts up through the face-to-face bond.
 *
 * The study's floorplan spreads each die's power evenly over its area
 * (8 equal core tiles below, 8 equal-power bank tiles above), so no
 * heat flows sideways and the resistance grid collapses to two nodes
 * in series: the sink conductance under the total power, then the
 * bond conductance under the core power.  solveStudyStack() returns
 * that exact solution; a Gauss-Seidel grid oracle in the tests checks
 * it (tests/thermal_oracle.hh).
 */

#ifndef ARCHSIM_THERMAL_THERMAL_HH
#define ARCHSIM_THERMAL_THERMAL_HH

namespace archsim {

/**
 * Tag of the thermal model, part of thermal-on checkpoint
 * fingerprints: bump it whenever solveStudyStack's bytes change, so
 * records written under an older model re-run instead of loading.
 */
inline constexpr const char *kThermalModelTag = "closed2";

/** Stack geometry and material parameters. */
struct ThermalParams {
    double dieEdge = 7.1e-3;  ///< die edge length (m)
    /// Thinned die (m); with kSilicon it sets lateral conduction,
    /// which the study's uniform maps never exercise.
    double dieThickness = 100e-6;
    double bondThickness = 20e-6;  ///< face-to-face bond layer (m)
    double kSilicon = 120.0;  ///< W/(m K)
    double kBond = 1.5;       ///< W/(m K), underfill/bond
    double rSinkPerArea = 2.2e-5; ///< K m^2/W sink + copper spreader
    double ambient = 318.0;   ///< K (45 C case)
};

/** Result of a thermal solve. */
struct ThermalResult {
    double maxTemp = 0.0;     ///< K
    double maxTempTopDie = 0.0;
    double maxTempBottomDie = 0.0;
};

/**
 * Solve the study's 2-die stack for the standard floorplan: the core
 * die dissipates @p core_die_w spread over 8 equal tiles, the LLC die
 * @p l3_bank_w per bank over its 8 tiles (0 for the no-L3 system).
 * With A = dieEdge^2:
 *   T_top    = ambient + (core_die_w + 8 l3_bank_w) rSinkPerArea / A
 *   T_bottom = T_top + core_die_w bondThickness / (kBond A)
 */
ThermalResult solveStudyStack(const ThermalParams &p, double core_die_w,
                              double l3_bank_w);

} // namespace archsim

#endif // ARCHSIM_THERMAL_THERMAL_HH
