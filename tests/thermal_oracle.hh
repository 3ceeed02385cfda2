/**
 * @file
 * Test-only Gauss-Seidel oracle for the 2-die stack thermal model.
 *
 * A grid x grid x 2 resistance network: lateral silicon conductances
 * within each die, the face-to-face bond between the dies, and the
 * heat sink above the top (LLC) die.  It accepts arbitrary per-cell
 * power maps, so it checks the closed form of solveStudyStack() on
 * the uniform maps the study uses and still covers non-uniform maps
 * (hot spots) the closed form does not model.
 */

#ifndef ARCHSIM_TESTS_THERMAL_ORACLE_HH
#define ARCHSIM_TESTS_THERMAL_ORACLE_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/thermal/thermal.hh"

namespace archsim::oracle {

/** Cells per die edge of the reference grid. */
inline constexpr int kGrid = 16;

/**
 * Build a power map with 8 equal tiles (2 rows x 4 columns) carrying
 * the given per-tile powers, matching the 8-bank / 8-core floorplan.
 * @p grid must be a positive multiple of 4 so every tile covers whole
 * cells.
 */
inline std::vector<double>
tileMap(int grid, const std::vector<double> &tiles)
{
    if (tiles.size() != 8)
        throw std::invalid_argument("expected 8 tile powers");
    const int tile_rows = 2;
    const int tile_cols = 4;
    if (grid <= 0 || grid % tile_cols != 0) {
        throw std::invalid_argument(
            "tile map grid " + std::to_string(grid) +
            " is not a positive multiple of 4");
    }
    std::vector<double> map(std::size_t(grid) * grid, 0.0);
    const int tile_h = grid / tile_rows;
    const int tile_w = grid / tile_cols;
    const int cells_per_tile = tile_h * tile_w;
    for (int y = 0; y < grid; ++y) {
        for (int x = 0; x < grid; ++x) {
            const double p =
                tiles[std::size_t(y / tile_h) * tile_cols + x / tile_w];
            map[std::size_t(y) * grid + x] = p / cells_per_tile;
        }
    }
    return map;
}

/**
 * Solve the stack by Gauss-Seidel relaxation to a 1e-6 K update
 * tolerance: @p bottom_power and @p top_power are grid x grid per-cell
 * power maps (W) of the core die and the LLC die.
 */
inline ThermalResult
solveStack(const ThermalParams &p, int grid,
           const std::vector<double> &bottom_power,
           const std::vector<double> &top_power)
{
    const int n = grid;
    if (n <= 0) {
        throw std::invalid_argument("thermal grid " + std::to_string(n) +
                                    " is not positive");
    }
    const auto cells = std::size_t(n) * n;
    if (bottom_power.size() != cells || top_power.size() != cells)
        throw std::invalid_argument("power map size mismatch");

    const double cell_edge = p.dieEdge / n;
    const double cell_area = cell_edge * cell_edge;

    // Conductances (W/K).
    const double g_lateral =
        p.kSilicon * (cell_edge * p.dieThickness) / cell_edge;
    const double g_bond = p.kBond * cell_area / p.bondThickness;
    const double g_sink = cell_area / p.rSinkPerArea;

    // Two layers: index 0 = bottom (cores), 1 = top (LLC, under sink).
    std::vector<double> temp(2 * cells, p.ambient);

    auto idx = [cells, n](int layer, int y, int x) {
        return std::size_t(layer) * cells + std::size_t(y) * n + x;
    };

    for (int iter = 0; iter < 4000; ++iter) {
        double max_delta = 0.0;
        for (int layer = 0; layer < 2; ++layer) {
            for (int y = 0; y < n; ++y) {
                for (int x = 0; x < n; ++x) {
                    double g_sum = 0.0;
                    double flow = 0.0;
                    // Lateral neighbours.
                    const int dx[] = {1, -1, 0, 0};
                    const int dy[] = {0, 0, 1, -1};
                    for (int k = 0; k < 4; ++k) {
                        const int nx = x + dx[k];
                        const int ny = y + dy[k];
                        if (nx < 0 || nx >= n || ny < 0 || ny >= n)
                            continue;
                        g_sum += g_lateral;
                        flow += g_lateral * temp[idx(layer, ny, nx)];
                    }
                    // Vertical: bond between layers; sink above top.
                    g_sum += g_bond;
                    flow += g_bond * temp[idx(1 - layer, y, x)];
                    if (layer == 1) {
                        g_sum += g_sink;
                        flow += g_sink * p.ambient;
                    }
                    const double power =
                        layer == 0 ? bottom_power[idx(0, y, x)]
                                   : top_power[idx(0, y, x)];
                    const double t_new = (flow + power) / g_sum;
                    const std::size_t i = idx(layer, y, x);
                    max_delta =
                        std::max(max_delta, std::abs(t_new - temp[i]));
                    temp[i] = t_new;
                }
            }
        }
        if (max_delta < 1e-6)
            break;
    }

    ThermalResult r;
    for (std::size_t c = 0; c < cells; ++c) {
        r.maxTempBottomDie = std::max(r.maxTempBottomDie, temp[c]);
        r.maxTempTopDie = std::max(r.maxTempTopDie, temp[cells + c]);
    }
    r.maxTemp = std::max(r.maxTempBottomDie, r.maxTempTopDie);
    return r;
}

/** The study floorplan on the reference grid (see solveStudyStack). */
inline ThermalResult
solveStudyStack(const ThermalParams &p, double core_die_w,
                double l3_bank_w)
{
    return solveStack(p, kGrid,
                      tileMap(kGrid, std::vector<double>(8, core_die_w / 8.0)),
                      tileMap(kGrid, std::vector<double>(8, l3_bank_w)));
}

} // namespace archsim::oracle

#endif // ARCHSIM_TESTS_THERMAL_ORACLE_HH
