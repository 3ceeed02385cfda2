/**
 * @file
 * perfbench plumbing: clocks, order statistics, the seeded generator,
 * the Report printer and the Table 2 reference.
 */

#include "measure.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "obs/numfmt.hh"
#include "obs/trace.hh"

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

int
hostThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest value with at least q of the sample
    // at or below it.
    const double rank = std::ceil(q * double(v.size()));
    const std::size_t i =
        rank < 1.0 ? 0 : std::min(v.size(), std::size_t(rank)) - 1;
    return v[i];
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

std::vector<double>
spanSeconds(const std::string &name)
{
    std::vector<double> out;
    for (const cactid::obs::TraceEvent &e :
         cactid::obs::Tracer::instance().collect()) {
        if (e.ph == 'X' && name == e.name)
            out.push_back(double(e.dur) * 1e-6);
    }
    return out;
}

double
traceOverheadPct(const std::function<double(bool)> &pass)
{
    cactid::obs::Tracer &tracer = cactid::obs::Tracer::instance();
    std::vector<double> gaps;
    for (int r = 0; r < kTraceRounds; ++r) {
        const double plain = pass(false);
        tracer.enable(true);
        const double traced = pass(true);
        tracer.enable(false);
        gaps.push_back((traced - plain) / plain * 100.0);
    }
    return median(gaps);
}

double
measureLoop(double seconds, const std::function<void()> &setup,
            const std::function<void()> &unit)
{
    std::vector<double> times;
    const auto burst = [&] {
        const auto t0 = Clock::now();
        do {
            const auto t = Clock::now();
            setup();
            times.push_back(secondsSince(t));
        } while (secondsSince(t0) < 0.05);
    };
    const auto t0 = Clock::now();
    do {
        burst();
        unit();
    } while (secondsSince(t0) < seconds);
    burst();
    return median(times);
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return double(next() >> 11) * 0x1.0p-53;
}

std::size_t
Rng::below(std::size_t n)
{
    return n ? std::size_t(next() % n) : 0;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        check(false, "metric " + name + " is not finite");
        value = 0.0;
    }
    if (metrics_.find(name) == metrics_.end())
        order_.push_back(name);
    metrics_[name] = {value, unit};
}

void
Report::check(bool ok, const std::string &what)
{
    ++checks_;
    if (!ok)
        failedChecks_.push_back(what);
}

void
Report::note(const std::string &line)
{
    notes_.push_back(line);
}

void
Report::series(const std::string &name, const std::vector<double> &v)
{
    std::string line = "series " + name + ":";
    for (double x : v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, " %.6g", x);
        line += buf;
    }
    note(line);
}

void
Report::print(
    const std::vector<std::pair<std::string, std::string>> &schema) const
{
    for (const std::string &n : notes_)
        std::printf("%s\n", n.c_str());
    for (const std::string &name : order_) {
        const Value &v = metrics_.at(name);
        std::printf("metric %-34s %.6g %s\n", name.c_str(), v.value,
                    v.unit.c_str());
    }
    std::printf("checks: %zu run, %zu failed\n", checks_,
                failedChecks_.size());
    for (const std::string &f : failedChecks_)
        std::printf("CHECK FAILED: %s\n", f.c_str());

    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, unit] : schema) {
        const auto it = metrics_.find(name);
        const double value = it == metrics_.end() ? 0.0 : it->second.value;
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " +
               cactid::obs::fmtDouble(value) + ", \"unit\": \"" + unit +
               "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

const std::vector<std::pair<std::string, std::string>> &
endToEndNames()
{
    static const std::vector<std::pair<std::string, std::string>> n = {
        {"setup_s", "s"},        {"wall_s", "s"},
        {"work_per_s", "1/s"},   {"op_p50_ms", "ms"},
        {"op_tail_ms", "ms"},    {"peak_rss_mb", "MB"},
        {"ok_pct", "%"},         {"model_err_pct", "%"},
    };
    return n;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerNames()
{
    static const std::vector<std::pair<std::string, std::string>> n = {
        // solver (EngineStats, summed over the unit's solves)
        {"solver.partitions_enumerated", "count"},
        {"solver.partitions_infeasible", "count"},
        {"solver.solutions_built", "count"},
        {"solver.area_pruned", "count"},
        {"solver.time_pruned", "count"},
        {"solver.useful_ratio", "ratio"},
        {"solver.peak_live", "count"},
        {"solver.setup_s", "s"},
        {"solver.evaluate_s", "s"},
        {"solver.filter_s", "s"},
        {"solver.evaluate_us_per_candidate", "us"},
        {"solver.jobs_used", "count"},
        {"tech.construct_us", "us"},
        {"array.enumerate_us", "us"},
        {"array.build_bank_us", "us"},
        // cache / batch
        {"cache.hits", "count"},
        {"cache.misses", "count"},
        {"cache.hit_ratio", "ratio"},
        {"cache.evictions", "count"},
        {"cache.bytes", "bytes"},
        {"batch.unique_solves", "count"},
        {"batch.share_groups", "count"},
        {"batch.dedup_ratio", "ratio"},
        // serve
        {"serve.parse_us", "us"},
        {"serve.solve_batch_s", "s"},
        {"serve.render_s", "s"},
        {"serve.failed", "count"},
        {"serve.degraded_batches", "count"},
        // host
        {"host.cpu_util", "ratio"},
        // runner + thermal
        {"runner.solve_s", "s"},
        {"runner.sim_s", "s"},
        {"runner.power_s", "s"},
        {"runner.derive_s", "s"},
        {"runner.thermal_s", "s"},
        {"runner.export_s", "s"},
        {"runner.worker_idle_s", "s"},
        {"runner.run_p50_s", "s"},
        {"runner.run_max_s", "s"},
        {"runner.runs_failed", "count"},
        {"thermal.solves", "count"},
        {"thermal.solve_us", "us"},
        // simulator host time
        {"sim.host_ns_per_instr", "ns"},
        // simulated counters (model outputs)
        {"sim.instructions", "count"},
        {"sim.cycles", "cycles"},
        {"sim.ipc", "ratio"},
        {"sim.l1_accesses", "count"},
        {"sim.l2_misses", "count"},
        {"sim.llc_hits", "count"},
        {"sim.llc_misses", "count"},
        {"sim.dram_reads", "count"},
        {"sim.dram_row_hits", "count"},
        {"sim.c2c_transfers", "count"},
        {"sim.xbar_transfers", "count"},
        {"sim.f_memory", "ratio"},
        {"sim.f_l3", "ratio"},
        {"sim.f_barrier", "ratio"},
        {"sim.f_lock", "ratio"},
        {"sim.lat.l3_p99_cycles", "cycles"},
        {"sim.lat.mem_p99_cycles", "cycles"},
        {"sim.lat.dram_queue_p99_cycles", "cycles"},
        {"sim.lat.llc_wait_p99_cycles", "cycles"},
        {"sim.dir_evictions", "count"},
        {"sim.dir_overflows", "count"},
        {"sim.dir_peak_live", "count"},
        // tracing
        {"obs.trace_overhead_pct", "%"},
    };
    return n;
}

cactid::MemoryConfig
table2Config()
{
    using namespace cactid;
    MemoryConfig cfg;
    cfg.capacityBytes = 1024.0 * 1024.0 * 1024.0 / 8.0; // 1 Gb
    cfg.blockBytes = 8;
    cfg.type = MemoryType::MainMemoryChip;
    cfg.nBanks = 8;
    cfg.featureNm = 78.0;
    cfg.dataCellTech = RamCellTech::CommDram;
    cfg.pageBytes = 1024;
    cfg.ioBits = 8;
    cfg.burstLength = 8;
    cfg.prefetchWidth = 8;
    cfg.maxAreaConstraint = 0.10;
    cfg.maxAccTimeConstraint = 1.00;
    cfg.weights = {1.0, 0.0, 1.0, 0.0, 0.0, 4.0};
    return cfg;
}

double
table2ErrorPct(double area_eff, double trcd_s, double tcas_s,
               double trc_s, double act_j, double rd_j, double wr_j,
               double refresh_w)
{
    // Micron 1 Gb DDR3-1066 x8 datasheet / power-calculator actuals.
    const double model[] = {area_eff * 100.0, trcd_s * 1e9,
                            tcas_s * 1e9,     trc_s * 1e9,
                            act_j * 1e9,      rd_j * 1e9,
                            wr_j * 1e9,       refresh_w * 1e3};
    const double actual[] = {56.0, 13.1, 13.1, 52.5,
                             3.1,  1.6,  1.8,  3.5};
    double sum = 0.0;
    for (std::size_t i = 0; i < std::size(actual); ++i)
        sum += std::fabs((model[i] - actual[i]) / actual[i]);
    return sum / double(std::size(actual)) * 100.0;
}

double
table2ErrorPct(const cactid::Solution &s)
{
    return table2ErrorPct(s.areaEfficiency, s.tRcd, s.tCas, s.tRc,
                          s.activateEnergy, s.readBurstEnergy,
                          s.writeBurstEnergy, s.refreshPower);
}

namespace {

void
digestSolution(std::string &out, const cactid::Solution &s)
{
    using cactid::obs::fmtDouble;
    const cactid::Partition &p = s.data.part;
    out += std::to_string(p.rowsPerSubarray) + "," +
           std::to_string(p.colsPerSubarray) + "," +
           std::to_string(p.blMux) + "," + std::to_string(p.samMux) +
           "," + std::to_string(s.data.nMats) + "," +
           std::to_string(s.nSubbanks);
    const double fields[] = {
        s.totalArea,    s.bankArea,        s.areaEfficiency,
        s.accessTime,   s.randomCycle,     s.interleaveCycle,
        s.readEnergy,   s.writeEnergy,     s.leakage,
        s.refreshPower, s.tRcd,            s.tCas,
        s.tRp,          s.tRas,            s.tRc,
        s.tRrd,         s.activateEnergy,  s.readBurstEnergy,
        s.writeBurstEnergy, s.objective,
    };
    for (double f : fields)
        out += "," + fmtDouble(f);
    out += ";";
}

} // namespace

std::string
solveDigest(const cactid::SolveResult &r)
{
    std::string out;
    digestSolution(out, r.best);
    out += "|" + std::to_string(r.filtered.size()) + "|";
    for (const cactid::Solution &s : r.filtered)
        digestSolution(out, s);
    return out;
}

} // namespace perfbench
