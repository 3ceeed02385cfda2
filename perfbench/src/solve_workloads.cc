/**
 * @file
 * The solver workloads: solve_cold (1000+ distinct seeded configs
 * through SolverEngine::run, no cache) and serve_mix (a seeded JSONL
 * request stream through tools::serveRequests in fixed-size batches
 * over an in-process SolveCache).
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "array/bank.hh"
#include "array/partition.hh"
#include "core/engine.hh"
#include "core/fingerprint.hh"
#include "core/solve_cache.hh"
#include "core/solver.hh"
#include "obs/numfmt.hh"
#include "obs/trace.hh"
#include "tools/config_parser.hh"
#include "tools/report.hh"
#include "tools/serve.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using cactid::MemoryConfig;
using cactid::SolveResult;
using cactid::SolverEngine;
using cactid::SolverOptions;


// --- Seeded config generation ---------------------------------------

/** One generated config: config-file keys with their values. */
struct GenConfig {
    std::vector<std::pair<std::string, std::string>> kv;

    std::string
    text() const
    {
        std::string out;
        for (const auto &[k, v] : kv)
            out += k + " = " + v + "\n";
        return out;
    }

    /** text() without the objective weights. */
    std::string
    shape() const
    {
        std::string out;
        for (const auto &[k, v] : kv) {
            if (k.rfind("weight_", 0) != 0)
                out += k + " = " + v + "\n";
        }
        return out;
    }

    /** The JSON "config" object of a serve request. */
    std::string
    json() const
    {
        std::string out = "{";
        for (const auto &[k, v] : kv) {
            if (out.size() > 1)
                out += ",";
            const bool number =
                v.find_first_not_of("0123456789.") == std::string::npos;
            out += "\"" + k + "\":" + (number ? v : "\"" + v + "\"");
        }
        return out + "}";
    }

    std::string
    get(const std::string &k) const
    {
        for (const auto &[key, val] : kv) {
            if (key == k)
                return val;
        }
        return "";
    }

    void
    set(const std::string &k, const std::string &v)
    {
        for (auto &[key, val] : kv) {
            if (key == k) {
                val = v;
                return;
            }
        }
        kv.emplace_back(k, v);
    }
};

std::string
num(double v)
{
    return cactid::obs::fmtDouble(v);
}

const std::vector<std::string> kCacheSizes = {
    "16K", "32K", "64K",  "128K", "256K", "512K", "1M",   "2M",
    "3M",  "4M",  "6M",   "8M",   "12M",  "16M",  "24M",  "32M",
    "48M", "64M", "96M",  "128M", "192M", "256M"};
/** Main-memory chip densities 256 Mb .. 2 Gb, as bytes. */
const std::vector<std::string> kChipSizes = {"32M", "64M", "128M",
                                             "256M"};
const std::vector<std::string> kNodes = {"90", "65", "45", "32"};

double
capacityBytes(const std::string &s)
{
    return cactid::tools::parseCapacity(s);
}

/**
 * Stratified draws: each named field deals its values from seeded
 * shuffled decks, so every value occurs equally often under every
 * seed and only the combinations vary.  That keeps the work of a run
 * nearly the same from seed to seed.
 */
class Draw {
public:
    explicit Draw(std::uint64_t seed) : rng_(seed) {}

    const std::string &
    pick(const std::string &field, const std::vector<std::string> &values)
    {
        Deck &d = decks_[field];
        if (d.next == d.order.size()) {
            d.values = values;
            d.order.resize(values.size());
            for (std::size_t i = 0; i < d.order.size(); ++i)
                d.order[i] = i;
            for (std::size_t i = d.order.size(); i > 1; --i)
                std::swap(d.order[i - 1], d.order[rng_.below(i)]);
            d.next = 0;
        }
        return d.values[d.order[d.next++]];
    }

    Rng &rng() { return rng_; }

private:
    struct Deck {
        std::vector<std::string> values;
        std::vector<std::size_t> order;
        std::size_t next = 0;
    };
    Rng rng_;
    std::map<std::string, Deck> decks_;
};

void
drawWeights(Draw &d, GenConfig &g)
{
    const std::vector<std::string> w3 = {"0", "1", "2"};
    const std::string dyn = d.pick("w_dyn", w3);
    const std::string leak = d.pick("w_leak", w3);
    const std::string cyc = d.pick("w_cyc", w3);
    g.set("weight_dynamic", dyn == "0" && leak == "0" && cyc == "0"
                                ? "1"
                                : dyn);
    g.set("weight_leakage", leak);
    g.set("weight_cycle", cyc);
    g.set("weight_interleave", d.pick("w_il", {"0", "1"}));
    g.set("weight_acctime", d.pick("w_acc", {"0", "1"}));
    g.set("weight_area", d.pick("w_area", {"0", "1", "4"}));
}

const std::vector<std::string> kTechs = {"sram", "lp-dram", "comm-dram"};

/**
 * A cache (7 in 8) or RAM of @p size in cell technology @p tech at
 * @p node nm; the other fields come from @p d, and banks keep at least
 * 8 KB each.  No draw is rejected for being infeasible: a 12-way cache
 * at a power-of-two capacity (fractional set count) is a legal request
 * the model fails today.
 */
GenConfig
drawArray(Draw &d, const std::string &size, const std::string &tech,
          const std::string &node)
{
    GenConfig g;
    const bool cache =
        d.pick("kind", {"c", "c", "c", "c", "c", "c", "c", "r"}) == "c";
    g.set("size", size);
    g.set("block", d.pick("block", {"32", "64", "128"}));
    g.set("type", cache ? "cache" : "ram");
    if (cache) {
        g.set("associativity",
              d.pick("assoc", {"1", "2", "4", "8", "12", "16"}));
        g.set("access_mode",
              d.pick("mode", {"normal", "sequential", "fast"}));
        g.set("tag_technology",
              d.pick("tag", {"same", "sram"}) == "same" ? tech : "sram");
    }
    int banks = std::stoi(d.pick("banks", {"1", "2", "4", "8", "16"}));
    while (banks > 1 && capacityBytes(size) / banks < 8192.0)
        banks /= 2;
    g.set("banks", std::to_string(banks));
    g.set("technology", tech);
    g.set("feature_nm", node);
    g.set("temperature_k", d.pick("temp", {"330", "350", "370"}));
    g.set("max_area", d.pick("max_area", {"0.1", "0.2", "0.4", "0.6"}));
    g.set("max_acctime", d.pick("max_acc", {"0.1", "0.3", "0.6", "1"}));
    drawWeights(d, g);
    return g;
}

/** A commodity-DRAM main-memory chip of @p size bytes, x@p io. */
GenConfig
drawChip(Draw &d, const std::string &size, const std::string &node,
         int io)
{
    GenConfig g;
    g.set("size", size);
    g.set("block", std::to_string(io * 8 / 8)); // one BL8 burst
    g.set("type", "main_memory");
    g.set("technology", "comm-dram");
    g.set("banks", d.pick("chip_banks", {"4", "8"}));
    g.set("io_bits", std::to_string(io));
    g.set("burst_length", "8");
    g.set("prefetch_width", "8");
    g.set("page_bytes", d.pick("page", {"512", "1024", "2048"}));
    g.set("feature_nm", node);
    g.set("max_area", d.pick("chip_area", {"0.1", "0.2", "0.4"}));
    g.set("max_acctime", d.pick("chip_acc", {"0.5", "1"}));
    drawWeights(d, g);
    return g;
}

/** The Table 2 DDR3 part in config-file vocabulary. */
GenConfig
table2Gen()
{
    const MemoryConfig c = table2Config();
    GenConfig g;
    g.set("size", "128M");
    g.set("block", std::to_string(c.blockBytes));
    g.set("type", "main_memory");
    g.set("technology", "comm-dram");
    g.set("banks", std::to_string(c.nBanks));
    g.set("feature_nm", num(c.featureNm));
    g.set("page_bytes", std::to_string(c.pageBytes));
    g.set("io_bits", std::to_string(c.ioBits));
    g.set("burst_length", std::to_string(c.burstLength));
    g.set("prefetch_width", std::to_string(c.prefetchWidth));
    g.set("max_area", num(c.maxAreaConstraint));
    g.set("max_acctime", num(c.maxAccTimeConstraint));
    g.set("weight_dynamic", num(c.weights.dynamicEnergy));
    g.set("weight_leakage", num(c.weights.leakage));
    g.set("weight_cycle", num(c.weights.randomCycle));
    g.set("weight_interleave", num(c.weights.interleaveCycle));
    g.set("weight_acctime", num(c.weights.accessTime));
    g.set("weight_area", num(c.weights.area));
    return g;
}

MemoryConfig
parseText(const std::string &text)
{
    std::istringstream ss(text);
    return cactid::tools::parseConfig(ss);
}

/**
 * The EngineStats accounting identities: every enumerated candidate is
 * infeasible or built, and every built one pruned or a survivor.
 */
bool
statsIdentities(const SolveResult &r)
{
    const cactid::EngineStats &s = r.stats;
    return s.partitionsEnumerated ==
               s.partitionsInfeasible + s.solutionsBuilt &&
           s.solutionsBuilt == s.areaPruned + s.timePruned +
                                   r.filtered.size();
}

/** EngineStats summed over many solves. */
struct SolverTotals {
    std::uint64_t enumerated = 0, infeasible = 0, built = 0,
                  areaPruned = 0, timePruned = 0, survivors = 0;
    std::size_t peakLive = 0;
    int jobs = 0;
    double setup = 0, evaluate = 0, filter = 0;

    void
    add(const SolveResult &r)
    {
        const cactid::EngineStats &s = r.stats;
        enumerated += s.partitionsEnumerated;
        infeasible += s.partitionsInfeasible;
        built += s.solutionsBuilt;
        areaPruned += s.areaPruned;
        timePruned += s.timePruned;
        survivors += r.filtered.size();
        peakLive = std::max(peakLive, s.peakLiveSolutions);
        jobs = std::max(jobs, s.jobsUsed);
        setup += s.setupSeconds;
        evaluate += s.evaluateSeconds;
        filter += s.filterSeconds;
    }

    void
    report(Report &rep) const
    {
        rep.metric("solver.partitions_enumerated", double(enumerated),
                   "count");
        rep.metric("solver.partitions_infeasible", double(infeasible),
                   "count");
        rep.metric("solver.solutions_built", double(built), "count");
        rep.metric("solver.area_pruned", double(areaPruned), "count");
        rep.metric("solver.time_pruned", double(timePruned), "count");
        rep.metric("solver.useful_ratio",
                   enumerated ? double(survivors) / double(enumerated)
                              : 0.0,
                   "ratio");
        rep.metric("solver.peak_live", double(peakLive), "count");
        rep.metric("solver.setup_s", setup, "s");
        rep.metric("solver.evaluate_s", evaluate, "s");
        rep.metric("solver.filter_s", filter, "s");
        rep.metric("solver.evaluate_us_per_candidate",
                   enumerated ? evaluate * 1e6 / double(enumerated) : 0.0,
                   "us");
        rep.metric("solver.jobs_used", double(jobs), "count");
    }
};

/** How much work a request list shares, by the program's own keys. */
struct Sharing {
    double repeat = 0.0; ///< canonical config seen earlier in the list
    double weightVariant = 0.0; ///< share key has >1 canonical config
};

Sharing
sharingOf(const std::vector<MemoryConfig> &cfgs)
{
    std::set<std::string> keys;
    std::unordered_map<std::string, std::set<std::string>> by_share;
    std::vector<std::string> share_keys;
    std::size_t repeats = 0;
    for (const MemoryConfig &c : cfgs) {
        const std::string key = cactid::canonicalKey(c);
        if (!keys.insert(key).second)
            ++repeats;
        share_keys.push_back(cactid::canonicalShareKey(c));
        by_share[share_keys.back()].insert(key);
    }
    std::size_t variants = 0;
    for (const std::string &sk : share_keys)
        variants += by_share[sk].size() > 1 ? 1 : 0;
    const double n = cfgs.empty() ? 1.0 : double(cfgs.size());
    return {double(repeats) / n, double(variants) / n};
}

SolverOptions
coldOptions(int jobs)
{
    SolverOptions o;
    o.jobs = jobs;
    o.collectAll = false;
    o.cache = nullptr;
    return o;
}

// --- solve_cold -----------------------------------------------------

/** Passes over the stratified design space per seed. */
constexpr int kColdPasses = 4;

/**
 * 1248 distinct configs from @p seed, then the fixed Table 2 part.
 * Every (capacity, cell technology, node) cache/RAM combination --
 * 16K..256M, SRAM / LP-DRAM / COMM-DRAM, 90..32 nm -- and every
 * (density, node, width) main-memory chip -- 256 Mb..2 Gb, x4/x8/x16
 * -- occurs kColdPasses times; the seed draws the other fields
 * (associativity, banks, block, access mode, constraints, weights,
 * temperature) and the order.
 */
std::vector<std::string>
coldConfigTexts(std::uint64_t seed)
{
    Draw d(seed ^ 0x636f6c64ULL);
    std::set<std::string> seen;
    std::vector<std::string> out;
    // Distinct even without the weights: no two configs share an
    // enumeration, so neither a cache nor a share group could help.
    const auto add = [&](const auto &draw) {
        GenConfig g;
        do {
            g = draw();
        } while (!seen.insert(g.shape()).second);
        out.push_back(g.text());
    };
    for (int pass = 0; pass < kColdPasses; ++pass) {
        for (const std::string &size : kCacheSizes)
            for (const std::string &tech : kTechs)
                for (const std::string &node : kNodes)
                    add([&] { return drawArray(d, size, tech, node); });
        for (const std::string &size : kChipSizes)
            for (const std::string &node : kNodes)
                for (int io : {4, 8, 16})
                    add([&] { return drawChip(d, size, node, io); });
    }
    for (std::size_t i = out.size(); i > 1; --i)
        std::swap(out[i - 1], out[d.rng().below(i)]);
    out.push_back(table2Gen().text());
    return out;
}

/**
 * What one pass keeps: per-solve latency and outcome, the EngineStats
 * totals, digests of the sampled solves and the Table 2 best.  Each
 * SolveResult is folded in and dropped as soon as its solve returns,
 * so the pass holds one solve's result at a time, as a caller solving
 * one config after another does.
 */
struct ColdUnit {
    std::vector<double> solveMs;
    std::vector<bool> ok;
    std::map<std::size_t, std::string> digests; ///< sampled index -> digest
    cactid::Solution table2; ///< best of the last config, the Table 2 part
    SolverTotals totals;
    double wall = 0.0;
    double cpu = 0.0;
    std::size_t identityViolations = 0;
};

/**
 * Solve @p cfgs[i] for every i in @p order (all configs when empty),
 * one at a time at @p jobs, keeping the solveDigest of each index in
 * @p sample.
 */
ColdUnit
runCold(const std::vector<MemoryConfig> &cfgs, int jobs,
        const std::set<std::size_t> &sample,
        const std::vector<std::size_t> &order = {})
{
    const SolverEngine engine(coldOptions(jobs));
    ColdUnit u;
    u.ok.assign(cfgs.size(), false);
    const std::size_t n = order.empty() ? cfgs.size() : order.size();
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = order.empty() ? k : order[k];
        const auto ts = Clock::now();
        SolveResult r;
        try {
            r = engine.run(cfgs[i]);
            u.ok[i] = true;
        } catch (const std::exception &) {
            // A design point the model rejects: counted by ok_pct.
        }
        u.solveMs.push_back(secondsSince(ts) * 1e3);
        if (!u.ok[i])
            continue;
        u.totals.add(r);
        if (!statsIdentities(r))
            ++u.identityViolations;
        if (sample.count(i))
            u.digests[i] = solveDigest(r);
        if (i + 1 == cfgs.size())
            u.table2 = r.best;
    }
    u.wall = secondsSince(t0);
    u.cpu = processCpuSeconds() - cpu0;
    return u;
}

/** Parse every config text through the tool's config parser. */
std::vector<MemoryConfig>
parseAll(const std::vector<std::string> &texts)
{
    std::vector<MemoryConfig> cfgs;
    for (const std::string &t : texts)
        cfgs.push_back(parseText(t));
    return cfgs;
}

/** Every 1/@p n-th config, seeded offset: the identity sample. */
std::vector<std::size_t>
sampleIndices(std::size_t size, std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> out;
    const std::size_t step = std::max<std::size_t>(1, size / n);
    for (std::size_t i = Rng(seed).below(step); i < size; i += step)
        out.push_back(i);
    return out;
}

/**
 * How many of @p sample solved differently in @p a and @p b: a
 * different outcome, or a different digest.
 */
std::size_t
sampleMismatches(const std::vector<std::size_t> &sample, const ColdUnit &a,
                 const ColdUnit &b)
{
    std::size_t mismatches = 0;
    for (std::size_t i : sample) {
        if (a.ok[i] != b.ok[i] ||
            (a.ok[i] && a.digests.at(i) != b.digests.at(i)))
            ++mismatches;
    }
    return mismatches;
}

/** The first pass's checks; returns the configs' measured sharing. */
Sharing
checkCold(const std::vector<MemoryConfig> &cfgs, const ColdUnit &u,
          const std::vector<std::size_t> &sample, Report &rep)
{
    rep.check(u.identityViolations == 0,
              "every solve satisfies the EngineStats identities");
    const Sharing sharing = sharingOf(cfgs);
    rep.check(sharing.repeat == 0.0 && sharing.weightVariant == 0.0,
              "configs are distinct under the program's share key");

    // A seeded sample re-solved serially must be bit-identical.
    const ColdUnit serial =
        runCold(cfgs, 1, {sample.begin(), sample.end()}, sample);
    rep.check(sampleMismatches(sample, u, serial) == 0,
              "a seeded sample re-solved at jobs = 1 is bit-identical");
    rep.check(u.ok.back(), "the Table 2 part solves");
    return sharing;
}

void
solveColdUntraced(const Args &args, Report &rep)
{
    const std::vector<std::string> texts = coldConfigTexts(args.seed);
    std::vector<MemoryConfig> cfgs;
    const std::vector<std::size_t> sample =
        sampleIndices(texts.size(), 24, args.seed);
    // Per pass: p90 solve latency (125 samples beyond it); op_tail_ms
    // is their median, so one slow stretch of the host moves one pass.
    // The pass's p99 (12 samples beyond it) is printed too, but not
    // as op_tail_ms: it moves by up to a quarter with which large SRAM
    // configs the seed puts in the top 1%.
    std::vector<double> walls, rates, solve_ms, tails, p99s;
    std::size_t ok = 0;
    std::uint64_t enumerated = 0;
    double t2_err = 0.0;
    Sharing sharing;
    bool first = true;
    // Set-up: parse the config texts, as cactid reads a config file.
    const double setup_s = measureLoop(
        args.seconds, [&] { cfgs = parseAll(texts); }, [&] {
        const ColdUnit u =
            runCold(cfgs, hostThreads(),
                    first ? std::set<std::size_t>(sample.begin(),
                                                  sample.end())
                          : std::set<std::size_t>{});
        walls.push_back(u.wall);
        rates.push_back(double(cfgs.size()) / u.wall);
        solve_ms.insert(solve_ms.end(), u.solveMs.begin(), u.solveMs.end());
        tails.push_back(quantile(u.solveMs, 0.9));
        p99s.push_back(quantile(u.solveMs, 0.99));
        rep.attempted += cfgs.size();
        ok += std::count(u.ok.begin(), u.ok.end(), true);
        rep.failed += u.identityViolations;
        if (first) {
            sharing = checkCold(cfgs, u, sample, rep);
            enumerated = u.totals.enumerated;
            if (u.ok.back())
                t2_err = table2ErrorPct(u.table2);
            first = false;
        } else {
            rep.check(u.totals.enumerated == enumerated,
                      "solver.partitions_enumerated repeats exactly");
        }
    });

    const double fail = double(rep.attempted - ok) / rep.attempted;
    rep.series("unit_wall_s", walls);
    rep.metric("setup_s", setup_s, "s");
    rep.metric("wall_s", median(walls), "s");
    rep.metric("work_per_s", median(rates), "1/s");
    rep.metric("op_p50_ms", quantile(solve_ms, 0.5), "ms");
    rep.metric("op_tail_ms", median(tails), "ms");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    rep.metric("ok_pct", 100.0 * (1.0 - fail), "%");
    rep.metric("model_err_pct", t2_err, "%");
    rep.metric("solves_per_s", median(rates), "1/s");
    rep.metric("solve_p50_ms", quantile(solve_ms, 0.5), "ms");
    rep.metric("solve_p90_ms", median(tails), "ms");
    rep.metric("solve_p99_ms", median(p99s), "ms");
    rep.metric("fail_rate", fail, "ratio");
    rep.metric("table2_err_pct", t2_err, "%");
    rep.metric("repeat_share", sharing.repeat, "ratio");
    rep.metric("weight_variant_share", sharing.weightVariant, "ratio");
    rep.metric("configs", double(cfgs.size()), "count");
    rep.metric("passes", double(walls.size()), "count");
}

/**
 * Time the tech and array layers directly on a seeded sample: the
 * Technology constructor, the partition enumeration and buildBank
 * per candidate, through their public entry points.
 */
void
probeLayers(const std::vector<MemoryConfig> &cfgs, std::uint64_t seed,
            Report &rep)
{
    std::vector<double> tech_us, enum_us, bank_us;
    for (std::size_t i : sampleIndices(cfgs.size(), 48, seed ^ 1)) {
        const MemoryConfig &cfg = cfgs[i];
        auto t = Clock::now();
        const cactid::Technology tech(cfg.featureNm, cfg.temperatureK);
        tech_us.push_back(secondsSince(t) * 1e6);
        try {
            const cactid::CandidateEvaluator eval(tech, cfg);
            const cactid::BankSpec &spec = eval.spec();
            std::vector<cactid::Partition> parts;
            t = Clock::now();
            cactid::forEachPartition(
                spec.sizeBits, spec.outputBits, spec.tech,
                cactid::PartitionLimits{},
                [&](const cactid::Partition &p) { parts.push_back(p); });
            enum_us.push_back(secondsSince(t) * 1e6);
            if (parts.empty())
                continue;
            t = Clock::now();
            for (const cactid::Partition &p : parts)
                (void)cactid::buildBank(tech, spec, p);
            bank_us.push_back(secondsSince(t) * 1e6 / double(parts.size()));
        } catch (const std::exception &) {
            // Rejected before enumeration (e.g. no tag organization).
        }
    }
    rep.metric("tech.construct_us", median(tech_us), "us");
    rep.metric("array.enumerate_us", median(enum_us), "us");
    rep.metric("array.build_bank_us", median(bank_us), "us");
}

/**
 * obs.trace_overhead_pct on the solver.  At jobs = 1 the engine
 * evaluates inline, so the caller's one profiling ring holds every
 * solver span; at jobs > 1 each solve's pool would register a ring per
 * worker.  The seeded @p sample is solved at jobs = 1 with the tracer
 * off and on, and every pass must reproduce @p ref's digests.
 */
void
solverTraceOverhead(const std::vector<MemoryConfig> &cfgs,
                    const std::vector<std::size_t> &sample,
                    const ColdUnit &ref, Report &rep)
{
    const std::set<std::size_t> keep(sample.begin(), sample.end());
    std::size_t mismatches = 0;
    const double pct = traceOverheadPct([&](bool) {
        const ColdUnit u = runCold(cfgs, 1, keep, sample);
        mismatches += sampleMismatches(sample, ref, u);
        return sum(u.solveMs) * 1e-3;
    });
    rep.attempted += 2 * kTraceRounds * sample.size();
    rep.failed += mismatches;
    rep.check(mismatches == 0, "the sample re-solved at jobs = 1, traced "
                               "and untraced, is bit-identical");
    rep.check(spanSeconds("solver.run").size() ==
                  kTraceRounds * sample.size(),
              "one solver.run span per traced solve");
    rep.check(cactid::obs::Tracer::instance().dropped() == 0,
              "no trace event dropped");
    rep.metric("obs.trace_overhead_pct", pct, "%");
}

void
solveColdTraced(const Args &args, Report &rep)
{
    const std::vector<std::string> texts = coldConfigTexts(args.seed);
    const std::vector<MemoryConfig> cfgs = parseAll(texts);
    const std::vector<std::size_t> sample =
        sampleIndices(cfgs.size(), cfgs.size() / 8, args.seed);

    const ColdUnit u =
        runCold(cfgs, hostThreads(), {sample.begin(), sample.end()});
    rep.attempted = cfgs.size();
    rep.failed = u.identityViolations;
    rep.check(u.identityViolations == 0,
              "every solve satisfies the EngineStats identities");
    rep.metric("host.cpu_util", u.cpu / (u.wall * hostThreads()),
               "ratio");
    u.totals.report(rep);
    solverTraceOverhead(cfgs, sample, u, rep);
    probeLayers(cfgs, args.seed, rep);
}

// --- serve_mix ------------------------------------------------------

constexpr std::size_t kServeRequests = 8192;
constexpr std::size_t kServeBatch = 32;

/** Infeasible requests: one in every kServeDegradeEvery-th batch. */
constexpr std::size_t kServeDegradeEvery = 8;

/**
 * The request stream, stratified so that every seed yields the same
 * amount and shape of work and only the combinations differ:
 *
 *  - a pool of 193 feasible design queries: every (capacity, cell
 *    technology, node) array of the serve range, every (density,
 *    width, node) main-memory chip, and the Table 2 part; every third
 *    query also has two weight-only variants;
 *  - popularity ranks dealt round-robin across capacity classes, the
 *    Table 2 part at rank 3, and requests drawn with stratified
 *    Zipf(1) counts (each rank's count is fixed, the order is seeded);
 *  - three infeasible 12-way caches at power-of-two capacities, one in
 *    every kServeDegradeEvery-th batch, so a fixed share of batches
 *    exercises serveRequests' per-request fallback.
 *
 * No recorded request trace exists to take these values from: the
 * Zipf exponent, the variant share, the batch size and the infeasible
 * rate are stand-ins, and perfbench/ledger.json gives why each was
 * chosen.
 */
std::vector<std::string>
serveStream(std::uint64_t seed)
{
    Draw d(seed ^ 0x7365727665ULL);
    Rng &rng = d.rng();
    static const std::vector<std::string> sizes = {
        "32K", "64K", "256K", "512K", "1M", "2M", "3M",
        "6M",  "12M", "24M",  "48M",  "96M"};

    // Capacity class -> the queries of that class.
    std::map<std::string, std::vector<GenConfig>> classes;
    std::set<std::string> seen;
    std::size_t n_base = 0;
    const auto add = [&](GenConfig g) {
        // Feasible by geometry: a 12-way cache keeps 12 ways only where
        // its set count is whole, and every cache bank keeps at least
        // 64 sets.
        if (g.get("type") == "cache") {
            const double bytes = capacityBytes(g.get("size"));
            const double block = std::stod(g.get("block"));
            if (g.get("associativity") == "12" &&
                std::fmod(bytes, 12.0 * block) != 0.0)
                g.set("associativity", "16");
            const auto sets = [&] {
                return bytes / std::stod(g.get("banks")) /
                       (block * std::stod(g.get("associativity")));
            };
            while (g.get("banks") != "1" && sets() < 64.0)
                g.set("banks",
                      std::to_string(std::stoi(g.get("banks")) / 2));
            if (sets() < 64.0)
                g.set("associativity", "4");
        }
        if (!seen.insert(g.text()).second)
            return;
        std::vector<GenConfig> &cls = classes[g.get("size")];
        cls.push_back(g);
        if (n_base++ % 3 == 1) {
            for (int v = 0; v < 2; ++v) {
                GenConfig w = g;
                drawWeights(d, w);
                if (seen.insert(w.text()).second)
                    cls.push_back(std::move(w));
            }
        }
    };
    for (const std::string &size : sizes)
        for (const std::string &tech : kTechs)
            for (const std::string &node : kNodes)
                add(drawArray(d, size, tech, node));
    for (const std::string &size : kChipSizes)
        for (const std::string &node : kNodes)
            for (int io : {4, 8, 16})
                add(drawChip(d, size, node, io));

    // Ranks: shuffle each class, then deal one query per class in turn.
    std::vector<std::vector<GenConfig> *> order;
    for (auto &[size, cls] : classes) {
        for (std::size_t i = cls.size(); i > 1; --i)
            std::swap(cls[i - 1], cls[rng.below(i)]);
        order.push_back(&cls);
    }
    std::vector<GenConfig> pool;
    for (std::size_t round = 0; pool.size() < seen.size(); ++round) {
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        for (std::vector<GenConfig> *cls : order) {
            if (round < cls->size())
                pool.push_back((*cls)[round]);
        }
    }
    pool.insert(pool.begin() + 2, table2Gen());

    // Stratified Zipf(1): the i-th of n draws comes from the i-th
    // equal slice of the popularity mass.
    const std::size_t n_bad = kServeRequests / kServeBatch /
                              kServeDegradeEvery;
    const std::size_t n = kServeRequests - n_bad;
    std::vector<double> cdf;
    double acc = 0.0;
    for (std::size_t r = 0; r < pool.size(); ++r)
        cdf.push_back(acc += 1.0 / double(r + 1));
    std::vector<std::size_t> ranks;
    for (std::size_t i = 0; i < n; ++i) {
        const double u = (double(i) + rng.uniform()) / double(n) * acc;
        ranks.push_back(std::min<std::size_t>(
            pool.size() - 1,
            std::size_t(std::lower_bound(cdf.begin(), cdf.end(), u) -
                        cdf.begin())));
    }
    for (std::size_t i = ranks.size(); i > 1; --i)
        std::swap(ranks[i - 1], ranks[rng.below(i)]);
    std::vector<std::string> configs;
    for (std::size_t r : ranks)
        configs.push_back(pool[r].json());

    const char *const pow2[] = {"4M", "8M", "16M"};
    for (std::size_t k = 0; k < n_bad; ++k) {
        GenConfig g = drawArray(d, pow2[k % 3], d.pick("tech", kTechs),
                                "32");
        g.set("type", "cache");
        g.set("associativity", "12");
        const std::size_t batch = k * kServeDegradeEvery +
                                  kServeDegradeEvery / 2;
        configs.insert(configs.begin() +
                           std::ptrdiff_t(batch * kServeBatch +
                                          rng.below(kServeBatch)),
                       g.json());
    }

    std::vector<std::string> lines;
    for (std::size_t i = 0; i < configs.size(); ++i)
        lines.push_back("{\"id\":\"q" + std::to_string(i) +
                        "\",\"config\":" + configs[i] + "}");
    return lines;
}

std::vector<std::vector<std::string>>
batches(const std::vector<std::string> &lines)
{
    std::vector<std::vector<std::string>> out;
    for (std::size_t i = 0; i < lines.size(); i += kServeBatch)
        out.emplace_back(lines.begin() + std::ptrdiff_t(i),
                         lines.begin() + std::ptrdiff_t(std::min(
                                             lines.size(), i + kServeBatch)));
    return out;
}

cactid::tools::ServeOptions
serveOptions(cactid::SolveCache *cache, int jobs)
{
    cactid::tools::ServeOptions o;
    o.solver.jobs = jobs;
    o.solver.collectAll = false; // as cactid-serve: responses never need it
    o.solver.cache = cache;
    return o;
}

struct ServeUnit {
    std::vector<std::string> responses;
    std::vector<double> batchMs;
    std::size_t failed = 0;
    double wall = 0.0;
    double cpu = 0.0;
    cactid::SolveCacheCounters cache;
};

/** The first @p n batches of @p bs (all when 0) at @p jobs. */
ServeUnit
runServe(const std::vector<std::vector<std::string>> &bs, int jobs,
         std::size_t n = 0)
{
    cactid::SolveCache cache;
    const cactid::tools::ServeOptions opts = serveOptions(&cache, jobs);
    ServeUnit u;
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < (n ? n : bs.size()); ++k) {
        const std::vector<std::string> &b = bs[k];
        const auto tb = Clock::now();
        cactid::tools::ServeStats st;
        std::vector<std::string> r =
            cactid::tools::serveRequests(b, opts, &st);
        u.batchMs.push_back(secondsSince(tb) * 1e3);
        u.failed += st.failed;
        u.responses.insert(u.responses.end(),
                           std::make_move_iterator(r.begin()),
                           std::make_move_iterator(r.end()));
    }
    u.wall = secondsSince(t0);
    u.cpu = processCpuSeconds() - cpu0;
    u.cache = cache.counters();
    return u;
}

/** The response cactid-serve renders for a solved request. */
std::string
renderOk(std::size_t index, const std::string &id, const MemoryConfig &cfg,
         const SolveResult &res)
{
    using cactid::obs::fmtDouble;
    const cactid::Solution &s = res.best;
    std::string out = "{\"index\":" + std::to_string(index);
    out += ",\"id\":\"" + cactid::obs::jsonEscape(id) + "\"";
    out += ",\"status\":\"ok\"";
    out += ",\"fingerprint\":\"" + cactid::configFingerprint(cfg).hex() +
           "\"";
    out += ",\"best\":{";
    out += "\"rows\":" + std::to_string(s.data.part.rowsPerSubarray);
    out += ",\"cols\":" + std::to_string(s.data.part.colsPerSubarray);
    out += ",\"blmux\":" + std::to_string(s.data.part.blMux);
    out += ",\"sammux\":" + std::to_string(s.data.part.samMux);
    out += ",\"mats\":" + std::to_string(s.data.nMats);
    out += ",\"subbanks\":" + std::to_string(s.nSubbanks);
    const std::pair<const char *, double> fields[] = {
        {"access_s", s.accessTime},
        {"random_cycle_s", s.randomCycle},
        {"interleave_cycle_s", s.interleaveCycle},
        {"total_area_m2", s.totalArea},
        {"area_efficiency", s.areaEfficiency},
        {"read_energy_j", s.readEnergy},
        {"write_energy_j", s.writeEnergy},
        {"leakage_w", s.leakage},
        {"refresh_w", s.refreshPower},
        {"trcd_s", s.tRcd},
        {"tcas_s", s.tCas},
        {"trp_s", s.tRp},
        {"tras_s", s.tRas},
        {"trc_s", s.tRc},
        {"trrd_s", s.tRrd},
        {"activate_energy_j", s.activateEnergy},
        {"read_burst_energy_j", s.readBurstEnergy},
        {"write_burst_energy_j", s.writeBurstEnergy},
        {"objective", s.objective},
    };
    for (const auto &[name, v] : fields)
        out += ",\"" + std::string(name) + "\":" + fmtDouble(v);
    out += "}";
    out += ",\"filtered\":" + std::to_string(res.filtered.size());
    out += ",\"explored\":" + std::to_string(res.stats.solutionsBuilt);
    out += "}";
    return out;
}

/** Parsed view of the stream: the requests and their sharing. */
struct StreamShape {
    std::vector<cactid::tools::ServeRequest> reqs;
    Sharing sharing;
};

StreamShape
shapeOf(const std::vector<std::string> &lines)
{
    StreamShape s;
    std::vector<MemoryConfig> cfgs;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        s.reqs.push_back(cactid::tools::parseServeRequest(
            lines[i], i % kServeBatch));
        cfgs.push_back(s.reqs.back().cfg);
    }
    s.sharing = sharingOf(cfgs);
    return s;
}

/**
 * Every response must equal what an independent, uncached run(cfg)
 * renders (errors: the same rejection message).  Returns the number
 * of mismatching responses; @p t2_err receives the Table 2 error of
 * the DDR3 requests' responses.
 */
std::size_t
checkResponses(const StreamShape &shape,
               const std::vector<std::string> &responses, double &t2_err,
               Report &rep)
{
    const SolverEngine engine(coldOptions(hostThreads()));
    std::unordered_map<std::string, std::pair<bool, SolveResult>> solved;
    std::unordered_map<std::string, std::string> errors;
    std::size_t mismatches = 0;
    const std::string t2_key = cactid::canonicalKey(table2Config());
    t2_err = 0.0;
    rep.check(responses.size() == shape.reqs.size(),
              "one response per request");
    for (std::size_t i = 0;
         i < shape.reqs.size() && i < responses.size(); ++i) {
        const cactid::tools::ServeRequest &req = shape.reqs[i];
        if (!req.ok) {
            ++mismatches;
            continue;
        }
        const std::string key = cactid::canonicalKey(req.cfg);
        auto it = solved.find(key);
        if (it == solved.end()) {
            std::pair<bool, SolveResult> v{false, {}};
            try {
                v.second = engine.run(req.cfg);
                v.first = true;
            } catch (const std::exception &e) {
                errors[key] = e.what();
            }
            it = solved.emplace(key, std::move(v)).first;
        }
        const std::string expect =
            it->second.first
                ? renderOk(req.index, req.id, req.cfg, it->second.second)
                : "{\"index\":" + std::to_string(req.index) +
                      ",\"id\":\"" + cactid::obs::jsonEscape(req.id) +
                      "\",\"status\":\"error\",\"message\":\"" +
                      cactid::obs::jsonEscape(errors[key]) + "\"}";
        if (responses[i] != expect)
            ++mismatches;
        if (key == t2_key && t2_err == 0.0) {
            cactid::tools::JsonValue v;
            std::string err;
            if (cactid::tools::parseJson(responses[i], v, &err)) {
                const cactid::tools::JsonValue *b = v.find("best");
                const auto f = [&](const char *k) {
                    const cactid::tools::JsonValue *x = b ? b->find(k)
                                                          : nullptr;
                    return x ? x->asDouble() : 0.0;
                };
                t2_err = table2ErrorPct(
                    f("area_efficiency"), f("trcd_s"), f("tcas_s"),
                    f("trc_s"), f("activate_energy_j"),
                    f("read_burst_energy_j"), f("write_burst_energy_j"),
                    f("refresh_w"));
            }
        }
    }
    rep.check(mismatches == 0, "each response equals an independent "
                               "run(cfg) rendering");
    rep.check(t2_err > 0.0, "the Table 2 part is served");
    return mismatches;
}

void
serveMixUntraced(const Args &args, Report &rep)
{
    const std::vector<std::string> lines = serveStream(args.seed);
    const std::vector<std::vector<std::string>> bs = batches(lines);

    // Per pass: p90 batch latency (25 batches beyond it); op_tail_ms is
    // their median.
    std::vector<double> walls, rates, batch_ms, tails;
    std::size_t failed = 0;
    std::uint64_t hits = 0;
    double t2_err = 0.0;
    StreamShape shape;
    bool first = true;
    // Set-up: validate every request through the tool's parser.
    const double setup_s = measureLoop(
        args.seconds,
        [&] {
            for (std::size_t i = 0; i < lines.size(); ++i) {
                if (!cactid::tools::parseServeRequest(lines[i], i).ok)
                    throw std::runtime_error("request " + std::to_string(i) +
                                             " does not parse");
            }
        },
        [&] {
        const ServeUnit u = runServe(bs, hostThreads());
        walls.push_back(u.wall);
        rates.push_back(double(lines.size()) / u.wall);
        batch_ms.insert(batch_ms.end(), u.batchMs.begin(), u.batchMs.end());
        tails.push_back(quantile(u.batchMs, 0.9));
        rep.attempted += lines.size();
        failed += u.failed;
        if (first) {
            shape = shapeOf(lines);
            rep.failed += checkResponses(shape, u.responses, t2_err, rep);
            hits = u.cache.hits;
            first = false;
        } else {
            rep.check(u.cache.hits == hits, "cache.hits repeats exactly");
        }
    });

    const double fail = double(failed) / double(rep.attempted);
    rep.series("unit_wall_s", walls);
    rep.metric("setup_s", setup_s, "s");
    rep.metric("wall_s", median(walls), "s");
    rep.metric("work_per_s", median(rates), "1/s");
    rep.metric("op_p50_ms", quantile(batch_ms, 0.5), "ms");
    rep.metric("op_tail_ms", median(tails), "ms");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    rep.metric("ok_pct", 100.0 * (1.0 - fail), "%");
    rep.metric("model_err_pct", t2_err, "%");
    rep.metric("requests_per_s", median(rates), "1/s");
    rep.metric("batch_p50_ms", quantile(batch_ms, 0.5), "ms");
    rep.metric("batch_p90_ms", median(tails), "ms");
    rep.metric("fail_rate", fail, "ratio");
    rep.metric("table2_err_pct", t2_err, "%");
    rep.metric("repeat_share", shape.sharing.repeat, "ratio");
    rep.metric("weight_variant_share", shape.sharing.weightVariant,
               "ratio");
    rep.metric("requests", double(lines.size()), "count");
    rep.metric("batches", double(bs.size()), "count");
    rep.metric("streams", double(walls.size()), "count");
}

/** Batches of the stream serve_mix traces at jobs = 1. */
constexpr std::size_t kServeTracedBatches = 64;

/**
 * obs.trace_overhead_pct on the serve path.  At jobs = 1 solveBatch
 * and every solve run inline on the caller, so its one profiling ring
 * holds every span.  The first kServeTracedBatches batches are served
 * at jobs = 1 over a fresh cache with the tracer off and on, and must
 * answer byte for byte as the jobs = nproc pass @p ref did.
 */
void
serveTraceOverhead(const std::vector<std::vector<std::string>> &bs,
                   const ServeUnit &ref, Report &rep)
{
    const std::size_t n = std::min(kServeTracedBatches, bs.size());
    std::size_t requests = 0;
    for (std::size_t k = 0; k < n; ++k)
        requests += bs[k].size();
    const std::vector<std::string> expect(
        ref.responses.begin(),
        ref.responses.begin() + std::ptrdiff_t(requests));
    std::size_t mismatches = 0;
    const double pct = traceOverheadPct([&](bool) {
        const ServeUnit u = runServe(bs, 1, n);
        mismatches += u.responses == expect ? 0 : 1;
        return u.wall;
    });
    rep.attempted += 2 * kTraceRounds * requests;
    rep.failed += mismatches;
    rep.check(mismatches == 0, "batches served at jobs = 1, traced and "
                               "untraced, answer byte for byte as at "
                               "jobs = nproc");
    rep.check(spanSeconds("solver.batch").size() == kTraceRounds * n,
              "one solver.batch span per traced batch");
    rep.check(cactid::obs::Tracer::instance().dropped() == 0,
              "no trace event dropped");
    rep.metric("obs.trace_overhead_pct", pct, "%");
}

void
serveMixTraced(const Args &args, Report &rep)
{
    const std::vector<std::string> lines = serveStream(args.seed);
    const std::vector<std::vector<std::string>> bs = batches(lines);

    const ServeUnit u = runServe(bs, hostThreads());
    rep.attempted = lines.size();
    rep.metric("host.cpu_util", u.cpu / (u.wall * hostThreads()),
               "ratio");
    rep.metric("cache.hits", double(u.cache.hits), "count");
    rep.metric("cache.misses", double(u.cache.misses), "count");
    const double lookups = double(u.cache.hits + u.cache.misses);
    rep.metric("cache.hit_ratio",
               lookups > 0 ? double(u.cache.hits) / lookups : 0.0,
               "ratio");
    rep.metric("cache.evictions", double(u.cache.evictions), "count");
    rep.metric("cache.bytes", double(u.cache.bytes), "bytes");
    rep.metric("serve.failed", double(u.failed), "count");
    serveTraceOverhead(bs, u, rep);

    // Replay each batch through the layers serveRequests drives:
    // parseServeRequest, then SolverEngine::solveBatch over a fresh
    // cache, degrading to run() per request as the tool does.
    cactid::SolveCache cache;
    const SolverEngine engine(serveOptions(&cache, hostThreads()).solver);
    double parse_s = 0.0, solve_s = 0.0;
    std::size_t degraded = 0, requests = 0, unique = 0, groups = 0;
    SolverTotals solver;
    std::set<std::string> solved;
    for (const std::vector<std::string> &b : bs) {
        std::vector<MemoryConfig> cfgs;
        auto t = Clock::now();
        for (std::size_t i = 0; i < b.size(); ++i) {
            const cactid::tools::ServeRequest r =
                cactid::tools::parseServeRequest(b[i], i);
            if (r.ok)
                cfgs.push_back(r.cfg);
        }
        parse_s += secondsSince(t);

        // results[i] is cfgs[i]'s result, or empty if it failed.
        t = Clock::now();
        std::vector<std::optional<SolveResult>> results(cfgs.size());
        try {
            cactid::BatchStats bst;
            std::vector<SolveResult> all = engine.solveBatch(cfgs, &bst);
            for (std::size_t i = 0; i < all.size(); ++i)
                results[i] = std::move(all[i]);
            requests += bst.requests;
            unique += bst.uniqueSolves;
            groups += bst.shareGroups;
        } catch (const std::exception &) {
            ++degraded;
            for (std::size_t i = 0; i < cfgs.size(); ++i) {
                try {
                    results[i] = engine.run(cfgs[i]);
                } catch (const std::exception &) {
                }
            }
        }
        solve_s += secondsSince(t);
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            if (results[i] &&
                solved.insert(cactid::canonicalKey(cfgs[i])).second)
                solver.add(*results[i]);
        }
    }
    double serve_s = 0.0;
    for (double ms : u.batchMs)
        serve_s += ms * 1e-3;
    rep.metric("serve.parse_us", parse_s * 1e6 / double(lines.size()),
               "us");
    rep.metric("serve.solve_batch_s", solve_s, "s");
    rep.metric("serve.render_s", std::max(0.0, serve_s - parse_s - solve_s),
               "s");
    rep.metric("serve.degraded_batches", double(degraded), "count");
    rep.metric("batch.unique_solves", double(unique), "count");
    rep.metric("batch.share_groups", double(groups), "count");
    rep.metric("batch.dedup_ratio",
               unique ? double(requests) / double(unique) : 0.0, "ratio");
    solver.report(rep);
}

} // namespace

void
solveCold(const Args &args, Report &rep)
{
    if (args.trace)
        solveColdTraced(args, rep);
    else
        solveColdUntraced(args, rep);
}

void
serveMix(const Args &args, Report &rep)
{
    if (args.trace)
        serveMixTraced(args, rep);
    else
        serveMixUntraced(args, rep);
}

} // namespace perfbench
