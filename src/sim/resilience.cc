/**
 * @file
 * Fault plans and the per-run checkpoint store.
 */

#include "sim/resilience.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "obs/numfmt.hh"
#include "sim/runner.hh"
#include "sim/thermal/thermal.hh"
#include "util/hash.hh"

namespace archsim {

using cactid::util::hex16;
using cactid::util::joinFields;
using cactid::util::Tokens;

namespace {

const char *
siteWord(FaultSite site, FaultAction action)
{
    if (site == FaultSite::Solve)
        return "solve";
    if (site == FaultSite::Export)
        return "export";
    return action == FaultAction::Timeout ? "timeout" : "step";
}

} // namespace

const char *
runStatusName(RunStatus s)
{
    switch (s) {
    case RunStatus::Ok:
        return "ok";
    case RunStatus::Failed:
        return "failed";
    case RunStatus::TimedOut:
        return "timed_out";
    case RunStatus::Skipped:
        return "skipped";
    }
    return "failed";
}

bool
parseRunStatus(std::string_view name, RunStatus &out)
{
    for (const RunStatus s :
         {RunStatus::Ok, RunStatus::Failed, RunStatus::TimedOut,
          RunStatus::Skipped}) {
        if (name == runStatusName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

const FaultSpec *
FaultPlan::find(std::size_t run, FaultSite site) const
{
    for (const FaultSpec &f : faults) {
        if (f.run == run && f.site == site)
            return &f;
    }
    return nullptr;
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
        const auto bad = [&]() -> std::invalid_argument {
            return std::invalid_argument("bad fault spec: " + item);
        };
        if (item.empty())
            throw bad();
        const std::size_t at = item.find('@');
        if (at == std::string::npos || at == 0)
            throw bad();
        FaultSpec f;
        char *end = nullptr;
        f.run = std::strtoull(item.c_str(), &end, 10);
        if (end != item.c_str() + at)
            throw bad();

        std::string rest = item.substr(at + 1);
        // Optional transient suffix `xN` (attempts that fail).
        const std::size_t x = rest.rfind('x');
        if (x != std::string::npos && x > 0 &&
            rest.find_first_not_of("0123456789", x + 1) ==
                std::string::npos &&
            x + 1 < rest.size()) {
            f.failAttempts =
                static_cast<int>(std::strtol(rest.c_str() + x + 1,
                                             nullptr, 10));
            if (f.failAttempts <= 0)
                throw bad();
            rest = rest.substr(0, x);
        }
        // Optional `:CYCLE`.
        const std::size_t colon = rest.find(':');
        std::string site = rest.substr(0, colon);
        if (colon != std::string::npos) {
            const char *c = rest.c_str() + colon + 1;
            f.cycle = std::strtoull(c, &end, 10);
            if (end == c || *end != '\0')
                throw bad();
        }
        if (site == "solve") {
            f.site = FaultSite::Solve;
        } else if (site == "step") {
            f.site = FaultSite::Step;
        } else if (site == "timeout") {
            f.site = FaultSite::Step;
            f.action = FaultAction::Timeout;
        } else if (site == "export") {
            f.site = FaultSite::Export;
        } else {
            throw bad();
        }
        plan.faults.push_back(f);
    }
    return plan;
}

FaultPlan
FaultPlan::seeded(std::uint64_t seed, std::size_t n_runs,
                  std::size_t n_faults)
{
    FaultPlan plan;
    if (n_runs == 0)
        return plan;
    n_faults = std::min(n_faults, n_runs);
    Rng rng(seed ^ 0x5eedf417ULL);
    std::vector<bool> used(n_runs, false);
    while (plan.faults.size() < n_faults) {
        const std::size_t run =
            static_cast<std::size_t>(rng.below(n_runs));
        if (used[run])
            continue;
        used[run] = true;
        FaultSpec f;
        f.run = run;
        f.site = FaultSite::Step;
        f.action = FaultAction::Throw;
        f.cycle = 1000 + rng.below(9000);
        plan.faults.push_back(f);
    }
    std::sort(plan.faults.begin(), plan.faults.end(),
              [](const FaultSpec &a, const FaultSpec &b) {
                  return a.run < b.run;
              });
    return plan;
}

std::string
FaultPlan::canonical() const
{
    std::vector<FaultSpec> sorted = faults;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const FaultSpec &a, const FaultSpec &b) {
                         if (a.run != b.run)
                             return a.run < b.run;
                         return static_cast<int>(a.site) <
                                static_cast<int>(b.site);
                     });
    std::string out;
    for (const FaultSpec &f : sorted) {
        if (!out.empty())
            out += ',';
        out += std::to_string(f.run);
        out += '@';
        out += siteWord(f.site, f.action);
        if (f.site == FaultSite::Step && f.cycle != 0)
            out += ':' + std::to_string(f.cycle);
        if (f.failAttempts != std::numeric_limits<int>::max())
            out += 'x' + std::to_string(f.failAttempts);
    }
    return out;
}

std::string
sweepFingerprint(std::uint64_t instr_per_thread, Cycle epoch_cycles,
                 bool thermal, Cycle max_cycles)
{
    std::string s = "cactid-sweep-v1";
    s += "|instr=" + std::to_string(instr_per_thread);
    s += "|epoch=" + std::to_string(epoch_cycles);
    // Events fire at their exact cycles (the one simulation
    // semantics); records keyed "exact=0" came from the retired
    // visited-cycle semantics and re-run.
    s += "|exact=1";
    // Thermal-on keys carry the thermal model's tag, so records
    // holding another model's temperatures never load; thermal-off
    // keys stay "thermal=0".
    s += "|thermal=";
    s += thermal ? std::string("1:") + kThermalModelTag : "0";
    s += "|maxcycles=" + std::to_string(max_cycles);
    return s;
}

namespace {

// One field list per payload line, shared by encode (joinFields) and
// decode (Tokens), so the two can never disagree on order or arity.

template <class S, class F>
auto
statsFields(S &s, F &&f)
{
    return f(s.cycles, s.instructions, s.ipc, s.avgReadLatency,
             s.fInstruction, s.fL2, s.fL3, s.fMemory, s.fBarrier, s.fLock,
             s.hier.l1Reads, s.hier.l1Writes, s.hier.l2Reads,
             s.hier.l2Writes, s.hier.l2Misses, s.hier.xbarTransfers,
             s.hier.c2cTransfers, s.dram.activates, s.dram.reads,
             s.dram.writes, s.dram.rowHits, s.dram.busBytes,
             s.dram.powerDownEntries, s.dram.powerDownCycles,
             s.dram.refreshes, s.memPoweredDownFraction, s.llcReads,
             s.llcWrites, s.llcHits, s.llcMisses, s.llcPageHits,
             s.llcPageMisses);
}

template <class P, class F>
auto
powerFields(P &b, F &&f)
{
    return f(b.l1Leak, b.l1Dyn, b.l2Leak, b.l2Dyn, b.xbarLeak, b.xbarDyn,
             b.l3Leak, b.l3Dyn, b.l3Refresh, b.mainDyn, b.mainStandby,
             b.mainRefresh, b.bus, b.corePower, b.execSeconds);
}

template <class T, class F>
auto
thermalFields(T &t, F &&f)
{
    return f(t.maxTemp, t.maxTempTopDie, t.maxTempBottomDie);
}

template <class E, class F>
auto
epochFields(E &e, F &&f)
{
    return f(e.index, e.beginCycle, e.endCycle, e.instructions, e.l1Reads,
             e.l1Writes, e.l2Reads, e.l2Writes, e.l2Misses,
             e.xbarTransfers, e.llcReads, e.llcWrites, e.llcHits,
             e.llcMisses, e.dramActivates, e.dramReads, e.dramWrites,
             e.dramRowHits, e.dramBusBytes, e.poweredDownFraction, e.ipc,
             e.l2Mpki, e.l3Mpki, e.dramBandwidthGBs, e.memHierPowerW,
             e.stackTempK);
}

/** Undo jsonEscape for the subset it emits (\" \\ \n \r \t \uXXXX). */
std::string
unescape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 >= s.size()) {
            out += s[i];
            continue;
        }
        const char c = s[++i];
        switch (c) {
        case 'n':
            out += '\n';
            break;
        case 'r':
            out += '\r';
            break;
        case 't':
            out += '\t';
            break;
        case 'u':
            if (i + 4 < s.size()) {
                out += static_cast<char>(
                    std::strtol(s.substr(i + 1, 4).c_str(), nullptr,
                                16));
                i += 4;
            }
            break;
        default:
            out += c;
            break;
        }
    }
    return out;
}

} // namespace

CheckpointStore::CheckpointStore(std::string dir,
                                 std::string fingerprint)
    : RecordStore(std::move(dir), "cactid-ckpt-v1"),
      fp_(std::move(fingerprint))
{}

std::uint64_t
CheckpointStore::key(const std::string &config,
                     const std::string &workload) const
{
    return cactid::util::fnv1a64(fp_ + "|" + config + "|" + workload);
}

std::string
CheckpointStore::name(const std::string &config,
                      const std::string &workload) const
{
    return "run-" + hex16(key(config, workload)) + ".ckpt";
}

std::string
CheckpointStore::path(const std::string &config,
                      const std::string &workload) const
{
    return RecordStore::path(name(config, workload));
}

std::string
CheckpointStore::encode(const RunResult &r) const
{
    std::ostringstream os;
    os << "key " << hex16(key(r.config, r.workload)) << "\n";
    os << "config " << r.config << "\n";
    os << "workload " << r.workload << "\n";
    os << "status " << runStatusName(r.status) << "\n";
    os << "attempts " << r.attempts << "\n";
    os << "error.phase " << cactid::obs::jsonEscape(r.error.phase)
       << "\n";
    os << "error.cycle " << r.error.cycle << "\n";
    os << "error.message "
       << cactid::obs::jsonEscape(r.error.message) << "\n";
    os << "stats " << statsFields(r.stats, joinFields) << "\n";
    os << "power " << powerFields(r.power, joinFields) << "\n";
    os << "thermal " << thermalFields(r.thermal, joinFields) << "\n";
    os << "epochs " << r.epochs.size() << "\n";
    for (const EpochSample &e : r.epochs)
        os << "e " << epochFields(e, joinFields) << "\n";
    return seal(os.str());
}

bool
CheckpointStore::save(const RunResult &r, std::string *err) const
{
    return RecordStore::save(name(r.config, r.workload), encode(r),
                             err);
}

CheckpointStore::Load
CheckpointStore::decode(const std::string &bytes, RunResult &out,
                        std::string *why) const
{
    auto rd = open(bytes);
    if (!rd.ok())
        return reject(why, rd.why());

    RunResult r;
    std::string key_hex, v;
    if (!rd.field("key", key_hex) || !rd.field("config", r.config) ||
        !rd.field("workload", r.workload))
        return reject(why, "missing run identity");
    // Reject records keyed under different sweep options: the hash
    // covers the fingerprint, so a stale directory cannot leak runs
    // simulated with, say, a different instruction budget.
    if (key_hex != hex16(key(r.config, r.workload)))
        return reject(why, "sweep key mismatch (stale or alien record)");

    std::string phase, message;
    std::size_t n_epochs = 0;
    bool ok = rd.field("status", v) && parseRunStatus(v, r.status) &&
              rd.field("attempts", v) && Tokens(v)(r.attempts) &&
              r.attempts > 0 && rd.field("error.phase", phase) &&
              rd.field("error.cycle", v) && Tokens(v)(r.error.cycle) &&
              rd.field("error.message", message) &&
              rd.field("stats", v) && statsFields(r.stats, Tokens(v)) &&
              rd.field("power", v) && powerFields(r.power, Tokens(v)) &&
              rd.field("thermal", v) &&
              thermalFields(r.thermal, Tokens(v)) &&
              rd.count("epochs", n_epochs);
    r.epochs.resize(ok ? n_epochs : 0);
    for (EpochSample &e : r.epochs)
        ok = ok && rd.field("e", v) && epochFields(e, Tokens(v));
    if (!ok)
        return reject(why, "malformed payload");
    r.error.phase = unescape(phase);
    r.error.message = unescape(message);
    r.stats.config = r.config;
    r.stats.workload = r.workload;

    // One canonical spelling per record: anything the parse tolerated
    // (leading zeros, stray escapes, trailing tokens or lines) would
    // not re-encode to these bytes.
    if (encode(r) != bytes)
        return reject(why, "non-canonical record");
    out = std::move(r);
    return Load::Loaded;
}

CheckpointStore::Load
CheckpointStore::load(const std::string &config,
                      const std::string &workload, RunResult &out,
                      std::string *why) const
{
    return RecordStore::load(
        name(config, workload), [&](const std::string &bytes) {
            RunResult r;
            const Load got = decode(bytes, r, why);
            if (got != Load::Loaded)
                return got;
            if (r.config != config || r.workload != workload)
                return reject(why, "record of another run (alien)");
            out = std::move(r);
            return Load::Loaded;
        });
}

} // namespace archsim
