/**
 * @file
 * Fault plans and the per-run checkpoint store.
 */

#include "sim/resilience.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include <sys/stat.h>

#include "obs/numfmt.hh"
#include "sim/runner.hh"
#include "sim/thermal/thermal.hh"
#include "util/atomic_file.hh"
#include "util/hash.hh"

namespace archsim {

namespace {

std::string
num(double v)
{
    return cactid::obs::fmtDouble(v);
}

std::string
hex16(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

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

std::uint64_t
fnv1a64(std::string_view data)
{
    // One shared implementation: checkpoint records and solve-cache
    // records must keep hashing identically.
    return cactid::util::fnv1a64(data);
}

std::string
sweepFingerprint(std::uint64_t instr_per_thread, Cycle epoch_cycles,
                 bool exact_events, bool thermal, Cycle max_cycles)
{
    std::string s = "cactid-sweep-v1";
    s += "|instr=" + std::to_string(instr_per_thread);
    s += "|epoch=" + std::to_string(epoch_cycles);
    s += "|exact=" + std::to_string(exact_events ? 1 : 0);
    // Thermal-on keys carry the thermal model's tag, so records
    // holding another model's temperatures never load; thermal-off
    // keys stay "thermal=0".
    s += "|thermal=";
    s += thermal ? std::string("1:") + kThermalModelTag : "0";
    s += "|maxcycles=" + std::to_string(max_cycles);
    return s;
}

CheckpointStore::CheckpointStore(std::string dir,
                                 std::string fingerprint)
    : dir_(std::move(dir)), fp_(std::move(fingerprint))
{}

bool
CheckpointStore::ensureDir(std::string *err) const
{
    if (::mkdir(dir_.c_str(), 0755) == 0 || errno == EEXIST)
        return true;
    if (err)
        *err = "cannot create checkpoint directory " + dir_;
    return false;
}

std::string
CheckpointStore::path(const std::string &config,
                      const std::string &workload) const
{
    const std::uint64_t key =
        fnv1a64(fp_ + "|" + config + "|" + workload);
    return dir_ + "/run-" + hex16(key) + ".ckpt";
}

std::string
CheckpointStore::encode(const RunResult &r) const
{
    const std::uint64_t key =
        fnv1a64(fp_ + "|" + r.config + "|" + r.workload);
    std::ostringstream os;
    os << "cactid-ckpt-v1\n";
    os << "key " << hex16(key) << "\n";
    os << "config " << r.config << "\n";
    os << "workload " << r.workload << "\n";
    os << "status " << runStatusName(r.status) << "\n";
    os << "attempts " << r.attempts << "\n";
    os << "error.phase " << cactid::obs::jsonEscape(r.error.phase)
       << "\n";
    os << "error.cycle " << r.error.cycle << "\n";
    os << "error.message "
       << cactid::obs::jsonEscape(r.error.message) << "\n";

    const SimStats &s = r.stats;
    os << "stats " << s.cycles << ' ' << s.instructions << ' '
       << num(s.ipc) << ' ' << num(s.avgReadLatency) << ' '
       << num(s.fInstruction) << ' ' << num(s.fL2) << ' '
       << num(s.fL3) << ' ' << num(s.fMemory) << ' '
       << num(s.fBarrier) << ' ' << num(s.fLock) << ' '
       << s.hier.l1Reads << ' ' << s.hier.l1Writes << ' '
       << s.hier.l2Reads << ' ' << s.hier.l2Writes << ' '
       << s.hier.l2Misses << ' ' << s.hier.xbarTransfers << ' '
       << s.hier.c2cTransfers << ' ' << s.dram.activates << ' '
       << s.dram.reads << ' ' << s.dram.writes << ' '
       << s.dram.rowHits << ' ' << s.dram.busBytes << ' '
       << s.dram.powerDownEntries << ' ' << s.dram.powerDownCycles
       << ' ' << s.dram.refreshes << ' '
       << num(s.memPoweredDownFraction) << ' ' << s.llcReads << ' '
       << s.llcWrites << ' ' << s.llcHits << ' ' << s.llcMisses << ' '
       << s.llcPageHits << ' ' << s.llcPageMisses << "\n";

    const PowerBreakdown &b = r.power;
    os << "power " << num(b.l1Leak) << ' ' << num(b.l1Dyn) << ' '
       << num(b.l2Leak) << ' ' << num(b.l2Dyn) << ' '
       << num(b.xbarLeak) << ' ' << num(b.xbarDyn) << ' '
       << num(b.l3Leak) << ' ' << num(b.l3Dyn) << ' '
       << num(b.l3Refresh) << ' ' << num(b.mainDyn) << ' '
       << num(b.mainStandby) << ' ' << num(b.mainRefresh) << ' '
       << num(b.bus) << ' ' << num(b.corePower) << ' '
       << num(b.execSeconds) << "\n";

    os << "thermal " << num(r.thermal.maxTemp) << ' '
       << num(r.thermal.maxTempTopDie) << ' '
       << num(r.thermal.maxTempBottomDie) << "\n";

    os << "epochs " << r.epochs.size() << "\n";
    for (const EpochSample &e : r.epochs) {
        os << "e " << e.index << ' ' << e.beginCycle << ' '
           << e.endCycle << ' ' << e.instructions << ' ' << e.l1Reads
           << ' ' << e.l1Writes << ' ' << e.l2Reads << ' '
           << e.l2Writes << ' ' << e.l2Misses << ' '
           << e.xbarTransfers << ' ' << e.llcReads << ' '
           << e.llcWrites << ' ' << e.llcHits << ' ' << e.llcMisses
           << ' ' << e.dramActivates << ' ' << e.dramReads << ' '
           << e.dramWrites << ' ' << e.dramRowHits << ' '
           << e.dramBusBytes << ' ' << num(e.poweredDownFraction)
           << ' ' << num(e.ipc) << ' ' << num(e.l2Mpki) << ' '
           << num(e.l3Mpki) << ' ' << num(e.dramBandwidthGBs) << ' '
           << num(e.memHierPowerW) << ' ' << num(e.stackTempK)
           << "\n";
    }
    std::string body = os.str();
    body += "crc " + hex16(fnv1a64(body)) + "\n";
    return body;
}

bool
CheckpointStore::save(const RunResult &r, std::string *err) const
{
    return cactid::util::writeFileAtomic(path(r.config, r.workload),
                                         encode(r), err);
}

namespace {

/** Pull the `word rest-of-line` lines of a record apart. */
class RecordReader
{
  public:
    explicit RecordReader(const std::string &bytes) : ss_(bytes) {}

    /** Next line; false at end of record. */
    bool
    next(std::string &line)
    {
        return static_cast<bool>(std::getline(ss_, line));
    }

    /** Expect a `key value` line; value is the rest of the line. */
    bool
    field(const char *key, std::string &value)
    {
        std::string line;
        if (!next(line))
            return false;
        const std::string prefix = std::string(key) + " ";
        if (line.compare(0, prefix.size(), prefix) != 0) {
            // `key` alone (empty value) is also accepted.
            if (line == key) {
                value.clear();
                return true;
            }
            return false;
        }
        value = line.substr(prefix.size());
        return true;
    }

  private:
    std::istringstream ss_;
};

bool
parseU64(std::istringstream &ss, std::uint64_t &out)
{
    return static_cast<bool>(ss >> out);
}

bool
parseDouble(std::istringstream &ss, double &out)
{
    std::string tok;
    if (!(ss >> tok))
        return false;
    char *end = nullptr;
    out = std::strtod(tok.c_str(), &end);
    return end == tok.c_str() + tok.size();
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

CheckpointStore::Load
CheckpointStore::decode(const std::string &bytes,
                        RunResult &out) const
{
    // Integrity first: the record must end with a `crc` line whose
    // FNV-1a matches everything before it.  A torn write (partial
    // payload, missing tail) or a flipped byte both fail here.
    const std::size_t crc_pos = bytes.rfind("crc ");
    if (crc_pos == std::string::npos ||
        (crc_pos != 0 && bytes[crc_pos - 1] != '\n'))
        return Load::Invalid;
    // The crc must be the exact final line ("crc " + 16 hex + "\n"):
    // a stripped newline or appended bytes are torn records too.
    const std::string_view tail =
        std::string_view(bytes).substr(crc_pos);
    if (tail.size() != 4 + 16 + 1 || tail.back() != '\n')
        return Load::Invalid;
    const std::string crc_hex(tail.substr(4, 16));
    if (crc_hex.find_first_not_of("0123456789abcdef") !=
        std::string::npos)
        return Load::Invalid;
    if (std::strtoull(crc_hex.c_str(), nullptr, 16) !=
        fnv1a64(std::string_view(bytes).substr(0, crc_pos)))
        return Load::Invalid;

    RecordReader rd(bytes);
    std::string line, v;
    if (!rd.next(line) || line != "cactid-ckpt-v1")
        return Load::Invalid;

    RunResult r;
    std::string key_hex;
    if (!rd.field("key", key_hex))
        return Load::Invalid;
    if (!rd.field("config", r.config) ||
        !rd.field("workload", r.workload))
        return Load::Invalid;
    // Reject records keyed under different sweep options: the hash
    // covers the fingerprint, so a stale directory cannot leak runs
    // simulated with, say, a different instruction budget.
    const std::uint64_t want =
        fnv1a64(fp_ + "|" + r.config + "|" + r.workload);
    if (std::strtoull(key_hex.c_str(), nullptr, 16) != want)
        return Load::Invalid;

    if (!rd.field("status", v) || !parseRunStatus(v, r.status))
        return Load::Invalid;
    if (!rd.field("attempts", v))
        return Load::Invalid;
    r.attempts = std::atoi(v.c_str());
    if (r.attempts <= 0)
        return Load::Invalid;
    if (!rd.field("error.phase", v))
        return Load::Invalid;
    r.error.phase = unescape(v);
    if (!rd.field("error.cycle", v))
        return Load::Invalid;
    r.error.cycle = std::strtoull(v.c_str(), nullptr, 10);
    if (!rd.field("error.message", v))
        return Load::Invalid;
    r.error.message = unescape(v);

    if (!rd.field("stats", v))
        return Load::Invalid;
    {
        std::istringstream ss(v);
        SimStats &s = r.stats;
        HierCounters &h = s.hier;
        DramCounters &d = s.dram;
        const bool ok =
            parseU64(ss, s.cycles) && parseU64(ss, s.instructions) &&
            parseDouble(ss, s.ipc) &&
            parseDouble(ss, s.avgReadLatency) &&
            parseDouble(ss, s.fInstruction) &&
            parseDouble(ss, s.fL2) && parseDouble(ss, s.fL3) &&
            parseDouble(ss, s.fMemory) &&
            parseDouble(ss, s.fBarrier) && parseDouble(ss, s.fLock) &&
            parseU64(ss, h.l1Reads) && parseU64(ss, h.l1Writes) &&
            parseU64(ss, h.l2Reads) && parseU64(ss, h.l2Writes) &&
            parseU64(ss, h.l2Misses) &&
            parseU64(ss, h.xbarTransfers) &&
            parseU64(ss, h.c2cTransfers) &&
            parseU64(ss, d.activates) && parseU64(ss, d.reads) &&
            parseU64(ss, d.writes) && parseU64(ss, d.rowHits) &&
            parseU64(ss, d.busBytes) &&
            parseU64(ss, d.powerDownEntries) &&
            parseU64(ss, d.powerDownCycles) &&
            parseU64(ss, d.refreshes) &&
            parseDouble(ss, s.memPoweredDownFraction) &&
            parseU64(ss, s.llcReads) && parseU64(ss, s.llcWrites) &&
            parseU64(ss, s.llcHits) && parseU64(ss, s.llcMisses) &&
            parseU64(ss, s.llcPageHits) &&
            parseU64(ss, s.llcPageMisses);
        if (!ok)
            return Load::Invalid;
        s.config = r.config;
        s.workload = r.workload;
    }

    if (!rd.field("power", v))
        return Load::Invalid;
    {
        std::istringstream ss(v);
        PowerBreakdown &b = r.power;
        const bool ok =
            parseDouble(ss, b.l1Leak) && parseDouble(ss, b.l1Dyn) &&
            parseDouble(ss, b.l2Leak) && parseDouble(ss, b.l2Dyn) &&
            parseDouble(ss, b.xbarLeak) &&
            parseDouble(ss, b.xbarDyn) && parseDouble(ss, b.l3Leak) &&
            parseDouble(ss, b.l3Dyn) && parseDouble(ss, b.l3Refresh) &&
            parseDouble(ss, b.mainDyn) &&
            parseDouble(ss, b.mainStandby) &&
            parseDouble(ss, b.mainRefresh) && parseDouble(ss, b.bus) &&
            parseDouble(ss, b.corePower) &&
            parseDouble(ss, b.execSeconds);
        if (!ok)
            return Load::Invalid;
    }

    if (!rd.field("thermal", v))
        return Load::Invalid;
    {
        std::istringstream ss(v);
        const bool ok = parseDouble(ss, r.thermal.maxTemp) &&
                        parseDouble(ss, r.thermal.maxTempTopDie) &&
                        parseDouble(ss, r.thermal.maxTempBottomDie);
        if (!ok)
            return Load::Invalid;
    }

    if (!rd.field("epochs", v))
        return Load::Invalid;
    const std::size_t n_epochs = std::strtoull(v.c_str(), nullptr, 10);
    r.epochs.reserve(n_epochs);
    for (std::size_t i = 0; i < n_epochs; ++i) {
        if (!rd.field("e", v))
            return Load::Invalid;
        std::istringstream ss(v);
        EpochSample e;
        std::uint64_t idx = 0;
        const bool ok =
            parseU64(ss, idx) && parseU64(ss, e.beginCycle) &&
            parseU64(ss, e.endCycle) &&
            parseU64(ss, e.instructions) && parseU64(ss, e.l1Reads) &&
            parseU64(ss, e.l1Writes) && parseU64(ss, e.l2Reads) &&
            parseU64(ss, e.l2Writes) && parseU64(ss, e.l2Misses) &&
            parseU64(ss, e.xbarTransfers) &&
            parseU64(ss, e.llcReads) && parseU64(ss, e.llcWrites) &&
            parseU64(ss, e.llcHits) && parseU64(ss, e.llcMisses) &&
            parseU64(ss, e.dramActivates) &&
            parseU64(ss, e.dramReads) && parseU64(ss, e.dramWrites) &&
            parseU64(ss, e.dramRowHits) &&
            parseU64(ss, e.dramBusBytes) &&
            parseDouble(ss, e.poweredDownFraction) &&
            parseDouble(ss, e.ipc) && parseDouble(ss, e.l2Mpki) &&
            parseDouble(ss, e.l3Mpki) &&
            parseDouble(ss, e.dramBandwidthGBs) &&
            parseDouble(ss, e.memHierPowerW) &&
            parseDouble(ss, e.stackTempK);
        if (!ok)
            return Load::Invalid;
        e.index = static_cast<int>(idx);
        r.epochs.push_back(e);
    }

    out = std::move(r);
    return Load::Loaded;
}

CheckpointStore::Load
CheckpointStore::load(const std::string &config,
                      const std::string &workload,
                      RunResult &out) const
{
    std::string bytes;
    if (!cactid::util::readFile(path(config, workload), bytes))
        return Load::Missing;
    const Load res = decode(bytes, out);
    if (res == Load::Loaded &&
        (out.config != config || out.workload != workload))
        return Load::Invalid;
    return res;
}

} // namespace archsim
