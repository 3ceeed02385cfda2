/**
 * @file
 * Memoized solve cache implementation.
 */

#include "core/solve_cache.hh"

#include <cstdio>
#include <sstream>

#include "obs/build_info.hh"
#include "obs/registry.hh"
#include "util/hash.hh"

namespace cactid {

namespace {

// One field list per payload line, shared by encode (joinFields) and
// decode (Tokens), so the two can never disagree on order or arity.

template <class B, class F>
auto
bankFields(B &b, F &&f)
{
    return f(b.part.rowsPerSubarray, b.part.colsPerSubarray, b.part.blMux,
             b.part.samMux, b.nMats, b.gridX, b.gridY, b.nActiveMats,
             b.width, b.height, b.area, b.areaEfficiency, b.accessTime,
             b.randomCycle, b.interleaveCycle, b.tRcd, b.tCas, b.tRp,
             b.tRas, b.tRc, b.tRrd, b.readEnergy, b.writeEnergy,
             b.activateEnergy, b.readBurstEnergy, b.writeBurstEnergy,
             b.leakage, b.refreshPower, b.feasible);
}

/** The roll-up of a solution; its data and tag banks follow it. */
template <class S, class F>
auto
solutionFields(S &s, F &&f)
{
    return f(s.hasTag, s.totalArea, s.bankArea, s.areaEfficiency,
             s.accessTime, s.randomCycle, s.interleaveCycle, s.readEnergy,
             s.writeEnergy, s.leakage, s.refreshPower, s.tRcd, s.tCas,
             s.tRp, s.tRas, s.tRc, s.tRrd, s.activateEnergy,
             s.readBurstEnergy, s.writeBurstEnergy, s.nSubbanks,
             s.objective);
}

template <class E, class F>
auto
statsFields(E &st, F &&f)
{
    return f(st.partitionsEnumerated, st.partitionsInfeasible,
             st.solutionsBuilt, st.areaPruned, st.timePruned,
             st.peakLiveSolutions, st.jobsUsed, st.setupSeconds,
             st.evaluateSeconds, st.filterSeconds, st.totalSeconds);
}

std::string
encodeSolution(const Solution &s)
{
    return solutionFields(s, util::joinFields) + ' ' +
           bankFields(s.data, util::joinFields) + ' ' +
           bankFields(s.tag, util::joinFields);
}

bool
decodeSolution(const std::string &line, Solution &s)
{
    util::Tokens t(line);
    return solutionFields(s, t) && bankFields(s.data, t) &&
           bankFields(s.tag, t);
}

/** Approximate resident size of one cache entry. */
std::size_t
entryBytes(const std::string &key, const SolveResult &res)
{
    // Key bytes + one Solution per stored element (best counts as
    // one) + a fixed allowance for the list/map node bookkeeping.
    return key.size() +
           (res.filtered.size() + res.all.size() + 1) *
               sizeof(Solution) +
           128;
}

} // namespace

SolveCache::SolveCache(SolveCacheConfig cfg)
    : cfg_(std::move(cfg)), disk_(cfg_.diskDir, "cactid-cache-v1")
{
    stamp_ = cfg_.buildStamp.empty() ? defaultBuildStamp()
                                     : cfg_.buildStamp;
    const int n_shards = cfg_.shards < 1 ? 1 : cfg_.shards;
    shards_.reserve(static_cast<std::size_t>(n_shards));
    for (int i = 0; i < n_shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
    const std::size_t n = shards_.size();
    maxEntriesPerShard_ =
        cfg_.maxEntries / n > 0 ? cfg_.maxEntries / n : 1;
    maxBytesPerShard_ = cfg_.maxBytes / n > 0 ? cfg_.maxBytes / n : 1;
    if (!cfg_.diskDir.empty())
        disk_.ensureDir(&diskError_);
}

std::string
SolveCache::defaultBuildStamp()
{
    const obs::BuildInfo &b = obs::buildInfo();
    std::string s = "cactid-build|" + b.gitDescribe + "|" +
                    b.compiler + "|" + b.flags + "|" + b.buildType +
                    "|" + (b.tracingCompiled ? "trace" : "notrace");
    return util::hex16(util::fnv1a64(s));
}

SolveCache::Shard &
SolveCache::shardFor(const ConfigFingerprint &fp)
{
    return *shards_[(fp.lo ^ fp.hi) % shards_.size()];
}

bool
SolveCache::lookup(const ConfigFingerprint &fp, const std::string &key,
                   bool want_all, SolveResult &out)
{
    Shard &sh = shardFor(fp);
    {
        std::lock_guard<std::mutex> lock(sh.mtx);
        const auto it = sh.index.find(fp.lo);
        if (it != sh.index.end()) {
            Entry &e = *it->second;
            if (e.fp == fp && e.key == key &&
                (e.hasAll || !want_all)) {
                sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
                out = e.res;
                if (!want_all)
                    out.all.clear();
                hits_.fetch_add(1, std::memory_order_relaxed);
                return true;
            }
        }
    }
    if (!cfg_.diskDir.empty() &&
        diskLookup(fp, key, want_all, out)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        diskHits_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

bool
SolveCache::diskLookup(const ConfigFingerprint &fp,
                       const std::string &key, bool want_all,
                       SolveResult &out)
{
    SolveResult res;
    bool has_all = false;
    std::string why;
    const util::RecordStore::Load got =
        disk_.load(recordName(fp), [&](const std::string &bytes) {
            return decodeRecord(bytes, fp, key, res, has_all, &why);
        });
    if (got == util::RecordStore::Load::Missing)
        return false; // a plain miss
    if (got == util::RecordStore::Load::Rejected) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        warnOnce("rejected cache record " + recordPath(fp) + ": " + why);
        return false;
    }
    if (!has_all && want_all)
        return false; // memoized without `all`; must re-solve
    {
        Shard &sh = shardFor(fp);
        std::lock_guard<std::mutex> lock(sh.mtx);
        storeLocked(sh, fp, key, res, has_all);
    }
    out = std::move(res);
    if (!want_all)
        out.all.clear();
    return true;
}

void
SolveCache::storeLocked(Shard &sh, const ConfigFingerprint &fp,
                        const std::string &key, const SolveResult &res,
                        bool has_all)
{
    const auto it = sh.index.find(fp.lo);
    if (it != sh.index.end()) {
        sh.bytes -= it->second->bytes;
        sh.lru.erase(it->second);
        sh.index.erase(it);
    }
    Entry e;
    e.fp = fp;
    e.key = key;
    e.res = res;
    e.hasAll = has_all;
    e.bytes = entryBytes(key, res);
    sh.bytes += e.bytes;
    sh.lru.push_front(std::move(e));
    sh.index[fp.lo] = sh.lru.begin();
    // Enforce the per-shard bounds, never evicting the sole entry (a
    // single oversized result is still worth memoizing).
    while (sh.lru.size() > 1 &&
           (sh.lru.size() > maxEntriesPerShard_ ||
            sh.bytes > maxBytesPerShard_)) {
        const Entry &victim = sh.lru.back();
        sh.bytes -= victim.bytes;
        sh.index.erase(victim.fp.lo);
        sh.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
SolveCache::insert(const ConfigFingerprint &fp, const std::string &key,
                   const SolveResult &res, bool has_all)
{
    {
        Shard &sh = shardFor(fp);
        std::lock_guard<std::mutex> lock(sh.mtx);
        storeLocked(sh, fp, key, res, has_all);
    }
    inserts_.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.diskDir.empty())
        return;
    std::string err;
    if (disk_.save(recordName(fp), encodeRecord(key, res, has_all),
                   &err))
        diskWrites_.fetch_add(1, std::memory_order_relaxed);
    else
        warnOnce("cache record write failed: " + err);
}

SolveCacheCounters
SolveCache::counters() const
{
    SolveCacheCounters c;
    c.hits = hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.evictions = evictions_.load(std::memory_order_relaxed);
    c.inserts = inserts_.load(std::memory_order_relaxed);
    c.diskHits = diskHits_.load(std::memory_order_relaxed);
    c.diskWrites = diskWrites_.load(std::memory_order_relaxed);
    c.rejected = rejected_.load(std::memory_order_relaxed);
    for (const auto &sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mtx);
        c.entries += sh->lru.size();
        c.bytes += sh->bytes;
    }
    return c;
}

std::string
SolveCache::recordName(const ConfigFingerprint &fp)
{
    return "sc-" + fp.hex() + ".v1";
}

std::string
SolveCache::recordPath(const ConfigFingerprint &fp) const
{
    if (cfg_.diskDir.empty())
        return {};
    return disk_.path(recordName(fp));
}

std::string
SolveCache::encodeRecord(const std::string &key,
                         const SolveResult &res, bool has_all) const
{
    std::ostringstream os;
    os << "build " << stamp_ << "\n";
    os << "key " << key << "\n";
    os << "hasall " << (has_all ? 1 : 0) << "\n";
    os << "stats " << statsFields(res.stats, util::joinFields) << "\n";
    os << "best " << encodeSolution(res.best) << "\n";
    os << "filtered " << res.filtered.size() << "\n";
    for (const Solution &s : res.filtered)
        os << "s " << encodeSolution(s) << "\n";
    os << "all " << res.all.size() << "\n";
    for (const Solution &s : res.all)
        os << "s " << encodeSolution(s) << "\n";
    return disk_.seal(os.str());
}

util::RecordStore::Load
SolveCache::decodeRecord(const std::string &bytes,
                         const ConfigFingerprint &fp,
                         const std::string &key, SolveResult &out,
                         bool &has_all, std::string *why) const
{
    using util::RecordStore;
    auto rd = disk_.open(bytes);
    if (!rd.ok())
        return RecordStore::reject(why, rd.why());

    std::string v;
    if (!rd.field("build", v))
        return RecordStore::reject(why, "missing build stamp");
    if (v != stamp_)
        return RecordStore::reject(
            why, "build fingerprint mismatch (record " + v +
                     ", binary " + stamp_ + ")");
    if (!rd.field("key", v) || v != key || keyFingerprint(v) != fp)
        return RecordStore::reject(
            why, "canonical key mismatch (alien record)");

    SolveResult res;
    bool all = false;
    const auto list = [&](const char *name, std::vector<Solution> &l) {
        std::size_t n = 0;
        bool ok = rd.count(name, n);
        l.resize(ok ? n : 0);
        for (Solution &s : l)
            ok = ok && rd.field("s", v) && decodeSolution(v, s);
        return ok;
    };
    const bool ok = rd.field("hasall", v) && util::Tokens(v)(all) &&
                    rd.field("stats", v) &&
                    statsFields(res.stats, util::Tokens(v)) &&
                    rd.field("best", v) && decodeSolution(v, res.best) &&
                    list("filtered", res.filtered) &&
                    list("all", res.all);
    if (!ok)
        return RecordStore::reject(why, "malformed payload");

    // One canonical spelling per record: anything the parse tolerated
    // (leading zeros, trailing tokens or lines) would not re-encode to
    // these bytes.
    if (encodeRecord(key, res, all) != bytes)
        return RecordStore::reject(why, "non-canonical record");
    has_all = all;
    out = std::move(res);
    return RecordStore::Load::Loaded;
}

void
SolveCache::warnOnce(const std::string &msg)
{
    if (cfg_.onWarn) {
        cfg_.onWarn(msg);
        return;
    }
    if (!warned_.exchange(true))
        std::fprintf(stderr, "cactid: %s\n", msg.c_str());
}

void
registerSolveCacheStats(obs::Registry &r, const SolveCacheCounters &c)
{
    // Every name is written even at zero so enabled-but-unhit caches
    // dump the full label set (shard merges must agree on names).
    r.counter("engine.cache.hits") = c.hits;
    r.counter("engine.cache.misses") = c.misses;
    r.counter("engine.cache.evictions") = c.evictions;
    r.counter("engine.cache.inserts") = c.inserts;
    r.counter("engine.cache.disk_hits") = c.diskHits;
    r.counter("engine.cache.disk_writes") = c.diskWrites;
    r.counter("engine.cache.rejected") = c.rejected;
    r.counter("engine.cache.entries") = c.entries;
    r.counter("engine.cache.bytes") = c.bytes;
}

namespace {
std::atomic<SolveCache *> g_cache{nullptr};
} // namespace

SolveCache *
globalSolveCache()
{
    return g_cache.load(std::memory_order_acquire);
}

void
setGlobalSolveCache(SolveCache *cache)
{
    g_cache.store(cache, std::memory_order_release);
}

} // namespace cactid
