/**
 * @file
 * The shared on-disk record store (util/record_store.hh) and both of
 * its codecs: the sweep checkpoint (`cactid-ckpt-v1`) and the solve
 * cache's disk tier (`cactid-cache-v1`).
 *
 * Three claims: the frame rejects torn, corrupt and alien bytes with
 * a reason; the bytes of each record format are pinned (so a format
 * change is a deliberate, visible edit); and a seeded mutation fuzz
 * of both payload parsers never throws, never loads a record that
 * does not re-encode to the same bytes, and never trusts a count
 * larger than the record.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/fingerprint.hh"
#include "core/solve_cache.hh"
#include "sim/resilience.hh"
#include "sim/runner.hh"
#include "util/hash.hh"
#include "util/record_store.hh"

using cactid::util::RecordReader;
using cactid::util::RecordStore;
using cactid::util::Tokens;

namespace {

using Load = RecordStore::Load;

/** A fixed synthetic run: every field kind, escapes, two epochs. */
archsim::RunResult
pinnedRun()
{
    archsim::RunResult r;
    r.config = "sram";
    r.workload = "ft.B";
    r.status = archsim::RunStatus::TimedOut;
    r.attempts = 2;
    r.error.phase = "sim";
    r.error.cycle = 50017;
    r.error.message = "budget \"50000\" hit\tat\n50017";
    archsim::SimStats &s = r.stats;
    s.cycles = 50017;
    s.instructions = 123456;
    s.ipc = 0.1;
    s.avgReadLatency = 42.5;
    s.fMemory = 1.0 / 3.0;
    s.hier.l1Reads = 9000;
    s.hier.c2cTransfers = 7;
    s.dram.refreshes = 3;
    s.memPoweredDownFraction = 0.25;
    s.llcPageMisses = 11;
    r.power.l1Leak = 1e-3;
    r.power.mainRefresh = 2.5e-12;
    r.power.execSeconds = 1.2345678901234567e-5;
    r.thermal.maxTemp = 351.25;
    r.thermal.maxTempTopDie = 351.25;
    r.thermal.maxTempBottomDie = 349.0;
    for (int i = 0; i < 2; ++i) {
        archsim::EpochSample e;
        e.index = i;
        e.beginCycle = 20000u * static_cast<unsigned>(i);
        e.endCycle = e.beginCycle + 20000;
        e.instructions = 1000u + static_cast<unsigned>(i);
        e.dramBusBytes = 64u * static_cast<unsigned>(i + 3);
        e.poweredDownFraction = 0.5;
        e.ipc = 0.05 * (i + 1);
        e.stackTempK = 350.0 + i;
        r.epochs.push_back(e);
    }
    return r;
}

cactid::Solution
pinnedSolution(int salt)
{
    cactid::Solution s;
    s.hasTag = salt % 2 == 0;
    s.totalArea = 1.5e-6 * (salt + 1);
    s.accessTime = 1e-9 * (salt + 1);
    s.readEnergy = 0.1;
    s.nSubbanks = 4;
    s.objective = salt;
    s.data.part.rowsPerSubarray = 512;
    s.data.part.colsPerSubarray = 1024;
    s.data.part.blMux = 2;
    s.data.part.samMux = 1;
    s.data.nMats = 16;
    s.data.accessTime = 7.5e-10;
    s.data.feasible = true;
    s.tag.nMats = salt;
    return s;
}

/** A fixed synthetic solve: best, two survivors, three in `all`. */
cactid::SolveResult
pinnedSolve()
{
    cactid::SolveResult r;
    r.best = pinnedSolution(0);
    r.filtered = {pinnedSolution(0), pinnedSolution(1)};
    r.all = {pinnedSolution(0), pinnedSolution(1), pinnedSolution(2)};
    r.stats.partitionsEnumerated = 4096;
    r.stats.partitionsInfeasible = 96;
    r.stats.solutionsBuilt = 4000;
    r.stats.areaPruned = 12;
    r.stats.timePruned = 3;
    r.stats.peakLiveSolutions = 40;
    r.stats.jobsUsed = 4;
    r.stats.setupSeconds = 0.125;
    r.stats.evaluateSeconds = 0.2;
    r.stats.filterSeconds = 3e-4;
    r.stats.totalSeconds = 0.3253;
    return r;
}

const char *const kPinnedFingerprint = "fp-pinned";
const char *const kPinnedKey = "cactid-key|pinned";
const char *const kPinnedStamp = "stamp-pinned";

// Captured from the encoders before the two codecs moved onto the
// shared store; records written by either side must load on the
// other, so these bytes may only change with a new format version.
const char *const kPinnedCheckpoint =
    "cactid-ckpt-v1\n"
    "key 6799c28efdeefb4f\n"
    "config sram\n"
    "workload ft.B\n"
    "status timed_out\n"
    "attempts 2\n"
    "error.phase sim\n"
    "error.cycle 50017\n"
    "error.message budget \\\"50000\\\" hit\\tat\\n50017\n"
    "stats 50017 123456 0.10000000000000001 42.5 0 0 0 0.33333333"
    "333333331 0 0 9000 0 0 0 0 0 7 0 0 0 0 0 0 0 3 0.25 0 0 0 0 "
    "0 11\n"
    "power 0.001 0 0 0 0 0 0 0 0 0 0 2.4999999999999998e-12 0 0 1"
    ".2345678901234568e-05\n"
    "thermal 351.25 351.25 349\n"
    "epochs 2\n"
    "e 0 0 20000 1000 0 0 0 0 0 0 0 0 0 0 0 0 0 0 192 0.5 0.05000"
    "0000000000003 0 0 0 0 350\n"
    "e 1 20000 40000 1001 0 0 0 0 0 0 0 0 0 0 0 0 0 0 256 0.5 0.1"
    "0000000000000001 0 0 0 0 351\n"
    "crc df862c1183f02e5b\n";
const char *const kPinnedCacheRecord =
    "cactid-cache-v1\n"
    "build stamp-pinned\n"
    "key cactid-key|pinned\n"
    "hasall 1\n"
    "stats 4096 96 4000 12 3 40 4 0.125 0.20000000000000001 0.000"
    "29999999999999997 0.32529999999999998\n"
    "best 1 1.5e-06 0 0 1.0000000000000001e-09 0 0 0.100000000000"
    "00001 0 0 0 0 0 0 0 0 0 0 0 0 4 0 512 1024 2 1 16 0 0 0 0 0 "
    "0 0 7.5e-10 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 1 1 0 0 0 0 "
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
    "filtered 2\n"
    "s 1 1.5e-06 0 0 1.0000000000000001e-09 0 0 0.100000000000000"
    "01 0 0 0 0 0 0 0 0 0 0 0 0 4 0 512 1024 2 1 16 0 0 0 0 0 0 0"
    " 7.5e-10 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 1 1 0 0 0 0 0 0"
    " 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
    "s 0 3.0000000000000001e-06 0 0 2.0000000000000001e-09 0 0 0."
    "10000000000000001 0 0 0 0 0 0 0 0 0 0 0 0 4 1 512 1024 2 1 1"
    "6 0 0 0 0 0 0 0 7.5e-10 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 "
    "1 1 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
    "all 3\n"
    "s 1 1.5e-06 0 0 1.0000000000000001e-09 0 0 0.100000000000000"
    "01 0 0 0 0 0 0 0 0 0 0 0 0 4 0 512 1024 2 1 16 0 0 0 0 0 0 0"
    " 7.5e-10 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 1 1 0 0 0 0 0 0"
    " 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
    "s 0 3.0000000000000001e-06 0 0 2.0000000000000001e-09 0 0 0."
    "10000000000000001 0 0 0 0 0 0 0 0 0 0 0 0 4 1 512 1024 2 1 1"
    "6 0 0 0 0 0 0 0 7.5e-10 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 "
    "1 1 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
    "s 1 4.5000000000000001e-06 0 0 3.0000000000000004e-09 0 0 0."
    "10000000000000001 0 0 0 0 0 0 0 0 0 0 0 0 4 2 512 1024 2 1 1"
    "6 0 0 0 0 0 0 0 7.5e-10 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 "
    "1 1 2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
    "crc b261b39eeda35eb2\n";

/** Replace the crc trailer of @p body (no trailer) with a valid one. */
std::string
reseal(std::string body)
{
    body += "crc " + cactid::util::hex16(cactid::util::fnv1a64(body)) +
            "\n";
    return body;
}

/** @p rec without its 21-byte crc trailer. */
std::string
unsealed(const std::string &rec)
{
    return rec.substr(0, rec.size() - 21);
}

/** Split @p s into lines, each keeping its '\n'. */
std::vector<std::string>
splitLines(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        const std::size_t nl = s.find('\n', pos);
        const std::size_t end = nl == std::string::npos ? s.size() : nl + 1;
        out.push_back(s.substr(pos, end - pos));
        pos = end;
    }
    return out;
}

/**
 * One seeded mutation of a sealed record: truncate, flip a byte,
 * duplicate / drop a line or inflate a number, then (mostly) re-seal
 * the crc so the payload parser is what gets tested.
 */
std::string
mutate(const std::string &rec, std::mt19937_64 &rng)
{
    std::string body = unsealed(rec);
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const int edits = 1 + static_cast<int>(pick(3));
    for (int k = 0; k < edits && !body.empty(); ++k) {
        switch (pick(5)) {
        case 0: // truncate after a whole line (keeps the frame valid)
            body.resize(body.rfind('\n', pick(body.size())) + 1);
            break;
        case 1: // flip one byte
            body[pick(body.size())] ^=
                static_cast<char>(1 + pick(255));
            break;
        case 2: { // duplicate a line
            std::vector<std::string> lines = splitLines(body);
            const std::size_t i = pick(lines.size());
            lines.insert(lines.begin() + static_cast<long>(i), lines[i]);
            body.clear();
            for (const std::string &l : lines)
                body += l;
            break;
        }
        case 3: { // drop a line
            std::vector<std::string> lines = splitLines(body);
            lines.erase(lines.begin() + static_cast<long>(pick(lines.size())));
            body.clear();
            for (const std::string &l : lines)
                body += l;
            break;
        }
        default: { // inflate a number
            static const char *const kHuge[] = {
                "4000000000000000000", "18446744073709551616",
                "99999999999", "1e400", "-1", "007"};
            const std::size_t at = body.find_first_of(
                "0123456789", pick(body.size()));
            if (at == std::string::npos)
                break;
            const std::size_t end =
                body.find_first_not_of("0123456789", at);
            body.replace(at, (end == std::string::npos ? body.size() : end) - at,
                         kHuge[pick(6)]);
            break;
        }
        }
    }
    // One case in eight keeps a stale trailer: the frame check's turn.
    return pick(8) == 0 ? body + rec.substr(rec.size() - 21) : reseal(body);
}

/** Outcome tally of one fuzz campaign. */
struct FuzzTally {
    int loaded = 0;
    int frameRejects = 0;   ///< crc / header failures
    int payloadRejects = 0; ///< rejected by the codec itself
};

void
tally(FuzzTally &t, Load got, const std::string &why)
{
    if (got == Load::Loaded) {
        ++t.loaded;
        return;
    }
    const bool frame = why.find("crc") != std::string::npos ||
                       why.find("version header") != std::string::npos;
    ++(frame ? t.frameRejects : t.payloadRejects);
}

constexpr int kMutations = 3000;

} // namespace

// ---------------------------------------------------------------- //
// The shared frame, reader and token parsers                       //
// ---------------------------------------------------------------- //

TEST(RecordStore, SealedPayloadReadsBackLineByLine)
{
    const RecordStore store("", "test-v1");
    const std::string rec = store.seal("a 1\nname x y\nn 2\ns 1\ns 2\n");
    EXPECT_EQ(rec.rfind("test-v1\na 1\n", 0), 0u);
    EXPECT_EQ(rec, reseal(unsealed(rec)));

    RecordReader rd(rec, "test-v1");
    ASSERT_TRUE(rd.ok()) << rd.why();
    std::string v;
    std::size_t n = 0;
    EXPECT_FALSE(rd.field("b", v)); // wrong key leaves the line
    ASSERT_TRUE(rd.field("a", v));
    EXPECT_EQ(v, "1");
    ASSERT_TRUE(rd.field("name", v));
    EXPECT_EQ(v, "x y");
    ASSERT_TRUE(rd.count("n", n));
    EXPECT_EQ(n, 2u);
    ASSERT_TRUE(rd.field("s", v));
    ASSERT_TRUE(rd.field("s", v));
    EXPECT_EQ(v, "2");
    EXPECT_FALSE(rd.field("s", v)); // end of payload
}

TEST(RecordStore, FrameDefectsAreRejectedWithAReason)
{
    const RecordStore store("", "test-v1");
    const std::string good = store.seal("a 1\n");
    const auto why = [](const std::string &bytes) {
        RecordReader rd(bytes, "test-v1");
        EXPECT_FALSE(rd.ok());
        return rd.why();
    };
    EXPECT_NE(why("").find("torn"), std::string::npos);
    EXPECT_NE(why(good.substr(0, good.size() - 1)).find("torn"),
              std::string::npos);
    EXPECT_NE(why(good + "x\n").find("torn"), std::string::npos);
    std::string flipped = good;
    flipped[9] ^= 0x02;
    EXPECT_NE(why(flipped).find("crc mismatch"), std::string::npos);
    std::string upper = good;
    upper[upper.size() - 2] = 'A';
    EXPECT_NE(why(upper).find("malformed crc"), std::string::npos);
    const std::string alien = RecordStore("", "other-v1").seal("a 1\n");
    EXPECT_NE(why(alien).find("version header"), std::string::npos);
    EXPECT_TRUE(RecordReader(good, "test-v1").ok());
}

TEST(RecordStore, CountCannotExceedTheLinesLeft)
{
    const RecordStore store("", "test-v1");
    const std::string fits = store.seal("n 2\ns 1\ns 2\n");
    const std::string lies = store.seal("n 3\ns 1\ns 2\n");
    const std::string huge = store.seal("n 4000000000000000000\n");
    std::size_t n = 0;
    EXPECT_TRUE(RecordReader(fits, "test-v1").count("n", n));
    EXPECT_EQ(n, 2u);
    EXPECT_FALSE(RecordReader(lies, "test-v1").count("n", n));
    EXPECT_FALSE(RecordReader(huge, "test-v1").count("n", n));
}

TEST(RecordStore, FieldsJoinAndParseWholeTokensOnly)
{
    const std::string line = cactid::util::joinFields(
        std::uint64_t(18446744073709551615ULL), -7, 0.1, true);
    EXPECT_EQ(line, "18446744073709551615 -7 0.10000000000000001 1");
    std::uint64_t u = 0;
    int i = 0;
    double d = 0;
    bool b = false;
    Tokens ok(line);
    EXPECT_TRUE(ok(u, i, d, b));
    EXPECT_EQ(u, 18446744073709551615ULL);
    EXPECT_EQ(i, -7);
    EXPECT_EQ(d, 0.1);
    EXPECT_TRUE(b);
    EXPECT_FALSE(ok(u)); // exhausted

    EXPECT_FALSE(Tokens("12a")(u));
    EXPECT_FALSE(Tokens("-1")(u));
    EXPECT_FALSE(Tokens("18446744073709551616")(u));
    EXPECT_FALSE(Tokens("4294967296")(i));
    EXPECT_FALSE(Tokens("1e400")(d));
    EXPECT_FALSE(Tokens("2")(b));
    EXPECT_FALSE(Tokens("1  2")(u, u)); // an empty token between spaces
}

TEST(RecordStore, DirectoryAndLoadOutcomes)
{
    const std::string root = ::testing::TempDir() + "record_store_dir";
    std::remove((root + "/r").c_str());
    std::remove(root.c_str());
    const RecordStore store(root, "test-v1");
    std::string err;
    ASSERT_TRUE(store.ensureDir(&err)) << err;
    ASSERT_TRUE(store.ensureDir(&err)) << err; // existing is fine

    const auto decode = [](const std::string &bytes) {
        return RecordReader(bytes, "test-v1").ok() ? Load::Loaded
                                                    : Load::Rejected;
    };
    EXPECT_EQ(store.load("r", decode), Load::Missing);
    ASSERT_TRUE(store.save("r", store.seal("a 1\n"), &err)) << err;
    EXPECT_EQ(store.load("r", decode), Load::Loaded);
    ASSERT_TRUE(store.save("r", "torn", &err)) << err;
    EXPECT_EQ(store.load("r", decode), Load::Rejected);

    // A directory under a regular file cannot be created, and a
    // regular file is not a directory: both name the path.
    const std::string file = root + "/r";
    for (const std::string &bad : {file + "/sub", file}) {
        std::string why;
        EXPECT_FALSE(RecordStore(bad, "test-v1").ensureDir(&why));
        EXPECT_NE(why.find("cannot create directory " + bad),
                  std::string::npos)
            << why;
    }
}

// ---------------------------------------------------------------- //
// Pinned record bytes                                              //
// ---------------------------------------------------------------- //

TEST(RecordPinnedBytes, CheckpointRecord)
{
    const archsim::CheckpointStore store("", kPinnedFingerprint);
    EXPECT_EQ(store.encode(pinnedRun()), kPinnedCheckpoint);

    archsim::RunResult back;
    std::string why;
    ASSERT_EQ(store.decode(kPinnedCheckpoint, back, &why), Load::Loaded)
        << why;
    EXPECT_EQ(back.error.message, pinnedRun().error.message);
    EXPECT_EQ(back.epochs.size(), 2u);
    EXPECT_EQ(store.encode(back), kPinnedCheckpoint);
}

TEST(RecordPinnedBytes, CacheRecord)
{
    cactid::SolveCacheConfig cc;
    cc.buildStamp = kPinnedStamp;
    const cactid::SolveCache cache(cc);
    EXPECT_EQ(cache.encodeRecord(kPinnedKey, pinnedSolve(), true),
              kPinnedCacheRecord);

    cactid::SolveResult back;
    bool has_all = false;
    std::string why;
    ASSERT_EQ(cache.decodeRecord(kPinnedCacheRecord,
                                 cactid::keyFingerprint(kPinnedKey),
                                 kPinnedKey, back, has_all, &why),
              Load::Loaded)
        << why;
    EXPECT_TRUE(has_all);
    EXPECT_EQ(back.all.size(), 3u);
    EXPECT_EQ(cache.encodeRecord(kPinnedKey, back, has_all),
              kPinnedCacheRecord);
}

// ---------------------------------------------------------------- //
// Seeded mutation fuzz of both codecs                              //
// ---------------------------------------------------------------- //

TEST(RecordFuzz, CheckpointCodecNeverThrowsAndLoadsOnlyCanonical)
{
    const archsim::CheckpointStore store("", kPinnedFingerprint);
    const std::string good = store.encode(pinnedRun());
    std::mt19937_64 rng(0x5eedc0de);
    FuzzTally t;
    for (int m = 0; m < kMutations; ++m) {
        const std::string bytes = mutate(good, rng);
        archsim::RunResult out;
        std::string why;
        Load got = Load::Missing;
        ASSERT_NO_THROW(got = store.decode(bytes, out, &why))
            << "mutation " << m;
        ASSERT_NE(got, Load::Missing) << "mutation " << m;
        if (got == Load::Loaded)
            ASSERT_EQ(store.encode(out), bytes) << "mutation " << m;
        else
            ASSERT_FALSE(why.empty()) << "mutation " << m;
        tally(t, got, why);
    }
    // Every path is exercised: loads, frame rejects, payload rejects.
    EXPECT_GT(t.loaded, 0);
    EXPECT_GT(t.frameRejects, 0);
    EXPECT_GT(t.payloadRejects, kMutations / 2);
}

TEST(RecordFuzz, CacheCodecNeverThrowsAndLoadsOnlyCanonical)
{
    cactid::SolveCacheConfig cc;
    cc.buildStamp = kPinnedStamp;
    const cactid::SolveCache cache(cc);
    const cactid::ConfigFingerprint fp =
        cactid::keyFingerprint(kPinnedKey);
    const std::string good =
        cache.encodeRecord(kPinnedKey, pinnedSolve(), true);
    std::mt19937_64 rng(0xcac4ed);
    FuzzTally t;
    for (int m = 0; m < kMutations; ++m) {
        const std::string bytes = mutate(good, rng);
        cactid::SolveResult out;
        bool has_all = false;
        std::string why;
        Load got = Load::Missing;
        ASSERT_NO_THROW(got = cache.decodeRecord(bytes, fp, kPinnedKey,
                                                 out, has_all, &why))
            << "mutation " << m;
        ASSERT_NE(got, Load::Missing) << "mutation " << m;
        if (got == Load::Loaded)
            ASSERT_EQ(cache.encodeRecord(kPinnedKey, out, has_all), bytes)
                << "mutation " << m;
        else
            ASSERT_FALSE(why.empty()) << "mutation " << m;
        tally(t, got, why);
    }
    EXPECT_GT(t.loaded, 0);
    EXPECT_GT(t.frameRejects, 0);
    EXPECT_GT(t.payloadRejects, kMutations / 2);
}
