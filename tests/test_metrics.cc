/**
 * @file
 * EpochRecorder edge cases: zero-length runs, runs shorter than one
 * epoch interval, the final partial-epoch flush, and duplicate closes;
 * plus the event semantics of System::run() against runReference():
 * epoch boundaries, refreshes and power-down entries fire at their
 * exact cycles even inside clock jumps.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/export.hh"
#include "sim/cpu/system.hh"
#include "sim/metrics.hh"
#include "sim/study.hh"

using namespace archsim;

namespace {

/** One Study for the whole file: its CACTI solves dominate setup. */
class MetricsTest : public ::testing::Test
{
  public:
    static void SetUpTestSuite() { study_ = new Study(); }
    static void TearDownTestSuite()
    {
        delete study_;
        study_ = nullptr;
    }

    static Study *study_;
};

Study *MetricsTest::study_ = nullptr;

} // namespace

TEST(EpochRecorder, RejectsZeroInterval)
{
    EXPECT_THROW(EpochRecorder(0), std::invalid_argument);
}

TEST(EpochRecorder, ZeroLengthCloseProducesNoSample)
{
    EpochRecorder rec(100);
    rec.start(HierarchyParams{});
    // A run that ends at cycle 0 closes its "final" epoch at the
    // start cycle; nothing must be recorded.
    rec.close(0, 0, HierCounters{}, nullptr, DramCounters{});
    EXPECT_TRUE(rec.samples().empty());
}

TEST(EpochRecorder, DuplicateCloseIsSkipped)
{
    EpochRecorder rec(100);
    rec.start(HierarchyParams{});

    HierCounters h;
    h.l2Reads = 7;
    rec.close(50, 10, h, nullptr, DramCounters{});
    ASSERT_EQ(rec.samples().size(), 1u);

    // Closing again at the same cycle (the System does this when the
    // last epoch boundary coincides with the end of the run) must not
    // append an empty sample.
    rec.close(50, 10, h, nullptr, DramCounters{});
    ASSERT_EQ(rec.samples().size(), 1u);
    EXPECT_EQ(rec.samples()[0].beginCycle, 0u);
    EXPECT_EQ(rec.samples()[0].endCycle, 50u);
    EXPECT_EQ(rec.samples()[0].instructions, 10u);
    EXPECT_EQ(rec.samples()[0].l2Reads, 7u);
}

TEST(EpochRecorder, SamplesAreDeltasNotTotals)
{
    EpochRecorder rec(100);
    rec.start(HierarchyParams{});

    HierCounters h;
    h.l1Reads = 100;
    rec.close(100, 40, h, nullptr, DramCounters{});
    h.l1Reads = 250;
    rec.close(200, 90, h, nullptr, DramCounters{});

    ASSERT_EQ(rec.samples().size(), 2u);
    EXPECT_EQ(rec.samples()[0].l1Reads, 100u);
    EXPECT_EQ(rec.samples()[0].instructions, 40u);
    EXPECT_EQ(rec.samples()[1].l1Reads, 150u);
    EXPECT_EQ(rec.samples()[1].instructions, 50u);
}

TEST_F(MetricsTest, RunShorterThanIntervalYieldsOneFullSpanSample)
{
    // With an interval far beyond the run length no boundary is ever
    // crossed; the end-of-run flush must still produce exactly one
    // sample spanning the whole run.
    const HierarchyParams hp = study_->hierarchyFor("nol3");
    System sys(hp, study_->scaledWorkload(npbWorkload("ft.B")), 500);
    EpochRecorder rec(1u << 30);
    const SimStats s = sys.run(&rec);

    ASSERT_EQ(rec.samples().size(), 1u);
    const EpochSample &e = rec.samples()[0];
    EXPECT_EQ(e.beginCycle, 0u);
    EXPECT_EQ(e.endCycle, s.cycles);
    EXPECT_EQ(e.instructions, s.instructions);
}

TEST_F(MetricsTest, FinalPartialEpochIsFlushedAndSamplesTile)
{
    const HierarchyParams hp = study_->hierarchyFor("nol3");
    System sys(hp, study_->scaledWorkload(npbWorkload("ft.B")), 3000);
    const Cycle interval = 2000;
    EpochRecorder rec(interval);
    const SimStats s = sys.run(&rec);

    ASSERT_GE(rec.samples().size(), 2u);
    // The samples tile [0, cycles) contiguously; every epoch but the
    // final flush spans exactly the interval.
    Cycle prev_end = 0;
    std::uint64_t instr = 0;
    for (std::size_t i = 0; i < rec.samples().size(); ++i) {
        const EpochSample &e = rec.samples()[i];
        EXPECT_EQ(e.index, int(i));
        EXPECT_EQ(e.beginCycle, prev_end);
        EXPECT_GT(e.endCycle, e.beginCycle);
        if (i + 1 < rec.samples().size()) {
            EXPECT_EQ(e.cycles(), interval);
        }
        prev_end = e.endCycle;
        instr += e.instructions;
    }
    EXPECT_EQ(prev_end, s.cycles);
    EXPECT_EQ(instr, s.instructions);
}

namespace {

/**
 * One core, one thread, every instruction a cold DRAM miss: the
 * scheduler's clock advances almost exclusively by multi-cycle jumps,
 * so with a small interval nearly every epoch boundary, refresh and
 * power-down entry falls inside a jump rather than on a visited cycle.
 */
System
stallSkipper(Cycle refi = 0, Cycle pd_after = 0)
{
    HierarchyParams hp;
    hp.dram.tRefi = refi;
    hp.dram.tRfc = refi ? 30 : 0;
    hp.dram.powerDown = pd_after != 0;
    hp.dram.powerDownAfter = pd_after;
    WorkloadParams w;
    w.name = "stallskip";
    w.memFrac = 1.0;
    w.hotFrac = 0.0;
    w.streamFrac = 0.0;
    w.alpha = 1.0;
    w.wsBytes = 4 << 20;
    w.barrierEvery = 0;
    return System(hp, w, 200, 1, 1);
}

/** The trace in emission order, as bytes. */
std::string
traceBytes(const obs::TraceBuffer &t)
{
    std::ostringstream os;
    obs::TraceMeta meta;
    meta.dropped = t.dropped();
    obs::writeChromeTrace(os, t.events(), meta);
    return os.str();
}

/** Every raw and derived field of two epoch streams is equal. */
void
expectSameSamples(const std::vector<EpochSample> &a,
                  const std::vector<EpochSample> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const EpochSample &x = a[i];
        const EpochSample &y = b[i];
        SCOPED_TRACE("epoch " + std::to_string(i));
        EXPECT_EQ(x.index, y.index);
        EXPECT_EQ(x.beginCycle, y.beginCycle);
        EXPECT_EQ(x.endCycle, y.endCycle);
        EXPECT_EQ(x.instructions, y.instructions);
        EXPECT_EQ(x.l1Reads, y.l1Reads);
        EXPECT_EQ(x.l1Writes, y.l1Writes);
        EXPECT_EQ(x.l2Reads, y.l2Reads);
        EXPECT_EQ(x.l2Writes, y.l2Writes);
        EXPECT_EQ(x.l2Misses, y.l2Misses);
        EXPECT_EQ(x.xbarTransfers, y.xbarTransfers);
        EXPECT_EQ(x.llcReads, y.llcReads);
        EXPECT_EQ(x.llcWrites, y.llcWrites);
        EXPECT_EQ(x.llcHits, y.llcHits);
        EXPECT_EQ(x.llcMisses, y.llcMisses);
        EXPECT_EQ(x.dramActivates, y.dramActivates);
        EXPECT_EQ(x.dramReads, y.dramReads);
        EXPECT_EQ(x.dramWrites, y.dramWrites);
        EXPECT_EQ(x.dramRowHits, y.dramRowHits);
        EXPECT_EQ(x.dramBusBytes, y.dramBusBytes);
        EXPECT_EQ(x.poweredDownFraction, y.poweredDownFraction);
    }
}

/** Every DRAM counter of two runs is equal. */
void
expectSameDram(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.dram.activates, b.dram.activates);
    EXPECT_EQ(a.dram.reads, b.dram.reads);
    EXPECT_EQ(a.dram.writes, b.dram.writes);
    EXPECT_EQ(a.dram.rowHits, b.dram.rowHits);
    EXPECT_EQ(a.dram.busBytes, b.dram.busBytes);
    EXPECT_EQ(a.dram.powerDownEntries, b.dram.powerDownEntries);
    EXPECT_EQ(a.dram.powerDownCycles, b.dram.powerDownCycles);
    EXPECT_EQ(a.dram.refreshes, b.dram.refreshes);
    EXPECT_EQ(a.memPoweredDownFraction, b.memPoweredDownFraction);
}

} // namespace

TEST(EpochRecorder, RunMatchesReferenceOnEveryEventKind)
{
    // run() caches the next due cycle (epoch boundary, watchdog
    // threshold, DRAM event); runReference() fires what is due on
    // every visited cycle.  With epochs, refresh, power-down and the
    // watchdogs all armed, the epoch samples, DRAM counters and the
    // trace (in emission order) must match byte for byte.
    const Cycle interval = 200;
    RunLimits limits;
    limits.maxCycles = 1'000'000;
    limits.maxWallMs = 3'600'000;
    System ev = stallSkipper(90, 25);
    System ref = stallSkipper(90, 25);
    obs::TraceBuffer ta(1 << 16);
    obs::TraceBuffer tb(1 << 16);
    ev.setTrace(&ta);
    ref.setTrace(&tb);
    EpochRecorder ra(interval);
    EpochRecorder rb(interval);
    const SimStats a = ev.run(&ra, limits);
    const SimStats b = ref.runReference(&rb, limits);
    EXPECT_LT(a.cycles, limits.maxCycles);
    EXPECT_GT(a.dram.refreshes, 0u);
    EXPECT_GT(a.dram.powerDownEntries, 0u);
    ASSERT_GE(ra.samples().size(), 10u);
    expectSameDram(a, b);
    expectSameSamples(ra.samples(), rb.samples());
    ASSERT_EQ(ta.dropped(), 0u);
    EXPECT_EQ(traceBytes(ta), traceBytes(tb));
}

TEST(EpochRecorder, AccessRearmingPowerDownBeforeBoundaryFiresOnTime)
{
    // One epoch boundary far away is the cached deadline; every DRAM
    // access re-arms the channel's idle timer to well before it.  If
    // run() kept the deadline it computed before the access, the
    // power-down entries would fire late — inside the next access or
    // at the boundary — and the trace's emission order would differ
    // from the reference loop's.
    const Cycle interval = 1 << 20;
    System ev = stallSkipper(0, 10);
    System ref = stallSkipper(0, 10);
    obs::TraceBuffer ta(1 << 16);
    obs::TraceBuffer tb(1 << 16);
    ev.setTrace(&ta);
    ref.setTrace(&tb);
    EpochRecorder ra(interval);
    EpochRecorder rb(interval);
    const SimStats a = ev.run(&ra);
    const SimStats b = ref.runReference(&rb);
    EXPECT_LT(a.cycles, interval);
    EXPECT_GT(a.dram.powerDownEntries, 10u);
    expectSameDram(a, b);
    expectSameSamples(ra.samples(), rb.samples());
    ASSERT_EQ(ta.dropped(), 0u);
    EXPECT_EQ(traceBytes(ta), traceBytes(tb));
}

TEST(EpochRecorder, ExactModeClosesEveryEpochOnItsBoundary)
{
    // Boundaries are scheduled events: every full epoch is exactly
    // `interval` cycles even when the clock jumps over the boundary,
    // and the reference loop agrees on every sample.
    const Cycle interval = 256;
    System ev = stallSkipper();
    System ref = stallSkipper();
    EpochRecorder ra(interval);
    EpochRecorder rb(interval);
    const SimStats a = ev.run(&ra);
    const SimStats b = ref.runReference(&rb);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    expectSameSamples(ra.samples(), rb.samples());
    ASSERT_GE(ra.samples().size(), 10u);
    std::uint64_t instr = 0;
    Cycle prev_end = 0;
    for (std::size_t i = 0; i < ra.samples().size(); ++i) {
        const EpochSample &e = ra.samples()[i];
        EXPECT_EQ(e.beginCycle, prev_end);
        if (i + 1 < ra.samples().size()) {
            EXPECT_EQ(e.endCycle, Cycle(i + 1) * interval)
                << "epoch " << i;
        }
        prev_end = e.endCycle;
        instr += e.instructions;
    }
    EXPECT_EQ(prev_end, a.cycles);
    EXPECT_EQ(instr, a.instructions);
}

TEST(EpochRecorder, ExactModeBoundariesWithRefreshEventsInterleave)
{
    // Both DRAM refreshes and epoch boundaries are scheduled events;
    // crossing several of each in one jump must close epochs at exact
    // boundaries, and refreshes falling due in the idle tail after
    // the last access still fire, in both loops alike.
    const Cycle interval = 200;
    System ev = stallSkipper(90);
    System ref = stallSkipper(90);
    EpochRecorder ra(interval);
    EpochRecorder rb(interval);
    const SimStats a = ev.run(&ra);
    const SimStats b = ref.runReference(&rb);
    EXPECT_GT(a.dram.refreshes, 0u);
    // Every refresh due by the end of the run fired, on both
    // channels.
    EXPECT_EQ(a.dram.refreshes, 2 * (a.cycles / 90));
    expectSameDram(a, b);
    expectSameSamples(ra.samples(), rb.samples());
    for (std::size_t i = 0; i + 1 < ra.samples().size(); ++i) {
        EXPECT_EQ(ra.samples()[i].endCycle, Cycle(i + 1) * interval)
            << "epoch " << i;
    }
}
