/**
 * @file
 * Tests for the core timing model and whole-system simulation.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "sim/cpu/system.hh"
#include "sim/resilience.hh"
#include "sim/workload/trace_file.hh"

namespace {

using namespace archsim;

HierarchyParams
tinySystem()
{
    HierarchyParams hp;
    hp.l1Bytes = 4 << 10;
    hp.l2Bytes = 64 << 10;
    LlcParams lp;
    lp.capacityBytes = 1 << 20;
    lp.assoc = 8;
    hp.llc = lp;
    return hp;
}

WorkloadParams
computeBound()
{
    WorkloadParams w;
    w.name = "compute";
    w.memFrac = 0.05;
    w.fpFrac = 1.0;
    w.hotFrac = 1.0;
    w.hotBytes = 2 << 10;
    w.barrierEvery = 0;
    w.lockRate = 0.0;
    return w;
}

TEST(System, CycleBudgetTripsOnlyWhileTheRunIsLive)
{
    // A run ending at cycle N (its last instruction retired at N - 1)
    // fits a budget of N; a budget of N - 1 trips at exactly N - 1.
    // Both loops agree.
    const Cycle end =
        System(tinySystem(), computeBound(), 500, 2, 2).run().cycles;
    for (const bool reference : {false, true}) {
        SCOPED_TRACE(reference ? "runReference" : "run");
        const auto runWith = [&](Cycle budget) {
            RunLimits lim;
            lim.maxCycles = budget;
            System sys(tinySystem(), computeBound(), 500, 2, 2);
            return reference ? sys.runReference(nullptr, lim)
                             : sys.run(nullptr, lim);
        };
        EXPECT_EQ(runWith(end).cycles, end);
        try {
            runWith(end - 1);
            ADD_FAILURE() << "budget " << end - 1 << " did not trip";
        } catch (const SimTimeout &e) {
            EXPECT_EQ(e.atCycle, end - 1);
        }
    }
}

TEST(System, RunsToCompletion)
{
    System sys(tinySystem(), computeBound(), 2000);
    const SimStats s = sys.run();
    EXPECT_EQ(s.instructions, 2000u * 32u);
    EXPECT_GT(s.cycles, 0u);
    EXPECT_GT(s.ipc, 0.0);
    EXPECT_LE(s.ipc, 8.0 + 1e-9);
}

TEST(System, Deterministic)
{
    System a(tinySystem(), computeBound(), 3000);
    System b(tinySystem(), computeBound(), 3000);
    EXPECT_EQ(a.run().cycles, b.run().cycles);
}

TEST(System, ComputeBoundIsIssueLimited)
{
    // Pure FP threads: each core retires ~1 instruction/cycle.
    WorkloadParams w = computeBound();
    w.memFrac = 0.0;
    const SimStats s = System(tinySystem(), w, 5000).run();
    EXPECT_GT(s.ipc, 6.0);
    EXPECT_GT(s.fInstruction, 0.99);
}

TEST(System, MemoryBoundShowsMemoryStalls)
{
    WorkloadParams w = computeBound();
    w.name = "membound";
    w.memFrac = 0.5;
    w.hotFrac = 0.0;
    w.streamFrac = 0.0;
    w.alpha = 1.0;
    w.wsBytes = 8 << 20;
    const SimStats s = System(tinySystem(), w, 3000).run();
    EXPECT_GT(s.fMemory, 0.5);
    EXPECT_LT(s.ipc, 4.0);
    EXPECT_GT(s.avgReadLatency, 10.0);
}

TEST(System, BreakdownFractionsSumToOne)
{
    WorkloadParams w = computeBound();
    w.memFrac = 0.3;
    w.hotFrac = 0.5;
    w.barrierEvery = 500;
    const SimStats s = System(tinySystem(), w, 4000).run();
    const double sum = s.fInstruction + s.fL2 + s.fL3 + s.fMemory +
                       s.fBarrier + s.fLock;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(System, BarriersCostCycles)
{
    WorkloadParams w = computeBound();
    w.barrierEvery = 200;
    const SimStats with_b = System(tinySystem(), w, 4000).run();
    EXPECT_GT(with_b.fBarrier, 0.0);
}

TEST(System, LocksSerialize)
{
    WorkloadParams w = computeBound();
    w.lockRate = 0.02;
    const SimStats s = System(tinySystem(), w, 4000).run();
    EXPECT_GT(s.fLock, 0.0);
    EXPECT_EQ(s.instructions, 4000u * 32u);
}

TEST(System, LockedRunStillTerminatesWithBarriers)
{
    WorkloadParams w = computeBound();
    w.lockRate = 0.05;
    w.barrierEvery = 300;
    const SimStats s = System(tinySystem(), w, 3000).run();
    EXPECT_EQ(s.instructions, 3000u * 32u);
}

TEST(System, FewerThreadsFewerInstructions)
{
    System small(tinySystem(), computeBound(), 1000, 2, 2);
    const SimStats s = small.run();
    EXPECT_EQ(s.instructions, 1000u * 4u);
}

TEST(System, SharedDataStaysCoherent)
{
    // All threads hammer the same small shared region with stores; the
    // run must terminate and count every instruction exactly once.
    WorkloadParams w;
    w.name = "sharing";
    w.memFrac = 0.6;
    w.storeFrac = 0.5;
    w.hotFrac = 0.0;
    w.streamFrac = 0.0;
    w.sharedFrac = 1.0;
    w.alpha = 2.0;
    w.wsBytes = 8 << 10;
    w.barrierEvery = 0;
    const SimStats s = System(tinySystem(), w, 2000).run();
    EXPECT_EQ(s.instructions, 2000u * 32u);
    EXPECT_GT(s.hier.l1Writes, 0u);
}

TEST(System, L3HelpsCacheFittingWorkload)
{
    WorkloadParams w = computeBound();
    w.name = "l3fit";
    w.memFrac = 0.4;
    w.hotFrac = 0.2;
    w.streamFrac = 0.3;
    w.alpha = 2.0;
    w.wsBytes = (512 << 10) / 32.0; // 512KB total: inside the 1MB L3
    w.barrierEvery = 0;

    HierarchyParams with_l3 = tinySystem();
    HierarchyParams no_l3 = tinySystem();
    no_l3.llc.reset();

    const SimStats a = System(with_l3, w, 20000).run();
    const SimStats b = System(no_l3, w, 20000).run();
    EXPECT_LT(a.cycles, b.cycles);
}

TEST(SyncState, FinishedWaiterNeverReceivesLock)
{
    // Regression: a thread whose final instruction is a failed Lock is
    // done() while still queued.  Handing it the lock would strand all
    // later waiters (the retired thread never runs Unlock).
    const WorkloadParams w = computeBound();
    Thread a(w, 0, 3, 10), b(w, 1, 3, 10), c(w, 2, 3, 10);
    SyncState sync({&a, &b, &c});
    EXPECT_TRUE(sync.acquireLock(a, 0));
    EXPECT_FALSE(sync.acquireLock(b, 5)); // queued
    EXPECT_FALSE(sync.acquireLock(c, 6)); // queued behind b
    b.stats.instructions = b.maxInst;     // b retires while waiting
    sync.threadFinished(b, 6);
    EXPECT_FALSE(b.waitingLock);
    sync.releaseLock(10);
    // The lock skips the retired b and goes to c; b gets no lock-stall
    // attribution (it retired, the stall never materialized).
    EXPECT_EQ(sync.lockHolder(), &c);
    EXPECT_EQ(b.stats.lock, 0u);
    EXPECT_GT(c.stats.lock, 0u);
}

TEST(System, DeadlockThrowsInsteadOfSpinning)
{
    // Thread 0 takes the lock then waits at the barrier; thread 1
    // blocks on the lock and never arrives.  Nothing can ever issue
    // again — the loop must report it rather than spin forever.
    std::istringstream in("0 K\n"
                          "0 B\n"
                          "0 F\n"
                          "1 K\n"
                          "1 F\n"
                          "1 F\n");
    const TraceFile trace = TraceFile::load(in);
    System sys(tinySystem(), trace, 3, 1, 2);
    EXPECT_THROW(sys.run(), std::runtime_error);
}

TEST(System, ReadLatencyAtLeastL1Latency)
{
    const SimStats s =
        System(tinySystem(), computeBound(), 3000).run();
    EXPECT_GE(s.avgReadLatency, 2.0);
}

namespace {

/** Every observable aggregate of two runs must agree exactly. */
void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_DOUBLE_EQ(a.avgReadLatency, b.avgReadLatency);
    EXPECT_DOUBLE_EQ(a.fInstruction, b.fInstruction);
    EXPECT_DOUBLE_EQ(a.fL2, b.fL2);
    EXPECT_DOUBLE_EQ(a.fL3, b.fL3);
    EXPECT_DOUBLE_EQ(a.fMemory, b.fMemory);
    EXPECT_DOUBLE_EQ(a.fBarrier, b.fBarrier);
    EXPECT_DOUBLE_EQ(a.fLock, b.fLock);
    EXPECT_EQ(a.hier.l1Reads, b.hier.l1Reads);
    EXPECT_EQ(a.hier.l1Writes, b.hier.l1Writes);
    EXPECT_EQ(a.hier.l2Reads, b.hier.l2Reads);
    EXPECT_EQ(a.hier.l2Writes, b.hier.l2Writes);
    EXPECT_EQ(a.hier.l2Misses, b.hier.l2Misses);
    EXPECT_EQ(a.hier.xbarTransfers, b.hier.xbarTransfers);
    EXPECT_EQ(a.hier.c2cTransfers, b.hier.c2cTransfers);
    EXPECT_EQ(a.dram.activates, b.dram.activates);
    EXPECT_EQ(a.dram.reads, b.dram.reads);
    EXPECT_EQ(a.dram.writes, b.dram.writes);
    EXPECT_EQ(a.dram.rowHits, b.dram.rowHits);
    EXPECT_EQ(a.dram.busBytes, b.dram.busBytes);
    EXPECT_EQ(a.dram.refreshes, b.dram.refreshes);
    EXPECT_EQ(a.dram.powerDownEntries, b.dram.powerDownEntries);
    EXPECT_EQ(a.dram.powerDownCycles, b.dram.powerDownCycles);
    EXPECT_DOUBLE_EQ(a.memPoweredDownFraction,
                     b.memPoweredDownFraction);
    EXPECT_EQ(a.llcReads, b.llcReads);
    EXPECT_EQ(a.llcWrites, b.llcWrites);
    EXPECT_EQ(a.llcHits, b.llcHits);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
}

} // namespace

TEST(System, EventLoopMatchesReferenceAcrossSyncAndDramFeatures)
{
    // run() (ready-queue scheduler) against runReference() (the
    // scan-every-core executable specification) over workloads that
    // stress each wake source: lock hand-offs with critical sections,
    // dense barriers, and DRAM stall chains with refresh + power-down
    // timers.  Every aggregate must match exactly.
    WorkloadParams locks = computeBound();
    locks.name = "locks";
    locks.memFrac = 0.1;
    locks.lockRate = 0.02;
    locks.criticalSection = 20;

    WorkloadParams barriers = computeBound();
    barriers.name = "barriers";
    barriers.memFrac = 0.2;
    barriers.hotFrac = 0.3;
    barriers.wsBytes = 2 << 20;
    barriers.barrierEvery = 100;

    WorkloadParams dramheavy = computeBound();
    dramheavy.name = "dramheavy";
    dramheavy.memFrac = 0.8;
    dramheavy.hotFrac = 0.0;
    dramheavy.streamFrac = 0.0;
    dramheavy.alpha = 1.0;
    dramheavy.wsBytes = 8 << 20;

    HierarchyParams hp = tinySystem();
    hp.dram.tRefi = 200;
    hp.dram.tRfc = 60;
    hp.dram.powerDown = true;
    hp.dram.powerDownAfter = 100;
    hp.dram.tPowerDownExit = 10;

    for (const WorkloadParams &w : {locks, barriers, dramheavy}) {
        System ev(hp, w, 500, 4, 2);
        System ref(hp, w, 500, 4, 2);
        const SimStats a = ev.run();
        const SimStats b = ref.runReference();
        SCOPED_TRACE(w.name);
        expectSameStats(a, b);
    }
}

} // namespace
