/**
 * @file
 * The four perfbench workloads.  Each runs its unit of work for the
 * requested seconds (at least once) and fills a Report: end-to-end
 * metrics when args.trace is false, per-layer metrics when true.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "measure.hh"

namespace perfbench {

/** The 48-run section-4 sweep through StudyRunner::runAll. */
void paperSweep(const Args &args, Report &rep);

/** One seeded 64-core x 2-thread sparse-directory simulation. */
void manycoreRun(const Args &args, Report &rep);

/** 1000+ distinct seeded configs solved one at a time, no cache. */
void solveCold(const Args &args, Report &rep);

/** A seeded JSONL request stream through serveRequests batches. */
void serveMix(const Args &args, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
