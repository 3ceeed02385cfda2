/**
 * @file
 * perfbench: the end-to-end + per-layer benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * NAME is paper_sweep, manycore_run, solve_cold or serve_mix.  With
 * --trace 0 the run measures the workload untraced and reports the
 * end-to-end metrics; with --trace 1 it reports the per-layer metrics
 * from a traced execution.  The last line of stdout is one JSON
 * object {"correct", "attempted", "failed", "metrics"}.  Exit codes:
 * 0 all checks passed, 1 a check failed or the run threw, 2 usage.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "measure.hh"
#include "workloads.hh"

namespace {

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload paper_sweep|manycore_run|"
                 "solve_cold|serve_mix --seed N --seconds S "
                 "--trace 0|1\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (i + 1 >= argc)
            return usage((std::string(arg) + " needs a value").c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (!std::strcmp(arg, "--workload")) {
            args.workload = v;
        } else if (!std::strcmp(arg, "--seed")) {
            args.seed = std::strtoull(v, &end, 10);
            if (*v == '\0' || *end != '\0')
                return usage("--seed needs an unsigned integer");
        } else if (!std::strcmp(arg, "--seconds")) {
            args.seconds = std::strtod(v, &end);
            if (*v == '\0' || *end != '\0' || args.seconds <= 0.0)
                return usage("--seconds needs a positive number");
        } else if (!std::strcmp(arg, "--trace")) {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                return usage("--trace takes 0 or 1");
            args.trace = v[0] == '1';
        } else {
            return usage((std::string("unknown option ") + arg).c_str());
        }
    }

    void (*run)(const perfbench::Args &, perfbench::Report &) = nullptr;
    if (args.workload == "paper_sweep")
        run = perfbench::paperSweep;
    else if (args.workload == "manycore_run")
        run = perfbench::manycoreRun;
    else if (args.workload == "solve_cold")
        run = perfbench::solveCold;
    else if (args.workload == "serve_mix")
        run = perfbench::serveMix;
    else
        return usage("unknown or missing --workload");

    perfbench::Report rep;
    try {
        run(args, rep);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }
    rep.print(args.trace ? perfbench::perLayerNames()
                         : perfbench::endToEndNames());
    return rep.correct() && rep.failed == 0 ? 0 : 1;
}
