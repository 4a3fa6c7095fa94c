/**
 * @file
 * Untraced benchmark run: the end-to-end numbers.
 *
 * Repeats rounds of one workload's cell -- one cell per sub-seed of
 * --seed -- for about --seconds (at least one round). Each cell goes
 * through the library's stable entry points only:
 * layoutFor / effectiveWarmupPerCore / makeStreams / System /
 * Driver::run (serial) / System::dump / Verifier::check. Prints one
 * JSON document on stdout: per cell the sub-seed, the clock at its
 * first access, the Driver::run time and access count, the effective
 * warmup, the verifier outcome and the full stats dump.
 * perfbench/run.py checks the dumps and derives the metrics.
 */

#include <sys/resource.h>

#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "common/sim_error.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "verify/verifier.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"
#include "workloads.hh"

using namespace tinydir;
using perfbench::nowNs;

namespace
{

double
seconds(std::int64_t from, std::int64_t to)
{
    return static_cast<double>(to - from) * 1e-9;
}

/** One cell, written as a JSON object. */
std::string
runCell(const perfbench::Workload &w, const SystemConfig &cfg,
        const WorkloadProfile &prof)
{
    auto layout = layoutFor(prof, cfg);
    const std::uint64_t warmup =
        effectiveWarmupPerCore(cfg, prof, w.warmupPerCore);
    auto streams = makeStreams(layout, cfg, w.accessesPerCore + warmup,
                               warmup > 0);
    System sys(cfg);
    const std::int64_t t1 = nowNs();

    Driver driver;
    driver.warmupAccesses = warmup * cfg.numCores;
    const RunResult rr = driver.run(sys, std::move(streams));
    const std::int64_t t2 = nowNs();

    const StatsDump dump = sys.dump();
    Verifier::Options vo;
    vo.dumpOnViolation = false;
    const VerifyReport report = Verifier(vo).check(sys);

    std::ostringstream os;
    os << "{\"seed\":" << cfg.seed << ",\"first_access_ns\":" << t1
       << ",\"run_s\":" << seconds(t1, t2)
       << ",\"effective_warmup_per_core\":" << warmup
       << ",\"accesses\":" << rr.accesses
       << ",\"verify_ok\":" << (report.ok() ? "true" : "false")
       << ",\"dump\":";
    perfbench::writeDump(os, dump);
    os << '}';
    if (!report.ok())
        std::cerr << "perfbench: verifier: " << report.summary() << '\n';
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const perfbench::Args args = perfbench::parseArgs(argc, argv);
        const perfbench::Workload &w = *args.workload;
        const WorkloadProfile &prof = profileByName(w.profile);

        // Whole rounds only; another round starts only when it is
        // expected to end within --seconds (the first always runs).
        const std::int64_t start = nowNs();
        std::vector<std::string> cells;
        unsigned failed = 0;
        unsigned rounds = 0;
        do {
            for (unsigned i = 0; i < w.seedsPerRound; ++i) {
                const SystemConfig cfg = perfbench::configFor(
                    w, perfbench::subSeed(w, args.seed, i));
                try {
                    cells.push_back(runCell(w, cfg, prof));
                } catch (const SimError &e) {
                    std::cerr << "perfbench: " << w.name << " seed "
                              << cfg.seed << " failed: " << e.what()
                              << '\n';
                    ++failed;
                }
            }
            ++rounds;
        } while (seconds(start, nowNs()) * (rounds + 1) / rounds <=
                 args.seconds);

        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        std::cout << "{\"workload\":\"" << w.name << "\",\"seed\":"
                  << args.seed << ",\"cores\":" << w.cores
                  << ",\"accesses_per_core\":" << w.accessesPerCore
                  << ",\"failed\":" << failed
                  << ",\"peak_rss_kib\":" << ru.ru_maxrss
                  << ",\"seeds_per_round\":" << w.seedsPerRound
                  << ",\"cells\":[";
        for (std::size_t i = 0; i < cells.size(); ++i)
            std::cout << (i ? "," : "") << cells[i];
        std::cout << "]}\n";
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_run: " << e.what() << '\n';
        return 2;
    }
}
