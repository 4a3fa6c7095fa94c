/**
 * @file
 * The benchmark's workloads and the helpers both benchmark
 * executables share: argument parsing, the per-workload system
 * configuration, and JSON output of a statistics dump.
 *
 * Each workload is one simulation cell (profile x core count x
 * tracker). The seed given on the command line reaches the simulator
 * only as SystemConfig::seed.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <chrono>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/config.hh"
#include "common/stats.hh"

namespace perfbench
{

using tinydir::SystemConfig;

/**
 * One workload: a simulation cell (profile x core count x tracker)
 * run under seedsPerRound consecutive sub-seeds of the workload seed.
 * The modelled results of a single seed vary with the random sharing
 * layout it draws; the mean over a round of sub-seeds is what the
 * benchmark reports.
 */
struct Workload
{
    const char *name;
    const char *profile;
    unsigned cores;
    /** Measured accesses per core. */
    std::uint64_t accessesPerCore;
    /** Requested warmup per core (the library extends it to cover
     *  the stream prologue, see effectiveWarmupPerCore). */
    std::uint64_t warmupPerCore;
    unsigned seedsPerRound;
    /** Sets the tracker fields of a SystemConfig::scaled config. */
    void (*configure)(SystemConfig &);
};

inline const Workload workloads[] = {
    // Paper headline: 128 cores, tiny 1/32x, DSTRA+gNRU, DynSpill.
    {"tiny128_tpcc", "TPC-C", 128, 5000, 10000, 4,
     [](SystemConfig &c) {
         c.tracker = tinydir::TrackerKind::TinyDir;
         c.dirSizeFactor = 1.0 / 32;
         c.tinyPolicy = tinydir::TinyPolicy::DstraGnru;
         c.tinySpill = true;
     }},
    // Private-hierarchy bound: ~96% of accesses hit L1/L2.
    {"sparse64_apsi", "324.apsi", 64, 20000, 10000, 16,
     [](SystemConfig &c) {
         c.tracker = tinydir::TrackerKind::SparseDir;
         c.dirSizeFactor = 2.0;
     }},
    // Home-path bound: LLC victims, DRAM and writebacks dominate.
    {"inllc64_mgrid", "314.mgrid", 64, 20000, 10000, 2,
     [](SystemConfig &c) {
         c.tracker = tinydir::TrackerKind::InLlc;
     }},
};

inline const Workload &
findWorkload(std::string_view name)
{
    for (const Workload &w : workloads) {
        if (name == w.name)
            return w;
    }
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "'");
}

/** Sub-seed @p i of workload seed @p seed (distinct seeds never share
 *  a sub-seed). */
inline std::uint64_t
subSeed(const Workload &w, std::uint64_t seed, unsigned i)
{
    return seed * w.seedsPerRound + i;
}

/** The system configuration of @p w under simulator seed @p seed. */
inline SystemConfig
configFor(const Workload &w, std::uint64_t seed)
{
    SystemConfig cfg = SystemConfig::scaled(w.cores);
    w.configure(cfg);
    cfg.seed = seed;
    return cfg;
}

/** Command line shared by both executables. */
struct Args
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    /** Repeat rounds while the next one is expected to end within
     *  this many seconds (0 = one round). */
    double seconds = 0.0;
};

inline Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " +
                                        std::string(flag));
        const std::string value = argv[++i];
        std::size_t used = 0;
        if (flag == "--workload") {
            a.workload = &findWorkload(value);
        } else if (flag == "--seed") {
            a.seed = std::stoull(value, &used);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value, &used);
            if (!(a.seconds >= 0.0))
                throw std::invalid_argument("--seconds must be >= 0");
        } else {
            throw std::invalid_argument("unknown flag " +
                                        std::string(flag));
        }
        if (used != 0 && used != value.size())
            throw std::invalid_argument("malformed value for " +
                                        std::string(flag));
    }
    if (!a.workload)
        throw std::invalid_argument("--workload is required");
    return a;
}

/** Host monotonic clock in ns (CLOCK_MONOTONIC, as Python's
 *  time.monotonic_ns, so the caller can time from process spawn). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** A finite double at full precision, or null. */
inline void
writeNumber(std::ostream &os, double v)
{
    if (std::isfinite(v))
        os << std::setprecision(17) << v;
    else
        os << "null";
}

/** A stats dump as a JSON list of [name, value] pairs (dump order). */
inline void
writeDump(std::ostream &os, const tinydir::StatsDump &d)
{
    os << '[';
    bool first = true;
    for (const auto &[name, value] : d.items()) {
        os << (first ? "" : ",") << "[\"" << name << "\",";
        writeNumber(os, value);
        os << ']';
        first = false;
    }
    os << ']';
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
