/**
 * @file
 * Traced benchmark run: the per-layer numbers.
 *
 * Runs a workload's cell once, under the first sub-seed of --seed (the
 * untraced run's first cell), with spans recorded around
 * the public calls into each layer:
 *
 *  - workload: an AccessStream wrapper over every core's stream;
 *  - sim: a benchmark-owned reference issue loop calling
 *    System::executeAccess in the documented order (earliest issue,
 *    lowest core on ties, next issue = completion + gap), plus the
 *    set-up, reset, finalize and dump calls;
 *  - proto: a forwarding CoherenceTracker installed with
 *    Engine::setTracker, timing each hook;
 *  - verify: Verifier::check.
 *
 * An AccessObserver collects the simulated latency of every home
 * transaction by data source. Spans are aggregated in memory as
 * (name, parent, count, total, self) and written as one JSON document
 * on stdout at the end, together with the stats dump (which
 * perfbench/run.py compares entry for entry with the untraced
 * Driver::run dump of the same seed).
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <queue>
#include <sstream>
#include <utility>
#include <vector>

#include "noc/mesh.hh"
#include "proto/observe.hh"
#include "proto/tracker.hh"
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

/** Span names; Root is the parent of top-level spans. */
enum Span : unsigned
{
    Root,
    SetupLayout,
    SetupStreams,
    SetupSystem,
    DriverLoop,
    StreamNext,
    Execute,
    ResetStats,
    Finalize,
    Dump,
    Verify,
    TView,
    TUpdate,
    TEvictionUpdate,
    TDataVictim,
    TSpillVictim,
    TLlcAccess,
    TTick,
    NumSpans,
};

constexpr std::array<const char *, NumSpans> spanNames = {
    "root",
    "setup.layout",
    "setup.streams",
    "setup.system",
    "driver.loop",
    "workload.next",
    "sim.execute",
    "system.reset_stats",
    "system.finalize",
    "system.dump",
    "verify.check",
    "tracker.view",
    "tracker.update",
    "tracker.evictionUpdate",
    "tracker.onLlcDataVictim",
    "tracker.onLlcSpillVictim",
    "tracker.onLlcAccess",
    "tracker.tick",
};

/**
 * In-memory span aggregates, keyed by (name, parent).
 *
 * Durations are compensated for the tracer's own cost: a span's
 * measured duration includes the open/close work of every span nested
 * inside it, so each closed span subtracts (nested spans x spanCost)
 * plus leafCost, the measured duration of an empty span. Both
 * constants come from calibrate(). Raw (uncompensated) totals are
 * kept too: they are what the wall-clock coverage check sums.
 */
class Tracer
{
  public:
    struct Agg
    {
        std::uint64_t count = 0;
        std::int64_t totalNs = 0; //!< compensated
        std::int64_t selfNs = 0;  //!< compensated
        std::int64_t rawNs = 0;
    };

    Tracer() { stack.reserve(16); }

    void
    open(Span s)
    {
        stack.push_back({s, nowNs(), 0, 0});
    }

    /** Close the innermost span; @return its compensated duration. */
    std::int64_t
    close()
    {
        const std::int64_t end = nowNs();
        const Frame f = stack.back();
        stack.pop_back();
        const std::int64_t raw = end - f.start;
        const std::int64_t dur = raw -
            static_cast<std::int64_t>(f.nested * spanCost + leafCost);
        Agg &a = aggs[f.name][stack.empty() ? Root : stack.back().name];
        ++a.count;
        a.totalNs += dur;
        a.selfNs += dur - f.childNs;
        a.rawNs += raw;
        if (!stack.empty()) {
            stack.back().childNs += dur;
            stack.back().nested += f.nested + 1;
        }
        return dur;
    }

    /**
     * Estimate spanCost (growth of an enclosing span per nested empty
     * span) and leafCost (measured duration of an empty span): the
     * median of several short trials on a scratch tracer.
     */
    void
    calibrate()
    {
        constexpr int trials = 7;
        constexpr int spans = 20000;
        std::array<double, trials> outer{}, inner{};
        for (int t = 0; t < trials; ++t) {
            Tracer c;
            c.open(DriverLoop);
            for (int i = 0; i < spans; ++i) {
                c.open(StreamNext);
                c.close();
            }
            c.close();
            outer[t] = static_cast<double>(
                           c.at(DriverLoop, Root).rawNs) / spans;
            inner[t] = static_cast<double>(
                           c.at(StreamNext, DriverLoop).rawNs) / spans;
        }
        std::sort(outer.begin(), outer.end());
        std::sort(inner.begin(), inner.end());
        spanCost = outer[trials / 2];
        leafCost = inner[trials / 2];
    }

    const Agg &at(Span name, Span parent) const { return aggs[name][parent]; }

    double spanCost = 0;
    double leafCost = 0;

  private:
    struct Frame
    {
        Span name;
        std::int64_t start;
        std::int64_t childNs;
        std::uint64_t nested;
    };
    std::vector<Frame> stack;
    std::array<std::array<Agg, NumSpans>, NumSpans> aggs{};
};

/** RAII span. */
class Scoped
{
  public:
    Scoped(Tracer &t, Span s) : tr(t) { tr.open(s); }
    ~Scoped() { tr.close(); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    Tracer &tr;
};

/** Times every next() of the wrapped stream. */
class TracedStream : public AccessStream
{
  public:
    TracedStream(std::unique_ptr<AccessStream> s, Tracer &t)
        : inner(std::move(s)), tr(t)
    {}

    bool
    next(TraceAccess &out) override
    {
        Scoped s(tr, StreamNext);
        return inner->next(out);
    }

  private:
    std::unique_ptr<AccessStream> inner;
    Tracer &tr;
};

/**
 * Forwards every hook to the system's own tracker, timing the ones
 * the engine calls per transaction.
 */
class TracedTracker : public CoherenceTracker
{
  public:
    TracedTracker(CoherenceTracker &t, Tracer &r) : inner(t), tr(r) {}

    TrackerView
    view(Addr block) override
    {
        Scoped s(tr, TView);
        return inner.view(block);
    }

    void
    update(Addr block, const TrackState &ns, const ReqCtx &ctx,
           EngineOps &ops) override
    {
        Scoped s(tr, TUpdate);
        inner.update(block, ns, ctx, ops);
    }

    void
    evictionUpdate(Addr block, const TrackState &ns, MesiState put,
                   EngineOps &ops) override
    {
        Scoped s(tr, TEvictionUpdate);
        inner.evictionUpdate(block, ns, put, ops);
    }

    void
    onLlcDataVictim(const LlcEntry &victim, EngineOps &ops) override
    {
        Scoped s(tr, TDataVictim);
        inner.onLlcDataVictim(victim, ops);
    }

    void
    onLlcSpillVictim(const LlcEntry &victim, EngineOps &ops) override
    {
        Scoped s(tr, TSpillVictim);
        inner.onLlcSpillVictim(victim, ops);
    }

    void
    onLlcAccess(Addr block, bool miss, bool stra_read) override
    {
        Scoped s(tr, TLlcAccess);
        inner.onLlcAccess(block, miss, stra_read);
    }

    void
    tick(Cycle now) override
    {
        Scoped s(tr, TTick);
        inner.tick(now);
    }

    unsigned
    evictionNoticeExtraBytes(MesiState st) const override
    {
        return inner.evictionNoticeExtraBytes(st);
    }

    std::uint64_t trackerSramBits() const override
    {
        return inner.trackerSramBits();
    }
    std::string name() const override { return inner.name(); }
    bool coarseGrain() const override { return inner.coarseGrain(); }
    bool shardSafe() const override { return inner.shardSafe(); }
    bool debugHasDirEntry(Addr b) override { return inner.debugHasDirEntry(b); }
    bool
    debugForgeState(Addr b, const TrackState &ts) override
    {
        return inner.debugForgeState(b, ts);
    }
    bool debugDropEntry(Addr b) override { return inner.debugDropEntry(b); }
    Counter dirHits() const override { return inner.dirHits(); }
    Counter dirAllocs() const override { return inner.dirAllocs(); }
    Counter spills() const override { return inner.spills(); }
    Counter broadcasts() const override { return inner.broadcasts(); }
    void resetStats() override { inner.resetStats(); }
    void saveState(ckpt::Writer &w) const override { inner.saveState(w); }
    void loadState(ckpt::Reader &r) override { inner.loadState(r); }
    bool
    warmRegister(Addr b, const TrackState &ts, EngineOps &ops) override
    {
        return inner.warmRegister(b, ts, ops);
    }

  private:
    CoherenceTracker &inner;
    Tracer &tr;
};

constexpr unsigned numSources = 5;
constexpr std::array<const char *, numSources> sourceNames = {
    "none", "llc", "dram", "owner", "sharer"};

/** Simulated latency (done - issue) of every home transaction. */
class LatencyObserver : public AccessObserver
{
  public:
    void
    onAccess(const AccessObservation &o) override
    {
        if (o.requested) {
            samples[static_cast<unsigned>(o.src)].push_back(
                o.done - o.issue);
        }
    }
    void onNotice(CoreId, Addr, MesiState) override {}
    void onBackInval(Addr, const TrackState &) override {}
    void onLlcFill(Addr) override {}
    void onLlcEvict(Addr) override {}

    std::array<std::vector<Cycle>, numSources> samples;
};

/** Nearest-rank quantile of @p v (sorted in place); 0 when empty. */
Cycle
quantile(std::vector<Cycle> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/**
 * Unloaded latency of a DRAM-sourced miss under @p cfg: the L1 lookup,
 * the request hop to the home, the LLC tag, the hop to the memory
 * controller, a closed-row DRAM access, the hop back, the LLC data
 * array and the response hop. Hops are averaged over uniform
 * (core, home bank) and (home bank, memory channel) pairs.
 */
double
unloadedDramLatency(const SystemConfig &cfg)
{
    const Mesh mesh(cfg);
    const unsigned n = cfg.numCores;
    double core_home = 0;
    for (unsigned a = 0; a < n; ++a) {
        for (unsigned b = 0; b < n; ++b)
            core_home += static_cast<double>(mesh.latency(a, b));
    }
    core_home /= static_cast<double>(n) * n;
    double home_mem = 0;
    for (unsigned h = 0; h < n; ++h) {
        for (unsigned ch = 0; ch < cfg.memChannels; ++ch)
            home_mem += static_cast<double>(
                mesh.latency(h, mesh.memNode(ch)));
    }
    home_mem /= static_cast<double>(n) * cfg.memChannels;
    return static_cast<double>(cfg.l1Latency + cfg.llcTagLatency +
                               cfg.dramRcd + cfg.dramCas + cfg.dramBurst +
                               cfg.llcDataLatency) +
        2 * core_home + 2 * home_mem;
}

/** Host time and count of executeAccess calls by outcome. */
struct Outcome
{
    std::uint64_t count = 0;
    std::int64_t totalNs = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    try {
        const perfbench::Args args = perfbench::parseArgs(argc, argv);
        const perfbench::Workload &w = *args.workload;
        const SystemConfig cfg =
            perfbench::configFor(w, perfbench::subSeed(w, args.seed, 0));
        const WorkloadProfile &prof = profileByName(w.profile);
        Tracer tr;
        tr.calibrate();

        // The separate clock the span coverage is measured against.
        const std::int64_t wallStart = nowNs();

        std::shared_ptr<const SharedLayout> layout;
        {
            Scoped s(tr, SetupLayout);
            layout = layoutFor(prof, cfg);
        }
        const std::uint64_t warmup =
            effectiveWarmupPerCore(cfg, prof, w.warmupPerCore);
        std::vector<std::unique_ptr<AccessStream>> streams;
        {
            Scoped s(tr, SetupStreams);
            streams = makeStreams(layout, cfg, w.accessesPerCore + warmup,
                                  warmup > 0);
        }
        std::unique_ptr<System> sysp;
        {
            Scoped s(tr, SetupSystem);
            sysp = std::make_unique<System>(cfg);
        }
        System &sys = *sysp;
        for (auto &s : streams)
            s = std::make_unique<TracedStream>(std::move(s), tr);
        TracedTracker tracker(*sys.tracker, tr);
        sys.engine.setTracker(&tracker);
        LatencyObserver observer;
        sys.setObserver(&observer);

        // Reference issue loop.
        const unsigned n = cfg.numCores;
        const std::uint64_t warmupAccesses = warmup * n;
        using Event = std::pair<Cycle, CoreId>;
        std::priority_queue<Event, std::vector<Event>, std::greater<>> q;
        std::vector<TraceAccess> pending(n);
        std::uint64_t accesses = 0;
        std::array<Outcome, 2> outcomes{}; // private hit, home
        {
            Scoped loop(tr, DriverLoop);
            for (CoreId c = 0; c < n; ++c) {
                if (streams[c]->next(pending[c]))
                    q.emplace(sys.cores[c].clock + pending[c].gap, c);
            }
            while (!q.empty()) {
                const auto [issue, c] = q.top();
                q.pop();
                // An access is a private hit when it raised privHits;
                // every other access ran a home transaction.
                const Counter hits = sys.cores[c].privHits.value();
                tr.open(Execute);
                const Cycle done = sys.executeAccess(c, pending[c], issue);
                const std::int64_t ns = tr.close();
                Outcome &o =
                    outcomes[sys.cores[c].privHits.value() != hits ? 0 : 1];
                ++o.count;
                o.totalNs += ns;
                sys.cores[c].clock = done;
                ++accesses;
                if (streams[c]->next(pending[c]))
                    q.emplace(done + pending[c].gap, c);
                if (warmupAccesses && accesses == warmupAccesses) {
                    Scoped s(tr, ResetStats);
                    sys.resetStats();
                    for (auto &v : observer.samples)
                        v.clear();
                }
            }
        }
        {
            Scoped s(tr, Finalize);
            sys.finalize();
        }
        StatsDump dump;
        {
            Scoped s(tr, Dump);
            dump = sys.dump();
        }
        VerifyReport report;
        {
            Scoped s(tr, Verify);
            Verifier::Options vo;
            vo.dumpOnViolation = false;
            report = Verifier(vo).check(sys);
        }
        const std::int64_t wallNs = nowNs() - wallStart;
        // The wrappers die before the System: unhook them.
        sys.setObserver(nullptr);
        sys.engine.setTracker(sys.tracker.get());

        std::ostringstream os;
        os << "{\"workload\":\"" << w.name << "\",\"seed\":" << cfg.seed
           << ",\"cores\":" << n << ",\"accesses\":" << accesses
           << ",\"wall_ns\":" << wallNs
           << ",\"verify_ok\":" << (report.ok() ? "true" : "false")
           << ",\"span_cost_ns\":" << tr.spanCost
           << ",\"leaf_cost_ns\":" << tr.leafCost
           << ",\"unloaded_dram_cycles\":";
        perfbench::writeNumber(os, unloadedDramLatency(cfg));
        os << ",\"spans\":[";
        bool first = true;
        for (unsigned s = 1; s < NumSpans; ++s) {
            for (unsigned p = 0; p < NumSpans; ++p) {
                const Tracer::Agg &a =
                    tr.at(static_cast<Span>(s), static_cast<Span>(p));
                if (!a.count)
                    continue;
                os << (first ? "" : ",") << "{\"name\":\"" << spanNames[s]
                   << "\",\"parent\":\"" << spanNames[p]
                   << "\",\"count\":" << a.count
                   << ",\"total_ns\":" << a.totalNs
                   << ",\"self_ns\":" << a.selfNs
                   << ",\"raw_ns\":" << a.rawNs << '}';
                first = false;
            }
        }
        os << "],\"execute\":{";
        const char *outcomeNames[] = {"hit", "home"};
        for (unsigned i = 0; i < outcomes.size(); ++i) {
            os << (i ? "," : "") << '"' << outcomeNames[i]
               << "\":{\"count\":" << outcomes[i].count
               << ",\"total_ns\":" << outcomes[i].totalNs << '}';
        }
        os << "},\"latency\":{";
        for (unsigned s = 0; s < numSources; ++s) {
            auto &v = observer.samples[s];
            double sum = 0;
            for (Cycle c : v)
                sum += static_cast<double>(c);
            os << (s ? "," : "") << '"' << sourceNames[s]
               << "\":{\"count\":" << v.size() << ",\"mean\":";
            perfbench::writeNumber(os, v.empty() ? 0.0 : sum / v.size());
            os << ",\"p50\":" << quantile(v, 0.50)
               << ",\"p99\":" << quantile(v, 0.99) << '}';
        }
        os << "},\"dump\":";
        perfbench::writeDump(os, dump);
        os << "}\n";
        std::cout << os.str();
        if (!report.ok())
            std::cerr << "perfbench: verifier: " << report.summary() << '\n';
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_trace: " << e.what() << '\n';
        return 2;
    }
}
