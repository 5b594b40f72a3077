/**
 * @file
 * The minnoc benchmark: runs one workload of the paper's chain (trace ->
 * contention cliques -> methodology -> verify -> floorplan -> flit
 * simulation -> power, and the DSE explorer that wraps it) through the
 * library's public entry points, checks every output, and prints the
 * metrics as one JSON line.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR [--smoke 1] [--tamper 1]
 *
 * --trace 0 prints the end-to-end metrics (host times measured with no
 * tracing attached); --trace 1 records spans around every call into a
 * layer, imports the spans the methodology and the explorer already
 * emit, and prints the per-layer metrics instead. --smoke 1 runs the
 * same workloads on tiny inputs; --tamper 1 corrupts each design
 * before the independent Theorem-1 check so the gate must fire.
 *
 * The exit code is 0 only when every correctness check passed.
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coh/coherence.hpp"
#include "core/design_io.hpp"
#include "core/methodology.hpp"
#include "core/verify.hpp"
#include "dse/explorer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "sim/trace_driver.hpp"
#include "topo/builders.hpp"
#include "topo/floorplan.hpp"
#include "topo/power.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

using namespace minnoc;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Shortest round-trip decimal form of @p v. */
std::string
num(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

/** Every run uses a pool of min(4, hardware threads). */
std::uint32_t
poolThreads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    bool tamper = false;
    std::filesystem::path workDir = ".";
};

/** Counts checked operations; any failure makes the run incorrect. */
class Gate
{
  public:
    void
    check(bool ok, const std::string &what)
    {
        ++_attempted;
        if (!ok) {
            ++_failed;
            std::fprintf(stderr, "gate: FAILED %s\n", what.c_str());
        }
    }

    std::uint64_t attempted() const { return _attempted; }
    std::uint64_t failed() const { return _failed; }

  private:
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
};

/** One timed interval at a layer boundary. Times are wall microseconds. */
struct Span
{
    std::string name;
    std::string layer;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
    int run = -1; ///< iteration index; -1 for set-up
};

/**
 * In-memory span recorder. Disabled in untraced runs, where opening a
 * span costs one branch. Uses obs::wallMicros() so the spans the
 * library emits into a TraceEventLog share its time base.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : _on(on) {}

    bool on() const { return _on; }
    void setRun(int run) { _run = run; }
    const std::vector<Span> &spans() const { return _spans; }

    int
    open(const std::string &name, const std::string &layer)
    {
        if (!_on)
            return -1;
        _spans.push_back(
            {name, layer, obs::wallMicros(), 0, _current, _run});
        _current = static_cast<int>(_spans.size()) - 1;
        return _current;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        _spans[id].end = obs::wallMicros();
        _current = _spans[id].parent;
    }

    /**
     * Adopt the "X" events of @p log under span @p parent. Methodology
     * phases (restarts, merge, verify) become core spans; explorer job
     * spans become dse spans with their methodology / build / simulate
     * stages attached as children of the job on the same track.
     */
    void
    adopt(const obs::TraceEventLog &log, int parent)
    {
        if (!_on)
            return;
        const auto doc = json::parse(log.toJson());
        if (!doc || !doc->find("traceEvents"))
            return;
        struct Event
        {
            std::string name;
            std::uint32_t pid, tid;
            std::int64_t ts, dur;
        };
        std::vector<Event> events;
        for (const auto &e : doc->find("traceEvents")->asArray()) {
            if (e.find("ph")->asString() != "X")
                continue;
            events.push_back(
                {e.find("name")->asString(),
                 static_cast<std::uint32_t>(e.find("pid")->asNumber()),
                 static_cast<std::uint32_t>(e.find("tid")->asNumber()),
                 static_cast<std::int64_t>(e.find("ts")->asNumber()),
                 static_cast<std::int64_t>(e.find("dur")->asNumber())});
        }
        const auto add = [&](const Event &e, const std::string &name,
                             const std::string &layer, int par) {
            _spans.push_back({name, layer, e.ts, e.ts + e.dur, par, _run});
            return static_cast<int>(_spans.size()) - 1;
        };
        std::map<std::uint32_t, int> jobSpan;
        for (const auto &e : events) {
            if (e.pid == obs::kPidMethodology) {
                const std::string name =
                    e.name == "merge_switches" ? "merge" : e.name;
                add(e, "core." + name, "core", parent);
            } else if (e.pid == obs::kPidDse &&
                       e.name.rfind("job ", 0) == 0) {
                jobSpan[e.tid] = add(e, "dse.job", "dse", parent);
            }
        }
        static const std::map<std::string, std::string> stageLayer = {
            {"methodology", "core"}, {"build", "topo"}, {"simulate", "sim"}};
        for (const auto &e : events) {
            const auto it = stageLayer.find(e.name);
            if (e.pid != obs::kPidDse || it == stageLayer.end())
                continue;
            const auto job = jobSpan.find(e.tid);
            add(e, "dse.job." + e.name, it->second,
                job == jobSpan.end() ? parent : job->second);
        }
    }

    /** Duration of span @p i minus the part its children cover. */
    std::int64_t
    selfTime(std::size_t i) const
    {
        const auto &s = _spans[i];
        std::vector<std::pair<std::int64_t, std::int64_t>> kids;
        for (const auto &c : _spans) {
            if (&c != &s && c.parent == static_cast<int>(i))
                kids.emplace_back(std::max(c.start, s.start),
                                  std::min(c.end, s.end));
        }
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.start;
        for (const auto &[a, b] : kids) {
            const auto from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        return (s.end - s.start) - covered;
    }

    std::string
    toJson() const
    {
        std::ostringstream os;
        os << "{\"spans\": [";
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const auto &s = _spans[i];
            os << (i ? ",\n" : "\n") << "{\"id\": " << i
               << ", \"name\": \"" << s.name << "\", \"layer\": \""
               << s.layer << "\", \"start_us\": " << s.start
               << ", \"end_us\": " << s.end << ", \"parent\": "
               << s.parent << ", \"run\": " << s.run << "}";
        }
        os << "\n]}\n";
        return os.str();
    }

  private:
    bool _on;
    int _run = -1;
    int _current = -1;
    std::vector<Span> _spans;
};

/** RAII span at one layer boundary. */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name, const std::string &layer)
        : _tracer(tracer), _id(tracer.open(name, layer))
    {
    }
    ~Scope() { _tracer.close(_id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return _id; }

  private:
    Tracer &_tracer;
    int _id;
};

/**
 * Model outputs of one iteration, summed over every network the
 * workload builds: these are simulated or synthesized quantities, so a
 * host-speed change must leave them byte-identical.
 */
struct Model
{
    double switches = 0;
    double links = 0;
    double area = 0;
    double execCycles = 0;
    std::vector<double> latencies;
    double energy = 0;

    void
    addNetwork(std::uint32_t sw, std::uint32_t lk, std::uint32_t ar)
    {
        switches += sw;
        links += lk;
        area += ar;
    }
};

/** Per-iteration work counters and non-span timings. */
struct Sample
{
    std::map<std::string, double> counts;
    Model model;
};

/** Inter-switch duplex links of a built topology. */
std::uint32_t
interSwitchLinks(const topo::Topology &t)
{
    std::uint32_t n = 0;
    for (const auto &l : t.links())
        n += !t.isProc(l.from) && !t.isProc(l.to);
    return n / 2;
}

std::uint32_t
gridArea(std::pair<std::uint32_t, std::uint32_t> areas)
{
    return areas.first + areas.second;
}

std::string
designBytes(const core::FinalizedDesign &design)
{
    std::ostringstream os;
    core::saveDesign(design, os);
    return os.str();
}

/** Every SimResult field, in full precision, for identity checks. */
std::string
simBytes(const sim::SimResult &r)
{
    std::ostringstream os;
    os << r.execTime << ' ' << r.packetsDelivered << ' '
       << r.deadlockRecoveries << ' ' << r.packetsEnqueued << ' '
       << r.packetsDropped << ' ' << r.retransmissions << ' '
       << r.corruptedFlits << ' ' << r.failedLinks << ' '
       << r.disconnectedPairs << ' ' << r.retryExhaustions << ' '
       << r.recoveryExhaustions << ' ' << num(r.deliveredFraction) << ' '
       << num(r.latencyInflation) << ' ' << r.recvsLost << ' '
       << num(r.avgPacketLatency) << ' ' << num(r.avgPacketHops) << ' '
       << num(r.maxLinkUtilization) << ' ' << num(r.meanLinkUtilization)
       << ' ' << r.activity.bufferWrites << ' ' << r.activity.bufferReads
       << ' ' << r.activity.residentFlitCycles << " |";
    for (const auto v : r.commTime)
        os << ' ' << v;
    os << " |";
    for (const auto v : r.finishTime)
        os << ' ' << v;
    os << " |";
    for (const auto v : r.linkFlits)
        os << ' ' << v;
    for (const auto &[s, d] : r.undeliverableChannels)
        os << ' ' << s << '>' << d;
    return os.str();
}

/** Shared state of one benchmark process. */
struct Context
{
    Options opts;
    Tracer tracer;
    Gate gate;
    ThreadPool pool;

    explicit Context(const Options &o)
        : opts(o), tracer(o.trace), pool(poolThreads())
    {
    }
};

/**
 * Put a comm onto a channel already used by a comm it contends with: a
 * design the independent Theorem-1 check must reject.
 */
void
tamper(core::FinalizedDesign &design, const core::CliqueSet &ks)
{
    for (auto &pipe : design.pipes) {
        for (const auto &[a, link] : pipe.fwdLink) {
            for (core::CommId b = 0; b < ks.numComms(); ++b) {
                if (b != a && ks.contend(a, b)) {
                    pipe.fwdLink[b] = link;
                    return;
                }
            }
        }
    }
}

/** Counts that identify the input. */
void
countInput(Sample &s, const trace::Trace &tr, const core::CliqueSet &ks)
{
    s.counts["trace.messages"] = static_cast<double>(tr.numSends());
    s.counts["trace.cliques"] = static_cast<double>(ks.numCliques());
    s.counts["trace.comms"] = static_cast<double>(ks.numComms());
}

/** analyzeByCall, traced and counted. */
core::CliqueSet
analyze(Context &ctx, const trace::Trace &tr, Sample &s)
{
    core::CliqueSet ks;
    {
        Scope span(ctx.tracer, "trace.analyze", "trace");
        ks = trace::analyzeByCall(tr);
    }
    countInput(s, tr, ks);
    return ks;
}

/** The CLI's design defaults: max degree 5, partitioner seed 1. */
core::MethodologyConfig
cliDesignConfig(std::uint32_t restarts)
{
    core::MethodologyConfig mcfg;
    mcfg.partitioner.constraints.maxDegree = 5;
    mcfg.restarts = restarts;
    return mcfg;
}

/**
 * runMethodology on the shared pool, then an independent
 * checkContentionFree on the result.
 */
core::DesignOutcome
design(Context &ctx, const core::CliqueSet &ks, core::MethodologyConfig mcfg,
       Sample &s)
{
    mcfg.threads = ctx.pool.size();
    obs::TraceEventLog log;
    if (ctx.tracer.on())
        mcfg.traceLog = &log;
    core::DesignOutcome outcome;
    int spanId;
    {
        Scope span(ctx.tracer, "core.methodology", "core");
        spanId = span.id();
        outcome = core::runMethodology(ks, mcfg, &ctx.pool);
    }
    ctx.tracer.adopt(log, spanId);
    s.counts["core.restarts_used"] += outcome.restartsUsed;
    s.counts["core.moves_evaluated"] +=
        static_cast<double>(outcome.movesEvaluated);
    s.counts["core.rounds"] += outcome.rounds;

    auto checked = outcome.design;
    if (ctx.opts.tamper)
        tamper(checked, ks);
    std::vector<core::ContentionViolation> violations;
    {
        Scope span(ctx.tracer, "core.check", "core");
        violations = core::checkContentionFree(checked, ks);
    }
    ctx.gate.check(violations.empty() && outcome.violations.empty(),
                   "checkContentionFree: " +
                       std::to_string(violations.size()) +
                       " Theorem-1 violations");
    return outcome;
}

topo::Floorplan
floorplan(Context &ctx, const core::FinalizedDesign &d)
{
    Scope span(ctx.tracer, "topo.floorplan", "topo");
    return topo::planFloor(d);
}

template <typename Build>
topo::BuiltNetwork
build(Context &ctx, Sample &s, Build &&fn)
{
    Scope span(ctx.tracer, "topo.build", "topo");
    auto net = fn();
    s.counts["topo.channels"] += static_cast<double>(net.topo->numLinks());
    return net;
}

/** One simulation and its static-tier energy. */
struct Simulated
{
    sim::SimResult res;
    double energy = 0;

    /** Identity bytes: every SimResult field and the energy. */
    std::string
    bytes() const
    {
        return simBytes(res) + " energy " + num(energy);
    }
};

/**
 * One runTrace on @p net plus its static-tier energy. Checks that no
 * deadlock recovery ran and every packet was delivered, and records
 * the per-network counters.
 */
Simulated
simulate(Context &ctx, const std::string &netName, const trace::Trace &tr,
         const topo::BuiltNetwork &net, Sample &s,
         const sim::SimConfig &scfg = {})
{
    sim::SimResult res;
    {
        Scope span(ctx.tracer, "sim.run." + netName, "sim");
        res = sim::runTrace(tr, *net.topo, *net.routing, scfg);
    }
    topo::EnergyReport energy;
    {
        Scope span(ctx.tracer, "topo.energy", "topo");
        energy = topo::computeEnergy(*net.topo, res.linkFlits,
                                     res.execTime, res.activity, {});
    }
    const bool clean =
        res.deadlockRecoveries == 0 && res.packetsDropped == 0 &&
        res.recvsLost == 0 && res.undeliverableChannels.empty() &&
        res.packetsDelivered > 0 &&
        res.packetsDelivered == res.packetsEnqueued;
    ctx.gate.check(clean, "simulation on " + netName + ": " +
                              std::to_string(res.deadlockRecoveries) +
                              " recoveries, " +
                              std::to_string(res.packetsDelivered) + "/" +
                              std::to_string(res.packetsEnqueued) +
                              " packets delivered");

    double flitHops = 0;
    for (const auto f : res.linkFlits)
        flitHops += static_cast<double>(f);
    const double linkCycles = static_cast<double>(res.execTime) *
                              static_cast<double>(net.topo->numLinks());
    const std::string p = "sim." + netName + ".";
    s.counts[p + "cycles"] += static_cast<double>(res.execTime);
    s.counts[p + "flit_hops"] += flitHops;
    s.counts[p + "link_cycles"] += linkCycles;

    s.model.execCycles += static_cast<double>(res.execTime);
    s.model.latencies.push_back(res.avgPacketLatency);
    s.model.energy += energy.total();
    return {std::move(res), energy.total()};
}

trace::Trace
nasTrace(trace::Benchmark b, std::uint32_t ranks, std::uint32_t iterations,
         std::uint64_t seed)
{
    trace::NasConfig cfg;
    cfg.ranks = ranks;
    cfg.iterations = iterations;
    cfg.seed = seed;
    return trace::generateBenchmark(b, cfg);
}

/** A benchmark workload: inputs made in setUp, timed work in iterate. */
class Workload
{
  public:
    virtual ~Workload() = default;
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /**
     * Generate the inputs from the seed and warm up with one
     * analyzeByCall (timed as set-up).
     */
    void
    setUp(const Options &opts)
    {
        _tr = makeTrace(opts);
        _ks = trace::analyzeByCall(_tr);
    }

    /** The timed chain; keeps its outputs for fingerprint(). */
    virtual void iterate(Context &ctx, Sample &s) = 0;
    /** Identity bytes of the last iteration's outputs. */
    virtual std::string fingerprint() const = 0;
    /** Untimed work after measurement (model metrics, extra checks). */
    virtual void finish(Context &, Sample &) {}

    /** Input sizes, as JSON members, for the result's env record. */
    virtual std::string
    inputs() const
    {
        return "\"trace\": \"" + _tr.name() +
               "\", \"ranks\": " + std::to_string(_tr.numRanks()) +
               ", \"messages\": " + std::to_string(_tr.numSends());
    }

  protected:
    virtual trace::Trace makeTrace(const Options &opts) = 0;

    trace::Trace _tr;
    /** The set-up analysis, reused by workloads that do not time one. */
    core::CliqueSet _ks;
};

/**
 * design_bt36: the merge-dominated design path. BT-36 -> verified
 * design -> floorplan; the generated network is simulated once after
 * measurement for the model metrics.
 */
class DesignWorkload : public Workload
{
  public:
    void
    iterate(Context &ctx, Sample &s) override
    {
        const auto ks = analyze(ctx, _tr, s);
        _outcome = design(ctx, ks, cliDesignConfig(ctx.opts.smoke ? 4 : 16),
                          s);
        _plan = floorplan(ctx, _outcome.design);
        s.model.addNetwork(_outcome.design.numSwitches,
                           _outcome.design.totalLinks(),
                           _plan.totalArea());
    }

    std::string
    fingerprint() const override
    {
        return designBytes(_outcome.design) + num(_plan.totalArea());
    }

    void
    finish(Context &ctx, Sample &s) override
    {
        Sample sim;
        const auto net = topo::buildFromDesign(_outcome.design, _plan);
        simulate(ctx, "generated", _tr, net, sim);
        s.model.execCycles = sim.model.execCycles;
        s.model.latencies = sim.model.latencies;
        s.model.energy = sim.model.energy;
    }

  private:
    trace::Trace
    makeTrace(const Options &opts) override
    {
        return nasTrace(trace::Benchmark::BT, opts.smoke ? 16 : 36, 3,
                        opts.seed);
    }

    core::DesignOutcome _outcome;
    topo::Floorplan _plan;
};

/**
 * sim_cg64: the simulator-dominated path. CG-64 on the paper's Fig. 8
 * comparators: mesh with dimension-order routing and torus with fully
 * adaptive routing. One CG iteration (not the generator's three) keeps
 * an iteration near 4 s, so a run takes the median of several.
 */
class SimWorkload : public Workload
{
  public:
    void
    iterate(Context &ctx, Sample &s) override
    {
        const auto ranks = _tr.numRanks();
        countInput(s, _tr, _ks);
        const auto mesh =
            build(ctx, s, [ranks] { return topo::buildMesh(ranks); });
        _bytes = simulate(ctx, "mesh", _tr, mesh, s).bytes();
        s.model.addNetwork(mesh.topo->numSwitches(),
                           interSwitchLinks(*mesh.topo),
                           gridArea(topo::meshAreas(ranks)));
        const auto torus =
            build(ctx, s, [ranks] { return topo::buildTorus(ranks); });
        _bytes += "\n" + simulate(ctx, "torus", _tr, torus, s).bytes();
        s.model.addNetwork(torus.topo->numSwitches(),
                           interSwitchLinks(*torus.topo),
                           gridArea(topo::torusAreas(ranks)));
    }

    std::string fingerprint() const override { return _bytes; }

  private:
    trace::Trace
    makeTrace(const Options &opts) override
    {
        return nasTrace(trace::Benchmark::CG, opts.smoke ? 16 : 64, 1,
                        opts.seed);
    }

    std::string _bytes;
};

/**
 * explore_bt16: the default 12-job DSE grid on BT-16, cold into an
 * empty cache directory, then warm from what the cold run wrote.
 */
class ExploreWorkload : public Workload
{
  public:
    static constexpr int kWarmRuns = 5;

    void
    iterate(Context &ctx, Sample &s) override
    {
        countInput(s, _tr, _ks);
        const auto cacheDir = ctx.opts.workDir / "explore-cache";

        dse::ExploreConfig cfg;
        if (ctx.opts.smoke) {
            cfg.grid.maxDegrees = {5};
            cfg.grid.restarts = {2};
            cfg.grid.unidirectional = {0};
        }
        cfg.threads = ctx.pool.size();
        cfg.cacheDir = cacheDir.string();
        const std::size_t jobs = cfg.grid.expand().size();

        std::filesystem::remove_all(cacheDir);
        obs::TraceEventLog coldLog;
        if (ctx.tracer.on())
            cfg.traceLog = &coldLog;
        dse::ExploreReport cold;
        int spanId;
        {
            Scope span(ctx.tracer, "dse.explore.cold", "dse");
            spanId = span.id();
            cold = dse::explore(_tr, cfg);
        }
        ctx.tracer.adopt(coldLog, spanId);
        ctx.gate.check(cold.cacheMisses == jobs && cold.cacheHits == 0,
                       "cold explore evaluates every job");
        _json = cold.toJson();

        std::vector<double> warmS;
        std::size_t warmHits = 0;
        for (int i = 0; i < kWarmRuns; ++i) {
            obs::TraceEventLog warmLog;
            cfg.traceLog = ctx.tracer.on() ? &warmLog : nullptr;
            const auto t0 = Clock::now();
            dse::ExploreReport warm;
            {
                Scope span(ctx.tracer, "dse.explore.warm", "dse");
                spanId = span.id();
                warm = dse::explore(_tr, cfg);
            }
            warmS.push_back(secondsSince(t0));
            ctx.tracer.adopt(warmLog, spanId);
            warmHits = warm.cacheHits;
            ctx.gate.check(warm.cacheHits == jobs && warm.cacheMisses == 0,
                           "warm explore reads every job from the cache");
            ctx.gate.check(warm.toJson() == _json,
                           "cold and warm explore reports are "
                           "byte-identical");
        }
        std::filesystem::remove_all(cacheDir);

        s.counts["stage.warm_explore_s"] = median(warmS);
        s.counts["dse.cache_hits"] = static_cast<double>(warmHits);
        s.counts["dse.cache_misses"] = static_cast<double>(cold.cacheMisses);
        _last = cold.points.back();
        for (std::size_t i = 0; i < cold.points.size(); ++i) {
            const auto &m = cold.points[i].metrics;
            ctx.gate.check(m.violations == 0,
                           "explore job " + std::to_string(i) + ": " +
                               std::to_string(m.violations) +
                               " Theorem-1 violations");
            s.model.addNetwork(m.switches, m.links, m.totalArea());
            s.model.execCycles += static_cast<double>(m.execTime);
            s.model.latencies.push_back(m.avgLatency);
            s.model.energy += m.energy;
            s.counts["topo.channels"] += m.channels;
        }
    }

    std::string fingerprint() const override { return _json; }

    /**
     * Rebuild the last grid point through the public calls, gate it
     * like any design and simulation, and check that it reproduces the
     * explorer's record of that job.
     */
    void
    finish(Context &ctx, Sample &) override
    {
        const auto &p = _last.params;
        core::MethodologyConfig mcfg;
        mcfg.partitioner.constraints.maxDegree = p.maxDegree;
        mcfg.partitioner.seed = p.seed;
        mcfg.restarts = p.restarts;
        mcfg.finalize.unidirectional = p.unidirectional;
        Sample scratch;
        const auto outcome = design(ctx, _ks, mcfg, scratch);
        const auto plan = topo::planFloor(outcome.design);
        const auto net = topo::buildFromDesign(outcome.design, plan);
        sim::SimConfig scfg;
        scfg.numVcs = p.numVcs;
        scfg.vcDepth = p.vcDepth;
        const auto run = simulate(ctx, "generated", _tr, net, scratch, scfg);

        dse::JobMetrics m;
        m.switches = outcome.design.numSwitches;
        m.links = outcome.design.totalLinks();
        m.channels = outcome.design.totalChannels();
        m.constraintsMet = outcome.constraintsMet;
        m.violations = static_cast<std::uint32_t>(outcome.violations.size());
        m.rounds = outcome.rounds;
        m.switchArea = plan.switchArea;
        m.linkArea = plan.linkArea;
        m.procLinkArea = plan.procLinkArea;
        m.execTime = run.res.execTime;
        m.avgLatency = run.res.avgPacketLatency;
        m.avgHops = run.res.avgPacketHops;
        m.maxLinkUtil = run.res.maxLinkUtilization;
        m.energy = run.energy;
        ctx.gate.check(m == _last.metrics,
                       "last explore job rebuilt through the public calls "
                       "matches the explorer's record");
    }

  private:
    trace::Trace
    makeTrace(const Options &opts) override
    {
        return nasTrace(trace::Benchmark::BT, 16, 3, opts.seed);
    }

    std::string _json;
    dse::DsePoint _last;
};

/**
 * coh16: the ill-behaved MSI directory-coherence trace. No seed meets
 * degree 5, so every restart runs and merge is skipped; the generated
 * network is then simulated against the mesh.
 */
class CoherenceWorkload : public Workload
{
  public:
    void
    iterate(Context &ctx, Sample &s) override
    {
        const auto ks = analyze(ctx, _tr, s);
        const auto outcome =
            design(ctx, ks, cliDesignConfig(ctx.opts.smoke ? 4 : 16), s);
        const auto plan = floorplan(ctx, outcome.design);
        _bytes = designBytes(outcome.design);

        const auto ranks = _tr.numRanks();
        const auto mesh =
            build(ctx, s, [ranks] { return topo::buildMesh(ranks); });
        _bytes += simulate(ctx, "mesh", _tr, mesh, s).bytes();
        s.model.addNetwork(mesh.topo->numSwitches(),
                           interSwitchLinks(*mesh.topo),
                           gridArea(topo::meshAreas(ranks)));
        const auto generated = build(ctx, s, [&] {
            return topo::buildFromDesign(outcome.design, plan);
        });
        _bytes +=
            "\n" + simulate(ctx, "generated", _tr, generated, s).bytes();
        s.model.addNetwork(outcome.design.numSwitches,
                           outcome.design.totalLinks(), plan.totalArea());
    }

    std::string fingerprint() const override { return _bytes; }

    std::string
    inputs() const override
    {
        return Workload::inputs() +
               ", \"ops_per_rank_per_round\": " + std::to_string(_ops);
    }

  private:
    trace::Trace
    makeTrace(const Options &opts) override
    {
        coh::CoherenceConfig cfg;
        cfg.ranks = 16;
        cfg.seed = opts.seed;
        if (opts.smoke)
            cfg.opsPerRankPerRound = 4;
        _ops = cfg.opsPerRankPerRound;
        return coh::coherenceTrace(cfg);
    }

    std::uint32_t _ops = 0;
    std::string _bytes;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "design_bt36")
        return std::make_unique<DesignWorkload>();
    if (name == "sim_cg64")
        return std::make_unique<SimWorkload>();
    if (name == "explore_bt16")
        return std::make_unique<ExploreWorkload>();
    if (name == "coh16")
        return std::make_unique<CoherenceWorkload>();
    return nullptr;
}

/**
 * Per-layer metrics of iteration @p run, from its spans and counters;
 * @p threads is the explorer's pool size.
 */
std::map<std::string, double>
layerMetrics(const Tracer &tracer, int run, const Sample &s, double threads)
{
    std::map<std::string, double> m;
    // Every per-layer metric exists on every workload; layers a
    // workload does not touch read zero.
    for (const char *k :
         {"trace.analyze_s", "core.methodology_s", "core.restarts_s",
          "core.merge_s", "core.verify_s", "core.check_s", "topo.build_s",
          "topo.floorplan_s", "topo.energy_s", "dse.job_methodology_s",
          "dse.job_build_s", "dse.job_simulate_s", "dse.pool_busy_frac",
          "dse.slowest_job_s", "dse.cache_hits", "dse.cache_misses",
          "stage.design_s", "stage.simulate_s", "stage.explore_s",
          "stage.warm_explore_s", "traced.wall_s", "traced.wall_ref",
          "host.ref_s", "topo.channels",
          "trace.messages", "trace.cliques", "trace.comms",
          "core.restarts_used", "core.moves_evaluated", "core.rounds"})
        m[k] = 0;
    for (const char *net : {"mesh", "torus", "generated"}) {
        for (const char *k : {"run_s", "cycles", "flit_hops", "link_cycles",
                              "active_frac", "ns_per_flit_hop"})
            m[std::string("sim.") + net + "." + k] = 0;
    }
    for (const char *layer : {"bench", "trace", "core", "topo", "sim", "dse"})
        m[std::string("self.") + layer + "_s"] = 0;

    static const std::map<std::string, std::string> spanMetric = {
        {"trace.analyze", "trace.analyze_s"},
        {"core.methodology", "core.methodology_s"},
        {"core.restarts", "core.restarts_s"},
        {"core.merge", "core.merge_s"},
        {"core.verify", "core.verify_s"},
        {"core.check", "core.check_s"},
        {"topo.build", "topo.build_s"},
        {"topo.floorplan", "topo.floorplan_s"},
        {"topo.energy", "topo.energy_s"},
        {"sim.run.mesh", "sim.mesh.run_s"},
        {"sim.run.torus", "sim.torus.run_s"},
        {"sim.run.generated", "sim.generated.run_s"},
        {"iteration", "traced.wall_s"}};

    const auto &spans = tracer.spans();
    double coldWall = 0;
    double coldJobs = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &sp = spans[i];
        if (sp.run != run)
            continue;
        const double d = static_cast<double>(sp.end - sp.start) * 1e-6;
        m["self." + sp.layer + "_s"] +=
            static_cast<double>(tracer.selfTime(i)) * 1e-6;
        if (const auto it = spanMetric.find(sp.name); it != spanMetric.end())
            m[it->second] += d;
        // Job stages count for the cold run only; warm jobs are reads.
        const bool underCold =
            sp.parent >= 0 &&
            (spans[sp.parent].name == "dse.explore.cold" ||
             (spans[sp.parent].parent >= 0 &&
              spans[spans[sp.parent].parent].name == "dse.explore.cold"));
        if (sp.name == "dse.explore.cold")
            coldWall += d;
        if (!underCold)
            continue;
        if (sp.name == "dse.job") {
            coldJobs += d;
            m["dse.slowest_job_s"] = std::max(m["dse.slowest_job_s"], d);
        } else if (sp.name.rfind("dse.job.", 0) == 0) {
            m["dse.job_" + sp.name.substr(8) + "_s"] += d;
        }
    }
    for (const auto &[k, v] : s.counts)
        m[k] = v;
    m["stage.design_s"] = m["trace.analyze_s"] + m["core.methodology_s"];
    m["stage.simulate_s"] = m["sim.mesh.run_s"] + m["sim.torus.run_s"] +
                            m["sim.generated.run_s"];
    m["stage.explore_s"] = coldWall;
    m["dse.pool_busy_frac"] =
        coldWall > 0 ? coldJobs / (threads * coldWall) : 0;
    for (const char *net : {"mesh", "torus", "generated"}) {
        const std::string p = std::string("sim.") + net + ".";
        const double hops = m[p + "flit_hops"];
        const double linkCycles = m[p + "link_cycles"];
        m[p + "active_frac"] = linkCycles > 0 ? hops / linkCycles : 0;
        m[p + "ns_per_flit_hop"] = hops > 0 ? m[p + "run_s"] * 1e9 / hops : 0;
    }
    return m;
}

/**
 * Peak resident set of this process image, from VmHWM. getrusage's
 * ru_maxrss is not used: Linux carries it across exec, so it would
 * report the launching process's footprint when that is larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // KiB -> MiB
    }
    return 0.0;
}

std::string
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload design_bt36|sim_cg64|"
                 "explore_bt16|coh16 --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--smoke 1] [--tamper 1]\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = value;
            else if (flag == "--seed")
                o.seed = std::stoull(value);
            else if (flag == "--seconds")
                o.seconds = std::stod(value);
            else if (flag == "--trace")
                o.trace = value == "1";
            else if (flag == "--smoke")
                o.smoke = value == "1";
            else if (flag == "--tamper")
                o.tamper = value == "1";
            else if (flag == "--work-dir")
                o.workDir = value;
            else
                usage();
        } catch (const std::exception &) {
            usage();
        }
    }
    if (o.workload.empty())
        usage();
    return o;
}

/**
 * Set-up is timed in batches of back-to-back repetitions, each batch
 * at least kSetupBatchS long, so one set-up of a millisecond or less is
 * not lost in timer and scheduler noise. setup_s is the median over
 * the batches of (batch time / repetitions).
 */
constexpr int kSetupBatches = 9;
constexpr double kSetupBatchS = 0.2;
/**
 * The host-speed reference. On a shared host the speed of a core swings
 * by 2x and more over minutes with the co-tenants' load, and no median
 * over one run removes that. A background thread runs a fixed kernel of
 * pseudo-random read-modify-writes in a 256 KiB table, one slice of
 * kSliceSteps every kSlicePeriod (a few percent of one core), and keeps
 * each slice's time. The slices that ran beside an iteration give the
 * host's speed while it ran, and iteration time / reference time
 * (wall_ref) cancels it. The kernel is the benchmark's own code: no
 * change to the library moves it.
 */
class SpeedProbe
{
  public:
    /** One reference unit is this many slices: 1e8 kernel steps. */
    static constexpr int kSlicesPerRef = 400;

    SpeedProbe()
    {
        slice(); // so that every interval has a slice to fall back on
        _thread = std::jthread([this](std::stop_token stop) {
            while (!stop.stop_requested()) {
                slice();
                std::this_thread::sleep_for(kSlicePeriod);
            }
        });
    }

    /**
     * The reference time (s) over [a, b]: the mean time of the slices
     * that started in it, times kSlicesPerRef. An interval too short to
     * hold a slice takes the latest slice before it.
     */
    double
    refSeconds(Clock::time_point a, Clock::time_point b)
    {
        std::lock_guard lock(_mutex);
        double sum = 0;
        int n = 0;
        double latest = _slices.front().second;
        for (const auto &[start, seconds] : _slices) {
            if (start < a)
                latest = seconds;
            else if (start <= b) {
                sum += seconds;
                ++n;
            }
        }
        return (n > 0 ? sum / n : latest) * kSlicesPerRef;
    }

  private:
    static constexpr int kSliceSteps = 100'000'000 / kSlicesPerRef;
    static constexpr std::chrono::milliseconds kSlicePeriod{20};
    static constexpr std::uint32_t kTableMask = (1u << 16) - 1;

    void
    slice()
    {
        const auto t0 = Clock::now();
        for (int i = 0; i < kSliceSteps; ++i) {
            _x ^= _x << 13;
            _x ^= _x >> 7;
            _x ^= _x << 17;
            auto &e = _table[_x & kTableMask];
            e += static_cast<std::uint32_t>(_acc);
            _acc += e * 2654435761u;
        }
        const double seconds = secondsSince(t0);
        std::lock_guard lock(_mutex);
        _slices.emplace_back(t0, seconds);
    }

    std::vector<std::uint32_t> _table = std::vector<std::uint32_t>(
        kTableMask + 1);
    std::uint64_t _x = 0x9E3779B97F4A7C15ull;
    std::uint64_t _acc = 0;
    std::mutex _mutex;
    std::vector<std::pair<Clock::time_point, double>> _slices;
    std::jthread _thread; ///< last: stops and joins before the rest goes
};

/** Iterations every run makes, so repeated outputs can be compared. */
constexpr int kMinIterations = 2;
/** Stop starting iterations past this, to finish within 180 s. */
constexpr double kHardLimitS = 150.0;

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = parseArgs(argc, argv);
    auto workload = makeWorkload(opts.workload);
    if (!workload)
        usage();
    std::filesystem::create_directories(opts.workDir);
    Context ctx(opts);

    std::vector<double> setupS;
    for (int b = 0; b < kSetupBatches; ++b) {
        Scope span(ctx.tracer, "setup", "bench");
        const auto t0 = Clock::now();
        int reps = 0;
        double elapsed = 0;
        do {
            workload->setUp(opts);
            ++reps;
            elapsed = secondsSince(t0);
        } while (elapsed < kSetupBatchS);
        setupS.push_back(elapsed / reps);
    }

    // Measure: at least kMinIterations, then while another iteration
    // of the last one's length still fits in --seconds.
    SpeedProbe probe;
    std::vector<double> wallS, refS, wallRef;
    std::vector<Sample> samples;
    std::string reference;
    const auto start = Clock::now();
    for (int run = 0;; ++run) {
        const double elapsed = secondsSince(start);
        if (run >= kMinIterations &&
            (elapsed + wallS.back() > opts.seconds ||
             elapsed + wallS.back() > kHardLimitS))
            break;
        ctx.tracer.setRun(run);
        Sample s;
        const auto t0 = Clock::now();
        {
            Scope span(ctx.tracer, "iteration", "bench");
            workload->iterate(ctx, s);
        }
        const auto t1 = Clock::now();
        wallS.push_back(std::chrono::duration<double>(t1 - t0).count());
        refS.push_back(probe.refSeconds(t0, t1));
        wallRef.push_back(wallS.back() / refS.back());
        s.counts["host.ref_s"] = refS.back();
        s.counts["traced.wall_ref"] = wallRef.back();
        samples.push_back(std::move(s));
        const auto fp = workload->fingerprint();
        if (run == 0)
            reference = fp;
        else
            ctx.gate.check(fp == reference,
                           "iteration " + std::to_string(run) +
                               " reproduces iteration 0 byte for byte");
    }
    ctx.tracer.setRun(-1);
    Sample model = samples.back();
    workload->finish(ctx, model);

    std::map<std::string, std::pair<double, std::string>> metrics;
    if (!opts.trace) {
        const auto &mm = model.model;
        double latency = 0;
        for (const double l : mm.latencies)
            latency += l;
        latency /= static_cast<double>(std::max<std::size_t>(
            mm.latencies.size(), 1));
        metrics = {
            {"setup_s", {median(setupS), "s"}},
            {"wall_ref", {median(wallRef), "ref"}},
            {"peak_rss_mb", {peakRssMb(), "MiB"}},
            {"switches", {mm.switches, "count"}},
            {"links", {mm.links, "count"}},
            {"area", {mm.area, "tiles"}},
            {"exec_cycles", {mm.execCycles, "cycles"}},
            {"avg_latency_cycles", {latency, "cycles"}},
            {"energy", {mm.energy, "units"}}};
    } else {
        std::map<std::string, std::vector<double>> perRun;
        for (std::size_t r = 0; r < samples.size(); ++r) {
            for (const auto &[k, v] :
                 layerMetrics(ctx.tracer, static_cast<int>(r), samples[r],
                              ctx.pool.size()))
                perRun[k].push_back(v);
        }
        for (const auto &[k, vs] : perRun) {
            std::string unit = "count";
            if (k.ends_with("_s"))
                unit = "s";
            else if (k.ends_with("_frac"))
                unit = "frac";
            else if (k.ends_with(".cycles"))
                unit = "cycles";
            else if (k.ends_with("ns_per_flit_hop"))
                unit = "ns";
            else if (k.ends_with("_ref"))
                unit = "ref";
            metrics[k] = {median(vs), unit};
        }
        const auto spansPath = opts.workDir / ("spans-" + opts.workload +
                                               "-" +
                                               std::to_string(opts.seed) +
                                               ".json");
        std::ofstream(spansPath) << ctx.tracer.toJson();
        std::fprintf(stderr, "perfbench: wrote %s\n",
                     spansPath.string().c_str());
    }

    const double failedFrac =
        static_cast<double>(ctx.gate.failed()) /
        static_cast<double>(std::max<std::uint64_t>(ctx.gate.attempted(), 1));
    std::printf("env {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"smoke\": %d, \"machine_threads\": %u, "
                "\"pool_threads\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"minnoc_obs\": %d, "
                "\"iterations\": %zu, \"wall_s\": %s, \"ref_s\": %s, "
                "\"failed_frac\": %s, \"inputs\": {%s}}\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
                opts.smoke ? 1 : 0, std::thread::hardware_concurrency(),
                ctx.pool.size(), compilerName().c_str(), PERFBENCH_BUILD_TYPE,
                obs::kEnabled ? 1 : 0, wallS.size(), num(median(wallS)).c_str(),
                num(median(refS)).c_str(), num(failedFrac).c_str(),
                workload->inputs().c_str());

    std::string out = "{\"correct\": ";
    out += ctx.gate.failed() == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(ctx.gate.attempted()) +
           ", \"failed\": " + std::to_string(ctx.gate.failed()) +
           ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : metrics) {
        out += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
               num(vu.first) + ", \"unit\": \"" + vu.second + "\"}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return ctx.gate.failed() == 0 ? 0 : 1;
}
