/**
 * @file
 * Simulation golden snapshots: every SimResult field, every
 * NetworkStats counter and the SimObserver metrics JSON of a fixed set
 * of runs are locked into tests/golden/sim/ and diffed on every run.
 * The runs cover the five NAS patterns at 16 ranks on mesh (DOR),
 * torus (fully adaptive) and their generated networks, the COH-16
 * coherence trace on its generated network, transient corruption, a
 * mid-run link failure and a torus run whose tiny deadlock timeout
 * makes recoveries fire. Any simulator rewrite must reproduce these
 * bytes exactly.
 *
 * Regeneration (after an INTENTIONAL change to simulation output):
 *
 *     MINNOC_REGEN_GOLDEN=1 ./build/tests/test_golden_sim
 *
 * then review the tests/golden/sim/ diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "coh/coherence.hpp"
#include "core/methodology.hpp"
#include "obs/metrics.hpp"
#include "obs/sim_observer.hpp"
#include "sim/trace_driver.hpp"
#include "topo/builders.hpp"
#include "topo/floorplan.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;

namespace {

enum class Net { Mesh, Torus, Generated };

/** One snapshotted simulation. */
struct GoldenRun
{
    std::string name;
    /** NAS benchmark name, or "COH" for the coherence trace. */
    std::string workload;
    Net net = Net::Mesh;
    sim::SimConfig config;
    sim::FaultConfig faults;
};

/** gtest prints a failing run by name, not as raw bytes. */
void
PrintTo(const GoldenRun &run, std::ostream *os)
{
    *os << run.name;
}

trace::Trace
workloadTrace(const std::string &workload)
{
    if (workload == "COH") {
        coh::CoherenceConfig cfg;
        cfg.ranks = 16;
        cfg.opsPerRankPerRound = 8;
        cfg.seed = 1;
        return coh::coherenceTrace(cfg);
    }
    trace::NasConfig cfg;
    cfg.ranks = 16;
    cfg.iterations = 1;
    cfg.seed = 1;
    return trace::generateBenchmark(trace::benchmarkFromName(workload), cfg);
}

topo::BuiltNetwork
buildNetwork(const trace::Trace &tr, Net net)
{
    if (net == Net::Mesh)
        return topo::buildMesh(tr.numRanks());
    if (net == Net::Torus)
        return topo::buildTorus(tr.numRanks());
    core::MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 5;
    cfg.partitioner.seed = 1;
    cfg.restarts = 4;
    cfg.threads = 1;
    const auto outcome =
        core::runMethodology(trace::analyzeByCall(tr), cfg);
    return topo::buildFromDesign(outcome.design,
                                 topo::planFloor(outcome.design));
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

template <typename T>
std::string
list(const std::vector<T> &values)
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < values.size(); ++i)
        oss << (i ? " " : "") << values[i];
    return oss.str();
}

void
scalar(std::ostringstream &oss, const char *key, const ScalarStat &s)
{
    oss << key << "=count:" << s.count() << " sum:" << num(s.sum())
        << " mean:" << num(s.mean()) << " var:" << num(s.variance())
        << " min:" << num(s.min()) << " max:" << num(s.max()) << "\n";
}

/** Marks where the observer's metrics JSON starts in a snapshot. */
constexpr const char *kMetricsMarker = "metrics=\n";

/** Run @p run and render everything it reports into @p out. */
sim::NetworkStats
snapshot(const GoldenRun &run, std::string *out)
{
    const auto tr = workloadTrace(run.workload);
    const auto net = buildNetwork(tr, run.net);
    sim::Network network(*net.topo, *net.routing, run.config,
                         sim::FaultModel(*net.topo, run.faults));
    // A small sample cap keeps the per-link series short while still
    // exercising the epoch-doubling merge.
    obs::SimObserver observer(64, 16);
    network.setObserver(&observer);
    const auto r = sim::runTrace(tr, network);
    const auto &ns = network.stats();

    std::ostringstream oss;
    oss << "run=" << run.name << " network=" << net.routing->name()
        << " links=" << net.topo->numLinks() << "\n"
        << "exec_time=" << r.execTime << "\ncomm_time=" << list(r.commTime)
        << "\nfinish_time=" << list(r.finishTime) << "\n"
        << "packets delivered=" << r.packetsDelivered
        << " enqueued=" << r.packetsEnqueued
        << " dropped=" << r.packetsDropped << "\n"
        << "faults recoveries=" << r.deadlockRecoveries
        << " retransmissions=" << r.retransmissions
        << " corrupted=" << r.corruptedFlits
        << " failed_links=" << r.failedLinks
        << " disconnected=" << r.disconnectedPairs
        << " retry_exhaustions=" << r.retryExhaustions
        << " recovery_exhaustions=" << r.recoveryExhaustions << "\n"
        << "delivered_fraction=" << num(r.deliveredFraction)
        << " latency_inflation=" << num(r.latencyInflation)
        << " recvs_lost=" << r.recvsLost << "\nundeliverable=";
    for (const auto &[s, d] : r.undeliverableChannels)
        oss << " " << s << "->" << d;
    oss << "\navg_latency=" << num(r.avgPacketLatency)
        << " avg_hops=" << num(r.avgPacketHops)
        << " max_util=" << num(r.maxLinkUtilization)
        << " mean_util=" << num(r.meanLinkUtilization)
        << " comm_mean=" << num(r.commTimeMean())
        << " comm_max=" << r.commTimeMax() << "\n"
        << "link_flits=" << list(r.linkFlits) << "\n"
        << "activity=" << r.activity.bufferWrites << " "
        << r.activity.bufferReads << " " << r.activity.residentFlitCycles
        << "\nstats packets=" << ns.packetsEnqueued << " "
        << ns.packetsDelivered << " " << ns.packetsDropped
        << " flit_hops=" << ns.flitHops
        << " recoveries=" << ns.deadlockRecoveries
        << " buffer=" << ns.bufferWrites << " " << ns.bufferReads
        << " resident=" << ns.residentFlitCycles
        << " in_network=" << network.flitsInNetwork() << "\n"
        << "stats faults=" << ns.retransmissions << " " << ns.corruptedFlits
        << " " << ns.failedLinks << " " << ns.disconnectedPairs << " "
        << ns.retryExhaustions << " " << ns.recoveryExhaustions << "\n"
        << "stats.link_flits=" << list(ns.linkFlits) << "\n";
    scalar(oss, "stats.packet_latency", ns.packetLatency);
    scalar(oss, "stats.packet_hops", ns.packetHops);
    scalar(oss, "stats.clean_packet_latency", ns.cleanPacketLatency);

    obs::MetricsRegistry registry;
    observer.exportTo(registry);
    oss << kMetricsMarker << registry.toJson() << "\n";
    *out = oss.str();
    return ns;
}

std::vector<GoldenRun>
goldenRuns()
{
    std::vector<GoldenRun> runs;
    const auto add = [&](const std::string &name, const char *workload,
                         Net net) -> GoldenRun & {
        return runs.emplace_back(GoldenRun{name, workload, net, {}, {}});
    };
    for (const std::string bench : {"BT", "CG", "FFT", "MG", "SP"}) {
        add(bench + "_mesh", bench.c_str(), Net::Mesh);
        add(bench + "_torus", bench.c_str(), Net::Torus);
        add(bench + "_generated", bench.c_str(), Net::Generated);
    }
    add("COH_generated", "COH", Net::Generated);

    auto &corrupt = add("CG_mesh_corruption", "CG", Net::Mesh);
    corrupt.faults.flitErrorRate = 0.05;
    corrupt.faults.seed = 1;

    // One inter-switch link fails while FFT's traffic is in flight.
    auto &fail = add("FFT_mesh_link_failure", "FFT", Net::Mesh);
    fail.faults.randomFailLinks = 1;
    fail.faults.failAtCycle = 40'000;
    fail.faults.seed = 7;

    auto &deadlock = add("FFT_torus_recovery", "FFT", Net::Torus);
    deadlock.config.deadlockTimeout = 8;
    deadlock.config.deadlockScanInterval = 4;
    deadlock.config.deadlockPenalty = 16;
    return runs;
}

std::string
goldenPath(const GoldenRun &run)
{
    return std::string(MINNOC_TESTS_DIR) + "/golden/sim/" + run.name +
           ".golden";
}

class GoldenSim : public ::testing::TestWithParam<GoldenRun>
{
};

} // namespace

TEST_P(GoldenSim, MatchesSnapshot)
{
    const auto &run = GetParam();
    std::string actual;
    const auto stats = snapshot(run, &actual);
    // Each fault run must exercise the machinery it is named after.
    if (run.config.deadlockTimeout < 100) {
        EXPECT_GT(stats.deadlockRecoveries, 0u);
    }
    if (run.faults.flitErrorRate > 0.0) {
        EXPECT_GT(stats.corruptedFlits, 0u);
    }
    if (run.faults.failAtCycle > 0) {
        EXPECT_GT(stats.retransmissions, 0u);
    }
    const auto path = goldenPath(run);

    if (std::getenv("MINNOC_REGEN_GOLDEN") != nullptr) {
        std::ofstream os(path);
        ASSERT_TRUE(os) << "cannot write " << path;
        os << actual;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — regenerate with MINNOC_REGEN_GOLDEN=1 "
                    << "./build/tests/test_golden_sim";
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto expected = buffer.str();

    // Without MINNOC_OBS the observer records nothing: compare the rest.
    const auto comparable = [](const std::string &snap) {
        return obs::kEnabled ? snap
                             : snap.substr(0, snap.find(kMetricsMarker));
    };
    EXPECT_EQ(comparable(expected), comparable(actual))
        << "simulation of " << run.name << " drifted from tests/golden/sim/";
}

INSTANTIATE_TEST_SUITE_P(Runs, GoldenSim, ::testing::ValuesIn(goldenRuns()),
                         [](const ::testing::TestParamInfo<GoldenRun> &info) {
                             return info.param.name;
                         });
