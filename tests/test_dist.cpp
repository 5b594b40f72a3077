/**
 * @file
 * Multi-process distributed exploration tests over forked local lanes
 * (each a `serve` child on a socketpair): the job result round trip,
 * byte-identity of the coordinator's merged report against the
 * in-process explorer (across worker counts, warm shared caches,
 * injected lane crashes and hangs), the request deadline under a full
 * dispatch window, the serve size limit, Ctrl-C propagation, and the
 * distributed phases evaluation.
 *
 * Fault injection uses the serve-side test hooks: with
 * MINNOC_DIST_TEST_CRASH=serve (or _HANG) every lane's daemon dies with
 * _exit(42) (or goes unresponsive) at the start of its second job on
 * its first attempt, so every crash test exercises the real requeue
 * path with part of the shard already delivered.
 */

#include <gtest/gtest.h>

#include "dist/coordinator.hpp"
#include "dist_test_harness.hpp"
#include "dse/explorer.hpp"
#include "phase/evaluator.hpp"
#include "serve/jobwire.hpp"
#include "serve/protocol.hpp"
#include "trace/scale_patterns.hpp"
#include "trace/synthetic.hpp"
#include "util/cancel.hpp"
#include "util/log.hpp"

using namespace minnoc;
using namespace minnoc::dist;
using disttest::cgTrace;
using disttest::EnvGuard;
using disttest::smallConfig;
using disttest::tempCacheDir;

namespace {

/**
 * Every failure of a run with the crash hook armed on every lane: each
 * lane that got at least two jobs died with exit 42 after delivering
 * one, and each is a forked-lane failure.
 */
void
expectEveryMultiJobLaneCrashed(const DistStats &stats,
                               std::size_t lanes, std::size_t jobs)
{
    // Shards are dealt round-robin, so lane i holds ceil((jobs-i)/lanes).
    std::size_t multiJobLanes = 0;
    for (std::size_t i = 0; i < lanes; ++i)
        if ((jobs - i + lanes - 1) / lanes >= 2)
            ++multiJobLanes;
    ASSERT_EQ(stats.failures.size(), multiJobLanes);
    for (const auto &f : stats.failures) {
        EXPECT_LT(f.worker, lanes);
        EXPECT_EQ(f.reason, "exit 42");
        EXPECT_TRUE(f.host.empty());
        EXPECT_FALSE(f.requeuedJobs.empty());
    }
    const auto json = stats.toJson("explore");
    EXPECT_NE(json.find("\"worker_failed\": [{"), std::string::npos);
    EXPECT_NE(json.find("\"host_failed\": []"), std::string::npos);
}

} // namespace

TEST(DistProtocol, WorkerResultRoundTripsDoublesExactly)
{
    dse::JobMetrics m;
    m.switches = 7;
    m.avgHops = 2.7142857142857144; // not exactly representable in %g
    m.energy = 1.2345678901234567e6;
    m.maxLinkUtil = 0.33333333333333331;

    std::string err;
    const auto msg =
        serve::parseWorkerMsg(serve::encodeResult(11, true, 12345, m), err);
    ASSERT_TRUE(msg.has_value()) << err;
    EXPECT_EQ(msg->index, 11u);
    EXPECT_TRUE(msg->cached);
    EXPECT_EQ(msg->wallUs, 12345);
    EXPECT_EQ(msg->metrics.switches, 7u);
    EXPECT_EQ(msg->metrics.avgHops, m.avgHops);   // bit-exact
    EXPECT_EQ(msg->metrics.energy, m.energy);     // bit-exact
    EXPECT_EQ(msg->metrics.maxLinkUtil, m.maxLinkUtil);
}

TEST(DistExplore, ByteIdenticalAcrossWorkerCounts)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig("", false);
    const auto base = dse::explore(tr, cfg);

    for (const std::uint32_t workers : {1u, 2u, 4u, 8u}) {
        DistOptions opt;
        opt.workers = workers; // 8 > jobs exercises the min() clamp
        DistStats stats;
        const auto report = exploreDistributed(tr, cfg, opt, &stats);
        EXPECT_EQ(base.toJson(), report.toJson())
            << "workers=" << workers;
        std::uint64_t jobs = 0;
        for (const auto n : stats.jobs)
            jobs += n;
        EXPECT_EQ(jobs, base.points.size()) << "workers=" << workers;
        EXPECT_TRUE(stats.failures.empty());
    }
}

TEST(DistExplore, WarmRerunAcrossWorkerCountsIsAllHits)
{
    const auto tr = cgTrace();
    const auto dir = tempCacheDir("dist-warm");

    DistOptions two;
    two.workers = 2;
    const auto cold =
        exploreDistributed(tr, smallConfig(dir, true), two);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheMisses, cold.points.size());

    // Warm rerun at a different worker count: every job must land on
    // the shared disk cache entries the first run stored.
    DistOptions four;
    four.workers = 4;
    const auto warm =
        exploreDistributed(tr, smallConfig(dir, true), four);
    EXPECT_EQ(warm.cacheHits, warm.points.size());
    EXPECT_EQ(warm.cacheMisses, 0u);
    EXPECT_EQ(cold.toJson(), warm.toJson());

    // And the in-process explorer agrees byte-for-byte on the same
    // cache — the merge argument: keys are content-hashed, so sharing
    // a directory between processes cannot change any result.
    const auto inproc = dse::explore(tr, smallConfig(dir, true));
    EXPECT_EQ(inproc.cacheHits, inproc.points.size());
    EXPECT_EQ(cold.toJson(), inproc.toJson());
}

TEST(DistExplore, CrashedWorkerIsRequeuedAndReportUnchanged)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig("", false);
    const auto base = dse::explore(tr, cfg);

    const EnvGuard crash("MINNOC_DIST_TEST_CRASH", "serve");
    DistOptions opt;
    opt.workers = 2;
    DistStats stats;
    const auto report = exploreDistributed(tr, cfg, opt, &stats);

    EXPECT_EQ(base.toJson(), report.toJson());
    expectEveryMultiJobLaneCrashed(stats, 2, base.points.size());
}

TEST(DistExplore, HungWorkerIsReapedOnTimeoutAndReportUnchanged)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig("", false);
    const auto base = dse::explore(tr, cfg);

    const EnvGuard hang("MINNOC_DIST_TEST_HANG", "serve");
    DistOptions opt;
    opt.workers = 2;
    opt.workerTimeoutMs = 1500; // long enough for real results
    DistStats stats;
    const auto report = exploreDistributed(tr, cfg, opt, &stats);

    EXPECT_EQ(base.toJson(), report.toJson());
    // Both lanes hold two jobs, so both hang after their first.
    ASSERT_EQ(stats.failures.size(), 2u);
    for (const auto &f : stats.failures) {
        EXPECT_EQ(f.reason, "timeout");
        EXPECT_TRUE(f.host.empty());
        EXPECT_EQ(f.requeuedJobs.size(), 1u);
    }
}

TEST(DistExplore, SecondFailureOfSameShardAborts)
{
    const auto tr = cgTrace();
    const auto cfg = smallConfig("", false);

    // A 1 ms activity timeout expires before any job can finish, so
    // every lane times out on its first attempt and again on the
    // requeue: the second failure of a shard must abort the run.
    DistOptions opt;
    opt.workers = 2;
    opt.workerTimeoutMs = 1;
    try {
        (void)exploreDistributed(tr, cfg, opt);
        FAIL() << "a shard failing twice must abort the run";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("shard failed twice"),
                  std::string::npos)
            << e.what();
    }
}

TEST(DistExplore, QueuedRequestsMeetTheirDeadline)
{
    trace::NasConfig ncfg;
    ncfg.ranks = 16; // jobs long enough to dwarf scheduling noise
    ncfg.iterations = 1;
    const auto tr = trace::generateCG(ncfg);
    auto cfg = smallConfig("", false);
    cfg.grid.maxDegrees = {5};
    cfg.grid.vcs = {2};
    cfg.grid.seeds = {1, 2, 3, 4, 5, 6, 7, 8};

    // Eight near-equal jobs on one lane: the whole dispatch window
    // waits in its daemon's queue at once. The activity timeout is three
    // times the slowest job measured in-process (best of two runs, so a
    // scheduling hiccup does not inflate it), so every job fits it with
    // 3x margin while the window's total does not; a request deadline
    // that ignored queue wait would fail this healthy lane.
    std::int64_t slowestUs = 0;
    std::int64_t totalUs = 0;
    for (const auto seed : cfg.grid.seeds) {
        auto one = cfg;
        one.grid.seeds = {seed};
        std::int64_t bestUs = INT64_MAX;
        for (int run = 0; run < 2; ++run) {
            const auto t0 = CancelToken::nowUs();
            (void)dse::explore(tr, one);
            bestUs = std::min(bestUs, CancelToken::nowUs() - t0);
        }
        slowestUs = std::max(slowestUs, bestUs);
        totalUs += bestUs;
    }
    DistOptions opt;
    opt.workers = 1;
    opt.workerTimeoutMs = std::max<std::int64_t>(3 * slowestUs / 1000, 1);
    ASSERT_GT(totalUs / 1000, opt.workerTimeoutMs)
        << "jobs too uneven for the window to outlast the timeout";

    DistStats stats;
    const auto report = exploreDistributed(tr, cfg, opt, &stats);
    EXPECT_TRUE(stats.failures.empty()) << stats.toJson("explore");
    ASSERT_EQ(stats.jobs.size(), 1u);
    EXPECT_EQ(stats.jobs[0], cfg.grid.seeds.size());
    EXPECT_EQ(report.cacheMisses, cfg.grid.seeds.size());
}

TEST(DistExplore, TraceOverServeLineLimitIsRefusedUpFront)
{
    // ~300k send/recv pairs: the escaped trace alone is over serve's
    // 8 MiB request line, so no lane could ever accept a job.
    trace::Trace big("big", 2);
    for (std::uint32_t i = 0; i < 300'000; ++i) {
        big.push(0, trace::TraceOp::send(1, 64, i));
        big.push(1, trace::TraceOp::recv(0, 64, i));
    }
    DistOptions opt;
    opt.workers = 2;

    // Each entry point must refuse it with one fatal naming the limit
    // (a lane-side refusal would surface as "shard failed twice").
    const auto fatalOf = [](const auto &run) {
        LogConfig::instance().fatalThrows(true);
        std::string message;
        try {
            run();
        } catch (const FatalError &e) {
            message = e.what();
        }
        LogConfig::instance().fatalThrows(false);
        return message;
    };
    const auto limit = std::to_string(serve::kMaxRequestBytes);
    const auto explore = fatalOf([&] {
        (void)exploreDistributed(big, smallConfig("", false), opt);
    });
    EXPECT_NE(explore.find(limit), std::string::npos) << explore;
    const auto phases = fatalOf([&] {
        (void)evaluatePhasesDistributed(big, phase::PhaseEvalConfig{},
                                        opt);
    });
    EXPECT_NE(phases.find(limit), std::string::npos) << phases;
}

TEST(DistExplore, CancelTokenDrainsWorkers)
{
    const auto tr = cgTrace();
    auto cfg = smallConfig("", false);
    // Enough work that the deadline fires mid-run on any machine.
    cfg.grid.maxDegrees = {4, 5, 6};
    cfg.grid.seeds = {1, 2, 3};
    cfg.grid.restarts = {8};

    CancelToken token;
    cfg.cancel = &token;
    token.setDeadlineIn(250'000); // 250 ms

    DistOptions opt;
    opt.workers = 2;
    EXPECT_THROW(exploreDistributed(tr, cfg, opt), CancelledError);
}

TEST(DistPhases, ByteIdenticalToInProcessEvaluation)
{
    const auto tr = trace::phaseShift({trace::Pattern::Neighbor,
                                       trace::Pattern::Transpose,
                                       trace::Pattern::Hotspot});
    phase::PhaseEvalConfig cfg;
    cfg.methodology.partitioner.constraints.maxDegree = 5;
    cfg.methodology.restarts = 4;
    cfg.threads = 1;

    const auto base = phase::evaluatePhases(tr, cfg);

    DistOptions opt;
    opt.workers = 3;
    DistStats stats;
    const auto report =
        evaluatePhasesDistributed(tr, cfg, opt, &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    std::uint64_t jobs = 0;
    for (const auto n : stats.jobs)
        jobs += n;
    EXPECT_EQ(jobs, report.phases.size());
}

TEST(DistPhases, CrashedWorkerStillYieldsIdenticalReport)
{
    // Three phases over two lanes, so lane 0 holds two and crashes.
    const auto tr = trace::phaseShift({trace::Pattern::Neighbor,
                                       trace::Pattern::Transpose,
                                       trace::Pattern::Hotspot});
    phase::PhaseEvalConfig cfg;
    cfg.methodology.partitioner.constraints.maxDegree = 5;
    cfg.methodology.restarts = 2;
    cfg.threads = 1;

    const auto base = phase::evaluatePhases(tr, cfg);

    const EnvGuard crash("MINNOC_DIST_TEST_CRASH", "serve");
    DistOptions opt;
    opt.workers = 2;
    DistStats stats;
    const auto report = evaluatePhasesDistributed(tr, cfg, opt, &stats);
    EXPECT_EQ(base.toJson(), report.toJson());
    expectEveryMultiJobLaneCrashed(stats, 2, report.phases.size());
}

TEST(DistStatsJson, ReportsPerWorkerRowsAndFailures)
{
    DistStats stats;
    stats.workers = 2;
    stats.jobs = {3, 1};
    stats.cacheHits = {1, 0};
    stats.wallUsSum = {1000, 2000};
    WorkerFailure local;
    local.worker = 1;
    local.reason = "signal 9";
    local.requeuedJobs = {5, 6};
    stats.failures.push_back(local);

    const auto json = stats.toJson("explore");
    EXPECT_NE(json.find("\"report\": \"minnoc-dist-status\""),
              std::string::npos);
    EXPECT_NE(json.find("\"task\": \"explore\""), std::string::npos);
    EXPECT_NE(json.find("\"per_worker\""), std::string::npos);
    EXPECT_NE(json.find("\"worker_failed\""), std::string::npos);
    EXPECT_NE(json.find("signal 9"), std::string::npos);
    // A local failure must never surface in the host_failed array.
    EXPECT_NE(json.find("\"host_failed\": []"), std::string::npos);

    stats.workers = 3;
    stats.jobs.push_back(2);
    stats.cacheHits.push_back(0);
    stats.wallUsSum.push_back(500);
    stats.hostOf = {"", "", "127.0.0.1:9999"};
    WorkerFailure remote;
    remote.worker = 2;
    remote.host = "127.0.0.1:9999";
    remote.reason = "connection closed";
    stats.failures.push_back(remote);

    const auto both = stats.toJson("explore");
    EXPECT_NE(both.find("\"host\": \"127.0.0.1:9999\""),
              std::string::npos);
    EXPECT_NE(both.find("\"host_failed\": [{"), std::string::npos);
    EXPECT_NE(both.find("connection closed"), std::string::npos);
    // And the split is exclusive: the local failure stays in
    // worker_failed, the remote one in host_failed.
    const auto wf = both.find("\"worker_failed\"");
    const auto hf = both.find("\"host_failed\"");
    ASSERT_NE(wf, std::string::npos);
    ASSERT_NE(hf, std::string::npos);
    EXPECT_EQ(both.find("signal 9", wf) < hf, true);
    EXPECT_EQ(both.find("connection closed", wf) > hf, true);
}
