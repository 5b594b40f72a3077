/**
 * @file
 * Tests for the switch-merge polish pass.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "core/methodology.hpp"
#include "obs/metrics.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;
using namespace minnoc::core;

namespace {

DesignOutcome
run(trace::Benchmark bench, std::uint32_t ranks, bool merge,
    std::uint32_t threads = 0, obs::MetricsRegistry *metrics = nullptr)
{
    trace::NasConfig cfg;
    cfg.ranks = ranks;
    cfg.iterations = 1;
    const auto ks =
        trace::analyzeByCall(trace::generateBenchmark(bench, cfg));
    MethodologyConfig mcfg;
    mcfg.partitioner.constraints.maxDegree = 5;
    mcfg.mergeSwitches = merge;
    mcfg.restarts = 8;
    mcfg.threads = threads;
    mcfg.metrics = metrics;
    return runMethodology(ks, mcfg);
}

constexpr std::array<const char *, 8> kMergeCounters = {
    "pairs_tried",         "skipped_degree",       "rejected_estimate",
    "rejected_finalize",   "accepted",             "consolidate_tried",
    "consolidate_searched", "consolidate_committed"};

/** The methodology/merge counters of one BT-9 run, in kMergeCounters order. */
std::array<std::uint64_t, 8>
mergeCounters(std::uint32_t threads, DesignOutcome *outcome)
{
    obs::MetricsRegistry metrics;
    *outcome = run(trace::Benchmark::BT, 9, true, threads, &metrics);
    std::array<std::uint64_t, 8> values{};
    for (std::size_t i = 0; i < kMergeCounters.size(); ++i) {
        values[i] = metrics
                        .counter(std::string("methodology/merge/") +
                                 kMergeCounters[i])
                        .value();
    }
    return values;
}

} // namespace

TEST(MergeSwitches, ReducesSwitchCountOnAdiBenchmarks)
{
    const auto merged = run(trace::Benchmark::BT, 9, true);
    const auto plain = run(trace::Benchmark::BT, 9, false);
    EXPECT_LT(merged.design.numSwitches, plain.design.numSwitches);
    // The paper's BT-9 network sits near half the mesh's 9 switches.
    EXPECT_LE(merged.design.numSwitches, 6u);
}

TEST(MergeSwitches, PreservesConstraintsAndTheoremOne)
{
    for (const auto bench : trace::kAllBenchmarks) {
        const auto outcome =
            run(bench, trace::smallConfigRanks(bench), true);
        EXPECT_TRUE(outcome.constraintsMet)
            << trace::benchmarkName(bench);
        EXPECT_TRUE(outcome.violations.empty())
            << trace::benchmarkName(bench);
        for (SwitchId s = 0; s < outcome.design.numSwitches; ++s)
            EXPECT_LE(outcome.design.switchDegree(s), 5u);
    }
}

TEST(MergeSwitches, NeverIncreasesLinksBeyondSlack)
{
    const auto merged = run(trace::Benchmark::SP, 9, true);
    const auto plain = run(trace::Benchmark::SP, 9, false);
    // Accept criterion: at most one extra full-duplex link in total.
    EXPECT_LE(merged.design.totalLinks(), plain.design.totalLinks() + 1);
}

TEST(MergeSwitches, NoOpWhenAlreadyMinimal)
{
    // CG-8 converges to 4 switches of 2 procs; merging two of those
    // would exceed the degree budget, so the pass must leave it alone.
    const auto merged = run(trace::Benchmark::CG, 8, true);
    EXPECT_EQ(merged.design.numSwitches, 4u);
    EXPECT_TRUE(merged.constraintsMet);
}

TEST(MergeSwitches, DeterministicAcrossRuns)
{
    const auto a = run(trace::Benchmark::BT, 9, true);
    const auto b = run(trace::Benchmark::BT, 9, true);
    EXPECT_EQ(a.design.numSwitches, b.design.numSwitches);
    EXPECT_EQ(a.design.totalLinks(), b.design.totalLinks());
    EXPECT_EQ(a.design.procHome, b.design.procHome);
}

TEST(MergeSwitches, CountersAreThreadInvariantAndAddUp)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "observability compiled out";
    DesignOutcome one;
    DesignOutcome four;
    const auto c1 = mergeCounters(1, &one);
    const auto c4 = mergeCounters(4, &four);
    EXPECT_EQ(c1, c4);
    EXPECT_EQ(one.design.procHome, four.design.procHome);

    // Every pair tried ends in exactly one outcome.
    EXPECT_EQ(c1[0], c1[1] + c1[2] + c1[3] + c1[4]);
    // Consolidation ran for every attempted merge; a move is searched
    // before it can commit, and some skip the search outright.
    EXPECT_GT(c1[5], 0u);
    EXPECT_LE(c1[6], c1[5]);
    EXPECT_LE(c1[7], c1[6]);
    // Each accepted merge removes one switch from the restart winner.
    const auto plain = run(trace::Benchmark::BT, 9, false, 1);
    EXPECT_GT(c1[4], 0u);
    EXPECT_EQ(c1[4],
              plain.design.numSwitches - one.design.numSwitches);
}
