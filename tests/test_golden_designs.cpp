/**
 * @file
 * Paper-fidelity golden regression suite: the finalized network stats
 * (switch count, pipe count, max switch degree, color count, link and
 * channel totals) for all five NAS patterns at a fixed seed are locked
 * into tests/golden/ and diffed on every run, so perf or algorithm PRs
 * cannot silently drift the reproduced designs.
 *
 * Regeneration (after an INTENTIONAL change to design output):
 *
 *     MINNOC_REGEN_GOLDEN=1 ./build/tests/test_golden_designs
 *
 * then review the tests/golden/ diff like any other code change.
 *
 * The stats only count things, so a refactor could reroute traffic and
 * leave every count unchanged. The DesignBytes tests close that gap:
 * they pin a 64-bit FNV-1a hash of the saved design text (the same
 * bytes `minnoc design --out` writes) for each NAS golden and for one
 * 72-rank closed-form pattern that exercises the large-N degree repair,
 * plus three runs at the `minnoc design` defaults: BT-25 (several
 * accepted switch merges), BT-16 under unidirectional link pricing,
 * and the repair-heavy COH-16 coherence trace (which skips merging).
 * Those hashes are not regenerated by MINNOC_REGEN_GOLDEN; a PR that
 * changes design output on purpose updates them by hand and says so.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "coh/coherence.hpp"
#include "core/design_io.hpp"
#include "core/methodology.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"
#include "trace/scale_patterns.hpp"

using namespace minnoc;

namespace {

std::string
goldenPath(trace::Benchmark bench)
{
    return std::string(MINNOC_TESTS_DIR) + "/golden/" +
           trace::benchmarkName(bench) + ".golden";
}

/** The design the golden files snapshot: small config, fixed seed. */
core::DesignOutcome
goldenDesign(trace::Benchmark bench, std::uint32_t *ranksOut)
{
    trace::NasConfig tcfg;
    tcfg.ranks = trace::smallConfigRanks(bench);
    tcfg.iterations = 1;
    tcfg.seed = 1;
    const auto tr = trace::generateBenchmark(bench, tcfg);
    *ranksOut = tr.numRanks();

    core::MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 5;
    cfg.partitioner.seed = 1;
    cfg.restarts = 6;
    cfg.threads = 1;
    return core::runMethodology(trace::analyzeByCall(tr), cfg);
}

/** Render the stats snapshot in the golden file format. */
std::string
statsSnapshot(trace::Benchmark bench, std::uint32_t ranks,
              const core::DesignOutcome &outcome)
{
    const auto &d = outcome.design;
    std::uint32_t maxDegree = 0;
    for (core::SwitchId s = 0; s < d.numSwitches; ++s)
        maxDegree = std::max(maxDegree, d.switchDegree(s));
    // "Color count": the largest per-pipe-direction channel count, i.e.
    // the maximum chromatic number the formal coloring assigned to any
    // pipe conflict graph (paper Section 3.2).
    std::uint32_t colors = 0;
    for (const auto &pipe : d.pipes)
        colors = std::max(colors, std::max(pipe.linksFwd, pipe.linksBwd));

    std::ostringstream oss;
    oss << "bench=" << trace::benchmarkName(bench) << "\n"
        << "ranks=" << ranks << "\n"
        << "switches=" << d.numSwitches << "\n"
        << "pipes=" << d.pipes.size() << "\n"
        << "max_degree=" << maxDegree << "\n"
        << "colors=" << colors << "\n"
        << "links=" << d.totalLinks() << "\n"
        << "channels=" << d.totalChannels() << "\n"
        << "constraints_met=" << (outcome.constraintsMet ? 1 : 0) << "\n"
        << "violations=" << outcome.violations.size() << "\n";
    return oss.str();
}

/** 64-bit FNV-1a over the saveDesign text of @p design, as hex. */
std::string
designHash(const core::FinalizedDesign &design)
{
    std::ostringstream oss;
    core::saveDesign(design, oss);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char ch : oss.str()) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

class GoldenDesigns : public ::testing::TestWithParam<trace::Benchmark>
{
};

class DesignBytes : public ::testing::TestWithParam<trace::Benchmark>
{
};

/**
 * Pinned design hashes of the NAS goldens. BT/SP and CG/MG share one:
 * at the small configs their communication patterns, hence designs,
 * coincide.
 */
std::string
pinnedHash(trace::Benchmark bench)
{
    switch (bench) {
    case trace::Benchmark::BT: return "147993d963ff8dcc";
    case trace::Benchmark::CG: return "00128d9e5fd00594";
    case trace::Benchmark::FFT: return "74391aa3f7204be2";
    case trace::Benchmark::MG: return "00128d9e5fd00594";
    case trace::Benchmark::SP: return "147993d963ff8dcc";
    }
    return "";
}

} // namespace

TEST_P(GoldenDesigns, MatchesSnapshot)
{
    const auto bench = GetParam();
    std::uint32_t ranks = 0;
    const auto outcome = goldenDesign(bench, &ranks);
    const auto actual = statsSnapshot(bench, ranks, outcome);
    const auto path = goldenPath(bench);

    if (std::getenv("MINNOC_REGEN_GOLDEN") != nullptr) {
        std::ofstream os(path);
        ASSERT_TRUE(os) << "cannot write " << path;
        os << actual;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — regenerate with MINNOC_REGEN_GOLDEN=1 "
                    << "./build/tests/test_golden_designs";
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto expected = buffer.str();

    EXPECT_EQ(expected, actual)
        << "finalized design stats for " << trace::benchmarkName(bench)
        << " drifted from tests/golden/. If the change is intentional, "
        << "regenerate with MINNOC_REGEN_GOLDEN=1 "
        << "./build/tests/test_golden_designs and review the diff.";
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, GoldenDesigns,
    ::testing::Values(trace::Benchmark::BT, trace::Benchmark::CG,
                      trace::Benchmark::FFT, trace::Benchmark::MG,
                      trace::Benchmark::SP),
    [](const ::testing::TestParamInfo<trace::Benchmark> &info) {
        return trace::benchmarkName(info.param);
    });

TEST_P(DesignBytes, MatchesPinnedHash)
{
    std::uint32_t ranks = 0;
    const auto outcome = goldenDesign(GetParam(), &ranks);
    EXPECT_EQ(pinnedHash(GetParam()), designHash(outcome.design))
        << "the saved design of " << trace::benchmarkName(GetParam())
        << " changed byte for byte";
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, DesignBytes,
    ::testing::Values(trace::Benchmark::BT, trace::Benchmark::CG,
                      trace::Benchmark::FFT, trace::Benchmark::MG,
                      trace::Benchmark::SP),
    [](const ::testing::TestParamInfo<trace::Benchmark> &info) {
        return trace::benchmarkName(info.param);
    });

TEST(DesignBytes, LargeScaleRepairMatchesPinnedHash)
{
    // 72 ranks puts the run in large-N mode, where degree repair uses
    // its sparse relaxation; at degree 5 this fan-out gets stuck and
    // repair commits reroutes before the partitioner gives up.
    core::MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 5;
    cfg.partitioner.seed = 1;
    cfg.restarts = 1;
    cfg.threads = 1;
    const auto outcome = core::runMethodology(
        trace::makeScalePattern("fan_uni", 72), cfg);
    EXPECT_EQ("9e5ad4703672e7f8", designHash(outcome.design));
}

namespace {

/** `minnoc design` defaults: degree 5, 16 restarts, seed 1. */
core::MethodologyConfig
cliDesignConfig()
{
    core::MethodologyConfig cfg;
    cfg.partitioner.constraints.maxDegree = 5;
    cfg.partitioner.seed = 1;
    cfg.restarts = 16;
    cfg.threads = 1;
    return cfg;
}

/** A NAS trace as `minnoc gen --bench B --ranks N` writes it. */
core::CliqueSet
cliNasCliques(trace::Benchmark bench, std::uint32_t ranks)
{
    trace::NasConfig tcfg;
    tcfg.ranks = ranks;
    tcfg.iterations = 3;
    tcfg.seed = 1;
    return trace::analyzeByCall(trace::generateBenchmark(bench, tcfg));
}

} // namespace

TEST(DesignBytes, Bt25CliDefaultsMatchesPinnedHash)
{
    // Five switch merges are accepted here, each after a full
    // consolidation pass over the merged network.
    const auto outcome = core::runMethodology(
        cliNasCliques(trace::Benchmark::BT, 25), cliDesignConfig());
    EXPECT_EQ("3781d2540bd8a8e2", designHash(outcome.design));
}

TEST(DesignBytes, Bt16UnidirectionalMatchesPinnedHash)
{
    // Unidirectional links price a route hop as fwd + bwd channels
    // instead of the duplex maximum.
    auto cfg = cliDesignConfig();
    cfg.finalize.unidirectional = true;
    const auto outcome = core::runMethodology(
        cliNasCliques(trace::Benchmark::BT, 16), cfg);
    EXPECT_EQ("0e788ce13b0b6adf", designHash(outcome.design));
}

TEST(DesignBytes, Coherence16MatchesPinnedHash)
{
    // No seed meets degree 5 on the MSI coherence trace: every restart
    // runs degree repair and the switch merge is skipped.
    const auto outcome = core::runMethodology(
        trace::analyzeByCall(coh::coherenceTrace(coh::CoherenceConfig{})),
        cliDesignConfig());
    EXPECT_EQ("20757049e2114e18", designHash(outcome.design));
}

TEST(GoldenDesigns, PerturbationFailsLoudly)
{
    // Self-test of the diff: a one-switch perturbation of the snapshot
    // must not compare equal to the golden content, so a genuinely
    // drifted design can never slip through the string comparison.
    std::uint32_t ranks = 0;
    const auto outcome = goldenDesign(trace::Benchmark::CG, &ranks);
    auto perturbed = outcome;
    perturbed.design.numSwitches += 1;
    perturbed.design.switchProcs.emplace_back();

    const auto clean =
        statsSnapshot(trace::Benchmark::CG, ranks, outcome);
    const auto dirty =
        statsSnapshot(trace::Benchmark::CG, ranks, perturbed);
    EXPECT_NE(clean, dirty);
    EXPECT_NE(dirty.find("switches="), std::string::npos);
}
