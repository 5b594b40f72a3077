/**
 * @file
 * Unit tests for the coherence traffic generator: protocol-expansion
 * invariants, seed determinism, trace well-formedness, and the
 * activity-vs-static power cross-check on the NAS golden patterns.
 */

#include <gtest/gtest.h>

#include <map>

#include "coh/coherence.hpp"
#include "sim/trace_driver.hpp"
#include "topo/builders.hpp"
#include "topo/power.hpp"
#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;
using namespace minnoc::coh;

namespace {

CoherenceConfig
smallConfig()
{
    CoherenceConfig cfg;
    cfg.ranks = 8;
    cfg.blocks = 32;
    cfg.maxSharers = 3;
    cfg.rounds = 3;
    cfg.opsPerRankPerRound = 12;
    return cfg;
}

} // namespace

TEST(Coherence, SeedDeterminism)
{
    const auto cfg = smallConfig();
    const auto a = expandCoherence(cfg);
    const auto b = expandCoherence(cfg);
    ASSERT_EQ(a.messages.size(), b.messages.size());
    for (std::size_t i = 0; i < a.messages.size(); ++i) {
        EXPECT_EQ(a.messages[i].type, b.messages[i].type);
        EXPECT_EQ(a.messages[i].src, b.messages[i].src);
        EXPECT_EQ(a.messages[i].dst, b.messages[i].dst);
        EXPECT_EQ(a.messages[i].bytes, b.messages[i].bytes);
        EXPECT_EQ(a.messages[i].callId, b.messages[i].callId);
        EXPECT_EQ(a.messages[i].txn, b.messages[i].txn);
    }

    auto other = cfg;
    other.seed = 99;
    const auto c = expandCoherence(other);
    bool differs = c.messages.size() != a.messages.size();
    for (std::size_t i = 0; !differs && i < a.messages.size(); ++i)
        differs = a.messages[i].type != c.messages[i].type ||
                  a.messages[i].src != c.messages[i].src ||
                  a.messages[i].dst != c.messages[i].dst;
    EXPECT_TRUE(differs);
}

TEST(Coherence, EveryGetXPrecedesItsInvalidations)
{
    const auto exp = expandCoherence(smallConfig());
    // Per transaction: the index of its GetX (if any) and its Invs.
    std::map<std::uint32_t, std::size_t> getxAt;
    for (std::size_t i = 0; i < exp.messages.size(); ++i)
        if (exp.messages[i].type == MsgType::GetX)
            getxAt[exp.messages[i].txn] = i;
    std::size_t invsChecked = 0;
    for (std::size_t i = 0; i < exp.messages.size(); ++i) {
        const auto &m = exp.messages[i];
        if (m.type != MsgType::Inv)
            continue;
        const auto it = getxAt.find(m.txn);
        if (it == getxAt.end())
            continue; // load-side capacity eviction, no GetX
        EXPECT_LT(it->second, i);
        ++invsChecked;
    }
    EXPECT_GT(invsChecked, 0u);
}

TEST(Coherence, AckCountsMatchSharerCounts)
{
    const auto exp = expandCoherence(smallConfig());
    // The ledger counts protocol events, so the pairing survives
    // self-message elision: acks == invalidations per transaction, and
    // the aggregate per-type counters agree with the ledger sums.
    std::uint64_t invs = 0;
    std::uint64_t acks = 0;
    for (const auto &txn : exp.txns) {
        EXPECT_EQ(txn.acks, txn.invalidations);
        invs += txn.invalidations;
        acks += txn.acks;
    }
    EXPECT_GT(invs, 0u);
    EXPECT_EQ(invs,
              exp.stats.perType[static_cast<std::size_t>(MsgType::Inv)]);
    EXPECT_EQ(acks,
              exp.stats.perType[static_cast<std::size_t>(MsgType::Ack)]);
    EXPECT_LE(exp.stats.maxInvFanout, smallConfig().maxSharers);
}

TEST(Coherence, TraceRoundTripsThroughAnalyzer)
{
    const auto cfg = smallConfig();
    const auto exp = expandCoherence(cfg);
    const auto tr = traceFromExpansion(exp, cfg);
    EXPECT_EQ(tr.numRanks(), cfg.ranks);
    // Only non-local messages become Sends.
    std::uint64_t wire = 0;
    for (const auto &m : exp.messages)
        wire += m.src != m.dst ? 1 : 0;
    EXPECT_EQ(tr.numSends(), wire);

    const auto cliques = trace::analyzeByCall(tr);
    EXPECT_GT(cliques.numCliques(), 0u);
    EXPECT_GT(cliques.numComms(), 0u);
    EXPECT_EQ(cliques.numProcs(), cfg.ranks);
}

TEST(Coherence, ReplayIsDeadlockFree)
{
    CoherenceConfig cfg = smallConfig();
    cfg.homeMap = HomeMap::FirstTouch;
    const auto tr = coherenceTrace(cfg);
    const auto net = topo::buildMesh(cfg.ranks);
    const auto res = sim::runTrace(tr, *net.topo, *net.routing);
    EXPECT_EQ(res.deadlockRecoveries, 0u);
    EXPECT_GT(res.execTime, 0);
}

TEST(Coherence, ParseMixAcceptsAndRejects)
{
    std::string err;
    const auto mix = parseMix(
        "private:0.5,read_shared:0.3,migratory:0.1,"
        "producer_consumer:0.1",
        err);
    ASSERT_TRUE(mix.has_value()) << err;
    EXPECT_DOUBLE_EQ(mix->weights[0], 0.5);
    EXPECT_DOUBLE_EQ(mix->weights[3], 0.1);

    const char *bad[] = {"",          "private",      "private:",
                         "bogus:1",   "private:-1",   "private:nan",
                         "private:1,private:2",       ":0.5",
                         "private:0,read_shared:0",   "private:1,,"};
    for (const auto *text : bad) {
        err.clear();
        EXPECT_FALSE(parseMix(text, err).has_value()) << text;
        EXPECT_FALSE(err.empty()) << text;
    }
}

TEST(Coherence, ValidateRejectsDegenerateConfigs)
{
    CoherenceConfig cfg = smallConfig();
    cfg.ranks = 1;
    EXPECT_DEATH(cfg.validate(), "ranks");
    cfg = smallConfig();
    cfg.blocks = 0;
    EXPECT_DEATH(cfg.validate(), "block");
    cfg = smallConfig();
    cfg.maxSharers = 0;
    EXPECT_DEATH(cfg.validate(), "sharer");
}

TEST(Power, ActivityVsStaticOnGoldenPatterns)
{
    // Cross-check both tiers on the five NAS patterns: the static tier
    // is the historical model (same numbers the golden designs were
    // priced with), the activity tier must land within a documented
    // envelope of it — counters-driven, not a rescale, but the same
    // order of magnitude on the same traffic.
    topo::PowerModel activityModel;
    activityModel.kind = topo::PowerModelKind::Activity;
    for (const auto bench : trace::kAllBenchmarks) {
        trace::NasConfig cfg;
        cfg.ranks = 16;
        cfg.iterations = 1;
        const auto tr = trace::generateBenchmark(bench, cfg);
        const auto net = topo::buildMesh(cfg.ranks);
        const auto res = sim::runTrace(tr, *net.topo, *net.routing);

        const auto stat = topo::computeEnergy(*net.topo, res.linkFlits,
                                              res.execTime);
        const auto act =
            topo::computeEnergy(*net.topo, res.linkFlits, res.execTime,
                                res.activity, activityModel);

        // Static tier: exactly the historical per-flit-hop accounting,
        // independent of the activity counters.
        const auto statAgain = topo::computeEnergy(
            *net.topo, res.linkFlits, res.execTime, res.activity,
            topo::PowerModel{});
        EXPECT_DOUBLE_EQ(stat.total(), statAgain.total());
        EXPECT_DOUBLE_EQ(stat.bufferDynamic, 0.0);
        EXPECT_DOUBLE_EQ(stat.bufferLeakage, 0.0);

        // Activity tier: buffers billed, total within [0.25x, 4x] of
        // static on mesh replays of well-behaved traffic (see
        // DESIGN.md §5k).
        EXPECT_GT(act.bufferDynamic, 0.0)
            << trace::benchmarkName(bench);
        const double ratio = act.total() / stat.total();
        EXPECT_GT(ratio, 0.25) << trace::benchmarkName(bench);
        EXPECT_LT(ratio, 4.0) << trace::benchmarkName(bench);
    }
}

TEST(Power, SignatureAppendsOnlyOnActivity)
{
    topo::PowerModel stat;
    topo::PowerModel act;
    act.kind = topo::PowerModelKind::Activity;
    EXPECT_EQ(stat.signature().find("act="), std::string::npos);
    EXPECT_NE(act.signature().find("act=1"), std::string::npos);
    EXPECT_NE(stat.signature(), act.signature());
}
