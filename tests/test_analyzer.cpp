/**
 * @file
 * Unit tests for the pattern analyzer: ideal replay and by-call
 * contention extraction, including the paper's Figure-1 structure for
 * CG on 16 processors.
 */

#include <gtest/gtest.h>

#include "trace/analyzer.hpp"
#include "trace/nas_generators.hpp"

using namespace minnoc;
using namespace minnoc::trace;

TEST(IdealReplay, TwoRankPingTimes)
{
    Trace t("ping", 2);
    t.push(0, TraceOp::compute(100));
    t.push(0, TraceOp::send(1, 400, 0)); // 400B = 100 cycles at 4 B/cyc
    t.push(1, TraceOp::recv(0, 400, 0));

    const auto pattern = idealReplay(t);
    ASSERT_EQ(pattern.numMessages(), 1u);
    const auto &m = pattern.messages()[0];
    EXPECT_EQ(m.src, 0u);
    EXPECT_EQ(m.dst, 1u);
    // tStart = compute 100 + send overhead 10.
    EXPECT_DOUBLE_EQ(m.tStart, 110.0);
    // transfer = wire 1 + 400/4 = 101.
    EXPECT_DOUBLE_EQ(m.tFinish, 211.0);
    EXPECT_EQ(m.callId, 0u);
}

TEST(IdealReplay, RecvWaitsForSend)
{
    Trace t("wait", 2);
    t.push(0, TraceOp::compute(1000));
    t.push(0, TraceOp::send(1, 4, 0));
    t.push(1, TraceOp::recv(0, 4, 0)); // rank 1 waits from time 0
    t.push(1, TraceOp::send(0, 4, 1));
    t.push(0, TraceOp::recv(1, 4, 1));
    const auto pattern = idealReplay(t);
    ASSERT_EQ(pattern.numMessages(), 2u);
    // Second message starts only after rank 1 received the first
    // (1010 finish + 1 wire + 1 payload = 1012; + recv overhead 10 +
    // send overhead 10 = 1032).
    EXPECT_DOUBLE_EQ(pattern.messages()[1].tStart, 1032.0);
}

TEST(IdealReplay, DeadlockedTraceIsFatal)
{
    Trace t("dead", 2);
    t.push(0, TraceOp::recv(1, 4, 0));
    t.push(1, TraceOp::recv(0, 4, 1));
    // Make it structurally matched so validateMatching passes, but the
    // recvs precede the sends: replay must detect the cycle. Input can
    // reach this, so it is a user error (exit 1), not an abort.
    t.push(0, TraceOp::send(1, 4, 1));
    t.push(1, TraceOp::send(0, 4, 0));
    EXPECT_EXIT(idealReplay(t), ::testing::ExitedWithCode(1),
                "fatal: .*deadlock");
}

TEST(IdealReplay, ChannelFifoOrdering)
{
    Trace t("fifo", 2);
    t.push(0, TraceOp::send(1, 4, 0));
    t.push(0, TraceOp::send(1, 4000, 1));
    t.push(1, TraceOp::recv(0, 4, 0));
    t.push(1, TraceOp::recv(0, 4000, 1));
    const auto pattern = idealReplay(t);
    ASSERT_EQ(pattern.numMessages(), 2u);
    EXPECT_LT(pattern.messages()[0].tStart,
              pattern.messages()[1].tStart);
}

TEST(AnalyzeByCall, CgSixteenMatchesFigureOne)
{
    // The paper's Figure 1: CG on 16 processors has three distinct
    // contention periods — two row-reduce exchanges (full permutations
    // of 16 comms) and the matrix transpose (partial permutation of 12,
    // diagonal silent).
    NasConfig cfg;
    cfg.ranks = 16;
    cfg.iterations = 3;
    const auto tr = generateCG(cfg);
    auto ks = analyzeByCall(tr);
    ks.reduceToMaximum();

    EXPECT_EQ(ks.numCliques(), 3u);
    std::multiset<std::size_t> sizes;
    for (const auto &k : ks.cliques())
        sizes.insert(k.size());
    EXPECT_EQ(sizes, (std::multiset<std::size_t>{12, 16, 16}));
    EXPECT_EQ(ks.numComms(), 44u);

    // Spot-check the transpose pairs of Figure 1 (0-based): (2-1,5-1)
    // in the paper is (1, 4) here.
    EXPECT_NE(ks.findComm(core::Comm(1, 4)), core::CliqueSet::kNoComm);
    EXPECT_NE(ks.findComm(core::Comm(3, 12)), core::CliqueSet::kNoComm);
    // Diagonal processors stay silent in the transpose: (0,0)-style
    // comms never exist, and e.g. proc 0 only talks to row mates.
    EXPECT_EQ(ks.findComm(core::Comm(0, 12)), core::CliqueSet::kNoComm);
}

TEST(AnalyzeByCall, RepeatedIterationsCollapse)
{
    NasConfig cfg;
    cfg.ranks = 16;
    cfg.iterations = 1;
    const auto one = analyzeByCall(generateCG(cfg));
    cfg.iterations = 5;
    const auto five = analyzeByCall(generateCG(cfg));
    EXPECT_EQ(one.numCliques(), five.numCliques());
    EXPECT_EQ(one.numComms(), five.numComms());
}

TEST(AnalyzeByCall, SweepAgreesOnSynchronizedTraces)
{
    // With zero skew the timed sweep extraction and the by-call
    // extraction must agree on the comms and contend relation.
    NasConfig cfg;
    cfg.ranks = 8;
    cfg.iterations = 1;
    cfg.skew = 0.0;
    const auto tr = generateCG(cfg);
    auto byCall = analyzeByCall(tr);
    byCall.reduceToMaximum();
    const auto pattern = idealReplay(tr);
    auto swept = pattern.extractCliqueSet();

    EXPECT_EQ(swept.numComms(), byCall.numComms());
    // Every by-call contention pair is also a swept contention pair
    // (the sweep can only see more overlap, never less, since phases
    // execute back-to-back).
    for (core::CommId a = 0; a < byCall.numComms(); ++a) {
        for (core::CommId b = a + 1; b < byCall.numComms(); ++b) {
            if (!byCall.contend(a, b))
                continue;
            const auto sa = swept.findComm(byCall.comm(a));
            const auto sb = swept.findComm(byCall.comm(b));
            ASSERT_NE(sa, core::CliqueSet::kNoComm);
            ASSERT_NE(sb, core::CliqueSet::kNoComm);
        }
    }
}

TEST(AnalyzeByCall, SkewCreatesAtMostMorePeriods)
{
    NasConfig cfg;
    cfg.ranks = 8;
    cfg.iterations = 2;
    cfg.skew = 0.0;
    const auto calm = idealReplay(generateCG(cfg)).extractCliqueSet();
    cfg.skew = 0.4;
    const auto skewed = idealReplay(generateCG(cfg)).extractCliqueSet();
    // Heavy skew smears phase boundaries: never fewer comms, and the
    // clique count should not collapse below the calm case.
    EXPECT_GE(skewed.numComms(), calm.numComms());
}
