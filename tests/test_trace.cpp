/**
 * @file
 * Unit tests for trace representation and serialization.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "trace/trace.hpp"

using namespace minnoc;
using namespace minnoc::trace;

TEST(TraceOps, Factories)
{
    const auto c = TraceOp::compute(100);
    EXPECT_EQ(c.kind, OpKind::Compute);
    EXPECT_EQ(c.cycles, 100);

    const auto s = TraceOp::send(3, 4096, 7);
    EXPECT_EQ(s.kind, OpKind::Send);
    EXPECT_EQ(s.peer, 3u);
    EXPECT_EQ(s.bytes, 4096u);
    EXPECT_EQ(s.callId, 7u);

    const auto r = TraceOp::recv(2, 64, 1);
    EXPECT_EQ(r.kind, OpKind::Recv);
}

TEST(Trace, PushValidation)
{
    Trace t("t", 2);
    EXPECT_DEATH(t.push(5, TraceOp::compute(1)), "out of range");
    EXPECT_DEATH(t.push(0, TraceOp::send(9, 1, 0)), "out of range");
    EXPECT_DEATH(t.push(0, TraceOp::send(0, 1, 0)), "itself");
}

TEST(Trace, Accounting)
{
    Trace t("t", 2);
    t.push(0, TraceOp::compute(100));
    t.push(0, TraceOp::send(1, 1024, 0));
    t.push(1, TraceOp::recv(0, 1024, 0));
    t.push(1, TraceOp::compute(50));
    t.push(1, TraceOp::send(0, 2048, 3));
    t.push(0, TraceOp::recv(1, 2048, 3));

    EXPECT_EQ(t.numSends(), 2u);
    EXPECT_EQ(t.totalSendBytes(), 3072u);
    EXPECT_EQ(t.totalComputeCycles(), 150);
    EXPECT_EQ(t.numCalls(), 4u);
    EXPECT_NO_FATAL_FAILURE(t.validateMatching());
}

TEST(Trace, UnmatchedSendDetected)
{
    Trace t("bad", 2);
    t.push(0, TraceOp::send(1, 100, 0));
    EXPECT_DEATH(t.validateMatching(), "unmatched");
}

TEST(Trace, MismatchedCallIdDetected)
{
    Trace t("bad", 2);
    t.push(0, TraceOp::send(1, 100, 0));
    t.push(1, TraceOp::recv(0, 100, 9));
    EXPECT_DEATH(t.validateMatching(), "unmatched");
}

TEST(Trace, SaveLoadRoundTrip)
{
    Trace t("roundtrip", 3);
    t.push(0, TraceOp::compute(42));
    t.push(0, TraceOp::send(1, 512, 2));
    t.push(1, TraceOp::recv(0, 512, 2));
    t.push(2, TraceOp::compute(7));

    std::stringstream ss;
    t.save(ss);
    const Trace loaded = Trace::load(ss);
    EXPECT_EQ(loaded, t);
    EXPECT_EQ(loaded.name(), "roundtrip");
    EXPECT_EQ(loaded.numRanks(), 3u);
}

TEST(Trace, LoadRejectsGarbage)
{
    std::stringstream ss("not a trace");
    EXPECT_EXIT(Trace::load(ss), ::testing::ExitedWithCode(1),
                "bad header");
}

TEST(Trace, LoadRejectsSemanticallyInvalidOps)
{
    const std::pair<const char *, const char *> cases[] = {
        {"trace x 2\n0 send 9 64 1\n", "peer 9 out of range"},
        {"trace x 2\n1 recv 2 64 1\n", "peer 2 out of range"},
        {"trace x 2\n5 compute 1\n", "rank 5 out of range"},
        {"trace x 2\n0 send 0 64 1\n", "with itself"},
        {"trace x 2\n0 compute -5\n", "negative compute"},
        {"trace x 4097\n", "exceeds the limit of 4096"},
        {"trace x 4294967295\n", "exceeds the limit"},
    };
    for (const auto &[text, message] : cases) {
        std::stringstream ss(text);
        EXPECT_EXIT(Trace::load(ss), ::testing::ExitedWithCode(1),
                    message)
            << text;
    }
}

TEST(Trace, LoadAcceptsTheRankLimit)
{
    std::stringstream ss("trace x 4096\n4095 send 0 8 1\n0 recv 4095 8 1\n");
    const Trace t = Trace::load(ss);
    EXPECT_EQ(t.numRanks(), Trace::kMaxRanks);
    EXPECT_EQ(t.numSends(), 1u);
}

TEST(Trace, EmptyTraceRoundTrip)
{
    Trace t("empty", 2);
    std::stringstream ss;
    t.save(ss);
    const Trace loaded = Trace::load(ss);
    EXPECT_EQ(loaded, t);
    EXPECT_EQ(loaded.numSends(), 0u);
    EXPECT_EQ(loaded.numCalls(), 0u);
}
