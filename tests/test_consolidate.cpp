/**
 * @file
 * Direct unit tests for global route consolidation and degree repair
 * (the extensions in DESIGN.md section 5b).
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/design_network.hpp"
#include "core/route_optimizer.hpp"
#include "util/rng.hpp"

using namespace minnoc::core;
using minnoc::Rng;

namespace {

/**
 * Three switches in a row hosting procs {0,1}, {2,3}, {4,5}; comms
 * supplied by the caller. Returns switch ids {a, b, c}.
 */
std::array<SwitchId, 3>
threeSwitches(DesignNetwork &net, Rng &rng)
{
    const SwitchId b = net.splitSwitch(0, rng);
    const SwitchId c = net.splitSwitch(0, rng);
    for (ProcId p : {0u, 1u})
        net.moveProc(p, 0);
    for (ProcId p : {2u, 3u})
        net.moveProc(p, b);
    for (ProcId p : {4u, 5u})
        net.moveProc(p, c);
    return {0, b, c};
}

} // namespace

TEST(Consolidate, MergesCompatibleTrafficOntoSharedPipes)
{
    // (0,4) and (1,5) in different cliques: consolidation can ride
    // both on one pipe A-C with width 1.
    CliqueSet ks(6);
    ks.addClique({Comm(0, 4)});
    ks.addClique({Comm(1, 5)});
    DesignNetwork net(ks);
    Rng rng(1);
    threeSwitches(net, rng);
    EXPECT_EQ(net.totalEstimatedLinks(), 1u); // direct routes share A-C

    // Force them apart first: reroute (1,5) via B.
    const CommId c15 = ks.findComm(Comm(1, 5));
    net.setRoute(c15, {net.homeOf(1), 1, net.homeOf(5)});
    EXPECT_EQ(net.totalEstimatedLinks(), 3u);

    const auto stats = consolidateRoutes(net, 4);
    EXPECT_GT(stats.committedMoves, 0u);
    // Greedy consolidation reclaims at least one link; depending on
    // visit order it lands on the 1-link global optimum (both comms
    // direct) or the 2-link local optimum (both via B).
    EXPECT_LE(net.totalEstimatedLinks(), 2u);
    net.checkInvariants();
}

TEST(Consolidate, RespectsConflicts)
{
    // Same clique: the two comms can never share a link; consolidation
    // must not collapse them into width-1.
    CliqueSet ks(6);
    ks.addClique({Comm(0, 4), Comm(1, 5)});
    DesignNetwork net(ks);
    Rng rng(2);
    threeSwitches(net, rng);

    consolidateRoutes(net, 4);
    net.checkInvariants();
    // Total estimate can be 2 (width-2 pipe or detour) but never 1.
    EXPECT_GE(net.totalEstimatedLinks(), 2u);
}

TEST(Consolidate, MovesMirroredPairsJointly)
{
    // Exchange pair (0,4)/(4,0): individually unmovable (full-duplex
    // width is the max), jointly consolidatable onto the A-B-C path.
    CliqueSet ks(6);
    ks.addClique({Comm(0, 4), Comm(4, 0)});
    ks.addClique({Comm(0, 2), Comm(2, 0)});
    ks.addClique({Comm(2, 4), Comm(4, 2)});
    DesignNetwork net(ks);
    Rng rng(3);
    threeSwitches(net, rng);
    // Direct routes: pipes A-C, A-B, B-C each width 1 = 3 links.
    EXPECT_EQ(net.totalEstimatedLinks(), 3u);

    consolidateRoutes(net, 8);
    net.checkInvariants();
    // (0,4)/(4,0) can ride A-B + B-C (different cliques from the
    // neighbor exchanges): 2 links total.
    EXPECT_EQ(net.totalEstimatedLinks(), 2u);
}

TEST(Consolidate, NoOpOnOptimalNetwork)
{
    CliqueSet ks(6);
    ks.addClique({Comm(0, 2), Comm(2, 4)});
    DesignNetwork net(ks);
    Rng rng(4);
    threeSwitches(net, rng);
    const auto before = net.totalEstimatedLinks();
    const auto stats = consolidateRoutes(net, 4);
    EXPECT_EQ(stats.committedMoves, 0u);
    EXPECT_EQ(net.totalEstimatedLinks(), before);
}

namespace {

/** Summed excess of the estimated switch degrees over @p budget. */
std::uint64_t
degreeViolation(const DesignNetwork &net, std::uint32_t budget)
{
    std::uint64_t total = 0;
    for (const auto d : net.estimatedDegrees()) {
        if (d > budget)
            total += d - budget;
    }
    return total;
}

/** A random pattern: @p phases partial permutations of ks's procs. */
void
randomPattern(CliqueSet &ks, std::uint32_t phases, Rng &rng)
{
    const std::uint32_t procs = ks.numProcs();
    std::vector<ProcId> perm(procs);
    for (ProcId p = 0; p < procs; ++p)
        perm[p] = p;
    for (std::uint32_t k = 0; k < phases; ++k) {
        rng.shuffle(perm);
        std::vector<Comm> comms;
        for (ProcId p = 0; p < procs; ++p) {
            if (perm[p] != p && rng.chance(0.8))
                comms.emplace_back(p, perm[p]);
        }
        if (!comms.empty())
            ks.addClique(comms);
    }
}

/**
 * Split @p net into up to @p switches switches, then detour a third of
 * the routes through a random switch so consolidation has work to do.
 */
void
scatterRoutes(DesignNetwork &net, std::uint32_t switches, Rng &rng)
{
    while (net.numSwitches() < switches) {
        std::vector<SwitchId> splittable;
        for (SwitchId s = 0; s < net.numSwitches(); ++s) {
            if (net.procsOf(s).size() >= 2)
                splittable.push_back(s);
        }
        if (splittable.empty())
            break;
        net.splitSwitch(splittable[rng.below(splittable.size())], rng);
    }
    const auto numComms = static_cast<CommId>(net.cliques().numComms());
    for (CommId c = 0; c < numComms; ++c) {
        if (!rng.chance(0.33))
            continue;
        const auto route = net.route(c);
        const auto via =
            static_cast<SwitchId>(rng.below(net.numSwitches()));
        net.setRoute(c, {route.front(), via, route.back()});
    }
}

} // namespace

TEST(Consolidate, RandomNetworksKeepInvariantsAndDegreeBudget)
{
    std::uint32_t committed = 0;
    for (const std::uint64_t seed : {1ull, 7ull, 23ull, 101ull}) {
        for (const std::uint32_t budget : {0u, 5u}) {
            for (const bool uni : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << "seed " << seed << " budget " << budget
                             << " uni " << uni);
                Rng rng(seed);
                CliqueSet ks(16);
                randomPattern(ks, 4, rng);
                DesignNetwork net(ks);
                scatterRoutes(net, 10, rng);
                net.checkInvariants();
                const auto violBefore = degreeViolation(net, budget);

                const auto stats =
                    consolidateRoutes(net, 8, budget, &rng, uni);
                net.checkInvariants();
                if (budget) {
                    EXPECT_LE(degreeViolation(net, budget), violBefore);
                }
                EXPECT_LE(stats.searched, stats.triedMoves);
                EXPECT_LE(stats.committedMoves, stats.searched);
                committed += stats.committedMoves;
            }
        }
    }
    // The scattered detours leave consolidation real work to commit.
    EXPECT_GT(committed, 0u);
}

TEST(Consolidate, DegreeBudgetVetoesLinkSavingMove)
{
    // A {0}, X {1}, M {2,3}, C {4}. (0,4) detours A-X-C over two
    // links of its own; A-M-C saves one by riding (0,2) on A-M for
    // free, but widens M-C next to (2,4), its cliquemate. M starts
    // exactly at the budget (2 procs + 2 pipes), so the move would
    // push it over: only the unbudgeted pass may take it.
    CliqueSet ks(5);
    ks.addClique({Comm(0, 4), Comm(2, 4)});
    ks.addClique({Comm(0, 2)});
    for (const std::uint32_t budget : {0u, 4u}) {
        DesignNetwork net(ks);
        Rng rng(8);
        while (net.numSwitches() < 4)
            net.splitSwitch(0, rng);
        const std::array<SwitchId, 5> home = {0, 1, 2, 2, 3};
        for (ProcId p = 0; p < 5; ++p)
            net.moveProc(p, home[p]);
        const CommId c04 = ks.findComm(Comm(0, 4));
        net.setRoute(c04, {0, 1, 3});
        ASSERT_EQ(net.estimatedDegree(2), 4u);

        consolidateRoutes(net, 4, budget);
        net.checkInvariants();
        const std::vector<SwitchId> expected =
            budget ? std::vector<SwitchId>{0, 1, 3}
                   : std::vector<SwitchId>{0, 2, 3};
        EXPECT_EQ(net.route(c04), expected) << "budget " << budget;
    }
}

TEST(Repair, ShedsTrafficFromOverloadedSwitch)
{
    // Hub scenario: a heavy middle switch B {1..4} relays the only
    // A <-> C communication. With a budget that makes B a violator but
    // leaves A and C plenty of spare degree, repair must open a direct
    // A-C pipe and take B out of the path.
    CliqueSet ks(6);
    ks.addClique({Comm(0, 5)});
    ks.addClique({Comm(1, 2)}); // intra-B load (no links)
    DesignNetwork net(ks);
    Rng rng(5);
    const SwitchId b = net.splitSwitch(0, rng);
    const SwitchId c = net.splitSwitch(0, rng);
    net.moveProc(0, 0);
    for (ProcId p : {1u, 2u, 3u, 4u})
        net.moveProc(p, b);
    net.moveProc(5, c);

    const auto c05 = ks.findComm(Comm(0, 5));
    net.setRoute(c05, {0, b, c});
    const auto degB = net.estimatedDegree(b);
    ASSERT_GE(degB, 6u); // 4 procs + 2 transit pipes

    const std::uint32_t budget = degB - 1;
    const auto stats = repairDegrees(net, budget, 4);
    net.checkInvariants();
    EXPECT_GT(stats.committedMoves, 0u);
    EXPECT_LE(net.estimatedDegree(b), budget);
    // The communication now bypasses B entirely.
    EXPECT_EQ(net.route(c05), (std::vector<SwitchId>{0, c}));
}

TEST(Repair, NoOpWhenWithinBudget)
{
    CliqueSet ks(6);
    ks.addClique({Comm(0, 2)});
    DesignNetwork net(ks);
    Rng rng(6);
    threeSwitches(net, rng);
    const auto stats = repairDegrees(net, 64, 4);
    EXPECT_EQ(stats.committedMoves, 0u);
}
