/**
 * @file
 * Differential tests: the bitset Fast_Color path (clique masks, AND +
 * popcount, per-pipe dirty-bit cache) must agree exactly with the
 * original ordered-set implementation, which is kept as
 * DesignNetwork::fastColorSetReference. Randomized patterns and
 * randomized mutation sequences exercise the cache invalidation in
 * moveProc / splitSwitch / setRoute.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/design_network.hpp"
#include "util/rng.hpp"

using namespace minnoc::core;
using minnoc::Rng;

namespace {

/** Random clique set: @p phases partial permutations of @p procs. */
CliqueSet
randomCliques(std::uint32_t procs, std::uint32_t phases, std::uint64_t seed)
{
    CliqueSet ks(procs);
    Rng rng(seed);
    std::vector<ProcId> perm(procs);
    for (ProcId p = 0; p < procs; ++p)
        perm[p] = p;
    for (std::uint32_t k = 0; k < phases; ++k) {
        rng.shuffle(perm);
        std::vector<Comm> comms;
        for (ProcId p = 0; p < procs; ++p) {
            // Partial permutation: some processors stay silent.
            if (perm[p] != p && rng.chance(0.8))
                comms.emplace_back(p, perm[p]);
        }
        if (!comms.empty())
            ks.addClique(comms);
    }
    return ks;
}

/** The pipe's directional comm ids as an ordered set (oracle input). */
std::set<CommId>
asSet(const CommBitset &bits)
{
    std::set<CommId> out;
    bits.forEach([&out](CommId c) { out.insert(c); });
    return out;
}

/** Check every pipe's cached estimate against the reference oracle. */
void
expectAllPipesMatch(const DesignNetwork &net)
{
    for (const auto &key : net.pipes()) {
        const Pipe &p = net.pipe(key);
        const auto refFwd = net.fastColorSetReference(asSet(p.fwd));
        const auto refBwd = net.fastColorSetReference(asSet(p.bwd));
        EXPECT_EQ(net.fastColor(key), std::max(refFwd, refBwd))
            << "pipe " << key.a << "-" << key.b;
        const auto [fcFwd, fcBwd] = net.fastColorDirs(key);
        EXPECT_EQ(fcFwd, refFwd);
        EXPECT_EQ(fcBwd, refBwd);
        EXPECT_EQ(net.fastColorSet(p.fwd), refFwd);
        EXPECT_EQ(net.fastColorSet(p.bwd), refBwd);
    }
}

} // namespace

TEST(FastColorDiff, BitsetMatchesReferenceOnRandomSets)
{
    const CliqueSet ks = randomCliques(24, 6, 11);
    const DesignNetwork net(ks);
    Rng rng(7);
    const auto numComms = static_cast<CommId>(ks.numComms());
    for (int trial = 0; trial < 200; ++trial) {
        CommBitset bits(numComms);
        std::set<CommId> ref;
        const auto fill = rng.below(numComms + 1);
        for (std::uint64_t i = 0; i < fill; ++i) {
            const auto c = static_cast<CommId>(rng.below(numComms));
            bits.insert(c);
            ref.insert(c);
        }
        EXPECT_EQ(net.fastColorSet(bits), net.fastColorSetReference(ref));
    }
}

TEST(FastColorDiff, FastColorSetPlusMatchesMaterializedUnion)
{
    const CliqueSet ks = randomCliques(20, 5, 23);
    const DesignNetwork net(ks);
    Rng rng(3);
    const auto numComms = static_cast<CommId>(ks.numComms());
    ASSERT_GE(numComms, 2u);
    for (int trial = 0; trial < 200; ++trial) {
        CommBitset bits(numComms);
        std::set<CommId> ref;
        const auto fill = rng.below(numComms);
        for (std::uint64_t i = 0; i < fill; ++i) {
            const auto c = static_cast<CommId>(rng.below(numComms));
            bits.insert(c);
            ref.insert(c);
        }
        // Pick an extra id not already in the set.
        CommId extra;
        do {
            extra = static_cast<CommId>(rng.below(numComms));
        } while (bits.test(extra));
        ref.insert(extra);
        EXPECT_EQ(net.fastColorSetPlus(bits, extra, net.fastColorSet(bits)),
                  net.fastColorSetReference(ref));
    }
}

TEST(FastColorDiff, FastColorSetPlusMatchesReferenceOnOverlappingCliques)
{
    // fastColorSetPlus scans only the cliques holding the extra comm;
    // here every comm sits in several cliques of different sizes, so
    // the size-ordered early exit and the clique-free case both run.
    for (const std::uint64_t seed : {5ull, 17ull, 99ull}) {
        Rng rng(seed);
        CliqueSet ks(8);
        std::vector<Comm> pool;
        for (ProcId s = 0; s < 8; ++s) {
            for (ProcId d = 0; d < 8; ++d) {
                if (s != d)
                    pool.emplace_back(s, d);
            }
        }
        for (const Comm &c : pool)
            ks.internComm(c);
        for (int k = 0; k < 12; ++k) {
            std::vector<Comm> members;
            const double p = 0.05 + 0.05 * rng.below(8);
            for (const Comm &c : pool) {
                if (rng.chance(p))
                    members.push_back(c);
            }
            if (!members.empty())
                ks.addClique(members);
        }
        const DesignNetwork net(ks);
        const auto numComms = static_cast<CommId>(ks.numComms());
        for (int trial = 0; trial < 300; ++trial) {
            CommBitset bits(numComms);
            std::set<CommId> ref;
            const auto fill = rng.below(numComms);
            for (std::uint64_t i = 0; i < fill; ++i) {
                const auto c = static_cast<CommId>(rng.below(numComms));
                bits.insert(c);
                ref.insert(c);
            }
            CommId extra;
            do {
                extra = static_cast<CommId>(rng.below(numComms));
            } while (bits.test(extra));
            ref.insert(extra);
            EXPECT_EQ(
                net.fastColorSetPlus(bits, extra, net.fastColorSet(bits)),
                net.fastColorSetReference(ref))
                << "seed " << seed << " trial " << trial;
        }
    }
}

TEST(FastColorDiff, CacheStaysCoherentUnderRandomMutations)
{
    for (const std::uint64_t seed : {1ull, 42ull, 1234ull}) {
        const CliqueSet ks = randomCliques(16, 5, seed);
        DesignNetwork net(ks);
        Rng rng(seed * 31 + 7);

        // Interleave splits, processor moves, and estimate reads so
        // dirty bits are set and cleared in many different orders.
        for (int step = 0; step < 60; ++step) {
            const auto kind = rng.below(4);
            if (kind == 0 && net.numSwitches() < 12) {
                std::vector<SwitchId> splittable;
                for (SwitchId s = 0; s < net.numSwitches(); ++s) {
                    if (net.procsOf(s).size() >= 2)
                        splittable.push_back(s);
                }
                if (!splittable.empty()) {
                    net.splitSwitch(
                        splittable[rng.below(splittable.size())], rng);
                }
            } else if (kind == 1 && net.numSwitches() >= 2) {
                const auto p =
                    static_cast<ProcId>(rng.below(net.numProcs()));
                const auto to = static_cast<SwitchId>(
                    rng.below(net.numSwitches()));
                if (net.procsOf(net.homeOf(p)).size() >= 2)
                    net.moveProc(p, to);
            } else if (kind == 2) {
                // Reads populate the cache; later writes must dirty it.
                net.totalEstimatedLinks();
                for (SwitchId s = 0; s < net.numSwitches(); ++s)
                    net.estimatedDegree(s);
            } else {
                expectAllPipesMatch(net);
            }
        }
        expectAllPipesMatch(net);
        net.checkInvariants(); // also validates cached vs recomputed
    }
}

TEST(FastColorDiff, EstimatedDegreesMatchPerSwitchQueries)
{
    const CliqueSet ks = randomCliques(18, 4, 5);
    DesignNetwork net(ks);
    Rng rng(9);
    for (int i = 0; i < 3; ++i)
        net.splitSwitch(0, rng);
    const auto bulk = net.estimatedDegrees();
    ASSERT_EQ(bulk.size(), net.numSwitches());
    for (SwitchId s = 0; s < net.numSwitches(); ++s)
        EXPECT_EQ(bulk[s], net.estimatedDegree(s));
}

TEST(FastColorDiff, CutEstimateMatchesUnionOfIncidentPipes)
{
    const CliqueSet ks = randomCliques(18, 4, 17);
    DesignNetwork net(ks);
    Rng rng(13);
    const SwitchId sj = net.splitSwitch(0, rng);
    const SwitchId sk = net.splitSwitch(0, rng);
    for (const auto &[si, other] :
         std::vector<std::pair<SwitchId, SwitchId>>{
             {0, sj}, {0, sk}, {sj, sk}}) {
        // Oracle: sorted unique union of both incidence lists.
        std::vector<PipeKey> keys = net.pipesOf(si);
        for (const auto &k : net.pipesOf(other))
            keys.push_back(k);
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        std::uint32_t expected = 0;
        for (const auto &k : keys)
            expected += net.fastColor(k);
        EXPECT_EQ(net.cutEstimate(si, other), expected);
    }
}

TEST(FastColorDiff, StatsCountCallsAndHits)
{
    const CliqueSet ks = randomCliques(12, 3, 2);
    DesignNetwork net(ks);
    Rng rng(1);
    net.splitSwitch(0, rng);

    resetFastColorStats();
    const auto cold = net.totalEstimatedLinks();
    const auto afterCold = fastColorStats();
    EXPECT_GT(afterCold.calls, 0u);

    const auto warm = net.totalEstimatedLinks();
    const auto afterWarm = fastColorStats();
    EXPECT_EQ(cold, warm);
    // Second scan is served entirely from the per-pipe caches.
    EXPECT_EQ(afterWarm.cacheHits - afterCold.cacheHits,
              afterWarm.calls - afterCold.calls);
}
