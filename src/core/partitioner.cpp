#include "partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "hier_partitioner.hpp"
#include "route_optimizer.hpp"
#include "util/log.hpp"

namespace minnoc::core {

namespace {

/** Cost a move is judged by: summed link estimate of the cut's pipes. */
std::uint32_t
cutCost(const DesignNetwork &net, SwitchId si, SwitchId sj)
{
    // One incidence scan over cached Fast_Color values; no per-call key
    // vector to build, sort, and dedupe.
    return net.cutEstimate(si, sj);
}

/** A candidate processor move across the fresh cut. */
struct MoveCandidate
{
    ProcId proc = kNoProc;
    SwitchId from = kNoSwitch;
    SwitchId to = kNoSwitch;
    std::int64_t delta = 0; ///< cost change; negative improves
};

/**
 * Evaluate every balanced processor move between @p si and @p sj by
 * temporarily applying it (the paper evaluates with direct routes; our
 * endpoint recomputation preserves route interiors, which direct routes
 * have anyway right after a split).
 */
std::vector<MoveCandidate>
enumerateMoves(DesignNetwork &net, SwitchId si, SwitchId sj,
               std::uint32_t maxImbalance)
{
    std::vector<MoveCandidate> candidates;
    const std::uint32_t before = cutCost(net, si, sj);

    auto consider = [&](SwitchId from, SwitchId to) {
        // Every candidate is applied and undone, so the switch sizes —
        // and with them the balance rule — are invariant across the
        // per-proc loop: check once, outside it.
        const auto fromSize =
            static_cast<std::int64_t>(net.procsOf(from).size()) - 1;
        const auto toSize =
            static_cast<std::int64_t>(net.procsOf(to).size()) + 1;
        // Balance rule (paper: skew at most 2) plus a no-emptying
        // guard: un-splitting a switch would loop the algorithm.
        if (fromSize < 1 ||
            std::llabs(toSize - fromSize) >
                static_cast<std::int64_t>(maxImbalance)) {
            return;
        }
        const std::vector<ProcId> procs = net.procsOf(from); // copy
        for (const ProcId p : procs) {
            net.moveProc(p, to);
            const std::uint32_t after = cutCost(net, si, sj);
            net.moveProc(p, from);
            candidates.push_back(MoveCandidate{
                p, from, to,
                static_cast<std::int64_t>(after) -
                    static_cast<std::int64_t>(before)});
        }
    };
    consider(si, sj);
    consider(sj, si);
    return candidates;
}

/** Global (violation, links) measure used by the swap refinement. */
std::pair<std::uint64_t, std::uint32_t>
placementMeasure(const DesignNetwork &net, const DesignConstraints &dc)
{
    std::uint64_t viol = 0;
    const auto degrees = net.estimatedDegrees();
    for (SwitchId s = 0; s < net.numSwitches(); ++s) {
        const auto d = degrees[s];
        if (d > dc.maxDegree)
            viol += d - dc.maxDegree;
    }
    return {viol, net.totalEstimatedLinks()};
}

} // namespace

std::vector<SwitchId>
violatingSwitches(const DesignNetwork &net, const DesignConstraints &dc)
{
    std::vector<SwitchId> bad;
    const auto degrees = net.estimatedDegrees();
    for (SwitchId s = 0; s < net.numSwitches(); ++s) {
        const auto procs =
            static_cast<std::uint32_t>(net.procsOf(s).size());
        if (!dc.satisfied(degrees[s], procs))
            bad.push_back(s);
    }
    return bad;
}

bool
refineProcSwaps(DesignNetwork &net, const DesignConstraints &dc, Rng &rng,
                std::uint32_t passes)
{
    bool improvedAny = false;
    const auto procs = net.numProcs();
    std::vector<ProcId> order(procs);
    for (ProcId p = 0; p < procs; ++p)
        order[p] = p;
    for (std::uint32_t pass = 0; pass < passes; ++pass) {
        rng.shuffle(order);
        bool improved = false;
        for (std::size_t i = 0; i < order.size(); ++i) {
            for (std::size_t j = i + 1; j < order.size(); ++j) {
                const ProcId a = order[i];
                const ProcId b = order[j];
                const SwitchId sa = net.homeOf(a);
                const SwitchId sb = net.homeOf(b);
                if (sa == sb)
                    continue;
                const auto before = placementMeasure(net, dc);
                net.moveProc(a, sb);
                net.moveProc(b, sa);
                const auto after = placementMeasure(net, dc);
                if (after < before) {
                    improved = true;
                    improvedAny = true;
                } else {
                    net.moveProc(a, sa);
                    net.moveProc(b, sb);
                }
            }
        }
        if (!improved)
            break;
    }
    return improvedAny;
}

SwitchId
splitAndSettle(DesignNetwork &net, const PartitionerConfig &config,
               Rng &rng, SwitchId si, PartitionResult &result)
{
    auto record = [&result](PartitionStep step) {
        result.history.push_back(std::move(step));
    };

    // Step 5: bisect the switch.
    const SwitchId sj = net.splitSwitch(si, rng);
    ++result.numSplits;
    if (config.paranoid)
        net.checkInvariants();
    record(PartitionStep{PartitionStep::Kind::Split, si, sj, kNoProc,
                         net.totalEstimatedLinks(),
                         "split S" + std::to_string(si)});

    // Step 6: optimize routing through the fresh halves.
    if (config.optimizeRoutes) {
        const auto ro = bestRoute(net, si, sj);
        if (config.paranoid)
            net.checkInvariants();
        if (ro.committedMoves) {
            record(PartitionStep{
                PartitionStep::Kind::Reroute, si, sj, kNoProc,
                net.totalEstimatedLinks(),
                std::to_string(ro.committedMoves) + " reroutes"});
        }
    }

    // Steps 7-9: processor moves across the cut while the estimated
    // link demand improves (or, with annealing, probabilistically).
    const std::uint32_t cutSize = static_cast<std::uint32_t>(
        net.procsOf(si).size() + net.procsOf(sj).size());
    const std::uint32_t maxMoves = config.maxMovesPerSplit
                                       ? config.maxMovesPerSplit
                                       : 4 * cutSize + 8;
    std::uint32_t movesDone = 0;
    double temperature = config.annealT0;
    std::uint32_t annealBudget =
        config.anneal ? config.annealMovesPerLevel *
                            static_cast<std::uint32_t>(
                                net.procsOf(si).size() +
                                net.procsOf(sj).size())
                      : 0;
    while (movesDone < maxMoves) {
        auto candidates = enumerateMoves(net, si, sj, config.maxImbalance);
        result.movesEvaluated += candidates.size();
        if (candidates.empty())
            break;

        std::sort(candidates.begin(), candidates.end(),
                  [](const MoveCandidate &x, const MoveCandidate &y) {
                      if (x.delta != y.delta)
                          return x.delta < y.delta;
                      return x.proc < y.proc;
                  });
        const MoveCandidate *chosen = nullptr;
        if (candidates.front().delta < 0) {
            chosen = &candidates.front();
        } else if (config.anneal && annealBudget > 0) {
            const auto &cand = candidates[rng.below(candidates.size())];
            const double accept =
                std::exp(-static_cast<double>(cand.delta) /
                         std::max(temperature, 1e-9));
            if (rng.chance(accept))
                chosen = &cand;
            temperature *= config.annealAlpha;
            --annealBudget;
        }
        if (!chosen)
            break;

        net.moveProc(chosen->proc, chosen->to);
        ++result.numMoves;
        ++movesDone;
        if (config.paranoid)
            net.checkInvariants();
        record(PartitionStep{
            PartitionStep::Kind::Move, chosen->from, chosen->to,
            chosen->proc, net.totalEstimatedLinks(),
            "move P" + std::to_string(chosen->proc)});

        // Step 6 again after each committed move.
        if (config.optimizeRoutes) {
            bestRoute(net, si, sj);
            if (config.paranoid)
                net.checkInvariants();
        }
    }
    return sj;
}

PartitionResult
partitionNetwork(DesignNetwork &net, const PartitionerConfig &config,
                 Rng &rng)
{
    PartitionResult result;
    const std::uint32_t maxSplits =
        config.maxSplits ? config.maxSplits : 4 * net.numProcs() + 8;
    std::uint32_t repairAttempts = 0;

    // Large-N mode: pre-cut the megaswitch along the communication
    // graph before the constraint loop, and afterwards split every
    // violator per pass instead of one random one — the global
    // consolidation between passes is the dominant cost at scale, so
    // it must run O(log N) times, not O(N).
    const bool large = config.largeScale(net.numProcs());
    if (large && net.numSwitches() == 1 && net.numProcs() >= 2)
        hierarchicalPrePartition(net, config, result);

    for (;;) {
        // Merge compatible traffic onto shared links before judging the
        // constraints: direct routes systematically overestimate the
        // degree a switch really needs.
        if (config.consolidate)
            consolidateRoutes(net, config.consolidatePasses,
                              config.constraints.maxDegree, &rng,
                              config.unidirectionalCost);
        if (config.paranoid)
            net.checkInvariants();

        auto violators = violatingSwitches(net, config.constraints);
        // Switches that cannot be split further (fewer than two procs)
        // make the constraints infeasible for this pattern.
        std::vector<SwitchId> splittable;
        for (const SwitchId s : violators) {
            if (net.procsOf(s).size() >= 2)
                splittable.push_back(s);
        }
        if (splittable.empty()) {
            if (!violators.empty() && config.consolidate &&
                repairAttempts < 4) {
                // Stuck: no violator can be split. Spread traffic away
                // from the overloaded switches even at extra link cost,
                // try global processor swaps, then re-judge. The swap
                // refinement is quadratic in processors, so the large-N
                // mode relies on repairDegrees alone.
                ++repairAttempts;
                const auto rs = repairDegrees(
                    net, config.constraints.maxDegree, 4, &rng);
                const bool swapped =
                    !large &&
                    refineProcSwaps(net, config.constraints, rng, 2);
                if (config.paranoid)
                    net.checkInvariants();
                if (rs.committedMoves || swapped)
                    continue;
            }
            result.feasible = violators.empty();
            if (!result.feasible) {
                warn("partitioner: ", violators.size(),
                     " switch(es) violate constraints but cannot be "
                     "split further");
            }
            return result;
        }
        if (result.numSplits >= maxSplits) {
            warn("partitioner: split budget exhausted (", maxSplits, ")");
            result.feasible = false;
            return result;
        }

        if (large) {
            // Batch mode: split every splittable violator this pass.
            for (const SwitchId si : splittable) {
                if (result.numSplits >= maxSplits)
                    break;
                splitAndSettle(net, config, rng, si, result);
            }
            continue;
        }

        // Step 4: randomly pick a violating switch; steps 5-9 inside.
        const SwitchId si = splittable[rng.below(splittable.size())];
        splitAndSettle(net, config, rng, si, result);
    }
}

PartitionResult
partitionNetwork(DesignNetwork &net, const PartitionerConfig &config)
{
    Rng rng(config.seed);
    return partitionNetwork(net, config, rng);
}

} // namespace minnoc::core
