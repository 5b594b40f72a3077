#include "route_optimizer.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <queue>
#include <tuple>

#include "util/log.hpp"

namespace minnoc::core {

namespace {

/** Sum of Fast_Color estimates over a set of pipes. */
std::uint32_t
pipesCost(const DesignNetwork &net, const std::vector<PipeKey> &keys)
{
    std::uint32_t total = 0;
    for (const auto &k : keys)
        total += net.fastColor(k);
    return total;
}

/**
 * Attempt one route edit on @p c: replace the route's segment between
 * positions pos and pos+1 with the given middle switch inserted (detour)
 * or drop the switch at @p pos (straighten, middle == kNoSwitch).
 * Commits only if the summed estimate over affected pipes decreases.
 * @return links saved (0 when rejected).
 */
std::uint32_t
tryEdit(DesignNetwork &net, CommId c, std::size_t pos, SwitchId middle)
{
    const std::vector<SwitchId> oldRoute = net.route(c);
    std::vector<SwitchId> newRoute = oldRoute;

    if (middle != kNoSwitch) {
        // Detour: (a, b) -> (a, middle, b). Skip if middle already on
        // the route; routes must stay simple.
        if (std::find(oldRoute.begin(), oldRoute.end(), middle) !=
            oldRoute.end()) {
            return 0;
        }
        newRoute.insert(newRoute.begin() +
                            static_cast<std::ptrdiff_t>(pos) + 1,
                        middle);
    } else {
        // Straighten: (a, x, b) -> (a, b); pos indexes x. Endpoints are
        // pinned by the processor homes, so only interior removal.
        if (pos == 0 || pos + 1 >= oldRoute.size())
            return 0;
        if (oldRoute[pos - 1] == oldRoute[pos + 1])
            return 0; // would create an immediate repeat
        newRoute.erase(newRoute.begin() + static_cast<std::ptrdiff_t>(pos));
    }

    // Affected pipes: every adjacency that differs between the routes.
    std::vector<PipeKey> affected;
    auto collect = [&affected](const std::vector<SwitchId> &r) {
        for (std::size_t i = 0; i + 1 < r.size(); ++i)
            affected.emplace_back(r[i], r[i + 1]);
    };
    collect(oldRoute);
    collect(newRoute);
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());

    const std::uint32_t before = pipesCost(net, affected);
    net.setRoute(c, newRoute);
    const std::uint32_t after = pipesCost(net, affected);
    if (after < before)
        return before - after;
    net.setRoute(c, oldRoute);
    return 0;
}

/**
 * One Best_Route direction: for every pipe P(s, k) incident to @p s with
 * k != sibling, try detouring each of its communications through the
 * sibling, and try straightening existing detours through the sibling.
 */
void
optimizePipesOf(DesignNetwork &net, SwitchId s, SwitchId sibling,
                RouteOptStats &stats)
{
    for (const auto &key : net.pipesOf(s)) {
        const SwitchId other = (key.a == s) ? key.b : key.a;
        if (other == sibling)
            continue;

        // Snapshot the comm ids first: edits mutate the pipe sets.
        const Pipe &p = net.pipe(key);
        std::vector<CommId> comms = p.fwd.toVector();
        const std::vector<CommId> bwdIds = p.bwd.toVector();
        comms.insert(comms.end(), bwdIds.begin(), bwdIds.end());
        std::sort(comms.begin(), comms.end());
        comms.erase(std::unique(comms.begin(), comms.end()), comms.end());

        for (const CommId c : comms) {
            const auto &r = net.route(c);
            // Find an adjacency (s, other) or (other, s) in the route.
            for (std::size_t i = 0; i + 1 < r.size(); ++i) {
                const bool hits = (r[i] == s && r[i + 1] == other) ||
                                  (r[i] == other && r[i + 1] == s);
                if (!hits)
                    continue;
                ++stats.triedMoves;
                const std::uint32_t saved = tryEdit(net, c, i, sibling);
                if (saved) {
                    ++stats.committedMoves;
                    stats.linksSaved += saved;
                }
                break; // route changed or not; re-scan on next pass
            }
        }
    }

    // Straightening pass: remove detours through the sibling that no
    // longer pay for themselves.
    for (const auto &key : net.pipesOf(sibling)) {
        const Pipe &p = net.pipe(key);
        std::vector<CommId> comms = p.fwd.toVector();
        const std::vector<CommId> bwdIds = p.bwd.toVector();
        comms.insert(comms.end(), bwdIds.begin(), bwdIds.end());
        for (const CommId c : comms) {
            const auto &r = net.route(c);
            for (std::size_t i = 1; i + 1 < r.size(); ++i) {
                if (r[i] != sibling)
                    continue;
                ++stats.triedMoves;
                const std::uint32_t saved = tryEdit(net, c, i, kNoSwitch);
                if (saved) {
                    ++stats.committedMoves;
                    stats.linksSaved += saved;
                }
                break;
            }
        }
    }
}

} // namespace

RouteOptStats
bestRoute(DesignNetwork &net, SwitchId si, SwitchId sj)
{
    RouteOptStats stats;
    if (si == sj)
        panic("bestRoute: si == sj");
    optimizePipesOf(net, si, sj, stats);
    optimizePipesOf(net, sj, si, stats);
    return stats;
}

namespace {

/** Total degree violation over all switches. */
std::uint64_t
degreeViolation(const DesignNetwork &net, std::uint32_t max_degree)
{
    std::uint64_t total = 0;
    for (const auto d : net.estimatedDegrees()) {
        if (d > max_degree)
            total += d - max_degree;
    }
    return total;
}

/**
 * Fast_Color widths of one pipe hop as a reroute would leave it: the
 * victim added to the direction it travels, its paired reverse (if
 * any) added to the other, against the pipe's victim-free baseline.
 */
struct HopWidths
{
    std::uint32_t with = 0;     ///< victim's direction, victim added
    std::uint32_t other = 0;    ///< opposite direction (+ reverse)
    std::uint32_t width = 0;    ///< baseline duplex width
    std::uint32_t channels = 0; ///< baseline fwd + bwd channels
};

/** A candidate route and its summed hop price. */
struct PricedPath
{
    std::uint64_t cost = 0;
    std::vector<SwitchId> hops;
};

/**
 * One reroute of a communication: the step route consolidation and
 * degree repair share. Construction pairs @p c with the opposite-
 * direction communication when that mirrors c's route — pipes are
 * full-duplex bundles whose width is the max of the two directions, so
 * moving one direction alone never narrows a shared pipe — and
 * snapshots every pipe with the pair removed. Callers price hops with
 * hop(), search with cheapestPath() under their own neighbour offers,
 * and commit() the result under their own acceptance rule.
 */
class Reroute
{
  public:
    Reroute(DesignNetwork &net, CommId c)
        : _net(net), _c(c), _old(net.route(c))
    {
        const CliqueSet &cliques = net.cliques();
        _rev = cliques.findComm(cliques.comm(c).reversed());
        if (_rev == c ||
            (_rev != CliqueSet::kNoComm &&
             !std::equal(_old.begin(), _old.end(),
                         net.route(_rev).rbegin(), net.route(_rev).rend())))
            _rev = CliqueSet::kNoComm; // asymmetric: treat c alone

        // Pipes the victims do not cross point straight at the live
        // pipe's sets and cached Fast_Color values (valid because
        // pricing only reads them before any route commits); only the
        // handful of pipes on the victims' routes own victim-free
        // copies.
        net.forEachPipe([&](const PipeKey &key, const Pipe &p) {
            _keys.push_back(key);
            Baseline &b = _base.emplace_back();
            const bool touched =
                p.fwd.test(c) || p.bwd.test(c) ||
                (_rev != CliqueSet::kNoComm &&
                 (p.fwd.test(_rev) || p.bwd.test(_rev)));
            if (!touched) {
                b.live = &p;
                std::tie(b.fcFwd, b.fcBwd) = net.fastColorDirs(p);
                return;
            }
            b.ownedFwd = p.fwd;
            b.ownedBwd = p.bwd;
            for (const CommId v : {c, _rev}) {
                if (v == CliqueSet::kNoComm)
                    continue;
                b.ownedFwd.erase(v);
                b.ownedBwd.erase(v);
            }
            b.fcFwd = net.fastColorSet(b.ownedFwd);
            b.fcBwd = net.fastColorSet(b.ownedBwd);
        });
    }

    const std::vector<SwitchId> &oldRoute() const { return _old; }
    SwitchId src() const { return _old.front(); }
    SwitchId dst() const { return _old.back(); }

    /**
     * Widths of pipe (u, v) with the victim riding it u -> v, or
     * nullopt when no such pipe exists. The with-victim Fast_Color
     * values are memoized per pipe direction, so repeated relaxations
     * of one pipe cost one popcount scan in total.
     */
    std::optional<HopWidths>
    hop(SwitchId u, SwitchId v)
    {
        const auto it =
            std::lower_bound(_keys.begin(), _keys.end(), PipeKey(u, v));
        if (it == _keys.end() || !(*it == PipeKey(u, v)))
            return std::nullopt;
        Baseline &b = _base[static_cast<std::size_t>(it - _keys.begin())];
        const bool forward = u < v;
        std::int64_t &withC = forward ? b.withCFwd : b.withCBwd;
        if (withC < 0)
            withC = _net.fastColorSetPlus(forward ? b.fwd() : b.bwd(), _c);
        HopWidths h;
        h.with = static_cast<std::uint32_t>(withC);
        h.other = forward ? b.fcBwd : b.fcFwd;
        if (_rev != CliqueSet::kNoComm) {
            std::int64_t &withR = forward ? b.withRevBwd : b.withRevFwd;
            if (withR < 0) {
                withR = _net.fastColorSetPlus(forward ? b.bwd() : b.fwd(),
                                              _rev);
            }
            h.other = static_cast<std::uint32_t>(withR);
        }
        h.width = std::max(b.fcFwd, b.fcBwd);
        h.channels = b.fcFwd + b.fcBwd;
        return h;
    }

    /**
     * Dijkstra from src() to dst(). Each settled switch v at distance d
     * calls offers(v, d, relax); relax(w, nd) records w at distance nd
     * via v if that beats w's best so far. Returns nullopt when dst()
     * is unreachable or the cheapest path is the current route.
     */
    template <typename Offers>
    std::optional<PricedPath>
    cheapestPath(Offers &&offers)
    {
        const std::size_t n = _net.numSwitches();
        std::vector<std::uint64_t> dist(n, 0);
        std::vector<SwitchId> parent(n, kNoSwitch);
        std::vector<bool> reached(n, false);
        // Lazy deletion: an improvement pushes a fresh entry and leaves
        // the old one to be skipped when popped. Live entries pop in
        // (distance, switch) order; equal distances settle the lower
        // switch id first, which decides ties between equal-cost paths.
        using Entry = std::pair<std::uint64_t, SwitchId>;
        std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
            frontier;
        dist[src()] = 0;
        reached[src()] = true;
        frontier.push({0, src()});
        while (!frontier.empty()) {
            const auto [d, v] = frontier.top();
            frontier.pop();
            if (d > dist[v])
                continue; // stale
            if (v == dst())
                break;
            offers(v, d, [&, v = v](SwitchId w, std::uint64_t nd) {
                if (!reached[w] || nd < dist[w]) {
                    reached[w] = true;
                    dist[w] = nd;
                    parent[w] = v;
                    frontier.push({nd, w});
                }
            });
        }
        if (!reached[dst()])
            return std::nullopt;
        PricedPath path{dist[dst()], {dst()}};
        while (path.hops.back() != src())
            path.hops.push_back(parent[path.hops.back()]);
        std::reverse(path.hops.begin(), path.hops.end());
        if (path.hops == _old)
            return std::nullopt;
        return path;
    }

    /**
     * Move the victim (and its paired reverse, mirrored) onto @p path,
     * keep the move if accept() then returns true, otherwise restore
     * the old routes. Ends the reroute: pricing must not follow.
     */
    template <typename Accept>
    bool
    commit(const std::vector<SwitchId> &path, Accept &&accept)
    {
        const bool paired = _rev != CliqueSet::kNoComm;
        _net.setRoute(_c, path);
        if (paired)
            _net.setRoute(_rev,
                          std::vector<SwitchId>(path.rbegin(), path.rend()));
        if (accept())
            return true;
        _net.setRoute(_c, _old);
        if (paired)
            _net.setRoute(_rev,
                          std::vector<SwitchId>(_old.rbegin(), _old.rend()));
        return false;
    }

  private:
    /** One pipe with the victims removed, plus with-victim memo slots. */
    struct Baseline
    {
        const Pipe *live = nullptr; ///< the pipe, if no victim crosses it
        CommBitset ownedFwd;        ///< victim-free copies otherwise
        CommBitset ownedBwd;
        std::uint32_t fcFwd = 0;
        std::uint32_t fcBwd = 0;
        std::int64_t withCFwd = -1;   ///< fastColor(fwd + c), -1 = unset
        std::int64_t withCBwd = -1;   ///< fastColor(bwd + c)
        std::int64_t withRevFwd = -1; ///< fastColor(fwd + rev)
        std::int64_t withRevBwd = -1; ///< fastColor(bwd + rev)

        const CommBitset &fwd() const { return live ? live->fwd : ownedFwd; }
        const CommBitset &bwd() const { return live ? live->bwd : ownedBwd; }
    };

    DesignNetwork &_net;
    CommId _c;
    CommId _rev = CliqueSet::kNoComm;
    std::vector<SwitchId> _old;
    std::vector<PipeKey> _keys; ///< sorted, as forEachPipe visits them
    std::vector<Baseline> _base;
};

/**
 * One consolidation attempt for a single communication: the cheapest
 * path over existing pipes, where a hop costs the links it would add,
 * replaces the route if it beats the current one and (under a degree
 * budget) does not worsen the total degree violation.
 */
bool
consolidateOne(DesignNetwork &net, CommId c, std::uint32_t max_degree,
               bool uni_cost)
{
    if (net.route(c).size() < 2)
        return false; // intra-switch: nothing to optimize
    Reroute rr(net, c);

    // Switches already at or beyond the degree budget: hops touching
    // them are penalized so traffic drains away from hubs instead of
    // piling onto them (total-links greed would otherwise happily grow
    // one giant hub switch).
    std::vector<bool> overloaded(net.numSwitches(), false);
    if (max_degree) {
        const auto degrees = net.estimatedDegrees();
        for (SwitchId s = 0; s < net.numSwitches(); ++s)
            overloaded[s] = degrees[s] > max_degree;
    }

    // Weighted hop price: marginal links dominate (a hop riding the
    // empty reverse direction of a busy full-duplex pipe is free),
    // overloaded endpoints repel, hop count breaks ties.
    constexpr std::uint64_t kLink = 1024;
    constexpr std::uint64_t kOverload = 64;
    constexpr std::uint64_t kHop = 1;
    auto hopPrice = [&](SwitchId u, SwitchId v) -> std::uint64_t {
        const auto h = rr.hop(u, v);
        if (!h)
            return static_cast<std::uint64_t>(-1) / 4; // pipe absent
        const std::uint32_t links =
            uni_cost ? h->with + h->other - h->channels
                     : std::max(h->with, h->other) - h->width;
        std::uint64_t price = static_cast<std::uint64_t>(links) * kLink +
                              kHop;
        if (max_degree)
            price += kOverload * (overloaded[u] + overloaded[v]);
        return price;
    };

    const auto &oldRoute = rr.oldRoute();
    std::uint64_t currentCost = 0;
    for (std::size_t i = 0; i + 1 < oldRoute.size(); ++i)
        currentCost += hopPrice(oldRoute[i], oldRoute[i + 1]);

    const auto path =
        rr.cheapestPath([&](SwitchId v, std::uint64_t d, auto &&relax) {
            for (const SwitchId w : net.neighbors(v))
                relax(w, d + hopPrice(v, w));
        });
    if (!path || path->cost >= currentCost)
        return false;
    // Link savings must not undo repairDegrees' spreading.
    const std::uint64_t violBefore =
        max_degree ? degreeViolation(net, max_degree) : 0;
    return rr.commit(path->hops, [&] {
        return !max_degree || degreeViolation(net, max_degree) <= violBefore;
    });
}

/**
 * One repair attempt for a communication crossing an overloaded
 * switch: the cheapest path that avoids overloaded interiors, over
 * existing pipes or new ones between switches with spare degree,
 * replaces the route if the global (violation, links) measure improves.
 */
bool
repairOne(DesignNetwork &net, CommId c, std::uint32_t max_degree)
{
    const auto &route = net.route(c);
    if (route.size() < 2)
        return false;

    // One bulk degree pass feeds both the overload map and the spare
    // budget (for pricing new pipes).
    const auto degrees = net.estimatedDegrees();
    std::vector<bool> overloaded(net.numSwitches(), false);
    std::vector<std::int64_t> spare(net.numSwitches(), 0);
    for (SwitchId s = 0; s < net.numSwitches(); ++s) {
        overloaded[s] = degrees[s] > max_degree;
        spare[s] = static_cast<std::int64_t>(max_degree) -
                   static_cast<std::int64_t>(degrees[s]);
    }
    if (std::none_of(route.begin(), route.end(),
                     [&](SwitchId s) { return overloaded[s]; }))
        return false;

    Reroute rr(net, c);
    const SwitchId src = rr.src();
    const SwitchId dst = rr.dst();

    // Widening is expensive, overloaded interiors are avoided hard, a
    // new pipe is allowed when both ends have spare degree.
    constexpr std::uint64_t kAvoid = 1ull << 20;
    constexpr std::uint64_t kLink = 1024;
    constexpr std::uint64_t kNewPipe = 512;
    constexpr std::uint64_t kHop = 1;
    auto price = [&](SwitchId u, SwitchId v) -> std::uint64_t {
        std::uint64_t p = kHop;
        const auto h = rr.hop(u, v);
        if (!h) {
            // New pipe: one fresh link, both endpoints must afford it.
            if (spare[u] < 1 || spare[v] < 1)
                return static_cast<std::uint64_t>(-1) / 8;
            p += kLink + kNewPipe;
        } else {
            const std::uint32_t widen =
                std::max(h->with, h->other) - h->width;
            p += static_cast<std::uint64_t>(widen) * kLink;
            // Widening a pipe consumes endpoint degree too.
            if (widen && (spare[u] < 1 || spare[v] < 1) &&
                !(overloaded[u] || overloaded[v])) {
                p += kNewPipe;
            }
        }
        if (v != dst && overloaded[v])
            p += kAvoid;
        if (u != src && overloaded[u])
            p += kAvoid;
        return p;
    };

    // Small nets relax every switch pair (the complete graph) so their
    // designs stay as they are. Large-N mode swaps that O(S^2)-per-comm
    // loop, the hottest in profile at 256+ ranks, for a sparse one:
    // existing pipes, plus new-pipe offers — whose price is uniform
    // over targets up to the two overload surcharges — broadcast at
    // most once per penalty class, from the first (hence cheapest)
    // settled switch of that class. Offers from spare-less switches
    // (priced effectively infinite in the dense loop) are dropped: a
    // repair that could only route through them would never survive
    // the acceptance check anyway. The two modes give different designs.
    const bool sparseRelax = net.numProcs() > 64;
    bool bulkDone[2] = {false, false};
    const auto path =
        rr.cheapestPath([&](SwitchId v, std::uint64_t d, auto &&relax) {
            if (!sparseRelax) {
                for (SwitchId w = 0; w < net.numSwitches(); ++w) {
                    if (w != v)
                        relax(w, d + price(v, w));
                }
                return;
            }
            for (const SwitchId w : net.neighbors(v))
                relax(w, d + price(v, w));
            if (spare[v] < 1)
                return;
            const bool pen = v != src && overloaded[v];
            if (bulkDone[pen])
                return; // a cheaper same-class switch already broadcast
            bulkDone[pen] = true;
            const std::uint64_t basePrice =
                d + kHop + kLink + kNewPipe + (pen ? kAvoid : 0);
            for (SwitchId w = 0; w < net.numSwitches(); ++w) {
                if (w == v || spare[w] < 1)
                    continue;
                relax(w, basePrice +
                             (w != dst && overloaded[w] ? kAvoid : 0));
            }
        });
    if (!path)
        return false;

    // Feasibility buys link slack: shedding a violation is worth up to
    // one extra link (consolidation claws links back afterwards).
    const std::uint64_t violBefore = degreeViolation(net, max_degree);
    const std::uint32_t linksBefore = net.totalEstimatedLinks();
    return rr.commit(path->hops, [&] {
        const std::uint64_t violAfter = degreeViolation(net, max_degree);
        const std::uint32_t linksAfter = net.totalEstimatedLinks();
        return (violAfter < violBefore && linksAfter <= linksBefore + 1) ||
               (violAfter == violBefore && linksAfter < linksBefore);
    });
}

} // namespace

RouteOptStats
repairDegrees(DesignNetwork &net, std::uint32_t max_degree,
              std::uint32_t max_passes, Rng *rng)
{
    RouteOptStats stats;
    const auto numComms =
        static_cast<CommId>(net.cliques().numComms());
    std::vector<CommId> order(numComms);
    for (CommId c = 0; c < numComms; ++c)
        order[c] = c;
    for (std::uint32_t pass = 0; pass < max_passes; ++pass) {
        if (degreeViolation(net, max_degree) == 0)
            break;
        if (rng)
            rng->shuffle(order);
        bool changed = false;
        for (const CommId c : order) {
            ++stats.triedMoves;
            if (repairOne(net, c, max_degree)) {
                ++stats.committedMoves;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    return stats;
}

RouteOptStats
consolidateRoutes(DesignNetwork &net, std::uint32_t max_passes,
                  std::uint32_t max_degree, Rng *rng, bool uni_cost)
{
    RouteOptStats stats;
    const auto numComms =
        static_cast<CommId>(net.cliques().numComms());
    std::vector<CommId> order(numComms);
    for (CommId c = 0; c < numComms; ++c)
        order[c] = c;
    for (std::uint32_t pass = 0; pass < max_passes; ++pass) {
        const std::uint32_t before = net.totalEstimatedLinks();
        if (rng)
            rng->shuffle(order);
        bool changed = false;
        for (const CommId c : order) {
            ++stats.triedMoves;
            if (consolidateOne(net, c, max_degree, uni_cost)) {
                ++stats.committedMoves;
                changed = true;
            }
        }
        const std::uint32_t after = net.totalEstimatedLinks();
        stats.linksSaved += before > after ? before - after : 0;
        if (!changed)
            break;
    }
    return stats;
}

} // namespace minnoc::core
