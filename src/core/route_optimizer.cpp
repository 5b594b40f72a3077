#include "route_optimizer.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <queue>

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
 * moving one direction alone never narrows a shared pipe. Callers price
 * hops with hop(), search with cheapestPath() under their own neighbour
 * offers, and commit() the result under their own acceptance rule.
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
    }

    const std::vector<SwitchId> &oldRoute() const { return _old; }
    SwitchId src() const { return _old.front(); }
    SwitchId dst() const { return _old.back(); }

    /**
     * Widths of pipe (u, v) with the victim riding it u -> v, or
     * nullopt when no such pipe exists. Only the pipes of the old route
     * carry the victims; each is priced against a victim-free copy
     * built the first time it is asked for. Every other pipe is priced
     * straight from the live pipe and its cached Fast_Color (valid
     * because pricing only reads it before any route commits), so a
     * reroute costs O(pipes reached), not O(network).
     */
    std::optional<HopWidths>
    hop(SwitchId u, SwitchId v)
    {
        const PipeKey key(u, v);
        const Pipe *live = _net.findPipe(key);
        if (!live)
            return std::nullopt;
        const bool carries =
            live->fwd.test(_c) || live->bwd.test(_c) ||
            (_rev != CliqueSet::kNoComm &&
             (live->fwd.test(_rev) || live->bwd.test(_rev)));
        const Baseline *b = carries ? &baseline(key, *live) : nullptr;
        const CommBitset &fwd = b ? b->fwd : live->fwd;
        const CommBitset &bwd = b ? b->bwd : live->bwd;
        const auto [fcFwd, fcBwd] =
            b ? std::pair(b->fcFwd, b->fcBwd) : _net.fastColorDirs(*live);
        const bool forward = u < v;
        HopWidths h;
        h.with = forward ? _net.fastColorSetPlus(fwd, _c, fcFwd)
                         : _net.fastColorSetPlus(bwd, _c, fcBwd);
        h.other = forward ? fcBwd : fcFwd;
        if (_rev != CliqueSet::kNoComm) {
            h.other = forward ? _net.fastColorSetPlus(bwd, _rev, fcBwd)
                              : _net.fastColorSetPlus(fwd, _rev, fcFwd);
        }
        h.width = std::max(fcFwd, fcBwd);
        h.channels = fcFwd + fcBwd;
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
    /** A pipe of the old route with the victims removed. */
    struct Baseline
    {
        PipeKey key;
        CommBitset fwd;
        CommBitset bwd;
        std::uint32_t fcFwd = 0;
        std::uint32_t fcBwd = 0;
    };

    /** The baseline of old-route pipe @p key, built on first use. */
    Baseline &
    baseline(const PipeKey &key, const Pipe &live)
    {
        // At most one entry per old-route hop: a scan beats any index.
        for (Baseline &b : _base) {
            if (b.key == key)
                return b;
        }
        Baseline &b = _base.emplace_back();
        b.key = key;
        b.fwd = live.fwd;
        b.bwd = live.bwd;
        for (const CommId v : {_c, _rev}) {
            if (v == CliqueSet::kNoComm)
                continue;
            b.fwd.erase(v);
            b.bwd.erase(v);
        }
        b.fcFwd = _net.fastColorSet(b.fwd);
        b.fcBwd = _net.fastColorSet(b.bwd);
        return b;
    }

    DesignNetwork &_net;
    CommId _c;
    CommId _rev = CliqueSet::kNoComm;
    std::vector<SwitchId> _old;
    std::vector<Baseline> _base; ///< old-route pipes priced so far
};

/**
 * One consolidation attempt for a single communication: the cheapest
 * path over existing pipes, where a hop costs the links it would add,
 * replaces the route if it beats the current one and (under a degree
 * budget) does not worsen the total degree violation. @p degrees holds
 * every switch's estimatedDegree on entry and is kept current on
 * commit; it is empty when there is no budget.
 */
bool
consolidateOne(DesignNetwork &net, CommId c, std::uint32_t max_degree,
               bool uni_cost, std::vector<std::uint32_t> &degrees,
               RouteOptStats &stats)
{
    if (net.route(c).size() < 2)
        return false; // intra-switch: nothing to optimize
    Reroute rr(net, c);

    // Switches already beyond the degree budget: hops touching them
    // are penalized so traffic drains away from hubs instead of piling
    // onto them (total-links greed would otherwise happily grow one
    // giant hub switch).
    auto overloaded = [&](SwitchId s) -> std::uint64_t {
        return max_degree && degrees[s] > max_degree;
    };

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
        return static_cast<std::uint64_t>(links) * kLink + kHop +
               kOverload * (overloaded(u) + overloaded(v));
    };

    const auto &oldRoute = rr.oldRoute();
    std::uint64_t currentCost = 0;
    for (std::size_t i = 0; i + 1 < oldRoute.size(); ++i)
        currentCost += hopPrice(oldRoute[i], oldRoute[i + 1]);
    // A one-hop route that adds no links already has the least price
    // any path can have: every other path has at least two hops, each
    // priced >= kHop, and carries the same endpoint penalties.
    if (oldRoute.size() == 2 &&
        currentCost == kHop + kOverload * (overloaded(rr.src()) +
                                           overloaded(rr.dst())))
        return false;

    ++stats.searched;
    const auto path =
        rr.cheapestPath([&](SwitchId v, std::uint64_t d, auto &&relax) {
            for (const SwitchId w : net.neighbors(v))
                relax(w, d + hopPrice(v, w));
        });
    if (!path || path->cost >= currentCost)
        return false;
    if (!max_degree)
        return rr.commit(path->hops, [] { return true; });

    // Link savings must not undo repairDegrees' spreading. Only the
    // switches on the old or new route can change degree, so comparing
    // the violation over them decides exactly as a whole-network sum.
    std::vector<SwitchId> moved = oldRoute;
    moved.insert(moved.end(), path->hops.begin(), path->hops.end());
    std::sort(moved.begin(), moved.end());
    moved.erase(std::unique(moved.begin(), moved.end()), moved.end());
    auto excess = [&](std::uint32_t d) -> std::uint64_t {
        return d > max_degree ? d - max_degree : 0;
    };
    std::uint64_t violBefore = 0;
    for (const SwitchId s : moved)
        violBefore += excess(degrees[s]);
    std::vector<std::uint32_t> after(moved.size());
    return rr.commit(path->hops, [&] {
        std::uint64_t violAfter = 0;
        for (std::size_t i = 0; i < moved.size(); ++i) {
            after[i] = net.estimatedDegree(moved[i]);
            violAfter += excess(after[i]);
        }
        if (violAfter > violBefore)
            return false;
        for (std::size_t i = 0; i < moved.size(); ++i)
            degrees[moved[i]] = after[i];
        return true;
    });
}

/**
 * One repair attempt for a communication crossing an overloaded
 * switch: the cheapest path that avoids overloaded interiors, over
 * existing pipes or new ones between switches with spare degree,
 * replaces the route if the global (violation, links) measure improves.
 */
bool
repairOne(DesignNetwork &net, CommId c, std::uint32_t max_degree,
          RouteOptStats &stats)
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
    ++stats.searched;
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
            if (repairOne(net, c, max_degree, stats)) {
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
    // One degree sweep for the whole call; each commit refreshes the
    // switches it touched.
    std::vector<std::uint32_t> degrees;
    if (max_degree)
        degrees = net.estimatedDegrees();
    for (std::uint32_t pass = 0; pass < max_passes; ++pass) {
        const std::uint32_t before = net.totalEstimatedLinks();
        if (rng)
            rng->shuffle(order);
        bool changed = false;
        for (const CommId c : order) {
            ++stats.triedMoves;
            if (consolidateOne(net, c, max_degree, uni_cost, degrees,
                               stats)) {
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
