#include "routing.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "graph/connectivity.hpp"
#include "graph/digraph.hpp"
#include "util/log.hpp"

namespace minnoc::topo {

void
TableRouting::setPath(core::ProcId src, core::ProcId dst,
                      std::vector<LinkId> path)
{
    if (path.empty())
        panic("TableRouting: empty path for (", src, ",", dst, ")");
    // Validate continuity: each link starts where the previous ended.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (_topo->link(path[i]).to != _topo->link(path[i + 1]).from)
            panic("TableRouting '", _name, "': discontinuous path for (",
                  src, ",", dst, ")");
    }
    if (_topo->link(path.front()).from != _topo->procNode(src) ||
        _topo->link(path.back()).to != _topo->procNode(dst)) {
        panic("TableRouting '", _name, "': path endpoints wrong for (",
              src, ",", dst, ")");
    }
    _paths[slot(src, dst)] = std::move(path);
}

std::size_t
TableRouting::slot(core::ProcId s, core::ProcId d) const
{
    const std::uint32_t procs = _topo->numProcs();
    if (s >= procs || d >= procs)
        panic("TableRouting '", _name, "': pair (", s, ",", d,
              ") out of range");
    return static_cast<std::size_t>(s) * procs + d;
}

const std::vector<LinkId> &
TableRouting::path(core::ProcId src, core::ProcId dst) const
{
    const auto &p = _paths[slot(src, dst)];
    if (p.empty())
        panic("TableRouting '", _name, "': no path for (", src, ",", dst,
              ")");
    return p;
}

bool
TableRouting::hasPath(core::ProcId src, core::ProcId dst) const
{
    return !_paths[slot(src, dst)].empty();
}

std::vector<LinkId>
TableRouting::candidates(NodeIdx cur, core::ProcId src,
                         core::ProcId dst) const
{
    // Paths are simple (no node repeats), so the link leaving `cur` is
    // unique on the path.
    for (const LinkId id : path(src, dst)) {
        if (_topo->link(id).from == cur)
            return {id};
    }
    panic("TableRouting '", _name, "': node ", cur,
          " is not on the path (", src, ",", dst, ")");
}

TorusAdaptiveRouting::TorusAdaptiveRouting(const Topology &topo,
                                           std::uint32_t w, std::uint32_t h)
    : _topo(&topo), _w(w), _h(h)
{
    if (static_cast<std::uint64_t>(w) * h != topo.numProcs())
        panic("TorusAdaptiveRouting: ", w, "x", h, " != ",
              topo.numProcs(), " procs");
}

std::vector<LinkId>
TorusAdaptiveRouting::candidates(NodeIdx cur, core::ProcId src,
                                 core::ProcId dst) const
{
    (void)src;
    if (_topo->isProc(cur)) {
        // Only the source end-node ever routes: inject.
        return {_topo->injectionLink(_topo->procOf(cur))};
    }

    const core::SwitchId s = _topo->switchOf(cur);
    const std::uint32_t x = s % _w;
    const std::uint32_t y = s / _w;
    const std::uint32_t dx = dst % _w;
    const std::uint32_t dy = dst / _w;

    if (x == dx && y == dy)
        return {_topo->ejectionLink(dst)};

    std::vector<LinkId> out;
    auto addDir = [&](std::uint32_t nx, std::uint32_t ny) {
        const LinkId id = _topo->findLink(
            cur, _topo->switchNode(ny * _w + nx));
        if (id == kNoLink)
            panic("TorusAdaptiveRouting: missing torus link");
        out.push_back(id);
    };

    if (x != dx) {
        const std::uint32_t fwd = (dx + _w - x) % _w; // +x hops
        const std::uint32_t bwd = (x + _w - dx) % _w; // -x hops
        if (fwd <= bwd)
            addDir((x + 1) % _w, y);
        if (bwd <= fwd)
            addDir((x + _w - 1) % _w, y);
    }
    if (y != dy) {
        const std::uint32_t fwd = (dy + _h - y) % _h;
        const std::uint32_t bwd = (y + _h - dy) % _h;
        if (fwd <= bwd)
            addDir(x, (y + 1) % _h);
        if (bwd <= fwd)
            addDir(x, (y + _h - 1) % _h);
    }
    if (out.empty())
        panic("TorusAdaptiveRouting: no productive link at S", s,
              " for dst ", dst);
    return out;
}

void
validateRouting(const Topology &topo, const RoutingFunction &routing)
{
    for (core::ProcId s = 0; s < topo.numProcs(); ++s) {
        for (core::ProcId d = 0; d < topo.numProcs(); ++d) {
            if (s == d)
                continue;
            NodeIdx cur = topo.procNode(s);
            const NodeIdx goal = topo.procNode(d);
            std::size_t hops = 0;
            while (cur != goal) {
                const auto cands = routing.candidates(cur, s, d);
                if (cands.empty())
                    panic("validateRouting: no candidates at node ", cur,
                          " for (", s, ",", d, ")");
                cur = topo.link(cands.front()).to;
                if (++hops > 4ull * topo.numNodes())
                    panic("validateRouting: livelock for (", s, ",", d,
                          ")");
            }
        }
    }
}

std::unique_ptr<TableRouting>
makeMeshDorRouting(const Topology &topo, std::uint32_t w, std::uint32_t h)
{
    if (static_cast<std::uint64_t>(w) * h != topo.numProcs())
        panic("makeMeshDorRouting: bad dims");
    auto routing = std::make_unique<TableRouting>(topo, "mesh-dor");
    for (core::ProcId s = 0; s < topo.numProcs(); ++s) {
        for (core::ProcId d = 0; d < topo.numProcs(); ++d) {
            if (s == d)
                continue;
            std::vector<LinkId> path{topo.injectionLink(s)};
            std::uint32_t x = s % w;
            std::uint32_t y = s / w;
            const std::uint32_t dx = d % w;
            const std::uint32_t dy = d / w;
            auto hop = [&](std::uint32_t nx, std::uint32_t ny) {
                const LinkId id =
                    topo.findLink(topo.switchNode(y * w + x),
                                  topo.switchNode(ny * w + nx));
                if (id == kNoLink)
                    panic("makeMeshDorRouting: missing mesh link");
                path.push_back(id);
                x = nx;
                y = ny;
            };
            while (x != dx)
                hop(x < dx ? x + 1 : x - 1, y);
            while (y != dy)
                hop(x, y < dy ? y + 1 : y - 1);
            path.push_back(topo.ejectionLink(d));
            routing->setPath(s, d, std::move(path));
        }
    }
    return routing;
}

std::unique_ptr<TableRouting>
makeCrossbarRouting(const Topology &topo)
{
    auto routing = std::make_unique<TableRouting>(topo, "crossbar");
    for (core::ProcId s = 0; s < topo.numProcs(); ++s) {
        for (core::ProcId d = 0; d < topo.numProcs(); ++d) {
            if (s == d)
                continue;
            routing->setPath(
                s, d,
                {topo.injectionLink(s), topo.ejectionLink(d)});
        }
    }
    return routing;
}

std::unique_ptr<TableRouting>
makeDesignRouting(const Topology &topo, const core::FinalizedDesign &design)
{
    auto routing = std::make_unique<TableRouting>(topo, "source-routed");

    // Parallel links of a pipe, in finalization link-index order: the
    // builder adds them in that order, so findLinks preserves it.
    auto pipeLink = [&](core::SwitchId from, core::SwitchId to,
                        std::uint32_t index) {
        const auto links = topo.findLinks(topo.switchNode(from),
                                          topo.switchNode(to));
        if (index >= links.size())
            panic("makeDesignRouting: pipe S", from, "-S", to,
                  " has no link ", index);
        return links[index];
    };

    // Known communications: follow the finalized route and colors.
    for (core::CommId c = 0; c < design.comms.size(); ++c) {
        const auto &comm = design.comms[c];
        if (comm.src == comm.dst)
            continue;
        const auto &route = design.routes[c];
        std::vector<LinkId> path{topo.injectionLink(comm.src)};
        for (std::size_t i = 0; i + 1 < route.size(); ++i) {
            const core::PipeKey key(route[i], route[i + 1]);
            const std::size_t pi = design.pipeIndex(key);
            if (pi == core::FinalizedDesign::npos)
                panic("makeDesignRouting: route uses missing pipe");
            const auto &pipe = design.pipes[pi];
            const bool forward = route[i] < route[i + 1];
            const auto &linkOf = forward ? pipe.fwdLink : pipe.bwdLink;
            const auto it = linkOf.find(c);
            if (it == linkOf.end())
                panic("makeDesignRouting: comm missing link color");
            path.push_back(pipeLink(route[i], route[i + 1], it->second));
        }
        path.push_back(topo.ejectionLink(comm.dst));
        routing->setPath(comm.src, comm.dst, std::move(path));
    }

    // Fallback for pairs the design never saw (cross-pattern runs):
    // BFS-shortest switch paths, round-robin over parallel links.
    // Pipes may be one-directional (linksFwd xor linksBwd), so only
    // directions with at least one physical link enter the graph.
    graph::Digraph sg(design.numSwitches);
    for (const auto &pipe : design.pipes) {
        if (!topo.findLinks(topo.switchNode(pipe.key.a),
                            topo.switchNode(pipe.key.b)).empty())
            sg.addEdge(pipe.key.a, pipe.key.b);
        if (!topo.findLinks(topo.switchNode(pipe.key.b),
                            topo.switchNode(pipe.key.a)).empty())
            sg.addEdge(pipe.key.b, pipe.key.a);
    }
    std::map<std::pair<core::SwitchId, core::SwitchId>, std::uint32_t> rr;
    for (core::ProcId s = 0; s < topo.numProcs(); ++s) {
        for (core::ProcId d = 0; d < topo.numProcs(); ++d) {
            if (s == d || routing->hasPath(s, d))
                continue;
            const auto sw = design.procHome[s];
            const auto dw = design.procHome[d];
            std::vector<LinkId> path{topo.injectionLink(s)};
            if (sw != dw) {
                const auto hops = graph::shortestPathEdges(sg, sw, dw);
                if (hops.size() == 1 && hops.front() == graph::kNoEdge)
                    panic("makeDesignRouting: switch graph disconnected");
                for (const auto e : hops) {
                    const auto from =
                        static_cast<core::SwitchId>(sg.edge(e).src);
                    const auto to =
                        static_cast<core::SwitchId>(sg.edge(e).dst);
                    const auto parallel =
                        topo.findLinks(topo.switchNode(from),
                                       topo.switchNode(to));
                    auto &counter = rr[{from, to}];
                    path.push_back(parallel[counter % parallel.size()]);
                    ++counter;
                }
            }
            path.push_back(topo.ejectionLink(d));
            routing->setPath(s, d, std::move(path));
        }
    }
    return routing;
}

std::unique_ptr<TableRouting>
makeUpDownRouting(const Topology &topo)
{
    const std::uint32_t numSw = topo.numSwitches();
    if (numSw == 0)
        panic("makeUpDownRouting: no switches");

    // Undirected switch adjacency from the inter-switch links.
    graph::Digraph sg(numSw);
    for (const auto &link : topo.links()) {
        if (!topo.isProc(link.from) && !topo.isProc(link.to)) {
            sg.addEdge(topo.switchOf(link.from),
                       topo.switchOf(link.to));
        }
    }

    // BFS levels from switch 0 define the up orientation.
    const auto level = graph::bfsDistances(sg, 0);
    for (core::SwitchId s = 0; s < numSw; ++s) {
        if (level[s] < 0)
            panic("makeUpDownRouting: switch graph disconnected");
    }
    auto isUp = [&](core::SwitchId from, core::SwitchId to) {
        if (level[to] != level[from])
            return level[to] < level[from];
        return to < from; // tie-break by id
    };

    // Shortest legal (up* then down*) switch paths via BFS over
    // (switch, phase) states, phase = "has taken a down hop yet".
    auto legalPath = [&](core::SwitchId src,
                         core::SwitchId dst) -> std::vector<core::SwitchId> {
        if (src == dst)
            return {src};
        struct Prev
        {
            core::SwitchId sw = core::kNoSwitch;
            bool phase = false;
        };
        std::vector<std::array<Prev, 2>> parent(numSw);
        std::vector<std::array<bool, 2>> visited(numSw,
                                                 {false, false});
        std::deque<std::pair<core::SwitchId, bool>> frontier;
        visited[src][0] = true;
        frontier.push_back({src, false});
        while (!frontier.empty()) {
            const auto [sw, down] = frontier.front();
            frontier.pop_front();
            for (const auto next : sg.successors(sw)) {
                const bool hopUp = isUp(sw, next);
                if (down && hopUp)
                    continue; // down -> up is illegal
                const bool nextDown = down || !hopUp;
                if (visited[next][nextDown])
                    continue;
                visited[next][nextDown] = true;
                parent[next][nextDown] = Prev{sw, down};
                if (next == dst) {
                    std::vector<core::SwitchId> path{dst};
                    core::SwitchId cur = dst;
                    bool phase = nextDown;
                    while (cur != src) {
                        const Prev &pv = parent[cur][phase];
                        path.push_back(pv.sw);
                        phase = pv.phase;
                        cur = pv.sw;
                    }
                    std::reverse(path.begin(), path.end());
                    return path;
                }
                frontier.push_back({next, nextDown});
            }
        }
        panic("makeUpDownRouting: no legal path between S", src,
              " and S", dst);
    };

    auto routing = std::make_unique<TableRouting>(topo, "up-down");
    std::map<std::pair<core::SwitchId, core::SwitchId>, std::uint32_t> rr;
    for (core::ProcId s = 0; s < topo.numProcs(); ++s) {
        const auto sw =
            topo.switchOf(topo.link(topo.injectionLink(s)).to);
        for (core::ProcId d = 0; d < topo.numProcs(); ++d) {
            if (s == d)
                continue;
            const auto dw =
                topo.switchOf(topo.link(topo.injectionLink(d)).to);
            std::vector<LinkId> path{topo.injectionLink(s)};
            if (sw != dw) {
                const auto hops = legalPath(sw, dw);
                for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
                    const auto parallel =
                        topo.findLinks(topo.switchNode(hops[i]),
                                       topo.switchNode(hops[i + 1]));
                    if (parallel.empty())
                        panic("makeUpDownRouting: missing link");
                    auto &counter = rr[{hops[i], hops[i + 1]}];
                    path.push_back(parallel[counter % parallel.size()]);
                    ++counter;
                }
            }
            path.push_back(topo.ejectionLink(d));
            routing->setPath(s, d, std::move(path));
        }
    }
    return routing;
}

} // namespace minnoc::topo
