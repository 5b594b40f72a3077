/**
 * @file
 * Routing functions (paper Definition 6 and Section 4.2).
 *
 * The simulator asks the routing function, at each node, for the
 * candidate output links of a packet. Deterministic functions (source
 * routing on generated networks, dimension-order routing on meshes,
 * crossbar) return exactly one candidate; the torus's true fully
 * adaptive routing returns every minimal productive link and lets the
 * router pick by congestion.
 */

#ifndef MINNOC_TOPO_ROUTING_HPP
#define MINNOC_TOPO_ROUTING_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/finalize.hpp"
#include "core/types.hpp"
#include "topology.hpp"

namespace minnoc::topo {

/** Abstract per-hop routing decision. */
class RoutingFunction
{
  public:
    virtual ~RoutingFunction() = default;

    /**
     * Candidate output links at node @p cur for a packet travelling
     * from processor @p src to processor @p dst. Must be non-empty
     * whenever @p cur is not the destination end-node.
     */
    virtual std::vector<LinkId> candidates(NodeIdx cur, core::ProcId src,
                                           core::ProcId dst) const = 0;

    /** True when the function offers real choice (torus TFAR). */
    virtual bool adaptive() const { return false; }

    virtual std::string name() const = 0;
};

/**
 * Deterministic source routing backed by a dense per-pair link path
 * table (`path[src][dst]`, the routing-matrix layout). Paths include
 * the injection and ejection links.
 */
class TableRouting : public RoutingFunction
{
  public:
    /** @param topo topology the paths refer to (must outlive this) */
    TableRouting(const Topology &topo, std::string name)
        : _topo(&topo), _name(std::move(name)),
          _paths(static_cast<std::size_t>(topo.numProcs()) *
                 topo.numProcs())
    {
    }

    /** Install the full link path for (src, dst). */
    void setPath(core::ProcId src, core::ProcId dst,
                 std::vector<LinkId> path);

    /** The installed path (panics when missing). */
    const std::vector<LinkId> &path(core::ProcId src,
                                    core::ProcId dst) const;

    /** True if a path is installed for (src, dst). */
    bool hasPath(core::ProcId src, core::ProcId dst) const;

    std::vector<LinkId> candidates(NodeIdx cur, core::ProcId src,
                                   core::ProcId dst) const override;

    std::string name() const override { return _name; }

  private:
    /** Index of (s, d) in the dense table (panics when out of range). */
    std::size_t slot(core::ProcId s, core::ProcId d) const;

    const Topology *_topo;
    std::string _name;
    /** Row-major by source; an empty path means none installed. */
    std::vector<std::vector<LinkId>> _paths;
};

/**
 * True fully adaptive minimal routing on a 2-D torus: every productive
 * (distance-reducing, with wraparound) output link is a candidate.
 * Deadlock freedom is *not* guaranteed; the simulator's detection and
 * regressive recovery handles cycles (paper Section 4.2).
 */
class TorusAdaptiveRouting : public RoutingFunction
{
  public:
    /**
     * @param topo the torus topology (switch (x,y) hosts proc y*w+x)
     * @param w torus width
     * @param h torus height
     */
    TorusAdaptiveRouting(const Topology &topo, std::uint32_t w,
                         std::uint32_t h);

    std::vector<LinkId> candidates(NodeIdx cur, core::ProcId src,
                                   core::ProcId dst) const override;

    bool adaptive() const override { return true; }
    std::string name() const override { return "torus-tfar"; }

  private:
    const Topology *_topo;
    std::uint32_t _w;
    std::uint32_t _h;
};

/**
 * Verify that @p routing delivers every src/dst pair on @p topo within a
 * hop budget (follows first candidates; adaptive functions are spot
 * checked on their first choice). Panics on a broken pair; used by
 * builders and tests.
 */
void validateRouting(const Topology &topo, const RoutingFunction &routing);

/** Build dimension-order (x then y) DOR paths for a @p w x @p h mesh. */
std::unique_ptr<TableRouting> makeMeshDorRouting(const Topology &topo,
                                                 std::uint32_t w,
                                                 std::uint32_t h);

/** Trivial two-hop paths through the single crossbar switch. */
std::unique_ptr<TableRouting> makeCrossbarRouting(const Topology &topo);

/**
 * Source routing for a generated network: communications known to the
 * design follow their finalized switch route, using on each pipe the
 * parallel link chosen by the finalization coloring; pairs the design
 * never saw (cross-pattern experiments) fall back to BFS-shortest
 * switch paths with round-robin parallel-link choice.
 */
std::unique_ptr<TableRouting>
makeDesignRouting(const Topology &topo, const core::FinalizedDesign &design);

/**
 * Up-star/down-star ("up*\/down*", Autonet) routing: orient every
 * inter-switch link "up" toward the root of a BFS spanning tree (ties
 * by switch id) and restrict every path to zero or more up hops
 * followed by zero or more down hops. Provably deadlock-free on any
 * topology -- the classic baseline for irregular switch networks, and
 * the guarantee the generated networks' source routing lacks. Paths
 * are shortest legal ones; parallel links are picked round-robin.
 */
std::unique_ptr<TableRouting> makeUpDownRouting(const Topology &topo);

} // namespace minnoc::topo

#endif // MINNOC_TOPO_ROUTING_HPP
