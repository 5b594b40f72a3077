/**
 * @file
 * Communication-pattern analyzer (paper Sections 2-4).
 *
 * Converts an execution trace into the contention model's inputs, two
 * ways:
 *  - idealReplay(): a contention-free logical replay that assigns every
 *    message its start/finish times (Definition 2), from which the
 *    sweep-based clique extraction of CommPattern can run; and
 *  - analyzeByCall(): the paper's practical method — communications
 *    issued by the same library call (same callId) across all ranks are
 *    assumed synchronized and form one contention period.
 */

#ifndef MINNOC_TRACE_ANALYZER_HPP
#define MINNOC_TRACE_ANALYZER_HPP

#include "core/clique_set.hpp"
#include "core/comm_pattern.hpp"
#include "trace.hpp"

namespace minnoc::trace {

/** Logical replay cost model (contention-free, LogP-flavored). */
struct ReplayModel
{
    /** Payload bandwidth in bytes per cycle (32-bit flits). */
    double bytesPerCycle = 4.0;
    /** Software send/receive overhead in cycles (paper: 10). */
    double overhead = 10.0;
    /** Base wire latency charged per message. */
    double wireLatency = 1.0;
};

/**
 * Replay @p trace on an ideal (contention-free) machine and return the
 * resulting timed communication pattern. A trace that deadlocks (a
 * recv whose matching send can never be issued) is a user error and
 * fails through fatal().
 */
core::CommPattern idealReplay(const Trace &trace,
                              const ReplayModel &model = {});

/**
 * The paper's extraction method: group sends by library-call id, one
 * contention period (clique) per call, duplicates collapsed.
 *
 * @param reduce_to_maximum drop cliques covered by a superset clique
 */
core::CliqueSet analyzeByCall(const Trace &trace,
                              bool reduce_to_maximum = true);

} // namespace minnoc::trace

#endif // MINNOC_TRACE_ANALYZER_HPP
