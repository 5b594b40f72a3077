/**
 * @file
 * Multi-process exploration coordinator.
 *
 * Every lane is a `minnoc serve` daemon spoken to over one socket with
 * one NDJSON `dse_job`/`phase_job` request per job. A local lane
 * (`--workers`) is a forked child running serve::Server on one end of
 * a socketpair; a remote lane (`--hosts`) is a TCP connection to a
 * running daemon. Only three things differ between the two: how the
 * fd is obtained (fork + socketpair vs connect), the cleanup
 * (waitpid/SIGKILL vs close) and where a failure is reported
 * (`worker_failed` vs `host_failed`).
 *
 * The job grid is sharded by content hash (each job's cache key orders
 * the jobs deterministically; shards are dealt round-robin off that
 * order, so they are balanced to +-1 job and independent of grid
 * layout). Each lane keeps a window of requests in flight, and the
 * per-job result documents (serve/jobwire.*) are merged through the
 * exact finalization path the in-process explorer uses. Reports are
 * therefore byte-identical to the single-process run at any mix of
 * workers and hosts, by construction.
 *
 * Fault handling: a lane that crashes, answers with an error, or goes
 * silent past the activity timeout is reaped (SIGKILL for a forked
 * lane) and its *unfinished* jobs are requeued once onto a surviving
 * host or a fresh forked lane; jobs the dead lane already delivered
 * are not recomputed. A second failure on the same shard is fatal.
 * Every failure is recorded in DistStats and surfaced in the dist
 * status JSON -- never in the explore report itself, whose bytes stay
 * crash-independent. The chaos hooks MINNOC_DIST_TEST_CRASH=serve and
 * MINNOC_DIST_TEST_HANG=serve make any daemon, forked or remote, exit
 * 42 or stop answering at its second job on attempt 1.
 *
 * Cancellation: the caller's CancelToken is polled every scheduler
 * tick; once fired, every lane socket is closed (each daemon
 * Disconnect-cancels its in-flight jobs), forked lanes get a short
 * drain window, then SIGKILL, and the coordinator unwinds with
 * CancelledError.
 */

#ifndef MINNOC_DIST_COORDINATOR_HPP
#define MINNOC_DIST_COORDINATOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "dse/explorer.hpp"
#include "phase/evaluator.hpp"
#include "remote.hpp"

namespace minnoc::dist {

/** Knobs of one distributed run. */
struct DistOptions
{
    /** Local serve lanes to fork (clamped to the job count, min 1). */
    std::uint32_t workers = 2;

    /**
     * Remote `minnoc serve` daemons to drive as job backends, one
     * lane each, ahead of the forked lanes; `workers` may be 0 for an
     * all-remote run. A dead daemon's unfinished jobs requeue onto a
     * surviving host, or a forked local lane when none survives.
     */
    std::vector<HostSpec> hosts;

    /**
     * A lane producing no result for this long is presumed hung,
     * reaped, and its shard requeued. Generous by default: one DSE job
     * on a large pattern can legitimately run minutes. Each request
     * carries this times the dispatch window as its deadline, since
     * serve counts the queue wait behind the lane's earlier requests
     * (a remote daemon still clamps it to its own max deadline).
     */
    std::int64_t workerTimeoutMs = 600'000;
};

/** One reaped lane, for the status report. */
struct WorkerFailure
{
    std::uint32_t worker = 0; ///< lane slot
    /** `host:port` when the slot was a remote lane; "" when local. */
    std::string host;
    std::string reason;       ///< "timeout", "exit 42", "signal 9", ...
    /** Job indices requeued onto the replacement lane. */
    std::vector<std::uint32_t> requeuedJobs;
};

/** Per-lane accounting of one distributed run. */
struct DistStats
{
    /** Lane slots used (initial lanes + any replacements). */
    std::uint32_t workers = 0;
    std::vector<std::uint64_t> jobs;      ///< results per slot
    std::vector<std::uint64_t> cacheHits; ///< cached results per slot
    std::vector<std::int64_t> wallUsSum;  ///< summed job wall time
    /** Per slot, the remote host label; "" for forked lanes. */
    std::vector<std::string> hostOf;
    std::vector<WorkerFailure> failures;

    /**
     * Deterministic-shape status JSON (wall times are wall times; the
     * shape and counts are reproducible, the durations are not):
     * per-lane rows plus the `worker_failed` (forked lanes) and
     * `host_failed` (remote lanes) arrays.
     */
    std::string toJson(const std::string &task) const;
};

/**
 * Distributed dse::explore. Identical output to explore(trace, config)
 * — same points, same frontier, same JSON bytes — with the grid
 * fanned out over the lanes, forked ones sharing the disk cache.
 * config.threads is ignored (parallelism is process-level);
 * config.cancel is honored at scheduler-tick granularity here and at
 * job granularity inside each daemon. A trace whose job requests
 * would exceed serve's line limit (serve::kMaxRequestBytes) is
 * refused with fatal() before any lane starts.
 */
dse::ExploreReport exploreDistributed(const trace::Trace &trace,
                                      const dse::ExploreConfig &config,
                                      const DistOptions &options,
                                      DistStats *stats = nullptr);

/**
 * Distributed phase::evaluatePhases: the coordinator segments the
 * trace and synthesizes the monolithic + union designs (they depend
 * on the whole trace), while the per-phase standalone synthesis and
 * replay — the bulk of the work — is sharded over the lanes. Byte-
 * identical to the in-process report; the same size limit applies.
 */
phase::PhaseReport
evaluatePhasesDistributed(const trace::Trace &trace,
                          const phase::PhaseEvalConfig &config,
                          const DistOptions &options,
                          DistStats *stats = nullptr);

} // namespace minnoc::dist

#endif // MINNOC_DIST_COORDINATOR_HPP
