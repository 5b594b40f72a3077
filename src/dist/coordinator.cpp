#include "coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <functional>
#include <numeric>
#include <optional>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "dse/cache.hpp"
#include "phase/multi_design.hpp"
#include "remote.hpp"
#include "serve/jobwire.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/cancel.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace minnoc::dist {

namespace {

/** Scheduler tick; also the cancellation-polling period. */
constexpr int kPollMs = 100;
/** Close -> SIGKILL drain window for forked lanes on cancellation. */
constexpr std::int64_t kDrainUs = 2'000'000;
/** Requests kept in flight per lane (pipelined dispatch). */
constexpr std::int64_t kWindow = 8;

/** One lane: a forked `serve` child or a remote daemon connection. */
struct Lane
{
    pid_t pid = -1;   ///< forked lanes only
    int fd = -1;      ///< socket (non-blocking); -1 = reaped
    int hostIdx = -1; ///< index into DistOptions::hosts; -1 = forked
    std::string lineBuf; ///< NDJSON reply buffer
    /** Assigned jobs not yet resulted (dispatched or queued). */
    std::vector<std::uint32_t> pending;
    /** Assigned jobs not yet sent (the dispatch window's tail). */
    std::deque<std::uint32_t> unsent;
    std::uint32_t attempt = 1;
    std::int64_t lastActivityUs = 0;
    bool timedOut = false;
    std::string errorText; ///< from an error reply, "code: message"

    bool remote() const { return hostIdx >= 0; }
};

/**
 * How one run phrases its jobs: a job's request line is
 * head(job, attempt) followed by the shared trace tail, so the
 * escaped trace is built once rather than once per job.
 */
struct JobWire
{
    std::function<std::string(std::uint32_t job, std::uint32_t attempt)>
        head;
    std::string tail; ///< `, "trace": "..."}` and the newline

    void setTrace(const std::string &traceText)
    {
        tail = ", \"trace\": \"" + serve::jsonEscape(traceText) +
               "\"}\n";
    }
};

using ResultHandler =
    std::function<void(const serve::WorkerMsg &msg, std::uint32_t slot)>;

/**
 * The `deadline_ms` of every job request. serve counts queue wait
 * against it, and up to kWindow - 1 requests run ahead of a request on
 * its lane, each allowed workerTimeoutMs by the activity timeout; so a
 * healthy lane never hits a deadline. Clamped to the protocol ceiling.
 */
std::int64_t
requestDeadlineMs(const DistOptions &options)
{
    return std::clamp<std::int64_t>(options.workerTimeoutMs, 1,
                                    serve::kMaxDeadlineMs / kWindow) *
           kWindow;
}

/**
 * The daemon a forked lane runs: one job at a time, as the in-process
 * sweep's workers do, with this run's deadline and disk cache.
 */
serve::ServerConfig
laneConfig(const DistOptions &options, const std::string &cacheDir,
           bool useCache)
{
    serve::ServerConfig cfg;
    cfg.workers = 1;
    cfg.innerThreads = 1;
    cfg.maxDeadlineMs = requestDeadlineMs(options);
    cfg.cacheDir = cacheDir;
    cfg.useCache = useCache;
    return cfg;
}

/**
 * serve refuses a request line longer than serve::kMaxRequestBytes, so
 * a trace whose job lines exceed it would fail on every lane. Refuse
 * it before any lane starts.
 */
void
checkJobLineSize(std::size_t longestHead, const JobWire &wire)
{
    const std::size_t line = longestHead + wire.tail.size() - 1; // no \n
    if (line > serve::kMaxRequestBytes)
        fatal("dist: the trace makes ", line,
              "-byte job requests, over serve's request limit of ",
              serve::kMaxRequestBytes, " bytes");
}

/**
 * Fork a local lane: a serve::Server child serving one end of a
 * socketpair. Returns the coordinator's end; @p pid gets the child.
 */
int
forkServeLane(const serve::ServerConfig &config,
              const std::vector<Lane> &lanes, pid_t &pid)
{
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
        fatal("dist: socketpair: ", std::strerror(errno));
    pid = ::fork();
    if (pid < 0)
        fatal("dist: fork: ", std::strerror(errno));
    if (pid == 0) {
        // Keep only this lane's end: a copy of another lane's socket
        // would outlive the coordinator's close(), and that lane's
        // daemon would never see EOF.
        ::close(sv[0]);
        for (const auto &lane : lanes)
            if (lane.fd >= 0)
                ::close(lane.fd);
        serve::Server server(config);
        std::string err;
        ::_exit(server.serveConnection(sv[1], err) ? 0 : 1);
    }
    ::close(sv[1]);
    return sv[0];
}

/** Send @p w's next unsent job; false (errorText set) on failure. */
bool
sendNext(Lane &w, const JobWire &wire)
{
    const auto job = w.unsent.front();
    if (!sendAll(w.fd, wire.head(job, w.attempt)) ||
        !sendAll(w.fd, wire.tail)) {
        w.errorText = std::string("send: ") + std::strerror(errno);
        return false;
    }
    w.unsent.pop_front();
    return true;
}

/**
 * Open a lane -- connect to hosts[hostIdx], or fork a local serve
 * child when hostIdx is -1 -- and dispatch the first kWindow job
 * requests. The rest queue in `unsent` and flow as results land, so
 * the daemon always has work without a failure losing more than a
 * window's worth of in-flight requests. A lane that cannot connect or
 * send is returned born dead (fd == -1, errorText set) for the caller
 * to route through the failure path.
 */
Lane
openLane(int hostIdx, const std::vector<HostSpec> &hosts,
         const serve::ServerConfig &local, const std::vector<Lane> &lanes,
         std::uint32_t attempt, const std::vector<std::uint32_t> &jobs,
         const JobWire &wire)
{
    Lane w;
    w.hostIdx = hostIdx;
    w.attempt = attempt;
    w.pending = jobs;
    w.unsent.assign(jobs.begin(), jobs.end());
    w.lastActivityUs = CancelToken::nowUs();

    std::string err;
    w.fd = w.remote()
               ? connectHost(hosts[static_cast<std::size_t>(hostIdx)], err)
               : forkServeLane(local, lanes, w.pid);
    if (w.fd < 0) {
        w.errorText = err;
        return w;
    }
    const int flags = ::fcntl(w.fd, F_GETFL, 0);
    ::fcntl(w.fd, F_SETFL, flags | O_NONBLOCK);
    for (std::int64_t k = 0; k < kWindow && !w.unsent.empty(); ++k) {
        if (!sendNext(w, wire)) {
            ::close(w.fd);
            w.fd = -1;
            break;
        }
    }
    return w;
}

/**
 * Close every lane, then give forked children kDrainUs to exit before
 * SIGKILL. Each daemon's reader sees EOF and Disconnect-cancels its
 * in-flight jobs -- a forked lane and a remote host alike -- so a
 * Ctrl-C here leaves no orphaned work anywhere.
 */
void
terminateAll(std::vector<Lane> &lanes)
{
    for (auto &w : lanes) {
        if (w.fd >= 0) {
            ::close(w.fd);
            w.fd = -1;
        }
    }
    const std::int64_t deadline = CancelToken::nowUs() + kDrainUs;
    for (auto &w : lanes) {
        if (w.pid <= 0)
            continue;
        int status = 0;
        while (::waitpid(w.pid, &status, WNOHANG) == 0) {
            if (CancelToken::nowUs() >= deadline) {
                ::kill(w.pid, SIGKILL);
                ::waitpid(w.pid, &status, 0);
                break;
            }
            ::usleep(20'000);
        }
        w.pid = -1;
    }
}

std::string
describeExit(int status)
{
    if (WIFEXITED(status))
        return "exit " + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return "signal " + std::to_string(WTERMSIG(status));
    return "unknown exit";
}

/**
 * Drive every lane to completion: poll the lane sockets, dispatch
 * result documents, reap crashed/hung lanes and requeue their
 * unfinished jobs (at most once per shard) onto a surviving remote
 * host or a fresh forked lane. Throws CancelledError when @p cancel
 * fires, std::runtime_error when a shard fails twice.
 */
void
runShards(const std::vector<std::vector<std::uint32_t>> &shards,
          const DistOptions &options, const serve::ServerConfig &local,
          const CancelToken *cancel, const JobWire &wire,
          const ResultHandler &onResult, DistStats &stats,
          obs::TraceEventLog *traceLog, const char *jobLabel)
{
    const std::int64_t timeoutUs =
        std::max<std::int64_t>(options.workerTimeoutMs, 1) * 1000;
    const auto &hosts = options.hosts;
    const std::size_t remoteLanes =
        std::min(hosts.size(), shards.size());
    // A host that failed once is never retried: its replacement lane
    // must not inherit the same fault.
    std::vector<char> hostDead(hosts.size(), 0);

    std::vector<Lane> lanes;
    /** hostIdx >= 0: remote lane on hosts[hostIdx]; -1: forked. */
    const auto addSlot = [&](const std::vector<std::uint32_t> &jobs,
                             std::uint32_t attempt, int hostIdx) {
        const auto slot = static_cast<std::uint32_t>(lanes.size());
        Lane lane = openLane(hostIdx, hosts, local, lanes, attempt, jobs,
                             wire);
        lanes.push_back(std::move(lane));
        stats.jobs.push_back(0);
        stats.cacheHits.push_back(0);
        stats.wallUsSum.push_back(0);
        stats.hostOf.push_back(
            hostIdx >= 0
                ? hosts[static_cast<std::size_t>(hostIdx)].label()
                : "");
        stats.workers = static_cast<std::uint32_t>(lanes.size());
        if constexpr (obs::kEnabled) {
            if (traceLog)
                traceLog->threadName(
                    obs::kPidDist, slot,
                    hostIdx >= 0
                        ? "host " + stats.hostOf.back()
                        : "worker " + std::to_string(slot));
        }
        return slot;
    };

    // Reap one lane: close, waitpid (forked only), decide clean vs
    // failed, requeue. std::function so the born-dead replacement path
    // can recurse (depth bounded by the two-attempt cap).
    std::function<void(std::uint32_t)> reap =
        [&](std::uint32_t slot) {
        auto &w = lanes[slot];
        if (w.fd >= 0) {
            ::close(w.fd);
            w.fd = -1;
        }
        int status = 0;
        if (w.pid > 0) {
            // A failed lane may still be computing; it owes nothing.
            // A finished one exits on the EOF it just got.
            if (w.timedOut || !w.errorText.empty())
                ::kill(w.pid, SIGKILL);
            ::waitpid(w.pid, &status, 0);
            w.pid = -1;
        }

        const bool exitedClean =
            w.remote() || (WIFEXITED(status) && WEXITSTATUS(status) == 0);
        if (w.pending.empty() && w.errorText.empty() && !w.timedOut &&
            exitedClean)
            return;

        std::string reason;
        if (w.timedOut)
            reason = "timeout";
        else if (!w.errorText.empty())
            reason = w.errorText;
        else if (w.remote())
            reason = "connection closed";
        else
            reason = describeExit(status);

        // Lost work: results never arrive for dispatched-but-unfinished
        // jobs nor for the queued window tail (unsent is a subset of
        // pending).
        std::vector<std::uint32_t> lost = w.pending;
        std::sort(lost.begin(), lost.end());

        WorkerFailure failure;
        failure.worker = slot;
        if (w.remote()) {
            hostDead[static_cast<std::size_t>(w.hostIdx)] = 1;
            failure.host =
                hosts[static_cast<std::size_t>(w.hostIdx)].label();
        }
        failure.reason = reason;
        failure.requeuedJobs = lost;
        stats.failures.push_back(failure);
        warn("dist: ", w.remote() ? "host lane " : "worker ", slot,
             w.remote() ? " (" + failure.host + ")" : std::string(),
             " failed (", reason, "), ", lost.size(),
             " job(s) to requeue");

        if (lost.empty())
            return; // every assigned job already landed; nothing lost
        if (w.attempt >= 2) {
            terminateAll(lanes);
            throw std::runtime_error(
                "dist: shard failed twice (last: " + reason +
                "); aborting");
        }
        const auto nextAttempt = w.attempt + 1;
        w.pending.clear();
        w.unsent.clear();

        // Requeue onto the first surviving host, else a forked local
        // lane -- the run converges as long as one backend exists.
        int target = -1;
        for (std::size_t h = 0; h < hosts.size(); ++h) {
            if (!hostDead[h]) {
                target = static_cast<int>(h);
                break;
            }
        }
        const auto fresh = addSlot(lost, nextAttempt, target);
        if (lanes[fresh].fd < 0)
            reap(fresh); // born dead (connect/send failed): recurse
    };

    // One serve reply line; any failure lands in errorText, with a
    // "protocol: " prefix when the lane broke the protocol.
    const auto onLine = [&](std::uint32_t slot, const std::string &line) {
        auto &w = lanes[slot];
        const auto reply = serve::parseReply(line);
        if (!reply) {
            w.errorText = "protocol: unparseable reply";
            return;
        }
        if (!reply->ok) {
            w.errorText = reply->code + ": " + reply->message;
            return;
        }
        std::string err;
        const auto msg = serve::parseWorkerMsg(reply->result, err);
        if (!msg) {
            w.errorText = "protocol: " + err;
            return;
        }
        const auto it =
            std::find(w.pending.begin(), w.pending.end(), msg->index);
        if (it == w.pending.end()) {
            w.errorText = "protocol: unexpected result for job " +
                          std::to_string(msg->index);
            return;
        }
        w.pending.erase(it);
        w.lastActivityUs = CancelToken::nowUs();
        ++stats.jobs[slot];
        if (msg->cached)
            ++stats.cacheHits[slot];
        stats.wallUsSum[slot] += msg->wallUs;
        if constexpr (obs::kEnabled) {
            if (traceLog) {
                const std::int64_t arrival = obs::wallMicros();
                traceLog->complete(
                    std::string(jobLabel) + " " +
                        std::to_string(msg->index),
                    obs::kPidDist, slot, arrival - msg->wallUs,
                    std::max<std::int64_t>(msg->wallUs, 1),
                    "\"cached\": " +
                        std::string(msg->cached ? "true" : "false"));
            }
        }
        onResult(*msg, slot);
        if (!w.unsent.empty())
            (void)sendNext(w, wire); // keep the window full
    };

    for (std::size_t i = 0; i < shards.size(); ++i)
        addSlot(shards[i], 1,
                i < remoteLanes ? static_cast<int>(i) : -1);
    // Route lanes born dead through the failure path now. (Pending
    // nonempty tells an unprocessed one from one reap() already
    // requeued recursively.)
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(lanes.size()); ++i)
        if (lanes[i].fd < 0 && !lanes[i].pending.empty())
            reap(i);

    while (true) {
        if (cancel && cancel->cancelled()) {
            terminateAll(lanes);
            throw CancelledError(cancel->reason());
        }

        std::vector<pollfd> fds;
        std::vector<std::uint32_t> slotOf;
        for (std::uint32_t i = 0; i < lanes.size(); ++i) {
            if (lanes[i].fd >= 0) {
                fds.push_back({lanes[i].fd, POLLIN, 0});
                slotOf.push_back(i);
            }
        }
        if (fds.empty())
            break;

        const int rc = ::poll(fds.data(),
                              static_cast<nfds_t>(fds.size()), kPollMs);
        if (rc < 0 && errno != EINTR)
            fatal("dist: poll: ", std::strerror(errno));

        for (std::size_t k = 0; k < fds.size(); ++k) {
            if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const std::uint32_t slot = slotOf[k];
            if (lanes[slot].fd < 0)
                continue; // already reaped this tick

            bool eof = false;
            char buf[65536];
            for (;;) {
                auto &w = lanes[slot];
                const ssize_t n = ::read(w.fd, buf, sizeof buf);
                if (n > 0) {
                    w.lineBuf.append(buf, static_cast<std::size_t>(n));
                    continue;
                }
                if (n < 0 && errno == EINTR)
                    continue;
                eof = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
                break;
            }

            // One serve reply per line; an ok reply wraps the job's
            // result document.
            auto &w = lanes[slot];
            std::size_t start = 0;
            for (;;) {
                const auto nl = w.lineBuf.find('\n', start);
                if (nl == std::string::npos)
                    break;
                const std::string line =
                    w.lineBuf.substr(start, nl - start);
                start = nl + 1;
                if (!line.empty())
                    onLine(slot, line);
                if (!w.errorText.empty())
                    break;
            }
            w.lineBuf.erase(0, start);
            if (w.errorText.empty() &&
                w.lineBuf.size() > serve::kMaxRequestBytes)
                w.errorText = "protocol: oversized reply line";
            if (!w.errorText.empty() || eof || w.pending.empty())
                reap(slot);
        }

        // Hang detection: no result for the whole window. Only the
        // cleanup differs by lane kind (SIGKILL vs close).
        const std::int64_t now = CancelToken::nowUs();
        for (std::uint32_t i = 0; i < lanes.size(); ++i) {
            auto &w = lanes[i];
            if (w.fd >= 0 && now - w.lastActivityUs > timeoutUs) {
                w.timedOut = true;
                reap(i);
            }
        }
    }
}

/** Post-run telemetry shared by both distributed entry points. */
void
recordDistTelemetry(obs::MetricsRegistry *metrics,
                    obs::TraceEventLog *traceLog, const DistStats &stats)
{
    if constexpr (obs::kEnabled) {
        if (metrics) {
            auto &m = *metrics;
            for (std::uint32_t w = 0; w < stats.workers; ++w) {
                const std::string prefix =
                    "dist/worker/" + std::to_string(w) + "/";
                m.counter(prefix + "jobs").add(stats.jobs[w]);
                m.counter(prefix + "cache_hits")
                    .add(stats.cacheHits[w]);
            }
            std::uint64_t hostFailures = 0;
            for (const auto &f : stats.failures)
                if (!f.host.empty())
                    ++hostFailures;
            m.counter("dist/worker_failures")
                .add(stats.failures.size() - hostFailures);
            m.counter("dist/host_failures").add(hostFailures);
            m.gauge("dist/workers")
                .set(static_cast<double>(stats.workers));
        }
        if (traceLog)
            traceLog->processName(obs::kPidDist, "minnoc dist");
    }
}

} // namespace

std::string
DistStats::toJson(const std::string &task) const
{
    std::ostringstream oss;
    oss << "{\n"
        << "  \"report\": \"minnoc-dist-status\",\n"
        << "  \"task\": \"" << task << "\",\n"
        << "  \"workers\": " << workers << ",\n"
        << "  \"per_worker\": [\n";
    for (std::uint32_t w = 0; w < workers; ++w) {
        oss << "    {\"worker\": " << w;
        if (w < hostOf.size() && !hostOf[w].empty())
            oss << ", \"host\": \"" << serve::jsonEscape(hostOf[w])
                << "\"";
        oss << ", \"jobs\": " << jobs[w]
            << ", \"cache_hits\": " << cacheHits[w]
            << ", \"wall_us\": " << wallUsSum[w] << "}"
            << (w + 1 < workers ? "," : "") << "\n";
    }
    // Failures split by backend: `worker_failed` keeps its historical
    // forked-worker meaning, remote lanes land in `host_failed`.
    const auto emitFailures = [&](bool remote) {
        bool first = true;
        for (const auto &f : failures) {
            if (f.host.empty() == remote)
                continue;
            oss << (first ? "" : ", ") << "{\"worker\": " << f.worker;
            if (remote)
                oss << ", \"host\": \"" << serve::jsonEscape(f.host)
                    << "\"";
            oss << ", \"reason\": \"" << serve::jsonEscape(f.reason)
                << "\", \"requeued_jobs\": [";
            for (std::size_t j = 0; j < f.requeuedJobs.size(); ++j)
                oss << (j ? ", " : "") << f.requeuedJobs[j];
            oss << "]}";
            first = false;
        }
    };
    oss << "  ],\n"
        << "  \"worker_failed\": [";
    emitFailures(false);
    oss << "],\n"
        << "  \"host_failed\": [";
    emitFailures(true);
    oss << "]\n}\n";
    return oss.str();
}

dse::ExploreReport
exploreDistributed(const trace::Trace &trace,
                   const dse::ExploreConfig &config,
                   const DistOptions &options, DistStats *statsOut)
{
    std::ostringstream patternStream;
    trace.save(patternStream);
    const std::string patternBytes = patternStream.str();

    const auto jobs = config.grid.expand();

    dse::ExploreReport report;
    report.pattern = trace.name();
    report.ranks = trace.numRanks();
    report.points.resize(jobs.size());

    DistStats localStats;
    DistStats &stats = statsOut ? *statsOut : localStats;
    stats = DistStats{};

    if (!jobs.empty()) {
        for (const auto seed : config.grid.seeds)
            if (seed > (1ull << 53))
                fatal("dist: seed ", seed,
                      " exceeds the wire's exact integer range");

        std::vector<std::string> sigs(jobs.size());
        std::vector<std::string> keys(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            sigs[i] = dse::jobSignature(jobs[i], config);
            keys[i] = dse::jobKey(patternBytes, sigs[i]);
        }

        // Content-hash sharding: order jobs by cache key (ties by grid
        // index) and deal them round-robin, so shards are balanced to
        // ±1 job and the assignment depends only on workload content
        // and grid, never on timing.
        std::vector<std::uint32_t> order(jobs.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return keys[a] != keys[b] ? keys[a] < keys[b]
                                                : a < b;
                  });
        const auto n = std::max<std::uint32_t>(
            1, std::min<std::uint32_t>(
                   options.workers +
                       static_cast<std::uint32_t>(
                           options.hosts.size()),
                   static_cast<std::uint32_t>(jobs.size())));
        std::vector<std::vector<std::uint32_t>> shards(n);
        for (std::size_t k = 0; k < order.size(); ++k)
            shards[k % n].push_back(order[k]);
        for (auto &shard : shards)
            std::sort(shard.begin(), shard.end());

        // One `dse_job` per grid point. A remote daemon uses its own
        // disk cache, so `cache_dir` never crosses the socket; a forked
        // lane's daemon is configured with this run's cache.
        const auto deadlineMs = requestDeadlineMs(options);
        JobWire wire;
        wire.setTrace(patternBytes);
        wire.head = [&](std::uint32_t job, std::uint32_t attempt) {
            const auto &p = jobs[job];
            std::string out = "{\"id\": \"" + std::to_string(job) +
                              "\", \"cmd\": \"dse_job\"";
            out += ", \"attempt\": " + std::to_string(attempt);
            out += ", \"job_index\": " + std::to_string(job);
            out += ", \"sig\": \"" + serve::jsonEscape(sigs[job]) +
                   "\"";
            out += ", \"max_degree\": " + std::to_string(p.maxDegree);
            out += ", \"restarts\": " + std::to_string(p.restarts);
            out += ", \"seed\": " + std::to_string(p.seed);
            out += std::string(", \"unidirectional\": ") +
                   (p.unidirectional ? "1" : "0");
            out += ", \"vcs\": " + std::to_string(p.numVcs);
            out += ", \"vc_depth\": " + std::to_string(p.vcDepth);
            out += ", \"phase_window\": " +
                   std::to_string(p.phaseWindow);
            out += ", \"reconfig_cost\": " +
                   std::to_string(config.phaseReconfigCost);
            out += ", \"threshold\": " +
                   serve::fmtDouble(config.phaseSegmenter.mergeThreshold);
            out += ", \"min_phase_windows\": " +
                   std::to_string(config.phaseSegmenter.minPhaseWindows);
            out += ", \"matrix_weight\": " +
                   serve::fmtDouble(config.phaseSegmenter.matrixWeight);
            // Only off the default tier: static requests stay
            // byte-identical to what pre-power daemons accept.
            if (config.power.kind != topo::PowerModelKind::Static)
                out += std::string(", \"power\": \"") +
                       topo::powerModelKindName(config.power.kind) +
                       "\"";
            out += ", \"deadline_ms\": " + std::to_string(deadlineMs);
            return out;
        };
        std::size_t longestHead = 0;
        for (std::uint32_t j = 0; j < jobs.size(); ++j)
            longestHead = std::max(longestHead, wire.head(j, 2).size());
        checkJobLineSize(longestHead, wire);

        const auto onResult = [&](const serve::WorkerMsg &msg,
                                  std::uint32_t /*slot*/) {
            dse::DsePoint pt;
            pt.params = jobs[msg.index];
            pt.metrics = msg.metrics;
            pt.fromCache = msg.cached;
            dse::recordJobPoint(config, msg.index, pt);
            report.points[msg.index] = std::move(pt);
        };
        runShards(shards, options,
                  laneConfig(options, config.cacheDir, config.useCache),
                  config.cancel, wire, onResult, stats, config.traceLog,
                  "job");
    }

    dse::finalizeReport(report, config);
    recordDistTelemetry(config.metrics, config.traceLog, stats);
    return report;
}

phase::PhaseReport
evaluatePhasesDistributed(const trace::Trace &trace,
                          const phase::PhaseEvalConfig &config,
                          const DistOptions &options, DistStats *statsOut)
{
    DistStats localStats;
    DistStats &stats = statsOut ? *statsOut : localStats;
    stats = DistStats{};

    if (config.methodology.partitioner.seed > (1ull << 53))
        fatal("dist: seed ", config.methodology.partitioner.seed,
              " exceeds the wire's exact integer range");
    std::ostringstream patternStream;
    trace.save(patternStream);
    const std::string sig = serve::phasesSignature(config);
    const auto deadlineMs = requestDeadlineMs(options);
    // One `phase_job` per phase.
    const auto phaseHead = [&](std::uint32_t job, std::uint32_t attempt,
                               std::uint32_t expectedPhases) {
        std::string out = "{\"id\": \"" + std::to_string(job) +
                          "\", \"cmd\": \"phase_job\"";
        out += ", \"attempt\": " + std::to_string(attempt);
        out += ", \"job_index\": " + std::to_string(job);
        out += ", \"sig\": \"" + serve::jsonEscape(sig) + "\"";
        out += ", \"window\": " +
               std::to_string(config.segmenter.windowMessages);
        out += ", \"threshold\": " +
               serve::fmtDouble(config.segmenter.mergeThreshold);
        out += ", \"min_phase_windows\": " +
               std::to_string(config.segmenter.minPhaseWindows);
        out += ", \"matrix_weight\": " +
               serve::fmtDouble(config.segmenter.matrixWeight);
        out += ", \"max_degree\": " +
               std::to_string(
                   config.methodology.partitioner.constraints.maxDegree);
        out += ", \"restarts\": " +
               std::to_string(config.methodology.restarts);
        out += ", \"seed\": " +
               std::to_string(config.methodology.partitioner.seed);
        out += ", \"reconfig_cost\": " +
               std::to_string(config.reconfigCost);
        out += ", \"expected_phases\": " + std::to_string(expectedPhases);
        if (config.power.kind != topo::PowerModelKind::Static)
            out += std::string(", \"power\": \"") +
                   topo::powerModelKindName(config.power.kind) + "\"";
        out += ", \"deadline_ms\": " + std::to_string(deadlineMs);
        return out;
    };
    JobWire wire;
    wire.setTrace(patternStream.str());
    // Size-checked before any whole-trace work: no trace has more
    // phases than messages, so this head is the longest possible.
    if (const auto bound = static_cast<std::uint32_t>(trace.numSends()))
        checkJobLineSize(phaseHead(bound - 1, 2, bound).size(), wire);

    const phase::Segmentation seg =
        phase::segmentTrace(trace, config.segmenter);
    const auto nPhases = static_cast<std::uint32_t>(seg.phases.size());
    wire.head = [&](std::uint32_t job, std::uint32_t attempt) {
        return phaseHead(job, attempt, nPhases);
    };

    // Whole-trace artifacts stay in-process: the monolithic and union
    // designs need the full workload, and the per-phase standalone
    // designs (the bulk of the work) never feed into them — see
    // DESIGN.md §5j. The restart pool is scoped so no extra threads
    // exist when the lanes fork below.
    phase::MultiPhaseResult multi;
    {
        std::uint32_t threads =
            config.threads ? config.threads
                           : std::thread::hardware_concurrency();
        threads = std::max(threads, 1u);
        std::optional<ThreadPool> pool;
        if (threads > 1)
            pool.emplace(threads);
        multi = phase::synthesizeMultiPhase(
            trace, seg, config.methodology, pool ? &*pool : nullptr,
            /*withPhaseDesigns=*/false);
    }

    const phase::VariantResult mono = phase::evalDesignVariant(
        multi.monolithic.design, multi.monolithic.violations.size(),
        trace, config);
    const phase::VariantResult uni = phase::evalDesignVariant(
        multi.unionDesign, multi.unionViolationCount(), trace, config);
    std::vector<std::size_t> unionViolations;
    unionViolations.reserve(multi.unionPhaseViolations.size());
    for (const auto &v : multi.unionPhaseViolations)
        unionViolations.push_back(v.size());

    std::vector<phase::PhaseRowEval> rows(nPhases);
    if (nPhases > 0) {
        const auto n = std::max<std::uint32_t>(
            1, std::min<std::uint32_t>(
                   options.workers +
                       static_cast<std::uint32_t>(
                           options.hosts.size()),
                   nPhases));
        std::vector<std::vector<std::uint32_t>> shards(n);
        for (std::uint32_t p = 0; p < nPhases; ++p)
            shards[p % n].push_back(p);

        const auto onResult = [&](const serve::WorkerMsg &msg,
                                  std::uint32_t /*slot*/) {
            rows.at(msg.index) = msg.row;
        };
        // Phase jobs never touch the disk cache.
        runShards(shards, options, laneConfig(options, "", false),
                  config.methodology.cancel, wire, onResult, stats,
                  config.traceLog, "phase");
    }

    auto report = phase::assemblePhaseReport(trace, config, seg, mono,
                                             uni, unionViolations, rows);
    recordDistTelemetry(config.metrics, config.traceLog, stats);
    return report;
}

} // namespace minnoc::dist
