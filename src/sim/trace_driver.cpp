#include "trace_driver.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "util/log.hpp"

namespace minnoc::sim {

double
SimResult::commTimeMean() const
{
    if (commTime.empty())
        return 0.0;
    double total = 0.0;
    for (const auto c : commTime)
        total += static_cast<double>(c);
    return total / static_cast<double>(commTime.size());
}

Cycle
SimResult::commTimeMax() const
{
    Cycle best = 0;
    for (const auto c : commTime)
        best = std::max(best, c);
    return best;
}

namespace {

/** Per-rank replay state machine. */
struct RankState
{
    enum class Phase {
        Ready,        ///< fetch the next op
        Busy,         ///< compute or overhead until readyAt
        SendOverhead, ///< paying send overhead, packet not yet queued
        WaitInject,   ///< blocking until the packet's tail leaves the NI
        WaitRecv,     ///< blocking until a message from peer arrives
        RecvOverhead, ///< paying receive overhead
        Done,
    };

    Phase phase = Phase::Ready;
    std::size_t cursor = 0;
    Cycle readyAt = 0;
    Cycle opStart = 0;
    PacketId pending = kNoPacket;
    Cycle commTime = 0;
    Cycle finishedAt = -1;

    /** True when the rank can only be unblocked by the clock. */
    bool
    timeBound() const
    {
        return phase == Phase::Busy || phase == Phase::SendOverhead ||
               phase == Phase::RecvOverhead;
    }
};

} // namespace

SimResult
runTrace(const trace::Trace &trace, Network &network)
{
    const std::uint32_t ranks = trace.numRanks();
    std::vector<RankState> state(ranks);
    const SimConfig &cfg = network.config();

    std::uint64_t recvsLost = 0;
    std::set<std::pair<core::ProcId, core::ProcId>> lostChannels;

    auto progress = [&](core::ProcId r, Cycle now) {
        auto &st = state[r];
        const auto &tl = trace.timeline(r);
        for (;;) {
            switch (st.phase) {
              case RankState::Phase::Done:
                return;
              case RankState::Phase::Busy:
                if (now < st.readyAt)
                    return;
                st.phase = RankState::Phase::Ready;
                break;
              case RankState::Phase::Ready: {
                if (st.cursor == tl.size()) {
                    st.phase = RankState::Phase::Done;
                    st.finishedAt = now;
                    return;
                }
                const auto &op = tl[st.cursor];
                if (op.kind == trace::OpKind::Compute) {
                    st.readyAt = now + op.cycles;
                    st.phase = RankState::Phase::Busy;
                    ++st.cursor;
                } else if (op.kind == trace::OpKind::Send) {
                    st.opStart = now;
                    st.readyAt = now + cfg.sendOverhead;
                    st.phase = RankState::Phase::SendOverhead;
                } else {
                    st.opStart = now;
                    st.phase = RankState::Phase::WaitRecv;
                }
                break;
              }
              case RankState::Phase::SendOverhead: {
                if (now < st.readyAt)
                    return;
                const auto &op = tl[st.cursor];
                st.pending = network.enqueue(r, op.peer, op.bytes,
                                             op.callId, now);
                st.phase = RankState::Phase::WaitInject;
                break;
              }
              case RankState::Phase::WaitInject:
                if (!network.injected(st.pending))
                    return;
                st.commTime += now - st.opStart;
                st.pending = kNoPacket;
                ++st.cursor;
                st.phase = RankState::Phase::Ready;
                break;
              case RankState::Phase::WaitRecv: {
                const auto &op = tl[st.cursor];
                if (network.hasDelivered(r, op.peer)) {
                    network.consumeDelivered(r, op.peer);
                    st.readyAt = now + cfg.recvOverhead;
                    st.phase = RankState::Phase::RecvOverhead;
                    break;
                }
                if (network.nextDeliveryLost(r, op.peer)) {
                    // The message this receive would match was dropped
                    // (disconnected channel or exhausted retries):
                    // record the loss and move on instead of blocking
                    // forever — graceful degradation.
                    network.skipLostDelivery(r, op.peer);
                    ++recvsLost;
                    lostChannels.insert({op.peer, r});
                    st.commTime += now - st.opStart;
                    ++st.cursor;
                    st.phase = RankState::Phase::Ready;
                    break;
                }
                return;
              }
              case RankState::Phase::RecvOverhead:
                if (now < st.readyAt)
                    return;
                st.commTime += now - st.opStart;
                ++st.cursor;
                st.phase = RankState::Phase::Ready;
                break;
            }
        }
    };

    // Cancellation epoch: poll the token every 4096 scheduler
    // iterations (not simulated cycles — compute fast-forwards can
    // leap millions of cycles in one iteration), cheap enough to be
    // invisible and frequent enough that a cancelled request stops
    // within microseconds of real time.
    constexpr std::uint64_t kCancelEpoch = 4096;
    std::uint64_t iterations = 0;

    Cycle now = 0;
    for (;;) {
        ++now;
        if (now > cfg.maxCycles)
            fatal("runTrace: exceeded maxCycles (", cfg.maxCycles,
                  ") on '", trace.name(), "' over ",
                  "the given network");
        if (cfg.cancel && ++iterations % kCancelEpoch == 0)
            cfg.cancel->checkpoint();
        network.step(now);

        bool allDone = true;
        for (core::ProcId r = 0; r < ranks; ++r) {
            progress(r, now);
            allDone &= state[r].phase == RankState::Phase::Done;
        }
        if (allDone && network.idle())
            break;

        // Fast-forward through pure-compute stretches: when the network
        // is empty and every live rank is waiting on the clock, jump to
        // the earliest wake-up. If the network is empty and every live
        // rank is blocked in a receive, the trace itself deadlocked.
        if (network.idle()) {
            Cycle next = -1;
            bool allTimeBound = true;
            bool allWaitRecv = true;
            bool anyLive = false;
            for (const auto &st : state) {
                if (st.phase == RankState::Phase::Done)
                    continue;
                anyLive = true;
                if (st.timeBound()) {
                    allWaitRecv = false;
                    if (next < 0 || st.readyAt < next)
                        next = st.readyAt;
                } else {
                    allTimeBound = false;
                    if (st.phase != RankState::Phase::WaitRecv)
                        allWaitRecv = false;
                }
            }
            // A receive whose message a later rank's send dropped in
            // this same cycle is not blocked: it skips the loss on the
            // next cycle.
            for (core::ProcId r = 0; anyLive && allWaitRecv && r < ranks;
                 ++r) {
                const auto &st = state[r];
                if (st.phase == RankState::Phase::WaitRecv &&
                    network.nextDeliveryLost(
                        r, trace.timeline(r)[st.cursor].peer))
                    allWaitRecv = false;
            }
            if (anyLive && allWaitRecv)
                fatal("runTrace: trace '", trace.name(),
                      "' deadlocked: all live ranks blocked in recv "
                      "with an empty network");
            if (anyLive && allTimeBound && next > now + 1)
                now = next - 1;
        }
    }

    SimResult result;
    result.commTime.resize(ranks);
    result.finishTime.resize(ranks);
    result.execTime = 0;
    for (core::ProcId r = 0; r < ranks; ++r) {
        result.commTime[r] = state[r].commTime;
        result.finishTime[r] = state[r].finishedAt;
        result.execTime = std::max(result.execTime, state[r].finishedAt);
    }
    const auto &ns = network.stats();
    result.packetsDelivered = ns.packetsDelivered;
    result.deadlockRecoveries = ns.deadlockRecoveries;
    result.packetsEnqueued = ns.packetsEnqueued;
    result.packetsDropped = ns.packetsDropped;
    result.retransmissions = ns.retransmissions;
    result.corruptedFlits = ns.corruptedFlits;
    result.failedLinks = ns.failedLinks;
    result.disconnectedPairs = ns.disconnectedPairs;
    result.retryExhaustions = ns.retryExhaustions;
    result.recoveryExhaustions = ns.recoveryExhaustions;
    result.deliveredFraction = ns.deliveredFraction();
    result.latencyInflation = ns.latencyInflation();
    result.recvsLost = recvsLost;
    result.undeliverableChannels.assign(lostChannels.begin(),
                                        lostChannels.end());
    result.avgPacketLatency = ns.packetLatency.mean();
    result.avgPacketHops = ns.packetHops.mean();
    result.maxLinkUtilization = ns.maxLinkUtilization(result.execTime);
    result.meanLinkUtilization = ns.meanLinkUtilization(result.execTime);
    result.linkFlits = ns.linkFlits;
    result.activity.bufferWrites = ns.bufferWrites;
    result.activity.bufferReads = ns.bufferReads;
    result.activity.residentFlitCycles = ns.residentFlitCycles;

    if constexpr (obs::kEnabled) {
        if (auto *observer = network.observer()) {
            obs::SimObserver::FinalCounters fc;
            fc.packetsEnqueued = ns.packetsEnqueued;
            fc.packetsDelivered = ns.packetsDelivered;
            fc.packetsDropped = ns.packetsDropped;
            fc.flitHops = ns.flitHops;
            fc.bufferWrites = ns.bufferWrites;
            fc.bufferReads = ns.bufferReads;
            fc.residentFlitCycles = ns.residentFlitCycles;
            fc.retransmissions = ns.retransmissions;
            fc.corruptedFlits = ns.corruptedFlits;
            fc.deadlockRecoveries = ns.deadlockRecoveries;
            fc.failedLinks = ns.failedLinks;
            fc.disconnectedPairs = ns.disconnectedPairs;
            fc.retryExhaustions = ns.retryExhaustions;
            fc.recoveryExhaustions = ns.recoveryExhaustions;
            fc.execTime = result.execTime;
            observer->finish(fc, result.execTime,
                             network.flitsInNetwork(), ns.linkFlits);
        }
    }
    return result;
}

SimResult
runTrace(const trace::Trace &trace, const topo::Topology &topo,
         const topo::RoutingFunction &routing, const SimConfig &config,
         obs::SimObserver *observer)
{
    if (trace.numRanks() != topo.numProcs())
        fatal("runTrace: trace has ", trace.numRanks(),
              " ranks but topology has ", topo.numProcs(), " procs");
    Network network(topo, routing, config);
    network.setObserver(observer);
    return runTrace(trace, network);
}

SimResult
runTrace(const trace::Trace &trace, const topo::Topology &topo,
         const topo::RoutingFunction &routing, const SimConfig &config,
         const FaultConfig &faults, obs::SimObserver *observer)
{
    if (trace.numRanks() != topo.numProcs())
        fatal("runTrace: trace has ", trace.numRanks(),
              " ranks but topology has ", topo.numProcs(), " procs");
    Network network(topo, routing, config, FaultModel(topo, faults));
    network.setObserver(observer);
    return runTrace(trace, network);
}

} // namespace minnoc::sim
