#include "analyzer.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "util/log.hpp"

namespace minnoc::trace {

core::CommPattern
idealReplay(const Trace &trace, const ReplayModel &model)
{
    const std::uint32_t ranks = trace.numRanks();
    core::CommPattern pattern(ranks);

    // Per-rank cursor and local clock; per-channel FIFO of in-flight
    // message finish times (eager sends, FIFO channels).
    std::vector<std::size_t> cursor(ranks, 0);
    std::vector<double> clock(ranks, 0.0);
    std::map<std::pair<core::ProcId, core::ProcId>, std::deque<double>>
        inFlight;

    auto transferTime = [&model](std::uint64_t bytes) {
        const double payload =
            static_cast<double>(bytes) / model.bytesPerCycle;
        return model.wireLatency + std::max(payload, 1.0);
    };

    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (core::ProcId r = 0; r < ranks; ++r) {
            const auto &tl = trace.timeline(r);
            while (cursor[r] < tl.size()) {
                const TraceOp &op = tl[cursor[r]];
                if (op.kind == OpKind::Compute) {
                    clock[r] += static_cast<double>(op.cycles);
                } else if (op.kind == OpKind::Send) {
                    // Eager send: overhead on the sender, then the
                    // message is in flight.
                    clock[r] += model.overhead;
                    const double ts = clock[r];
                    const double tf = ts + transferTime(op.bytes);
                    pattern.addMessage(core::Message(
                        r, op.peer, ts, tf, op.bytes, op.callId));
                    inFlight[{r, op.peer}].push_back(tf);
                } else {
                    auto &channel = inFlight[{op.peer, r}];
                    if (channel.empty())
                        break; // matching send not issued yet
                    clock[r] = std::max(clock[r], channel.front()) +
                               model.overhead;
                    channel.pop_front();
                }
                ++cursor[r];
                progressed = true;
            }
        }
    }

    for (core::ProcId r = 0; r < ranks; ++r) {
        if (cursor[r] != trace.timeline(r).size())
            fatal("idealReplay: trace '", trace.name(),
                  "' deadlocks at rank ", r, " op ", cursor[r]);
    }
    return pattern;
}

core::CliqueSet
analyzeByCall(const Trace &trace, bool reduce_to_maximum)
{
    core::CliqueSet cliques(trace.numRanks());
    std::map<std::uint32_t, std::vector<core::Comm>> byCall;
    for (core::ProcId r = 0; r < trace.numRanks(); ++r) {
        for (const auto &op : trace.timeline(r)) {
            if (op.kind == OpKind::Send)
                byCall[op.callId].emplace_back(r, op.peer);
        }
    }
    for (const auto &[call, comms] : byCall)
        cliques.addClique(comms);
    if (reduce_to_maximum)
        cliques.reduceToMaximum();
    return cliques;
}

} // namespace minnoc::trace
