#include "trace.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/log.hpp"

namespace minnoc::trace {

void
Trace::push(core::ProcId r, const TraceOp &op)
{
    if (r >= _timelines.size())
        panic("Trace::push: rank ", r, " out of range");
    if (op.kind != OpKind::Compute && op.peer >= _timelines.size())
        panic("Trace::push: peer ", op.peer, " out of range");
    if (op.kind != OpKind::Compute && op.peer == r)
        panic("Trace::push: rank ", r, " communicating with itself");
    _timelines[r].push_back(op);
}

const std::vector<TraceOp> &
Trace::timeline(core::ProcId r) const
{
    if (r >= _timelines.size())
        panic("Trace::timeline: rank ", r, " out of range");
    return _timelines[r];
}

std::size_t
Trace::numSends() const
{
    std::size_t count = 0;
    for (const auto &tl : _timelines) {
        count += static_cast<std::size_t>(
            std::count_if(tl.begin(), tl.end(), [](const TraceOp &op) {
                return op.kind == OpKind::Send;
            }));
    }
    return count;
}

std::uint64_t
Trace::totalSendBytes() const
{
    std::uint64_t total = 0;
    for (const auto &tl : _timelines) {
        for (const auto &op : tl) {
            if (op.kind == OpKind::Send)
                total += op.bytes;
        }
    }
    return total;
}

std::int64_t
Trace::totalComputeCycles() const
{
    std::int64_t total = 0;
    for (const auto &tl : _timelines) {
        for (const auto &op : tl) {
            if (op.kind == OpKind::Compute)
                total += op.cycles;
        }
    }
    return total;
}

std::uint32_t
Trace::numCalls() const
{
    std::uint32_t top = 0;
    for (const auto &tl : _timelines) {
        for (const auto &op : tl) {
            if (op.kind != OpKind::Compute)
                top = std::max(top, op.callId + 1);
        }
    }
    return top;
}

std::string
Trace::unmatched() const
{
    // Key: (src, dst, callId) -> multiset balance of sends vs recvs.
    std::map<std::tuple<core::ProcId, core::ProcId, std::uint32_t>,
             std::int64_t>
        balance;
    for (core::ProcId r = 0; r < numRanks(); ++r) {
        for (const auto &op : _timelines[r]) {
            if (op.kind == OpKind::Send)
                ++balance[{r, op.peer, op.callId}];
            else if (op.kind == OpKind::Recv)
                --balance[{op.peer, r, op.callId}];
        }
    }
    for (const auto &[key, bal] : balance) {
        if (bal != 0) {
            const auto &[s, d, call] = key;
            return "trace '" + _name + "': unmatched send/recv (" +
                   std::to_string(s) + "->" + std::to_string(d) +
                   ", call " + std::to_string(call) + "), balance " +
                   std::to_string(bal);
        }
    }
    return "";
}

void
Trace::validateMatching() const
{
    if (const auto error = unmatched(); !error.empty())
        panic(error);
}

void
Trace::save(std::ostream &os) const
{
    os << "trace " << _name << ' ' << numRanks() << '\n';
    for (core::ProcId r = 0; r < numRanks(); ++r) {
        for (const auto &op : _timelines[r]) {
            switch (op.kind) {
              case OpKind::Compute:
                os << r << " compute " << op.cycles << '\n';
                break;
              case OpKind::Send:
                os << r << " send " << op.peer << ' ' << op.bytes << ' '
                   << op.callId << '\n';
                break;
              case OpKind::Recv:
                os << r << " recv " << op.peer << ' ' << op.bytes << ' '
                   << op.callId << '\n';
                break;
            }
        }
    }
}

Trace
Trace::load(std::istream &is)
{
    std::string magic;
    std::string name;
    std::uint32_t ranks = 0;
    if (!(is >> magic >> name >> ranks) || magic != "trace")
        fatal("Trace::load: bad header");
    // Checked before the timelines are allocated: the header alone must
    // not be able to exhaust memory.
    if (ranks > kMaxRanks)
        fatal("Trace::load: ", ranks, " ranks exceeds the limit of ",
              kMaxRanks);
    Trace trace(name, ranks);

    // Every op is validated here with fatal(), so a malformed file is a
    // user error and never reaches push()'s internal panics.
    core::ProcId r;
    std::string kind;
    while (is >> r >> kind) {
        if (r >= ranks)
            fatal("Trace::load: rank ", r, " out of range (", ranks,
                  " ranks)");
        if (kind == "compute") {
            std::int64_t cycles;
            if (!(is >> cycles))
                fatal("Trace::load: bad compute op");
            if (cycles < 0)
                fatal("Trace::load: rank ", r, " has negative compute ",
                      cycles);
            trace.push(r, TraceOp::compute(cycles));
        } else if (kind == "send" || kind == "recv") {
            core::ProcId peer;
            std::uint64_t bytes;
            std::uint32_t call;
            if (!(is >> peer >> bytes >> call))
                fatal("Trace::load: bad ", kind, " op");
            if (peer >= ranks)
                fatal("Trace::load: rank ", r, " ", kind, " peer ", peer,
                      " out of range (", ranks, " ranks)");
            if (peer == r)
                fatal("Trace::load: rank ", r, " ", kind,
                      " with itself");
            trace.push(r, kind == "send"
                              ? TraceOp::send(peer, bytes, call)
                              : TraceOp::recv(peer, bytes, call));
        } else {
            fatal("Trace::load: unknown op kind '", kind, "'");
        }
    }
    if (const auto error = trace.unmatched(); !error.empty())
        fatal("Trace::load: ", error);
    return trace;
}

} // namespace minnoc::trace
