/**
 * @file
 * Execution traces.
 *
 * A Trace is the per-rank timeline of compute and communication
 * operations an application performs — the stand-in for the MPE/MPICH
 * communication-event logs the paper collects on a PC cluster. Each
 * Send/Recv op carries the library-call site id (callId) that the
 * pattern analyzer uses to group communications into contention periods,
 * exactly as the paper groups "calls to the same communication library
 * function across all the processors".
 */

#ifndef MINNOC_TRACE_TRACE_HPP
#define MINNOC_TRACE_TRACE_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace minnoc::trace {

/** Kind of one timeline operation. */
enum class OpKind : std::uint8_t {
    Compute, ///< local work for `cycles` cycles
    Send,    ///< blocking send of `bytes` to `peer` (callId tags the site)
    Recv,    ///< blocking receive of `bytes` from `peer`
};

/** One operation on a rank's timeline. */
struct TraceOp
{
    OpKind kind = OpKind::Compute;
    std::int64_t cycles = 0;     ///< Compute only
    core::ProcId peer = core::kNoProc; ///< Send/Recv only
    std::uint64_t bytes = 0;     ///< Send/Recv only
    std::uint32_t callId = 0;    ///< Send/Recv only

    static TraceOp
    compute(std::int64_t c)
    {
        TraceOp op;
        op.kind = OpKind::Compute;
        op.cycles = c;
        return op;
    }

    static TraceOp
    send(core::ProcId peer, std::uint64_t bytes, std::uint32_t call)
    {
        TraceOp op;
        op.kind = OpKind::Send;
        op.peer = peer;
        op.bytes = bytes;
        op.callId = call;
        return op;
    }

    static TraceOp
    recv(core::ProcId peer, std::uint64_t bytes, std::uint32_t call)
    {
        TraceOp op;
        op.kind = OpKind::Recv;
        op.peer = peer;
        op.bytes = bytes;
        op.callId = call;
        return op;
    }

    bool operator==(const TraceOp &o) const = default;
};

/** Per-rank op timelines plus metadata. */
class Trace
{
  public:
    Trace() = default;

    Trace(std::string name, std::uint32_t num_ranks)
        : _name(std::move(name)), _timelines(num_ranks)
    {
    }

    const std::string &name() const { return _name; }
    void name(std::string n) { _name = std::move(n); }

    std::uint32_t
    numRanks() const
    {
        return static_cast<std::uint32_t>(_timelines.size());
    }

    /** Append an op to rank @p r's timeline. */
    void push(core::ProcId r, const TraceOp &op);

    const std::vector<TraceOp> &timeline(core::ProcId r) const;

    /** Total number of Send ops across ranks. */
    std::size_t numSends() const;

    /** Total payload bytes across all Send ops. */
    std::uint64_t totalSendBytes() const;

    /** Total compute cycles across all ranks. */
    std::int64_t totalComputeCycles() const;

    /** Largest callId used plus one (0 for traces with no comms). */
    std::uint32_t numCalls() const;

    /**
     * Structural sanity: every Send has exactly one matching Recv with
     * the same callId/bytes on the peer, and vice versa. Panics with a
     * description on mismatch (generator tests rely on this).
     */
    void validateMatching() const;

    /** Text serialization (one op per line). */
    void save(std::ostream &os) const;

    /** Largest rank count load() accepts. */
    static constexpr std::uint32_t kMaxRanks = 4096;

    /**
     * Parse the save() format. Malformed input -- bad syntax, a rank or
     * peer out of range, a self-send, negative compute, more than
     * kMaxRanks ranks, a send or recv without its match -- fails
     * through fatal().
     */
    static Trace load(std::istream &is);

    bool operator==(const Trace &o) const = default;

  private:
    /** validateMatching()'s description of the first mismatch, or "". */
    std::string unmatched() const;

    std::string _name;
    std::vector<std::vector<TraceOp>> _timelines;
};

} // namespace minnoc::trace

#endif // MINNOC_TRACE_TRACE_HPP
