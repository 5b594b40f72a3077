/**
 * @file
 * Sparse-directory MSI coherence traffic generator.
 *
 * The paper's methodology assumes "well-behaved" communication: message
 * targets and volumes fixed by the algorithm, repeated across
 * iterations. Directory-based cache coherence is the canonical workload
 * that breaks this — targets are data-dependent (whoever happens to
 * share a block), volumes are bimodal (one-flit control vs. full-block
 * data), and invalidation fan-out arrives in bursts. This module
 * synthesizes such traffic from first principles so the segmenter,
 * synthesis flow, and power model can be stress-tested on it:
 *
 *  1. Per-rank address streams are drawn over configurable sharing
 *     classes — private, read-shared, migratory, producer-consumer —
 *     with a seeded RNG; every block is assigned one class up front.
 *  2. A sparse directory (block-interleaved or first-touch home map,
 *     bounded sharer pointers) expands each load/store into its MSI
 *     protocol messages: GetS/GetX requests, Fetch recalls, Data
 *     responses, invalidation fan-out plus acks, and writebacks.
 *  3. The resulting message list is linearized into a well-formed
 *     Trace: every message's Send is appended to the source timeline
 *     and its Recv to the destination timeline in one global causal
 *     order, so replay can never deadlock (sends block only until
 *     injection; deliveries buffer at the NI) and validateMatching()
 *     holds by construction.
 *
 * Call ids encode (round, message type), so analyzeByCall() groups each
 * round's invalidation burst into one contention period and the phase
 * segmenter sees call sets drift as sharing migrates — exactly the
 * "assumption frays" signal DESIGN.md §5k quantifies.
 */

#ifndef MINNOC_COH_COHERENCE_HPP
#define MINNOC_COH_COHERENCE_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.hpp"
#include "trace/trace.hpp"

namespace minnoc::coh {

/** Access behavior of one address block. */
enum class SharingClass : std::uint8_t {
    Private,          ///< one rank, mostly stores, periodic writebacks
    ReadShared,       ///< many readers, rare stores (inv bursts)
    Migratory,        ///< read-modify-write ownership hand-offs
    ProducerConsumer, ///< one writer, a fixed consumer set
};

inline constexpr std::size_t kNumSharingClasses = 4;

/** Stable name of @p cls (`"private"`, `"read_shared"`, ...). */
const char *sharingClassName(SharingClass cls);

/** Directory home-node placement policy. */
enum class HomeMap : std::uint8_t {
    BlockInterleaved, ///< home(b) = b mod ranks
    FirstTouch,       ///< home(b) = first rank to access b
};

/** Stable name of @p map (`"interleaved"` / `"first-touch"`). */
const char *homeMapName(HomeMap map);

/** Parse a home-map name; nullopt when unknown. */
std::optional<HomeMap> homeMapFromName(std::string_view name);

/** Relative weight of each sharing class in the address stream. */
struct SharingMix
{
    /** Indexed by SharingClass; need not sum to 1 (normalized). */
    std::array<double, kNumSharingClasses> weights{0.4, 0.3, 0.2, 0.1};
};

/**
 * Parse a `--mix` string: comma-separated `class:weight` pairs, e.g.
 * `private:0.5,read_shared:0.3,migratory:0.1,producer_consumer:0.1`.
 * Classes omitted get weight 0. Returns nullopt and fills @p error on
 * any malformed input — unknown class, duplicate class, non-finite or
 * negative weight, or an all-zero mix. Total: never throws or aborts.
 */
std::optional<SharingMix> parseMix(std::string_view text,
                                   std::string &error);

/** Generator parameters (CLI defaults). */
struct CoherenceConfig
{
    std::uint32_t ranks = 16;
    /** Address blocks tracked by the directory. */
    std::uint32_t blocks = 64;
    /** Sparse-directory pointer capacity per block. */
    std::uint32_t maxSharers = 4;
    /** Generation rounds (one trace epoch per round). */
    std::uint32_t rounds = 4;
    /** Memory operations per rank per round. */
    std::uint32_t opsPerRankPerRound = 16;
    /** Cache-block payload of data messages, bytes. */
    std::uint64_t blockBytes = 64;
    /** Payload of control messages (requests, invs, acks), bytes. */
    std::uint64_t controlBytes = 8;
    /** Compute cycles charged per rank at each round boundary. */
    std::int64_t computeCycles = 200;
    std::uint64_t seed = 1;
    HomeMap homeMap = HomeMap::BlockInterleaved;
    SharingMix mix;

    /** The first out-of-range parameter, described; empty if none. */
    std::string problem() const;

    /** Panics with problem() on out-of-range parameters. */
    void validate() const;
};

/** Protocol message types of the expansion. */
enum class MsgType : std::uint8_t {
    GetS,      ///< read request, requester -> home (control)
    GetX,      ///< write request, requester -> home (control)
    Fetch,     ///< recall of a Modified block, home -> owner (control)
    Inv,       ///< invalidation, home -> sharer (control)
    Ack,       ///< invalidation ack, sharer -> requester/home (control)
    Data,      ///< block data response, home -> requester (data)
    WriteBack, ///< dirty block, owner -> home (data)
    WbAck,     ///< writeback ack, home -> owner (control)
};

inline constexpr std::uint32_t kNumMsgTypes = 8;

/** Stable name of @p type (`"GetS"`, ...). */
const char *msgTypeName(MsgType type);

/** One protocol message of the expansion, in global causal order. */
struct CohMessage
{
    MsgType type = MsgType::GetS;
    core::ProcId src = 0;
    core::ProcId dst = 0;
    std::uint64_t bytes = 0;
    /** round * kNumMsgTypes + type — the analyzer's grouping key. */
    std::uint32_t callId = 0;
    /** Transaction index (one per expanded load/store/writeback). */
    std::uint32_t txn = 0;
    /** Address block the transaction touched. */
    std::uint32_t block = 0;
    /** Generation round the transaction belongs to. */
    std::uint32_t round = 0;
};

/** What kind of access a transaction expanded. */
enum class TxnKind : std::uint8_t { Load, Store, Writeback };

/**
 * Per-transaction ledger entry. Message-list invariants survive local
 * (src == dst) elision because the ledger counts protocol events, not
 * network messages: a GetX's ack count always equals the sharers it
 * invalidated even when the home node was itself a sharer.
 */
struct TxnInfo
{
    TxnKind kind = TxnKind::Load;
    core::ProcId requester = 0;
    std::uint32_t block = 0;
    std::uint32_t round = 0;
    /** Sharers invalidated by this transaction. */
    std::uint32_t invalidations = 0;
    /** Acks those invalidations produced. */
    std::uint32_t acks = 0;
};

/** Aggregate accounting of one expansion. */
struct CohStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    /** Accesses satisfied locally (no protocol messages). */
    std::uint64_t hits = 0;
    std::uint32_t transactions = 0;
    /** Messages emitted, per MsgType. */
    std::array<std::uint64_t, kNumMsgTypes> perType{};
    /** Largest invalidation fan-out of any single transaction. */
    std::uint32_t maxInvFanout = 0;

    std::uint64_t messages() const;
};

/** The protocol expansion: ordered messages plus accounting. */
struct CohExpansion
{
    std::uint32_t ranks = 0;
    std::vector<CohMessage> messages;
    /** One entry per transaction, indexed by CohMessage::txn. */
    std::vector<TxnInfo> txns;
    CohStats stats;
};

/**
 * Run the generator: draw the address streams, expand every access
 * through the directory protocol, and return the causal message order.
 * Deterministic: equal configs produce equal expansions.
 */
CohExpansion expandCoherence(const CoherenceConfig &config);

/**
 * Linearize @p expansion into a replayable Trace (validateMatching-
 * clean, deadlock-free by construction; see file header).
 */
trace::Trace traceFromExpansion(const CohExpansion &expansion,
                                const CoherenceConfig &config);

/** Convenience: expandCoherence + traceFromExpansion. */
trace::Trace coherenceTrace(const CoherenceConfig &config);

} // namespace minnoc::coh

#endif // MINNOC_COH_COHERENCE_HPP
