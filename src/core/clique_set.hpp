/**
 * @file
 * Communication clique sets (paper Definition 5).
 *
 * A clique is the set of communications active during one potential
 * contention period — a full or partial permutation of the processors.
 * The CliqueSet owns the distinct cliques of a communication pattern and
 * supports the "maximum clique set" reduction that drops cliques
 * dominated (covered) by a superset clique, which shrinks the work the
 * partitioner's fast-coloring loop has to do without changing results.
 */

#ifndef MINNOC_CORE_CLIQUE_SET_HPP
#define MINNOC_CORE_CLIQUE_SET_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm_bitset.hpp"
#include "types.hpp"

namespace minnoc::core {

/** Dense index of a distinct communication within a CliqueSet. */
using CommId = std::uint32_t;

/**
 * One potential contention period: a set of distinct communications,
 * stored as sorted CommId lists for fast intersection counting.
 */
struct Clique
{
    /** Sorted, duplicate-free communication indices. */
    std::vector<CommId> comms;

    std::size_t size() const { return comms.size(); }
    bool contains(CommId c) const;
    bool operator==(const Clique &o) const = default;
};

/**
 * The set of distinct cliques of a communication pattern, together with
 * the registry of distinct communications they reference.
 *
 * Invariants: comm ids are dense; each clique's list is sorted and
 * duplicate-free; no two stored cliques are equal.
 */
class CliqueSet
{
  public:
    CliqueSet() = default;

    /** @param num_procs number of processors the pattern spans */
    explicit CliqueSet(std::uint32_t num_procs) : _numProcs(num_procs) {}

    /** Register (or look up) a communication; returns its dense id. */
    CommId internComm(const Comm &c);

    /** Look up a communication's id; kNoComm when absent. */
    CommId findComm(const Comm &c) const;

    static constexpr CommId kNoComm = static_cast<CommId>(-1);

    /** The communication for a dense id. */
    const Comm &comm(CommId id) const { return _comms.at(id); }

    /** Number of distinct communications. */
    std::size_t numComms() const { return _comms.size(); }

    std::uint32_t numProcs() const { return _numProcs; }
    void numProcs(std::uint32_t n) { _numProcs = n; }

    /**
     * Add a clique given as communications. Duplicate pairs within the
     * clique collapse; a clique identical to an existing one is dropped.
     * @return true if a new clique was stored.
     */
    bool addClique(const std::vector<Comm> &comms);

    /** Add a clique by pre-interned ids (sorted/deduped internally). */
    bool addCliqueByIds(std::vector<CommId> ids);

    const std::vector<Clique> &cliques() const { return _cliques; }
    std::size_t numCliques() const { return _cliques.size(); }

    /**
     * One bitmask per clique (bit c set iff comm c belongs to the
     * clique), sized to numComms(). Built lazily and cached; this is
     * what turns Fast_Color into AND + popcount.
     */
    const std::vector<CommBitset> &cliqueMasks() const;

    /**
     * Sparse companion to cliqueMasks(): per-clique skip list of the
     * populated 64-bit blocks plus the clique's popcount, so the
     * Fast_Color AND+popcount loop touches only nonzero words. Parallel
     * to cliqueMasks(); built/invalidated together with it.
     */
    struct MaskInfo
    {
        /** Ascending indices of the nonzero words of the mask. */
        std::vector<std::uint32_t> nonzeroWords;
        /** Popcount of the mask (= clique size). */
        std::uint32_t popcount = 0;
    };
    const std::vector<MaskInfo> &maskInfos() const;

    /**
     * Clique indices ordered by descending popcount (stable, so the
     * order is deterministic). Iterating cliques in this order lets
     * Fast_Color stop as soon as the remaining cliques are too small to
     * beat the best intersection found so far.
     */
    const std::vector<std::uint32_t> &masksBySize() const;

    /**
     * Call @p fn(k) for the index k of every clique holding
     * communication @p c, ascending: a walk over c's membership row.
     */
    template <typename Fn>
    void
    forEachCliqueOf(CommId c, Fn &&fn) const
    {
        if (!_membershipValid)
            buildMembership();
        const std::uint64_t *row =
            _membership.data() + c * _membershipWords;
        for (std::size_t w = 0; w < _membershipWords; ++w) {
            for (std::uint64_t bits = row[w]; bits; bits &= bits - 1) {
                fn(static_cast<std::uint32_t>(
                    w * 64 + static_cast<std::size_t>(
                                 std::countr_zero(bits))));
            }
        }
    }

    /**
     * Force-build every lazy cache (clique masks, contention index).
     * The lazy builders mutate shared state and are not safe to race;
     * call this once before handing the set to concurrent readers.
     */
    void prepareCaches() const;

    /** Size of the largest clique (0 when empty). */
    std::size_t maxCliqueSize() const;

    /**
     * Reduce to the communication *maximum* clique set: remove every
     * clique whose communications are a subset of another clique's.
     * @return the number of cliques removed.
     */
    std::size_t reduceToMaximum();

    /**
     * True if the two communications potentially contend, i.e. appear
     * together in at least one clique (membership in the potential
     * communication contention set, Definition 4, at pair granularity).
     */
    bool contend(CommId a, CommId b) const;

    /**
     * The potential communication contention set C as explicit 4-tuples
     * (s1, d1, s2, d2), symmetric closure included. Mostly useful for
     * tests and the Theorem-1 verifier; quadratic in clique sizes.
     */
    std::vector<std::array<ProcId, 4>> contentionSet() const;

    /** Human-readable listing. */
    std::string toString() const;

  private:
    void buildMembership() const;
    void buildMaskCaches() const;

    std::uint32_t _numProcs = 0;
    std::vector<Comm> _comms;
    std::unordered_map<Comm, CommId> _index;
    std::vector<Clique> _cliques;

    /**
     * Lazily built per-comm clique-membership bitsets: row c holds one
     * bit per clique, set iff comm c belongs to that clique. Two comms
     * contend iff their rows intersect, so contend() is an AND over
     * numCliques/64 words instead of a dense numComms² matrix — the
     * matrix was the memory wall at four-digit rank counts.
     */
    mutable std::vector<std::uint64_t> _membership;
    mutable std::size_t _membershipWords = 0;
    mutable bool _membershipValid = false;

    /** Lazily built per-clique bitmasks, invalidated on mutation. */
    mutable std::vector<CommBitset> _masks;
    mutable std::vector<MaskInfo> _maskInfos;
    mutable std::vector<std::uint32_t> _masksBySize;
    mutable bool _masksValid = false;
};

} // namespace minnoc::core

#endif // MINNOC_CORE_CLIQUE_SET_HPP
