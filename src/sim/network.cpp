#include "network.hpp"

#include <algorithm>
#include <bit>

#include "util/log.hpp"

namespace minnoc::sim {

namespace {

/** Deterministic per-packet checksum (splitmix-style mix of the id). */
std::uint64_t
packetChecksum(PacketId id, core::ProcId src, core::ProcId dst,
               std::uint64_t bytes)
{
    std::uint64_t z = id * 0x9e3779b97f4a7c15ULL + src +
                      (static_cast<std::uint64_t>(dst) << 32) + bytes;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
mark(std::vector<std::uint64_t> &set, std::uint32_t id)
{
    set[id / 64] |= std::uint64_t{1} << (id % 64);
}

void
unmark(std::vector<std::uint64_t> &set, std::uint32_t id)
{
    set[id / 64] &= ~(std::uint64_t{1} << (id % 64));
}

/**
 * Visit the ids in @p set in ascending order. Each word is read once
 * when the walk reaches it, so the visitor may clear its own bit.
 */
template <typename Visit>
void
forEach(const std::vector<std::uint64_t> &set, Visit visit)
{
    for (std::size_t w = 0; w < set.size(); ++w) {
        for (std::uint64_t bits = set[w]; bits != 0; bits &= bits - 1) {
            visit(static_cast<std::uint32_t>(w * 64 +
                                             std::countr_zero(bits)));
        }
    }
}

} // namespace

Network::Network(const topo::Topology &topo,
                 const topo::RoutingFunction &routing,
                 const SimConfig &config, FaultModel faults)
    : _topo(&topo), _routing(&routing), _config(config),
      _faults(std::move(faults))
{
    const auto numLinks = static_cast<std::uint32_t>(topo.numLinks());
    // Links into end-nodes never use their input VCs (the NI drains
    // instantly) but keep uniform sender-side credit bookkeeping.
    _vcs.resize(static_cast<std::size_t>(numLinks) * config.numVcs);
    _outputs.resize(numLinks);
    _pipes.resize(numLinks);
    for (topo::LinkId l = 0; l < numLinks; ++l) {
        auto &out = _outputs[l];
        out.credits.assign(config.numVcs, config.vcDepth);
        out.vcOwner.assign(config.numVcs, kNoPacket);
        out.tailSent.assign(config.numVcs, false);
        out.outstanding.assign(config.numVcs, 0);
    }
    _sources.resize(topo.numProcs());
    for (core::ProcId p = 0; p < topo.numProcs(); ++p)
        _sources[p].link = topo.injectionLink(p);
    const std::size_t words = (numLinks + 63) / 64;
    _flitPipes.assign(words, 0);
    _creditPipes.assign(words, 0);
    _requested.assign(words, 0);
    _pendingRoute.assign((numLinks * config.numVcs + 63) / 64, 0);
    _queuedSources.assign((topo.numProcs() + 63) / 64, 0);
    _inputUsedAt.assign(numLinks, -1);
    _stats.linkFlits.assign(numLinks, 0);

    // Fail-from-start link faults: swap in the degraded routing before
    // any packet moves (nothing to purge yet).
    if (_faults.hasLinkFaults() && _faults.failAtCycle() <= 0)
        activateFaults(0);
}

bool
Network::isTail(const FlitRef &f) const
{
    return f.seq + 1 == _packets.at(f.packet).numFlits;
}

PacketId
Network::enqueue(core::ProcId src, core::ProcId dst, std::uint64_t bytes,
                 std::uint32_t callId, Cycle now)
{
    if (src >= _topo->numProcs() || dst >= _topo->numProcs())
        panic("Network::enqueue: proc out of range");
    if (src == dst)
        panic("Network::enqueue: src == dst");
    Packet pkt;
    pkt.id = static_cast<PacketId>(_packets.size());
    pkt.src = src;
    pkt.dst = dst;
    pkt.bytes = bytes;
    pkt.callId = callId;
    pkt.numFlits =
        1 + static_cast<std::uint32_t>(
                (bytes + _config.flitBytes - 1) / _config.flitBytes);
    pkt.enqueuedAt = now;
    pkt.lastProgress = now;
    pkt.channelSeq = _sendSeq[{dst, src}]++;
    pkt.checksum = packetChecksum(pkt.id, src, dst, bytes);
    pkt.wireChecksum = pkt.checksum;
    _packets.push_back(pkt);
    ++_stats.packetsEnqueued;
    if (_deadChannels.count({dst, src})) {
        // The channel has no surviving path: give up immediately so the
        // sender unblocks and the receiver learns the sequence is lost.
        dropPacket(pkt.id, "channel disconnected by link failure");
        return pkt.id;
    }
    _sources[src].queue.push_back(pkt.id);
    mark(_queuedSources, src);
    return pkt.id;
}

bool
Network::injected(PacketId id) const
{
    const Packet &pkt = _packets.at(id);
    return pkt.dropped || pkt.flitsInjected == pkt.numFlits;
}

bool
Network::hasDelivered(core::ProcId dst, core::ProcId src) const
{
    // In-order matching: only the next-in-sequence message is visible,
    // even if later ones overtook it through the virtual channels.
    const auto it = _delivered.find({dst, src});
    if (it == _delivered.end() || it->second.empty())
        return false;
    const auto seqIt = _consumeSeq.find({dst, src});
    const std::uint64_t next = seqIt == _consumeSeq.end() ? 0
                                                          : seqIt->second;
    return it->second.begin()->first == next;
}

PacketId
Network::consumeDelivered(core::ProcId dst, core::ProcId src)
{
    if (!hasDelivered(dst, src))
        panic("Network::consumeDelivered: nothing from ", src, " at ",
              dst);
    auto &buffer = _delivered[{dst, src}];
    const PacketId id = buffer.begin()->second;
    buffer.erase(buffer.begin());
    ++_consumeSeq[{dst, src}];
    return id;
}

void
Network::step(Cycle now)
{
    if (now <= _lastStep)
        panic("Network::step: non-monotone clock");
    _lastStep = now;

    if (!_faultsActive && _faults.hasLinkFaults() &&
        now >= _faults.failAtCycle()) {
        activateFaults(now);
    }

    arriveCredits(now);
    arriveFlits(now);
    routeAndAllocate();
    switchAllocation(now);
    injectFromSources(now);
    if (_config.deadlockScanInterval > 0 &&
        now % _config.deadlockScanInterval == 0) {
        scanForDeadlocks(now);
    }

    // Occupancy integral for the activity power model's retention
    // term. The trace driver fast-forwards the clock only while the
    // network is empty, so unstepped cycles contribute exactly zero.
    _stats.residentFlitCycles += _flitsInNetwork;

    if constexpr (obs::kEnabled) {
        if (_observer)
            _observer->onStep(now, _flitsInNetwork, _stats.linkFlits);
    }
}

void
Network::arriveCredits(Cycle now)
{
    forEach(_creditPipes, [&](topo::LinkId l) {
        auto &pipe = _pipes[l];
        auto &out = _outputs[l];
        while (!pipe.credits.empty() && pipe.credits.front().arrive <= now) {
            const auto vc = pipe.credits.front().vc;
            pipe.credits.pop_front();
            ++out.credits[vc];
            if (out.outstanding[vc] == 0)
                panic("Network: credit underflow on link ", l);
            --out.outstanding[vc];
            if (out.tailSent[vc] && out.outstanding[vc] == 0) {
                // Downstream VC fully drained: release the reservation.
                out.vcOwner[vc] = kNoPacket;
                out.tailSent[vc] = false;
            }
        }
        if (pipe.credits.empty())
            unmark(_creditPipes, l);
    });
}

void
Network::arriveFlits(Cycle now)
{
    // Ascending link order, as a full sweep: deliveries sample the
    // latency statistics and may purge, so their order is observable.
    forEach(_flitPipes, [&](topo::LinkId l) {
        auto &pipe = _pipes[l];
        while (!pipe.flits.empty() && pipe.flits.front().arrive <= now) {
            const auto in = pipe.flits.front();
            pipe.flits.pop_front();
            const auto toNode = _topo->link(l).to;
            if (_topo->isProc(toNode)) {
                deliverAtProc(in.flit, l, in.vc, now);
                continue;
            }
            auto &vc = vcAt(VcRef{l, in.vc});
            Packet &pkt = _packets[in.flit.packet];
            if (in.flit.isHead()) {
                if (vc.owner != kNoPacket)
                    panic("Network: head arrival on owned VC");
                vc.owner = in.flit.packet;
                vc.frontSeq = 0;
                // Candidates depend only on (node, src, dst), so one
                // lookup serves every cycle the head waits for a VC.
                vc.candidates =
                    _routing->candidates(toNode, pkt.src, pkt.dst);
                if (vc.candidates.empty())
                    panic("Network: routing returned no candidates");
                mark(_pendingRoute, l * _config.numVcs + in.vc);
            }
            if (vc.owner != in.flit.packet ||
                in.flit.seq != vc.frontSeq + vc.buffered) {
                panic("Network: flit arrival out of its worm's order");
            }
            ++vc.buffered;
            ++_stats.bufferWrites;
            pkt.lastProgress = now;
        }
        if (pipe.flits.empty())
            unmark(_flitPipes, l);
    });
}

std::uint32_t
Network::allocateVc(OutputState &out)
{
    const auto n = static_cast<std::uint32_t>(out.vcOwner.size());
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t vc = (out.rrVc + i) % n;
        if (out.vcOwner[vc] == kNoPacket) {
            out.rrVc = (vc + 1) % n;
            return vc;
        }
    }
    return kNoVc;
}

topo::LinkId
Network::chooseOutput(const std::vector<topo::LinkId> &candidates)
{
    // Prefer outputs with a free downstream VC, then most free credits
    // (congestion-aware choice for adaptive routing; deterministic
    // functions supply one candidate).
    topo::LinkId best = topo::kNoLink;
    std::uint64_t bestCredits = 0;
    for (const auto cand : candidates) {
        const auto &out = _outputs[cand];
        bool freeVc = false;
        std::uint64_t credits = 0;
        for (std::uint32_t v = 0; v < out.vcOwner.size(); ++v) {
            if (out.vcOwner[v] == kNoPacket)
                freeVc = true;
            credits += out.credits[v];
        }
        if (!freeVc)
            continue;
        if (best == topo::kNoLink || credits > bestCredits) {
            best = cand;
            bestCredits = credits;
        }
    }
    return best;
}

void
Network::routeAndAllocate()
{
    // VC allocation on a shared output depends on the order heads are
    // served, so the worklist is walked in full-sweep (link, vc) order.
    forEach(_pendingRoute, [&](std::uint32_t i) {
        const VcRef ref{i / _config.numVcs, i % _config.numVcs};
        auto &vc = _vcs[i];
        // A purge may have emptied the VC since it was listed.
        const bool waiting = vc.buffered != 0 && vc.outLink == topo::kNoLink;
        if (!waiting || routeHead(ref, vc))
            unmark(_pendingRoute, i);
    });
}

bool
Network::routeHead(const VcRef &ref, VcState &vc)
{
    if (vc.frontSeq != 0)
        panic("Network: non-head flit awaiting route");
    const auto out = chooseOutput(vc.candidates);
    if (out == topo::kNoLink)
        return false; // every candidate VC busy: stall
    auto &outState = _outputs[out];
    const auto w = allocateVc(outState);
    if (w == kNoVc)
        return false;
    outState.vcOwner[w] = vc.owner;
    outState.tailSent[w] = false;
    vc.outLink = out;
    vc.outVc = w;
    auto &list = outState.requesters;
    list.insert(std::lower_bound(list.begin(), list.end(), ref), ref);
    mark(_requested, out);
    return true;
}

void
Network::releaseVc(const VcRef &ref, VcState &vc)
{
    if (vc.outLink != topo::kNoLink) {
        auto &list = _outputs[vc.outLink].requesters;
        list.erase(std::find(list.begin(), list.end(), ref));
        if (list.empty())
            unmark(_requested, vc.outLink);
    }
    vc.owner = kNoPacket;
    vc.buffered = 0;
    vc.outLink = topo::kNoLink;
    vc.outVc = kNoVc;
}

void
Network::forwardFlit(topo::LinkId inLink, std::uint32_t inVc, VcState &vc,
                     Cycle now)
{
    const FlitRef flit{vc.owner, vc.frontSeq++};
    --vc.buffered;
    ++_stats.bufferReads;
    auto &out = _outputs[vc.outLink];

    if (out.credits[vc.outVc] == 0)
        panic("Network: forwarding without credit");
    --out.credits[vc.outVc];
    ++out.outstanding[vc.outVc];
    _pipes[vc.outLink].flits.push_back(LinkPipe::InFlit{
        now + _topo->link(vc.outLink).delay(), flit, vc.outVc});
    mark(_flitPipes, vc.outLink);
    maybeCorrupt(flit);
    ++_stats.flitHops;
    ++_stats.linkFlits[vc.outLink];
    if (flit.isHead())
        ++_packets[flit.packet].hops;
    _packets[flit.packet].lastProgress = now;

    // The freed input buffer slot becomes a credit for the upstream
    // sender of `inLink` after the wire's return delay.
    _pipes[inLink].credits.push_back(LinkPipe::InCredit{
        now + _topo->link(inLink).delay(), inVc});
    mark(_creditPipes, inLink);

    if (isTail(flit)) {
        out.tailSent[vc.outVc] = true;
        if (vc.buffered != 0)
            panic("Network: flits behind tail in VC");
        releaseVc(VcRef{inLink, inVc}, vc);
    }
    _inputUsedAt[inLink] = now;
}

void
Network::switchAllocation(Cycle now)
{
    // Arbitrate each requested output independently (full crossbar
    // switches: contention exists only per link, as in the paper's
    // model). Ascending output order matters: a winning input link is
    // used up for the rest of the cycle.
    forEach(_requested, [&](topo::LinkId out) {
        auto &output = _outputs[out];
        _eligible.clear();
        for (const auto &ref : output.requesters) {
            if (_inputUsedAt[ref.link] == now)
                continue;
            const auto &vc = vcAt(ref);
            if (vc.buffered != 0 && output.credits[vc.outVc] != 0)
                _eligible.push_back(ref);
        }
        if (_eligible.empty())
            return;
        const auto count = static_cast<std::uint32_t>(_eligible.size());
        const auto winner = _eligible[output.rrReq % count];
        output.rrReq = (output.rrReq + 1) % count;
        forwardFlit(winner.link, winner.vc, vcAt(winner), now);
    });
}

void
Network::injectFromSources(Cycle now)
{
    // Ascending processor order: corruption draws follow it.
    forEach(_queuedSources, [&](core::ProcId p) {
        auto &src = _sources[p];
        if (src.queue.empty()) {
            unmark(_queuedSources, p);
            return;
        }
        Packet &pkt = _packets[src.queue.front()];
        if (now < pkt.holdUntil)
            return;
        auto &out = _outputs[src.link];

        if (!src.vcAssigned) {
            const auto w = allocateVc(out);
            if (w == kNoVc)
                return;
            out.vcOwner[w] = pkt.id;
            out.tailSent[w] = false;
            src.vc = w;
            src.vcAssigned = true;
        }
        if (out.credits[src.vc] == 0)
            return;

        const FlitRef flit{pkt.id, pkt.flitsInjected};
        --out.credits[src.vc];
        ++out.outstanding[src.vc];
        _pipes[src.link].flits.push_back(LinkPipe::InFlit{
            now + _topo->link(src.link).delay(), flit, src.vc});
        mark(_flitPipes, src.link);
        maybeCorrupt(flit);
        ++pkt.flitsInjected;
        ++_flitsInNetwork;
        ++_stats.flitHops;
        ++_stats.linkFlits[src.link];
        if (flit.isHead())
            ++pkt.hops;
        pkt.lastProgress = now;

        if (pkt.flitsInjected == pkt.numFlits) {
            out.tailSent[src.vc] = true;
            src.queue.pop_front();
            src.vcAssigned = false;
            src.vc = kNoVc;
        }
    });
}

void
Network::deliverAtProc(const FlitRef &flit, topo::LinkId link,
                       std::uint32_t vc, Cycle now)
{
    Packet &pkt = _packets[flit.packet];
    ++pkt.flitsDelivered;
    --_flitsInNetwork;
    pkt.lastProgress = now;

    // The NI drains instantly; the freed slot is credited back to the
    // last switch after the wire's return delay.
    _pipes[link].credits.push_back(LinkPipe::InCredit{
        now + _topo->link(link).delay(), vc});
    mark(_creditPipes, link);

    if (isTail(flit)) {
        if (pkt.flitsDelivered != pkt.numFlits)
            panic("Network: tail delivered before body (packet ", pkt.id,
                  ")");
        if (pkt.wireChecksum != pkt.checksum) {
            // Checksum mismatch: a transient fault corrupted the packet
            // in flight. The NI NACKs; the source retransmits after an
            // exponential backoff, up to the bounded retry budget.
            if (pkt.retries >= _faults.maxRetransmits()) {
                ++_stats.retryExhaustions;
                dropPacket(pkt.id, "corruption retry budget exhausted");
            } else {
                ++_stats.retransmissions;
                ++pkt.retries;
                pkt.wireChecksum = pkt.checksum;
                requeuePacket(pkt.id, now,
                              _faults.backoff(pkt.retries - 1));
            }
            return;
        }
        pkt.deliveredAt = now;
        _delivered[{pkt.dst, pkt.src}][pkt.channelSeq] = pkt.id;
        ++_stats.packetsDelivered;
        _stats.packetLatency.sample(
            static_cast<double>(now - pkt.enqueuedAt));
        if (pkt.retries == 0) {
            _stats.cleanPacketLatency.sample(
                static_cast<double>(now - pkt.enqueuedAt));
        }
        _stats.packetHops.sample(static_cast<double>(pkt.hops));
        if constexpr (obs::kEnabled) {
            if (_observer) {
                _observer->onDelivered(pkt.src, pkt.dst,
                                       now - pkt.enqueuedAt, pkt.hops,
                                       pkt.retries == 0);
            }
        }
    }
}

void
Network::scanForDeadlocks(Cycle now)
{
    // Regressive recovery kills one victim per scan — the packet whose
    // progress is stalest. Killing every blocked packet at once would
    // make the survivors re-form the identical cycle after the penalty
    // and livelock.
    Packet *victim = nullptr;
    for (auto &pkt : _packets) {
        if (pkt.delivered() || pkt.dropped)
            continue;
        if (pkt.flitsInjected == 0 ||
            pkt.flitsInjected == pkt.flitsDelivered) {
            continue; // no flits alive in the network
        }
        if (now - pkt.lastProgress <= _config.deadlockTimeout)
            continue;
        if (!victim || pkt.lastProgress < victim->lastProgress)
            victim = &pkt;
    }
    if (victim)
        recoverPacket(victim->id, now);
}

void
Network::recoverPacket(PacketId id, Cycle now)
{
    Packet &pkt = _packets.at(id);
    warn("Network: deadlock recovery of packet ", id, " (", pkt.src, "->",
         pkt.dst, ") at cycle ", now);
    ++_stats.deadlockRecoveries;
    if (pkt.retries >= _config.maxRecoveries) {
        // The bound exists to turn a pathological kill/retransmit
        // livelock into a counted drop with a diagnostic.
        ++_stats.recoveryExhaustions;
        dropPacket(id, "deadlock recovery budget exhausted");
        return;
    }
    ++pkt.retries;
    requeuePacket(id, now, _config.deadlockPenalty);
}

void
Network::purgePacket(PacketId id)
{
    // Purge in-flight flits (treat as never sent: restore the sender's
    // credit, cancel the outstanding count).
    for (topo::LinkId l = 0; l < _pipes.size(); ++l) {
        auto &pipe = _pipes[l];
        auto &out = _outputs[l];
        for (auto it = pipe.flits.begin(); it != pipe.flits.end();) {
            if (it->flit.packet == id) {
                ++out.credits[it->vc];
                --out.outstanding[it->vc];
                --_flitsInNetwork;
                it = pipe.flits.erase(it);
            } else {
                ++it;
            }
        }
    }

    // Purge buffered flits and free the victim's input VCs.
    for (std::uint32_t i = 0; i < _vcs.size(); ++i) {
        auto &vc = _vcs[i];
        if (vc.owner != id)
            continue;
        const VcRef ref{i / _config.numVcs, i % _config.numVcs};
        auto &out = _outputs[ref.link];
        const auto k = vc.buffered;
        releaseVc(ref, vc);
        out.credits[ref.vc] += k;
        if (out.outstanding[ref.vc] < k)
            panic("Network: recovery outstanding underflow");
        out.outstanding[ref.vc] -= k;
        _flitsInNetwork -= k;
    }

    // Release every downstream VC reservation held by the victim. A
    // reservation is only freed once the tail is credited, so any
    // credit still in flight on a VC the victim owns is for one of its
    // own flits (already consumed downstream) — absorb it now rather
    // than waiting out the wire delay. This happens on corruption
    // NACKs, where the purge fires the same cycle the tail delivers.
    for (topo::LinkId l = 0; l < _outputs.size(); ++l) {
        auto &out = _outputs[l];
        auto &pipe = _pipes[l];
        for (std::uint32_t v = 0; v < out.vcOwner.size(); ++v) {
            if (out.vcOwner[v] != id)
                continue;
            for (auto it = pipe.credits.begin();
                 it != pipe.credits.end() && out.outstanding[v] != 0;) {
                if (it->vc == v) {
                    ++out.credits[v];
                    --out.outstanding[v];
                    it = pipe.credits.erase(it);
                } else {
                    ++it;
                }
            }
            if (out.outstanding[v] != 0)
                panic("Network: recovery left outstanding flits");
            out.vcOwner[v] = kNoPacket;
            out.tailSent[v] = false;
        }
    }

    // If the source NI was mid-wormhole on this packet, reset it.
    Packet &pkt = _packets.at(id);
    auto &src = _sources[pkt.src];
    if (!src.queue.empty() && src.queue.front() == id) {
        src.vcAssigned = false;
        src.vc = kNoVc;
    }
}

void
Network::requeuePacket(PacketId id, Cycle now, Cycle backoff)
{
    purgePacket(id);
    Packet &pkt = _packets.at(id);
    auto &src = _sources[pkt.src];
    const bool queued =
        std::find(src.queue.begin(), src.queue.end(), id) !=
        src.queue.end();
    if (!queued) {
        // Retransmit ahead of waiting packets, but never preempt a
        // front packet mid-wormhole: its remaining flits must follow
        // the head down the VC it already claimed.
        auto pos = src.queue.begin();
        if (src.vcAssigned && !src.queue.empty())
            ++pos;
        src.queue.insert(pos, id);
        mark(_queuedSources, pkt.src);
    }
    if (src.queue.front() == id)
        src.vcAssigned = false;
    pkt.flitsInjected = 0;
    pkt.flitsDelivered = 0;
    pkt.hops = 0;
    pkt.holdUntil = now + backoff;
    pkt.lastProgress = now;
}

void
Network::dropPacket(PacketId id, const char *why)
{
    purgePacket(id);
    Packet &pkt = _packets.at(id);
    auto &src = _sources[pkt.src];
    const auto it = std::find(src.queue.begin(), src.queue.end(), id);
    if (it != src.queue.end()) {
        if (it == src.queue.begin())
            src.vcAssigned = false;
        src.queue.erase(it);
    }
    pkt.dropped = true;
    pkt.flitsInjected = 0;
    pkt.flitsDelivered = 0;
    ++_stats.packetsDropped;
    // The receiver matches in channel-sequence order; record the hole so
    // it can skip this message instead of blocking forever.
    _lostSeqs[{pkt.dst, pkt.src}].insert(pkt.channelSeq);
    warn("Network: dropping packet ", id, " (", pkt.src, "->", pkt.dst,
         ", seq ", pkt.channelSeq, "): ", why);
}

void
Network::activateFaults(Cycle now)
{
    _faultsActive = true;
    _stats.failedLinks =
        static_cast<std::uint32_t>(_faults.failedLinks().size());

    // The routing swap invalidates every in-network position (the new
    // table need not pass through a packet's current switch), so purge
    // and source-retransmit everything currently in flight.
    for (auto &pkt : _packets) {
        if (pkt.delivered() || pkt.dropped || pkt.flitsInjected == 0)
            continue;
        ++_stats.retransmissions;
        requeuePacket(pkt.id, now, _faults.backoff(0));
    }

    auto degraded = rerouteAroundFaults(*_topo, _faults.failedMask());
    for (const auto &[s, d] : degraded.disconnected)
        _deadChannels.insert({d, s});
    _stats.disconnectedPairs =
        static_cast<std::uint32_t>(degraded.disconnected.size());
    _degradedRouting = std::move(degraded.routing);
    _routing = _degradedRouting.get();
    if (!degraded.disconnected.empty()) {
        warn("Network: ", _stats.failedLinks, " failed links left ",
             _stats.disconnectedPairs, " (src,dst) pairs disconnected");
    }

    // Give up on queued packets whose channel no longer exists.
    for (auto &pkt : _packets) {
        if (!pkt.delivered() && !pkt.dropped &&
            _deadChannels.count({pkt.dst, pkt.src})) {
            dropPacket(pkt.id, "channel disconnected by link failure");
        }
    }
}

void
Network::maybeCorrupt(const FlitRef &flit)
{
    // One Bernoulli draw per packet per link traversal (taken when the
    // head enters the link): "did any flit of this worm get hit while
    // crossing?". Per-flit draws would make large packets undeliverable
    // at any rate worth simulating.
    if (!flit.isHead())
        return;
    if (_faults.corruptsTraversal()) {
        ++_stats.corruptedFlits;
        _packets[flit.packet].wireChecksum ^= _faults.corruptionWord();
    }
}

bool
Network::nextDeliveryLost(core::ProcId dst, core::ProcId src) const
{
    const auto it = _lostSeqs.find({dst, src});
    if (it == _lostSeqs.end())
        return false;
    const auto seqIt = _consumeSeq.find({dst, src});
    const std::uint64_t next =
        seqIt == _consumeSeq.end() ? 0 : seqIt->second;
    return it->second.count(next) != 0;
}

void
Network::skipLostDelivery(core::ProcId dst, core::ProcId src)
{
    if (!nextDeliveryLost(dst, src))
        panic("Network::skipLostDelivery: next message from ", src,
              " at ", dst, " is not lost");
    auto &lost = _lostSeqs[{dst, src}];
    lost.erase(_consumeSeq[{dst, src}]++);
}

bool
Network::channelDisconnected(core::ProcId src, core::ProcId dst) const
{
    return _deadChannels.count({dst, src}) != 0;
}

bool
Network::idle() const
{
    if (_flitsInNetwork != 0)
        return false;
    bool queued = false;
    forEach(_queuedSources, [&](core::ProcId p) {
        queued |= !_sources[p].queue.empty();
    });
    return !queued;
}

} // namespace minnoc::sim
