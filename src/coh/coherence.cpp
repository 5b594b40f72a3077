#include "coherence.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/log.hpp"
#include "util/rng.hpp"

namespace minnoc::coh {

namespace {

/** Directory entry of one block (sparse: bounded sharer pointers). */
struct DirEntry
{
    enum : std::uint8_t { I, S, M };
    std::uint8_t state = I;
    /** Sharer ranks in insertion order (S state only). */
    std::vector<core::ProcId> sharers;
    core::ProcId owner = core::kNoProc; ///< M state only
};

/** Cache-line states per rank (same I/S/M encoding as DirEntry). */
using CacheRow = std::vector<std::uint8_t>;

class Generator
{
  public:
    explicit Generator(const CoherenceConfig &config)
        : _cfg(config), _rng(config.seed ^ 0xC0DEC0DEULL),
          _dir(config.blocks), _home(config.blocks, core::kNoProc),
          _cache(config.ranks, CacheRow(config.blocks, DirEntry::I)),
          _cls(config.blocks, SharingClass::Private),
          _producer(config.blocks, 0)
    {
        assignClasses();
    }

    CohExpansion
    run()
    {
        for (std::uint32_t round = 0; round < _cfg.rounds; ++round) {
            _round = round;
            for (std::uint32_t op = 0; op < _cfg.opsPerRankPerRound;
                 ++op) {
                // Round-robin over ranks so each round's traffic
                // interleaves all requesters (bursty at replay time).
                for (core::ProcId r = 0; r < _cfg.ranks; ++r)
                    issueOp(r);
            }
        }
        _out.ranks = _cfg.ranks;
        return std::move(_out);
    }

  private:
    void
    assignClasses()
    {
        double sum = 0.0;
        for (const double w : _cfg.mix.weights)
            sum += w;
        for (std::uint32_t b = 0; b < _cfg.blocks; ++b) {
            double x = _rng.uniform() * sum;
            std::size_t c = 0;
            while (c + 1 < kNumSharingClasses &&
                   x >= _cfg.mix.weights[c]) {
                x -= _cfg.mix.weights[c];
                ++c;
            }
            // A zero-weight tail class can be reached only by
            // floating-point edge; walk back to a weighted class.
            while (c > 0 && _cfg.mix.weights[c] <= 0.0)
                --c;
            _cls[b] = static_cast<SharingClass>(c);
            _byClass[c].push_back(b);
            if (_cls[b] == SharingClass::ProducerConsumer)
                _producer[b] =
                    static_cast<core::ProcId>(_rng.below(_cfg.ranks));
        }
        // Private blocks are spread over ranks in index order; rank r
        // draws from its own slice.
        const auto &priv =
            _byClass[static_cast<std::size_t>(SharingClass::Private)];
        _privateOf.assign(_cfg.ranks, {});
        for (std::size_t i = 0; i < priv.size(); ++i)
            _privateOf[i % _cfg.ranks].push_back(priv[i]);
    }

    core::ProcId
    homeOf(std::uint32_t b, core::ProcId requester)
    {
        if (_cfg.homeMap == HomeMap::BlockInterleaved)
            return static_cast<core::ProcId>(b % _cfg.ranks);
        if (_home[b] == core::kNoProc)
            _home[b] = requester; // first touch
        return _home[b];
    }

    void
    emit(MsgType type, core::ProcId src, core::ProcId dst)
    {
        ++_out.stats.perType[static_cast<std::size_t>(type)];
        if (src == dst)
            return; // local directory / local response: no traffic
        const bool data =
            type == MsgType::Data || type == MsgType::WriteBack;
        CohMessage m;
        m.type = type;
        m.src = src;
        m.dst = dst;
        m.bytes = data ? _cfg.blockBytes : _cfg.controlBytes;
        m.callId = _round * kNumMsgTypes +
                   static_cast<std::uint32_t>(type);
        m.txn = _txn;
        m.block = _block;
        m.round = _round;
        _out.messages.push_back(m);
    }

    void
    beginTxn(TxnKind kind, core::ProcId requester, std::uint32_t b)
    {
        _txn = _out.stats.transactions++;
        _block = b;
        TxnInfo info;
        info.kind = kind;
        info.requester = requester;
        info.block = b;
        info.round = _round;
        _out.txns.push_back(info);
    }

    void
    countInvalidation()
    {
        ++_out.txns.back().invalidations;
        ++_out.txns.back().acks;
    }

    /** Evict sharers past the sparse-directory pointer capacity. */
    void
    enforceSharerBound(DirEntry &d, std::uint32_t b,
                       core::ProcId protectedRank)
    {
        const core::ProcId h = homeOf(b, protectedRank);
        while (d.sharers.size() > _cfg.maxSharers) {
            auto victim = d.sharers.begin();
            while (victim != d.sharers.end() && *victim == protectedRank)
                ++victim;
            if (victim == d.sharers.end())
                break;
            emit(MsgType::Inv, h, *victim);
            emit(MsgType::Ack, *victim, h);
            countInvalidation();
            _cache[*victim][b] = DirEntry::I;
            d.sharers.erase(victim);
        }
    }

    void
    doLoad(core::ProcId r, std::uint32_t b)
    {
        ++_out.stats.loads;
        if (_cache[r][b] != DirEntry::I) {
            ++_out.stats.hits;
            return;
        }
        beginTxn(TxnKind::Load, r, b);
        const core::ProcId h = homeOf(b, r);
        DirEntry &d = _dir[b];
        emit(MsgType::GetS, r, h);
        if (d.state == DirEntry::M) {
            // Recall the dirty copy; the owner drops to I (the MSI
            // simplification without an O state) and home serves S.
            emit(MsgType::Fetch, h, d.owner);
            emit(MsgType::WriteBack, d.owner, h);
            _cache[d.owner][b] = DirEntry::I;
            d.sharers.clear();
            d.owner = core::kNoProc;
        }
        emit(MsgType::Data, h, r);
        if (std::find(d.sharers.begin(), d.sharers.end(), r) ==
            d.sharers.end())
            d.sharers.push_back(r);
        d.state = DirEntry::S;
        _cache[r][b] = DirEntry::S;
        enforceSharerBound(d, b, r);
    }

    void
    doStore(core::ProcId r, std::uint32_t b)
    {
        ++_out.stats.stores;
        if (_cache[r][b] == DirEntry::M) {
            ++_out.stats.hits;
            return;
        }
        beginTxn(TxnKind::Store, r, b);
        const core::ProcId h = homeOf(b, r);
        DirEntry &d = _dir[b];
        emit(MsgType::GetX, r, h);
        if (d.state == DirEntry::M && d.owner != r) {
            emit(MsgType::Fetch, h, d.owner);
            emit(MsgType::WriteBack, d.owner, h);
            _cache[d.owner][b] = DirEntry::I;
        }
        std::uint32_t fanout = 0;
        if (d.state == DirEntry::S) {
            // Invalidation burst: every Inv of this transaction
            // follows the GetX above, and each invalidated sharer
            // acks the requester directly.
            for (const core::ProcId s : d.sharers) {
                if (s == r)
                    continue;
                emit(MsgType::Inv, h, s);
                emit(MsgType::Ack, s, r);
                countInvalidation();
                _cache[s][b] = DirEntry::I;
                ++fanout;
            }
        }
        _out.stats.maxInvFanout =
            std::max(_out.stats.maxInvFanout, fanout);
        emit(MsgType::Data, h, r);
        d.state = DirEntry::M;
        d.owner = r;
        d.sharers.clear();
        _cache[r][b] = DirEntry::M;
    }

    void
    doWriteback(core::ProcId r, std::uint32_t b)
    {
        if (_cache[r][b] != DirEntry::M)
            return;
        beginTxn(TxnKind::Writeback, r, b);
        const core::ProcId h = homeOf(b, r);
        DirEntry &d = _dir[b];
        emit(MsgType::WriteBack, r, h);
        emit(MsgType::WbAck, h, r);
        _cache[r][b] = DirEntry::I;
        if (d.state == DirEntry::M && d.owner == r) {
            d.state = DirEntry::I;
            d.owner = core::kNoProc;
        }
    }

    /** Weighted class draw, falling back to a class that has blocks. */
    SharingClass
    drawClass()
    {
        double sum = 0.0;
        for (const double w : _cfg.mix.weights)
            sum += w;
        double x = _rng.uniform() * sum;
        std::size_t c = 0;
        while (c + 1 < kNumSharingClasses && x >= _cfg.mix.weights[c]) {
            x -= _cfg.mix.weights[c];
            ++c;
        }
        for (std::size_t probe = 0; probe < kNumSharingClasses;
             ++probe) {
            const std::size_t k = (c + probe) % kNumSharingClasses;
            if (!_byClass[k].empty())
                return static_cast<SharingClass>(k);
        }
        panic("coh: no blocks assigned to any sharing class");
    }

    std::uint32_t
    pickFrom(const std::vector<std::uint32_t> &list)
    {
        return list[_rng.below(list.size())];
    }

    void
    issueOp(core::ProcId r)
    {
        switch (drawClass()) {
        case SharingClass::Private: {
            const auto &own = _privateOf[r].empty()
                                  ? _byClass[static_cast<std::size_t>(
                                        SharingClass::Private)]
                                  : _privateOf[r];
            const std::uint32_t b = pickFrom(own);
            if (_cache[r][b] == DirEntry::M && _rng.chance(0.25)) {
                doWriteback(r, b);
            } else if (_rng.chance(0.7)) {
                doStore(r, b);
            } else {
                doLoad(r, b);
            }
            break;
        }
        case SharingClass::ReadShared: {
            const std::uint32_t b =
                pickFrom(_byClass[static_cast<std::size_t>(
                    SharingClass::ReadShared)]);
            if (_rng.chance(0.05))
                doStore(r, b); // rare write: invalidation burst
            else
                doLoad(r, b);
            break;
        }
        case SharingClass::Migratory: {
            // Read-modify-write: ownership migrates to the accessor.
            const std::uint32_t b =
                pickFrom(_byClass[static_cast<std::size_t>(
                    SharingClass::Migratory)]);
            doLoad(r, b);
            doStore(r, b);
            break;
        }
        case SharingClass::ProducerConsumer: {
            const std::uint32_t b =
                pickFrom(_byClass[static_cast<std::size_t>(
                    SharingClass::ProducerConsumer)]);
            if (r == _producer[b])
                doStore(r, b);
            else
                doLoad(r, b);
            break;
        }
        }
    }

    const CoherenceConfig &_cfg;
    Rng _rng;
    std::vector<DirEntry> _dir;
    std::vector<core::ProcId> _home;
    std::vector<CacheRow> _cache;
    std::vector<SharingClass> _cls;
    std::vector<core::ProcId> _producer;
    std::array<std::vector<std::uint32_t>, kNumSharingClasses> _byClass;
    std::vector<std::vector<std::uint32_t>> _privateOf;

    CohExpansion _out;
    std::uint32_t _round = 0;
    std::uint32_t _txn = 0;
    std::uint32_t _block = 0;
};

} // namespace

const char *
sharingClassName(SharingClass cls)
{
    switch (cls) {
    case SharingClass::Private:
        return "private";
    case SharingClass::ReadShared:
        return "read_shared";
    case SharingClass::Migratory:
        return "migratory";
    case SharingClass::ProducerConsumer:
        return "producer_consumer";
    }
    panic("sharingClassName: bad class ", static_cast<unsigned>(cls));
}

const char *
homeMapName(HomeMap map)
{
    switch (map) {
    case HomeMap::BlockInterleaved:
        return "interleaved";
    case HomeMap::FirstTouch:
        return "first-touch";
    }
    panic("homeMapName: bad map ", static_cast<unsigned>(map));
}

std::optional<HomeMap>
homeMapFromName(std::string_view name)
{
    if (name == "interleaved")
        return HomeMap::BlockInterleaved;
    if (name == "first-touch")
        return HomeMap::FirstTouch;
    return std::nullopt;
}

const char *
msgTypeName(MsgType type)
{
    switch (type) {
    case MsgType::GetS:
        return "GetS";
    case MsgType::GetX:
        return "GetX";
    case MsgType::Fetch:
        return "Fetch";
    case MsgType::Inv:
        return "Inv";
    case MsgType::Ack:
        return "Ack";
    case MsgType::Data:
        return "Data";
    case MsgType::WriteBack:
        return "WriteBack";
    case MsgType::WbAck:
        return "WbAck";
    }
    panic("msgTypeName: bad type ", static_cast<unsigned>(type));
}

std::optional<SharingMix>
parseMix(std::string_view text, std::string &error)
{
    SharingMix mix;
    mix.weights.fill(0.0);
    bool seen[kNumSharingClasses] = {};
    if (text.empty()) {
        error = "empty --mix string";
        return std::nullopt;
    }
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string_view item = text.substr(
            pos, comma == std::string_view::npos ? std::string_view::npos
                                                 : comma - pos);
        const std::size_t colon = item.find(':');
        if (colon == std::string_view::npos) {
            error = "mix item '" + std::string(item) +
                    "' is not class:weight";
            return std::nullopt;
        }
        const std::string_view name = item.substr(0, colon);
        const std::string valueText(item.substr(colon + 1));
        std::size_t cls = kNumSharingClasses;
        for (std::size_t c = 0; c < kNumSharingClasses; ++c) {
            if (name == sharingClassName(static_cast<SharingClass>(c)))
                cls = c;
        }
        if (cls == kNumSharingClasses) {
            error = "unknown sharing class '" + std::string(name) + "'";
            return std::nullopt;
        }
        if (seen[cls]) {
            error = "duplicate sharing class '" + std::string(name) +
                    "' in mix";
            return std::nullopt;
        }
        if (valueText.empty()) {
            error = "missing weight for class '" + std::string(name) +
                    "'";
            return std::nullopt;
        }
        char *end = nullptr;
        const double w = std::strtod(valueText.c_str(), &end);
        if (end != valueText.c_str() + valueText.size() ||
            !std::isfinite(w) || w < 0.0) {
            error = "bad weight '" + valueText + "' for class '" +
                    std::string(name) + "'";
            return std::nullopt;
        }
        seen[cls] = true;
        mix.weights[cls] = w;
        if (comma == std::string_view::npos)
            break;
        pos = comma + 1;
        if (pos == text.size()) {
            error = "trailing comma in --mix";
            return std::nullopt;
        }
    }
    double sum = 0.0;
    for (const double w : mix.weights)
        sum += w;
    if (sum <= 0.0) {
        error = "mix weights sum to zero";
        return std::nullopt;
    }
    return mix;
}

std::string
CoherenceConfig::problem() const
{
    if (ranks < 2)
        return "need at least 2 ranks, got " + std::to_string(ranks);
    if (blocks == 0)
        return "need at least 1 block";
    if (blocks > (1u << 20))
        return "blocks " + std::to_string(blocks) +
               " exceeds the 2^20 bound";
    if (maxSharers == 0)
        return "need at least 1 sharer pointer";
    if (rounds == 0 || opsPerRankPerRound == 0)
        return "rounds and ops per rank must be positive";
    if (blockBytes == 0 || controlBytes == 0)
        return "message payloads must be positive";
    if (computeCycles < 0)
        return "compute cycles must be non-negative";
    double sum = 0.0;
    for (const double w : mix.weights) {
        if (!std::isfinite(w) || w < 0.0)
            return "mix weights must be finite and non-negative";
        sum += w;
    }
    if (sum <= 0.0)
        return "mix weights sum to zero";
    return "";
}

void
CoherenceConfig::validate() const
{
    if (const auto why = problem(); !why.empty())
        panic("coh: ", why);
}

std::uint64_t
CohStats::messages() const
{
    std::uint64_t total = 0;
    for (const auto n : perType)
        total += n;
    return total;
}

CohExpansion
expandCoherence(const CoherenceConfig &config)
{
    config.validate();
    return Generator(config).run();
}

trace::Trace
traceFromExpansion(const CohExpansion &expansion,
                   const CoherenceConfig &config)
{
    trace::Trace t("COH-" + std::to_string(config.ranks), config.ranks);
    // Per-rank compute jitter at round boundaries desynchronizes the
    // requesters the way real core pipelines would; drawn from a
    // dedicated stream so trace shape is independent of expansion
    // internals.
    Rng jitter(config.seed ^ 0x9A91755E57ULL);
    std::size_t next = 0;
    for (std::uint32_t round = 0; round < config.rounds; ++round) {
        if (config.computeCycles > 0) {
            const auto span =
                static_cast<std::uint64_t>(config.computeCycles);
            for (core::ProcId r = 0; r < config.ranks; ++r) {
                const auto extra =
                    static_cast<std::int64_t>(jitter.below(span / 4 + 1));
                t.push(r, trace::TraceOp::compute(config.computeCycles +
                                                  extra));
            }
        }
        // One global causal order: each message's Send lands on the
        // source timeline and its Recv on the destination timeline
        // immediately, so any rank's awaited message was sent by an
        // earlier op — replay cannot deadlock (sends block only until
        // injection, deliveries buffer at the NI).
        while (next < expansion.messages.size() &&
               expansion.messages[next].round == round) {
            const CohMessage &m = expansion.messages[next];
            t.push(m.src,
                   trace::TraceOp::send(m.dst, m.bytes, m.callId));
            t.push(m.dst,
                   trace::TraceOp::recv(m.src, m.bytes, m.callId));
            ++next;
        }
    }
    t.validateMatching();
    return t;
}

trace::Trace
coherenceTrace(const CoherenceConfig &config)
{
    const auto expansion = expandCoherence(config);
    return traceFromExpansion(expansion, config);
}

} // namespace minnoc::coh
