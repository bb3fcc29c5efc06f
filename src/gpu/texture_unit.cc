#include "gpu/texture_unit.hh"

#include <algorithm>
#include <bit>

namespace attila::gpu
{

using emu::TextureEmulator;

void
collectTexelLines(const std::array<emu::SamplePlan, 4>& plans,
                  u32 lineBytes, std::vector<u32>& lines)
{
    // Neighbouring texels mostly share a block or a line, so skipping
    // a repeat of the last texel address and of the last line pushed
    // leaves only a handful of lines to sort.
    lines.clear();
    const bool pow2 = std::has_single_bit(lineBytes);
    for (const emu::SamplePlan& plan : plans) {
        const emu::TexelRef* prev = nullptr;
        for (const emu::TexelRef& ref : plan.texels) {
            if (prev && prev->address == ref.address)
                continue;
            prev = &ref;
            const u32 offset = pow2 ? ref.address & (lineBytes - 1)
                                    : ref.address % lineBytes;
            const u32 first = ref.address - offset;
            if (lines.empty() || lines.back() != first)
                lines.push_back(first);
            // Texels may straddle a line boundary (DXT blocks).
            if (offset + ref.bytes > lineBytes) {
                const u32 end = ref.address + ref.bytes - 1;
                lines.push_back(end - end % lineBytes);
            }
        }
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
}

TextureUnit::TextureUnit(sim::SignalBinder& binder,
                         sim::StatisticManager& stats,
                         const GpuConfig& config, u32 unit,
                         emu::GpuMemory& memory)
    : Box(binder, stats, "TextureUnit" + std::to_string(unit)),
      _config(config),
      _unit(unit),
      _memory(memory),
      _cache("texcache" + std::to_string(unit),
             FbCache::Config{config.textureCacheKB,
                             config.textureCacheWays,
                             config.textureCacheLine,
                             config.textureCachePorts,
                             config.textureCacheMshr},
             stat("cacheHits"), stat("cacheMisses")),
      _statRequests(stat("requests")),
      _statBilinearOps(stat("bilinearOps")),
      _statBusy(stat("busyCycles"))
{
    const std::string id = std::to_string(unit);
    for (u32 s = 0; s < config.numShaders; ++s) {
        auto rx = std::make_unique<LinkRx<TexRequest>>();
        rx->init(*this, binder,
                 "shader" + std::to_string(s) + ".tu" + id + ".req",
                 1, 1, 2);
        _reqIn.push_back(std::move(rx));
        auto tx = std::make_unique<LinkTx>();
        tx->init(*this, binder,
                 "tu" + id + ".shader" + std::to_string(s) + ".resp",
                 1, 1, 2);
        _respOut.push_back(std::move(tx));
    }
    _mem.init(*this, binder, "mc.texcache" + id,
              config.memoryRequestQueue);
}

bool
TextureUnit::acceptRequests(Cycle cycle)
{
    bool progress = false;
    const u32 n = static_cast<u32>(_reqIn.size());
    for (u32 k = 0; k < n; ++k) {
        const u32 s = (_rrNext + k) % n;
        LinkRx<TexRequest>& rx = *_reqIn[s];
        if (rx.empty())
            continue;
        if (_queue.size() >= _config.textureRequestQueue)
            break;
        _queue.push_back(rx.pop(cycle));
        _rrNext = (s + 1) % n;
        progress = true;
    }
    return progress;
}

void
TextureUnit::planRequest(Active& active)
{
    const TexRequest& req = *active.req;
    const RenderState& state = *req.state;
    const emu::TextureDescriptor& desc =
        state.textures[req.textureUnit];

    // Project coordinates (TXP) before planning.
    std::array<emu::Vec4, 4> coords = req.coords;
    if (req.projected) {
        for (u32 l = 0; l < 4; ++l) {
            const f32 q = coords[l].w != 0.0f ? coords[l].w : 1.0f;
            coords[l] = {coords[l].x / q, coords[l].y / q,
                         coords[l].z / q, 1.0f};
        }
    }

    u32 aniso;
    f32 lod;
    emu::Vec4 majorAxis;
    TextureEmulator::quadFootprint(desc, coords, req.lodBias, aniso,
                                   lod, majorAxis);

    active.bilinearOps = 0;
    for (u32 l = 0; l < 4; ++l) {
        TextureEmulator::planSampleInto(desc, coords[l], lod, aniso,
                                        majorAxis, active.plans[l]);
        active.bilinearOps += active.plans[l].bilinearOps;
    }
    collectTexelLines(active.plans, _config.textureCacheLine,
                      active.lineAddrs);
}

bool
TextureUnit::process(Cycle cycle)
{
    bool progress = false;
    if (!_activeLive) {
        if (_queue.empty())
            return false;
        _active.req = _queue.pop_front();
        _active.nextLine = 0;
        _active.filtering = false;
        _active.filterDoneAt = 0;
        _activeLive = true;
        planRequest(_active);
        _statRequests.inc();
        progress = true;
    }

    Active& active = _active;
    _statBusy.inc(); // Also replayed per slept cycle by settle().

    if (!active.filtering) {
        // Touch every needed line; stall on misses.
        while (active.nextLine < active.lineAddrs.size()) {
            const CacheAccess access = _cache.access(
                cycle, active.lineAddrs[active.nextLine], false);
            if (access == CacheAccess::Hit) {
                ++active.nextLine;
                continue;
            }
            // Miss or ports exhausted: retry next cycle (a hit or a
            // new miss shows as progress in the cache's changes()).
            return progress;
        }
        // All lines resident: sample functionally from GPU memory
        // (the cache holds the same bytes — textures are
        // read-only) and charge the filter throughput.
        const RenderState& state = *active.req->state;
        const emu::TextureDescriptor& desc =
            state.textures[active.req->textureUnit];
        // One decoded-block cache shared across the quad's four
        // plans (pure memoization — identical texels).
        emu::TexBlockCache blockCache;
        for (u32 l = 0; l < 4; ++l) {
            active.req->texels[l] = TextureEmulator::executePlan(
                desc, active.plans[l], _memory, &blockCache);
        }
        _statBilinearOps.inc(active.bilinearOps);
        active.filtering = true;
        active.filterDoneAt = cycle + std::max(1u,
                                               active.bilinearOps);
        return true;
    }

    if (cycle < active.filterDoneAt) {
        wakeAt(active.filterDoneAt);
        return progress;
    }
    _done.push_back(std::move(active.req));
    active.req.reset();
    _activeLive = false;
    return true;
}

bool
TextureUnit::finish(Cycle cycle)
{
    bool progress = false;
    while (!_done.empty()) {
        LinkTx& out = *_respOut[_done.front()->shaderId];
        if (!out.canSend(cycle))
            break;
        out.send(cycle, _done.pop_front());
        progress = true;
    }
    return progress;
}

bool
TextureUnit::update(Cycle cycle)
{
    bool progress = false;
    for (auto& rx : _reqIn)
        progress |= rx->clock(cycle);
    for (auto& tx : _respOut)
        progress |= tx->clock(cycle);
    progress |= _mem.clock(cycle);
    const u64 cacheChanges = _cache.changes();

    progress |= finish(cycle);
    progress |= process(cycle);
    progress |= acceptRequests(cycle);
    _cache.clock(cycle, _mem, MemClient::TextureCache);
    progress |= _cache.changes() != cacheChanges;
    _statRequests.commit();
    _statBilinearOps.commit();
    _statBusy.commit();
    return progress;
}

void
TextureUnit::settle(Cycle cycles)
{
    // A sleeping unit with an active request counts it busy every
    // cycle, as process() does.
    if (_activeLive) {
        _statBusy.inc(cycles);
        _statBusy.commit();
    }
}

bool
TextureUnit::empty() const
{
    if (_activeLive || !_queue.empty() || !_done.empty())
        return false;
    for (const auto& rx : _reqIn) {
        if (!rx->empty())
            return false;
    }
    return _cache.idle();
}

} // namespace attila::gpu
