#include "gpu/z_stencil_test.hh"

#include <cstring>

#include "emu/fragment_op_emulator.hh"

namespace attila::gpu
{

using emu::FragmentOpEmulator;
using emu::ZCompressor;

u32
ZStencilBacking::fillSize(u32 lineAddr)
{
    switch (table.get(blockOf(lineAddr))) {
      case BlockState::Cleared:
        return 0;
      case BlockState::CompHalf:
        return emu::zTileBytes / 2;
      case BlockState::CompQuarter:
        return emu::zTileBytes / 4;
      case BlockState::Uncompressed:
        return emu::zTileBytes;
    }
    return emu::zTileBytes;
}

void
ZStencilBacking::fillFromMemory(u32 lineAddr, const u8* memBytes,
                                u32 size, u8* lineOut)
{
    const BlockState state = table.get(blockOf(lineAddr));
    if (state == BlockState::Uncompressed) {
        std::memcpy(lineOut, memBytes, emu::zTileBytes);
        return;
    }
    const emu::TileCompression mode =
        state == BlockState::CompHalf ? emu::TileCompression::Half
                                      : emu::TileCompression::Quarter;
    const std::vector<u8> data(memBytes, memBytes + size);
    const auto tile = ZCompressor::decompress(mode, data);
    std::memcpy(lineOut, tile.data(), emu::zTileBytes);
}

void
ZStencilBacking::fillLocal(u32 lineAddr, u8* lineOut)
{
    (void)lineAddr;
    for (u32 i = 0; i < emu::zTileWords; ++i)
        std::memcpy(lineOut + i * 4, &clearWord, 4);
}

u32
ZStencilBacking::writeback(u32 lineAddr, const u8* lineData, u8* out)
{
    std::array<u32, emu::zTileWords> tile;
    std::memcpy(tile.data(), lineData, emu::zTileBytes);

    // Exact tile maximum refines the Hierarchical Z buffer.
    if (hzHook) {
        u32 maxDepth = 0;
        for (u32 w : tile)
            maxDepth = std::max(maxDepth, emu::depthOf(w));
        hzHook(blockOf(lineAddr),
               static_cast<f32>(maxDepth) /
                   static_cast<f32>(emu::maxDepthValue));
    }

    if (compressionEnabled) {
        const auto result = ZCompressor::compress(tile);
        if (result.mode != emu::TileCompression::Uncompressed) {
            table.set(blockOf(lineAddr),
                      result.mode == emu::TileCompression::Half
                          ? BlockState::CompHalf
                          : BlockState::CompQuarter);
            std::memcpy(out, result.data.data(),
                        result.data.size());
            return static_cast<u32>(result.data.size());
        }
    }
    table.set(blockOf(lineAddr), BlockState::Uncompressed);
    std::memcpy(out, lineData, emu::zTileBytes);
    return emu::zTileBytes;
}

ZStencilTest::ZStencilTest(sim::SignalBinder& binder,
                           sim::StatisticManager& stats,
                           const GpuConfig& config, u32 unit,
                           emu::GpuMemory& memory)
    : Box(binder, stats, "ZStencilTest" + std::to_string(unit)),
      _config(config),
      _unit(unit),
      _memory(memory),
      _cache("zcache" + std::to_string(unit),
             FbCache::Config{config.zCacheKB, config.zCacheWays,
                             config.zCacheLine, 4,
                             config.zCacheMshr},
             stat("cacheHits"), stat("cacheMisses"), &_backing),
      _statQuads(stat("quads")),
      _statFragsTested(stat("fragmentsTested")),
      _statFragsPassed(stat("fragmentsPassed")),
      _statBusy(stat("busyCycles"))
{
    const std::string id = std::to_string(unit);
    _earlyIn.init(*this, binder, "hz.ropz" + id, 16, 1, 16);
    _lateIn.init(*this, binder, "ffifo.ropz" + id + ".late", 2, 1,
                 8);
    _toInterp.init(*this, binder, "ropz" + id + ".interp", 1,
                   config.ropLatency, 16);
    _toRopc.init(*this, binder, "ropz" + id + ".ropc", 1,
                 config.ropLatency, 8);
    _hzUpdates.init(*this, binder, "ropz" + id + ".hzupd", 4, 1, 32);
    _ctrl.init(*this, binder, "cp.ctrl.ropz" + id, 1, 1, 2);
    _ack.init(*this, binder, "ack.ropz" + id, 1, 1, 2);
    _mem.init(*this, binder, "mc.zcache" + id,
              config.memoryRequestQueue);

    _backing.compressionEnabled = config.zCompression;
    _backing.hzHook = _hzEnqueue;
}

void
ZStencilTest::HzEnqueue::operator()(u32 tileIndex, f32 maxZ) const
{
    auto upd = owner->_hzPool.acquire();
    upd->tileIndex = tileIndex;
    upd->maxZ = maxZ;
    owner->_hzQueue.push_back(std::move(upd));
}

bool
ZStencilTest::processControl(Cycle cycle, Cycle& wake)
{
    if (_ctrlPhase == CtrlPhase::Clearing) {
        if (cycle < _ctrlDoneAt) {
            wake = _ctrlDoneAt;
            return false;
        }
        if (!_ack.canSend(cycle))
            return false;
        auto ack = std::make_shared<AckObj>();
        ack->kind = _ctrlKind;
        ack->unit = _unit;
        _ack.send(cycle, ack);
        _ctrlPhase = CtrlPhase::None;
        return true;
    }
    if (_ctrlPhase == CtrlPhase::Flushing) {
        // Flush progress shows in the cache's changes().
        if (!_cache.flushStep(cycle, _mem, MemClient::ZCache))
            return false;
        if (!_ack.canSend(cycle))
            return false;
        auto ack = std::make_shared<AckObj>();
        ack->kind = _ctrlKind;
        ack->unit = _unit;
        _ack.send(cycle, ack);
        _ctrlPhase = CtrlPhase::None;
        return true;
    }

    if (_ctrl.empty())
        return false;
    ControlObjPtr ctrl = _ctrl.pop(cycle);
    _ctrlKind = ctrl->kind;
    const RenderState& state = *ctrl->state;

    if (ctrl->kind == ControlKind::ClearZStencil) {
        _backing.bufferBase = state.zStencilBufferAddress;
        _backing.clearWord = emu::packDepthStencil(
            emu::quantizeDepth(state.clearDepth),
            state.clearStencil);
        const u32 tiles =
            fbSurfaceBytes(state.width, state.height) / fbTileBytes;
        _cache.invalidateAll();
        if (_config.fastClear) {
            // Fast clear: flip the block states, a few cycles.
            _backing.table.reset(tiles, BlockState::Cleared);
            _ctrlDoneAt = cycle + _config.clearCycles;
        } else {
            // Slow clear (ablation): write the whole buffer.  The
            // data movement is functional; the cost models an
            // uncontended sequential write of the surface.
            _backing.table.reset(tiles, BlockState::Uncompressed);
            const u32 myUnit = _unit;
            for (u32 t = myUnit; t < tiles;
                 t += _config.numRops) {
                for (u32 w = 0; w < emu::zTileWords; ++w) {
                    _memory.writeAs<u32>(_backing.bufferBase +
                                             t * fbTileBytes + w * 4,
                                         _backing.clearWord);
                }
            }
            const u32 myTiles =
                (tiles + _config.numRops - 1) / _config.numRops;
            _ctrlDoneAt =
                cycle + static_cast<Cycle>(myTiles) * fbTileBytes /
                            (_config.memoryChannels *
                             _config.channelBytesPerCycle);
        }
        // Late batches completed before a barrier can be forgotten.
        _lateDone.clear();
        _prevWasLate = false;
        _gateBatch = ~0u;
        _ctrlPhase = CtrlPhase::Clearing;
        return true;
    }
    if (ctrl->kind == ControlKind::Flush) {
        _ctrlPhase = CtrlPhase::Flushing;
        return true;
    }
    panic("ZStencilTest: unexpected control message");
}

bool
ZStencilTest::zAccess(Cycle cycle, QuadObj& quad, bool shaded)
{
    const RenderState& state = *quad.state;
    const emu::ZStencilState& zs = state.zStencil;

    if (!zs.depthTest && !zs.stencilTest)
        return true; // Nothing to do.

    const u32 lineAddr = fbTileAddress(
        state.zStencilBufferAddress, state.width,
        static_cast<u32>(quad.x0), static_cast<u32>(quad.y0));

    const CacheAccess access = _cache.access(cycle, lineAddr, false);
    if (access != CacheAccess::Hit)
        return false;

    const bool programWritesDepth =
        shaded && state.fragmentProgram &&
        (state.fragmentProgram->outputsWritten &
         (1u << emu::regix::foutDepth));

    bool wrote = false;
    for (u32 f = 0; f < 4; ++f) {
        if (!quad.coverage[f])
            continue;
        _statFragsTested.inc();
        const u32 x = static_cast<u32>(quad.x0) + (f % 2);
        const u32 y = static_cast<u32>(quad.y0) + (f / 2);
        const u32 addr = fbPixelAddress(
            state.zStencilBufferAddress, state.width, x, y);
        u32 stored;
        std::memcpy(&stored, _cache.wordPtr(addr), 4);

        f32 depth = quad.z[f];
        if (programWritesDepth)
            depth = quad.out[f][emu::regix::foutDepth].x;

        const auto result = FragmentOpEmulator::zStencilTest(
            zs, emu::quantizeDepth(depth), stored,
            quad.backFacing);
        if (result.newZS != stored) {
            std::memcpy(_cache.wordPtr(addr), &result.newZS, 4);
            wrote = true;
        }
        if (result.pass) {
            _statFragsPassed.inc();
        } else {
            quad.coverage[f] = false;
        }
    }
    if (wrote)
        _cache.markDirty(lineAddr);
    return true;
}

bool
ZStencilTest::processEarly(Cycle cycle)
{
    if (_earlyIn.empty())
        return false;
    const QuadObjPtr& head = _earlyIn.front();

    if (head->isMarker()) {
        // Updated even when the marker must wait below, so a retry
        // changes the gate again: that is progress.
        bool gateChanged = false;
        if (head->marker == MarkerKind::BatchStart) {
            // A batch's early Z accesses must wait until the
            // previous batch — if it tested after shading — has
            // finished its own Z accesses.
            const u32 gate = _prevWasLate ? _prevBatchId : ~0u;
            const bool late = head->state && !head->state->earlyZ();
            gateChanged = gate != _gateBatch ||
                          late != _prevWasLate ||
                          head->batchId != _prevBatchId;
            _gateBatch = gate;
            _prevWasLate = late;
            _prevBatchId = head->batchId;
        }
        // Markers take the same delay pipeline as quads so they can
        // never overtake work of their own batch.
        if (_delayInterp.size() >= 8)
            return gateChanged;
        _delayInterp.push_back(
            {cycle + _config.ropLatency, _earlyIn.pop(cycle)});
        return true;
    }

    // Cross-batch hazard: an early-tested batch must not access the
    // Z buffer before the previous *late* batch finished its
    // accesses.
    if (head->marker == MarkerKind::None && !head->lateZPath) {
        if (_gateBatch != ~0u && !_lateDone.count(_gateBatch))
            return false;
    }

    QuadObjPtr quad = _earlyIn.front();

    if (quad->lateZPath) {
        // Late-Z batch: pass through untested.
        if (!_toInterp.canSend(cycle))
            return false;
        _toInterp.send(cycle, _earlyIn.pop(cycle));
        _statQuads.inc();
        return true;
    }

    if (_delayInterp.size() >= 8)
        return false; // Output pipeline full.
    if (!zAccess(cycle, *quad, false))
        return false; // Cache miss (progress shows in changes()).
    _earlyIn.pop(cycle);
    _statQuads.inc();

    const bool alive = quad->coverage[0] || quad->coverage[1] ||
                       quad->coverage[2] || quad->coverage[3];
    if (alive) // Fully culled quads leave the pipeline here.
        _delayInterp.push_back({cycle + _config.ropLatency, quad});
    return true;
}

bool
ZStencilTest::processLate(Cycle cycle)
{
    if (_lateIn.empty())
        return false;
    const QuadObjPtr& head = _lateIn.front();

    if (head->isMarker()) {
        if (_delayRopc.size() >= 8)
            return false;
        auto marker = _lateIn.pop(cycle);
        if (marker->marker == MarkerKind::BatchEnd)
            _lateDone.insert(marker->batchId);
        _delayRopc.push_back({cycle + _config.ropLatency, marker});
        return true;
    }

    QuadObjPtr quad = _lateIn.front();
    if (_delayRopc.size() >= 8)
        return false;
    if (!zAccess(cycle, *quad, true))
        return false;
    _lateIn.pop(cycle);
    _statQuads.inc();

    const bool alive = quad->coverage[0] || quad->coverage[1] ||
                       quad->coverage[2] || quad->coverage[3];
    if (alive)
        _delayRopc.push_back({cycle + _config.ropLatency, quad});
    return true;
}

bool
ZStencilTest::drainOutputs(Cycle cycle, Cycle& wake)
{
    bool progress = false;
    const auto drain = [&](sim::RingQueue<Delayed>& delay,
                           LinkTx& out) {
        while (!delay.empty() && out.canSend(cycle)) {
            if (delay.front().readyAt > cycle) {
                wake = std::min(wake, delay.front().readyAt);
                break;
            }
            out.send(cycle, std::move(delay.front().quad));
            delay.pop_front();
            progress = true;
        }
    };
    drain(_delayInterp, _toInterp);
    drain(_delayRopc, _toRopc);
    return progress;
}

bool
ZStencilTest::sendHzUpdates(Cycle cycle)
{
    bool progress = false;
    while (!_hzQueue.empty() && _hzUpdates.canSend(cycle)) {
        _hzUpdates.send(cycle, std::move(_hzQueue.front()));
        _hzQueue.pop_front();
        progress = true;
    }
    return progress;
}

bool
ZStencilTest::update(Cycle cycle)
{
    bool progress = _earlyIn.clock(cycle);
    progress |= _lateIn.clock(cycle);
    progress |= _toInterp.clock(cycle);
    progress |= _toRopc.clock(cycle);
    progress |= _hzUpdates.clock(cycle);
    progress |= _ctrl.clock(cycle);
    progress |= _ack.clock(cycle);
    progress |= _mem.clock(cycle);
    const u64 cacheChanges = _cache.changes();

    Cycle wake = NoWake;
    progress |= processControl(cycle, wake);
    if (_ctrlPhase == CtrlPhase::None) {
        const u64 quadsBefore = _statQuads.liveTotal();
        progress |= drainOutputs(cycle, wake);
        progress |= processLate(cycle);
        progress |= processEarly(cycle);
        // Double-rate Z (paper §7 extension): a second quad per
        // cycle when the head of an input belongs to a
        // depth/stencil-only pass (colour writes masked).
        if (_config.doubleRateZ) {
            auto depthOnlyHead = [](const LinkRx<QuadObj>& rx) {
                return !rx.empty() && !rx.front()->isMarker() &&
                       rx.front()->state->blend.colorMask == 0;
            };
            if (depthOnlyHead(_lateIn))
                progress |= processLate(cycle);
            if (depthOnlyHead(_earlyIn))
                progress |= processEarly(cycle);
        }
        if (_statQuads.liveTotal() != quadsBefore)
            _statBusy.inc();
        _cache.clock(cycle, _mem, MemClient::ZCache);
    }
    progress |= sendHzUpdates(cycle);
    _statQuads.commit();
    _statFragsTested.commit();
    _statFragsPassed.commit();
    _statBusy.commit();
    progress |= _cache.changes() != cacheChanges;
    if (!progress && wake != NoWake)
        wakeAt(wake);
    return progress;
}

bool
ZStencilTest::empty() const
{
    return _earlyIn.empty() && _lateIn.empty() &&
           _delayInterp.empty() && _delayRopc.empty() &&
           _hzQueue.empty() && _ctrl.empty() &&
           _ctrlPhase == CtrlPhase::None && _cache.idle();
}

} // namespace attila::gpu
