#include "gpu/dac.hh"

#include <fstream>

#include "emu/fragment_op_emulator.hh"

namespace attila::gpu
{

void
FrameImage::writePpm(const std::string& path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("DAC: cannot open '", path, "' for writing");
    out << "P6\n" << width << ' ' << height << "\n255\n";
    // OpenGL y-up to PPM top-down.
    for (s32 y = static_cast<s32>(height) - 1; y >= 0; --y) {
        for (u32 x = 0; x < width; ++x) {
            const u32 p = pixel(x, static_cast<u32>(y));
            const char rgb[3] = {static_cast<char>(p & 0xff),
                                 static_cast<char>((p >> 8) & 0xff),
                                 static_cast<char>((p >> 16) & 0xff)};
            out.write(rgb, 3);
        }
    }
}

u64
FrameImage::diffCount(const FrameImage& other) const
{
    if (width != other.width || height != other.height)
        return static_cast<u64>(width) * height;
    u64 diff = 0;
    for (std::size_t i = 0; i < pixels.size(); ++i) {
        if (pixels[i] != other.pixels[i])
            ++diff;
    }
    return diff;
}

Dac::Dac(sim::SignalBinder& binder, sim::StatisticManager& stats,
         const GpuConfig& config)
    : Box(binder, stats, "DAC"),
      _config(config),
      _statFrames(stat("frames")),
      _statBusy(stat("busyCycles"))
{
    _ctrl.init(*this, binder, "cp.ctrl.dac", 1, 1, 2);
    _ack.init(*this, binder, "ack.dac", 1, 1, 2);
    _mem.init(*this, binder, "mc.dac", config.memoryRequestQueue);
}

void
Dac::assembleFrame(const RenderState& state)
{
    FrameImage frame;
    frame.width = state.width;
    frame.height = state.height;
    frame.pixels.assign(static_cast<std::size_t>(state.width) *
                            state.height,
                        0);
    if (!_memory)
        panic("DAC: no memory attached");

    for (u32 y = 0; y < state.height; ++y) {
        for (u32 x = 0; x < state.width; ++x) {
            const u32 tile =
                fbTileIndex(state.width, x, y);
            // A tile still in the "cleared" block state has no
            // memory backing: the clear colour is its content.
            // Only the ROP owning the tile (tile interleaving)
            // holds its authoritative state.
            bool resolved = false;
            u32 word = 0;
            if (!_clearInfos.empty()) {
                const auto& info =
                    _clearInfos[tile % _clearInfos.size()];
                if (info->bufferBase == state.colorBufferAddress) {
                    const BlockState bs = info->table.get(tile);
                    if (bs == BlockState::Cleared) {
                        resolved = true;
                        word = info->clearWord;
                    } else if (bs == BlockState::CompQuarter) {
                        // Uniform compressed tile: the single
                        // stored word is the whole tile.
                        resolved = true;
                        word = _memory->readAs<u32>(fbTileAddress(
                            state.colorBufferAddress, state.width,
                            x, y));
                    }
                }
            }
            frame.pixels[y * state.width + x] =
                resolved ? word
                         : _memory->readAs<u32>(fbPixelAddress(
                               state.colorBufferAddress,
                               state.width, x, y));
        }
    }
    if (_keepLastOnly)
        _frames.clear();
    _frames.push_back(std::move(frame));
    _statFrames.inc();
}

bool
Dac::update(Cycle cycle)
{
    bool progress = _ctrl.clock(cycle);
    progress |= _ack.clock(cycle);
    progress |= _mem.clock(cycle);

    // Drain timing reads.
    while (_mem.hasResponse()) {
        _mem.popResponse(cycle);
        --_tilesLeft;
        progress = true;
    }

    if (_dumping) {
        _statBusy.inc(); // Also replayed per slept cycle by settle().
        // Issue tile reads (refresh bandwidth).
        while (_nextTile < _totalTiles && _mem.canRequest(cycle)) {
            auto txn = _txns.acquire();
            txn->isRead = true;
            txn->address = _bufferBase + _nextTile * fbTileBytes;
            txn->size = fbTileBytes;
            txn->client = MemClient::Dac;
            _mem.request(cycle, txn);
            ++_nextTile;
            progress = true;
        }
        if (_tilesLeft == 0 && _nextTile >= _totalTiles &&
            _ack.canSend(cycle)) {
            auto ack = std::make_shared<AckObj>();
            ack->kind = ControlKind::DumpFrame;
            _ack.send(cycle, ack);
            _dumping = false;
            progress = true;
        }
        return progress;
    }

    if (_ctrl.empty())
        return progress;
    ControlObjPtr ctrl = _ctrl.pop(cycle);
    if (ctrl->kind != ControlKind::DumpFrame)
        panic("DAC: unexpected control message");

    const RenderState& state = *ctrl->state;
    assembleFrame(state);
    _bufferBase = state.colorBufferAddress;
    _totalTiles = fbSurfaceBytes(state.width, state.height) /
                  fbTileBytes;
    _tilesLeft = _totalTiles;
    _nextTile = 0;
    _dumping = true;
    return true;
}

void
Dac::settle(Cycle cycles)
{
    if (_dumping)
        _statBusy.inc(cycles);
}

bool
Dac::empty() const
{
    return !_dumping && _ctrl.empty();
}

} // namespace attila::gpu
