/**
 * @file
 * ColorWrite (ROPc): updates the framebuffer with the colours
 * computed by the fragment shaders, implementing all the OpenGL
 * blend and update functions (paper §2.2).  The Color cache supports
 * fast colour clear of the whole buffer through the per-block state
 * memory.  The architecture mirrors the Z and Stencil test unit.
 *
 * ColorWrite is the end of the pipeline: when a batch's end markers
 * have arrived on both datapaths (early: from the Fragment FIFO;
 * late: through ROPz) the unit reports batch retirement to the
 * Command Processor.
 */

#ifndef ATTILA_GPU_COLOR_WRITE_HH
#define ATTILA_GPU_COLOR_WRITE_HH

#include "emu/memory.hh"
#include "gpu/cache.hh"
#include "gpu/framebuffer.hh"
#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "sim/box.hh"
#include "sim/ring_queue.hh"

namespace attila::gpu
{

/** Shared colour-buffer clear information (ROPc <-> DAC). */
struct ColorClearInfo
{
    BlockStateTable table;
    u32 bufferBase = 0;
    u32 clearWord = 0;
};

/**
 * Line backing implementing fast colour clear, plus the §7 colour
 * compression extension: a tile whose 64 pixels are identical
 * writes back (and fills) at 1:4 — the word is replicated on fill.
 */
class ColorBacking : public LineBacking
{
  public:
    std::shared_ptr<ColorClearInfo> info =
        std::make_shared<ColorClearInfo>();
    bool compressionEnabled = false;

    u32
    blockOf(u32 lineAddr) const
    {
        return (lineAddr - info->bufferBase) / fbTileBytes;
    }

    u32
    fillSize(u32 lineAddr) override
    {
        switch (info->table.get(blockOf(lineAddr))) {
          case BlockState::Cleared:
            return 0;
          case BlockState::CompQuarter:
            return _lineBytes / 4;
          default:
            return _lineBytes;
        }
    }

    void
    fillLocal(u32 lineAddr, u8* lineOut) override
    {
        (void)lineAddr;
        for (u32 i = 0; i < _lineBytes / 4; ++i)
            std::memcpy(lineOut + i * 4, &info->clearWord, 4);
    }

    void
    fillFromMemory(u32 lineAddr, const u8* memBytes, u32 size,
                   u8* lineOut) override
    {
        if (info->table.get(blockOf(lineAddr)) ==
            BlockState::CompQuarter) {
            // Uniform tile: replicate the stored word.
            (void)size;
            for (u32 i = 0; i < _lineBytes / 4; ++i)
                std::memcpy(lineOut + i * 4, memBytes, 4);
            return;
        }
        std::memcpy(lineOut, memBytes, _lineBytes);
    }

    u32
    writeback(u32 lineAddr, const u8* lineData, u8* out) override
    {
        if (compressionEnabled) {
            u32 first;
            std::memcpy(&first, lineData, 4);
            bool uniform = true;
            for (u32 i = 1; i < _lineBytes / 4 && uniform; ++i) {
                u32 word;
                std::memcpy(&word, lineData + i * 4, 4);
                uniform = word == first;
            }
            if (uniform) {
                info->table.set(blockOf(lineAddr),
                                BlockState::CompQuarter);
                std::memcpy(out, lineData, _lineBytes / 4);
                return _lineBytes / 4;
            }
        }
        info->table.set(blockOf(lineAddr), BlockState::Uncompressed);
        std::memcpy(out, lineData, _lineBytes);
        return _lineBytes;
    }
};

/** The Color Write box. */
class ColorWrite : public sim::Box
{
  public:
    ColorWrite(sim::SignalBinder& binder,
               sim::StatisticManager& stats, const GpuConfig& config,
               u32 unit, emu::GpuMemory& memory);

    bool update(Cycle cycle) override;
    bool empty() const override;

    /** Clear-state shared with the DAC for frame assembly. */
    std::shared_ptr<const ColorClearInfo>
    clearInfo() const
    {
        return _backing.info;
    }

    /** Wire the color cache's hit/miss events (cache unit name = box
     * name, matching the cacheHits/cacheMisses statistics). */
    void
    attachEventTrace(sim::EventTrace& trace) override
    {
        _cache.setEventTrace(&trace, trace.registerCache(name()));
    }

  private:
    enum class CtrlPhase : u8 { None, Clearing, Flushing };

    // The steps of update() return whether they made progress;
    // processControl() sets @p wake while a clear is under way.
    bool processControl(Cycle cycle, Cycle& wake);
    bool processQuads(Cycle cycle);
    /** Pop any markers of the current/next batch at an input head.
     *  Returns true when something was consumed. */
    bool popMarkers(Cycle cycle, LinkRx<QuadObj>& rx, bool late);
    bool colorAccess(Cycle cycle, QuadObj& quad);
    bool tryRetire(Cycle cycle);

    const GpuConfig& _config;
    const u32 _unit;
    emu::GpuMemory& _memory;

    LinkRx<QuadObj> _earlyIn;
    LinkRx<QuadObj> _lateIn;
    LinkTx _retire;
    LinkRx<ControlObj> _ctrl;
    LinkTx _ack;
    MemPort _mem;

    ColorBacking _backing;
    FbCache _cache;

    CtrlPhase _ctrlPhase = CtrlPhase::None;
    Cycle _ctrlDoneAt = 0;
    ControlKind _ctrlKind = ControlKind::Flush;

    /** Batch sequencing: colour accesses happen in batch order. */
    bool _haveCur = false;
    u32 _curBatch = 0;
    bool _endEarly = false; ///< Early-path BatchEnd popped.
    bool _endLate = false;  ///< Late-path BatchEnd popped.
    sim::RingQueue<u32> _retireQueue;

    sim::BatchedStat _statQuads;
    sim::BatchedStat _statFragments;
    sim::BatchedStat _statBlended;
    sim::BatchedStat _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_COLOR_WRITE_HH
