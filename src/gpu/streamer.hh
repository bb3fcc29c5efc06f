/**
 * @file
 * Streamer: requests vertex input data from the Memory Controller,
 * converts it to the internal format (4-component 32-bit float
 * vectors), issues vertices for shading and commits shaded vertices
 * in order to Primitive Assembly (paper §2.2).
 *
 * A post-shading vertex cache keyed by vertex index lets indexed
 * batches reuse shading results for vertices shared by adjacent
 * triangles.
 */

#ifndef ATTILA_GPU_STREAMER_HH
#define ATTILA_GPU_STREAMER_HH

#include <deque>
#include <list>
#include <map>
#include <vector>

#include "gpu/command_processor.hh"
#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "gpu/memory_controller.hh"
#include "sim/box.hh"

namespace attila::gpu
{

/** The Streamer box (loader + commit halves). */
class Streamer : public sim::Box
{
  public:
    Streamer(sim::SignalBinder& binder, sim::StatisticManager& stats,
             const GpuConfig& config);

    bool update(Cycle cycle) override;
    void settle(Cycle cycles) override;
    bool empty() const override;

  private:
    /** Reorder buffer entry: one vertex awaiting commit. */
    struct RobEntry
    {
        u32 sequence = 0;
        u32 index = 0;
        bool ready = false;
        bool cacheHit = false;
        std::array<emu::Vec4, emu::regix::numOutputRegs> out{};
    };

    /** A vertex whose attributes are being fetched. */
    struct PendingFetch
    {
        u32 sequence = 0;
        u32 index = 0;
        u32 outstanding = 0; ///< Attribute transactions in flight.
        std::array<emu::Vec4, emu::regix::numInputRegs> in{};
    };

    /** Post-shading vertex cache entry. */
    struct CacheEntry
    {
        u32 index = 0;
        std::array<emu::Vec4, emu::regix::numOutputRegs> out;
    };

    void startBatch(Cycle cycle);
    void fetchIndices(Cycle cycle);
    void dispatchVertices(Cycle cycle);
    void handleMemory(Cycle cycle);
    void handleShaded(Cycle cycle);
    void commit(Cycle cycle);
    emu::Vec4 convertAttribute(const u8* bytes, StreamFormat fmt,
                               u32 stream) const;
    const CacheEntry* cacheLookup(u32 index) const;
    void cacheInsert(u32 index,
                     const std::array<emu::Vec4,
                                      emu::regix::numOutputRegs>& out);

    const GpuConfig& _config;

    LinkRx<DrawCmdObj> _drawIn;
    LinkTx _toShading;   ///< Vertex inputs to the Fragment FIFO.
    LinkRx<VertexObj> _fromShading;
    LinkTx _toAssembly;
    MemPort _mem;
    sim::ObjectPool<MemTransaction> _txns;

    // Current batch.
    bool _active = false;
    std::shared_ptr<DrawCmdObj> _batch;
    u32 _dispatched = 0; ///< Vertices dispatched so far.
    u32 _committed = 0;
    bool _endSent = false;

    // Index data.
    std::vector<u32> _indices; ///< Parsed indices (prefix).
    u32 _indexChunksRequested = 0;
    u32 _indexChunksNeeded = 0;
    std::map<u32, std::vector<u8>> _indexChunks;

    // In-flight attribute fetches, keyed by sequence.
    std::map<u32, PendingFetch> _fetches;

    // Vertices with all attributes loaded, awaiting a shading slot.
    std::deque<VertexObjPtr> _readyForShading;
    bool _startSent = false;
    /** Cache misses the last update() without progress counted;
     * settle() replays them per slept cycle. */
    u64 _sleepCacheMisses = 0;

    // Reorder buffer, keyed by sequence.
    std::map<u32, RobEntry> _rob;

    // Post-shading vertex cache (FIFO replacement).
    std::list<CacheEntry> _cache;

    sim::Statistic& _statVertices;
    sim::Statistic& _statCacheHits;
    sim::Statistic& _statCacheMisses;
    sim::Statistic& _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_STREAMER_HH
