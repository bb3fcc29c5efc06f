/**
 * @file
 * FragmentFIFO: the crossbar and scheduler between the shader
 * producers/consumers and the unified shader pool (paper §3).
 *
 * The box receives shader inputs — vertices from the Streamer loader
 * and interpolated fragment quads — packs them into threads (one
 * thread = one fragment quad or four vertices), admits them into the
 * global window subject to the window size (in shader inputs) and
 * the temporary register pool, distributes them over the shader
 * units, collects the shaded results and commits them **in order**
 * (separately for vertices and fragments) to the consuming boxes:
 * Streamer commit for vertices, Color Write (early Z) or Z Stencil
 * Test (late Z) for fragment quads.
 *
 * The window admits out-of-order *execution* (the shader units pick
 * any ready thread) with in-order *commit*; the alternative
 * "shader input queue" mode of the Fig 7 experiment keeps the same
 * structure but restricts the shader units to their oldest thread.
 */

#ifndef ATTILA_GPU_FRAGMENT_FIFO_HH
#define ATTILA_GPU_FRAGMENT_FIFO_HH

#include <deque>
#include <map>

#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "gpu/shader_unit.hh"
#include "sim/box.hh"

namespace attila::gpu
{

/** The Fragment FIFO box. */
class FragmentFifo : public sim::Box
{
  public:
    FragmentFifo(sim::SignalBinder& binder,
                 sim::StatisticManager& stats,
                 const GpuConfig& config);

    bool update(Cycle cycle) override;
    void settle(Cycle cycles) override;
    bool empty() const override;

  private:
    enum class EntryKind : u8 { VertexGroup, Quad, Marker };
    enum class EntryStatus : u8 { Waiting, Running, Completed };

    struct Entry
    {
        u64 id = 0;
        EntryKind kind = EntryKind::Quad;
        EntryStatus status = EntryStatus::Waiting;
        u32 inputs = 0;    ///< Window cost in shader inputs.
        u32 registers = 0; ///< Temp registers reserved.
        u32 shaderUnit = 0;
        std::vector<VertexObjPtr> vertices;
        QuadObjPtr quad;
        ShaderWorkObjPtr work;
    };

    // accept*, issue and commit* return whether they made progress.
    bool acceptVertices(Cycle cycle);
    bool acceptFragments(Cycle cycle);
    bool admit(Entry&& entry);
    bool issue(Cycle cycle);
    void collectResults(Cycle cycle);
    bool commitVertices(Cycle cycle);
    bool commitFragments(Cycle cycle);
    u32 ropOf(const QuadObj& quad) const;
    u32 groupLanes() const;

    const GpuConfig& _config;
    const u32 _numUnits;     ///< Fragment/unified units.
    const u32 _numVertexUnits; ///< Extra dedicated vertex units.

    LinkRx<VertexObj> _vertexIn;
    LinkRx<QuadObj> _fragmentIn;
    LinkTx _vertexOut;
    std::vector<std::unique_ptr<LinkTx>> _toShader;
    std::vector<std::unique_ptr<LinkRx<ShaderWorkObj>>> _fromShader;
    std::vector<std::unique_ptr<LinkTx>> _toRopc;
    std::vector<std::unique_ptr<LinkTx>> _toRopzLate;

    std::map<u64, Entry> _entries;
    std::deque<u64> _vertexChain;   ///< Commit order.
    std::deque<u64> _fragmentChain;
    std::deque<u64> _issueOrder;    ///< Issue (arrival) order.
    u64 _nextEntryId = 1;

    u32 _usedInputs = 0;
    u32 _usedRegisters = 0;
    u32 _usedVertexRegisters = 0;
    std::vector<u32> _unitLoad; ///< Threads assigned per unit.
    u32 _issueRr = 0;

    /** Vertex group being filled. */
    std::vector<VertexObjPtr> _pendingGroup;
    bool _vertexArrivedThisCycle = false;

    /** Committed vertices waiting for the (narrower) output link. */
    std::deque<VertexObjPtr> _vertexSendQueue;

    /** Per-cycle statistic increments of the last update() without
     * progress, replayed by settle(). */
    u64 _sleepBusy = 0;
    u64 _sleepWindowFull = 0;
    u64 _sleepRegistersFull = 0;

    sim::Statistic& _statThreadsIssued;
    sim::Statistic& _statQuadsCommitted;
    sim::Statistic& _statVerticesCommitted;
    sim::Statistic& _statWindowFullCycles;
    sim::Statistic& _statRegistersFullCycles;
    sim::Statistic& _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_FRAGMENT_FIFO_HH
