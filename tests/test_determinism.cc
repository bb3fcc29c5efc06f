/**
 * @file
 * Determinism tests on real workloads.
 *
 *  - IdleSkipBitIdentical: activity-driven clocking (per-box idle
 *    skip plus whole-model fast-forward) must match the always-clock
 *    reference path in every observable.
 *  - FixedValuePin: final cycles, a digest of the statistics totals
 *    CSV and the framebuffer hash of four small scenes are pinned to
 *    absolute values, so any change to modelled timing or output —
 *    not just a divergence between two engines — fails loudly.
 *    When a change alters timing on purpose, re-record the values
 *    and say why in the commit.
 */

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
#include "workloads/cubes.hh"
#include "workloads/shadows.hh"
#include "workloads/terrain.hh"

using namespace attila;
using namespace attila::workloads;

namespace
{

gpu::CommandList
buildCommands(Workload& workload, const WorkloadParams& params)
{
    gl::Context ctx(params.width, params.height, 32u << 20);
    workload.setup(ctx);
    for (u32 f = 0; f < params.frames; ++f)
        workload.renderFrame(ctx, f);
    return ctx.takeCommands();
}

WorkloadParams
smallParams()
{
    WorkloadParams params;
    params.width = 96;
    params.height = 96;
    params.frames = 1;
    params.textureSize = 32;
    params.detail = 4;
    return params;
}

template <typename W>
std::unique_ptr<Workload>
makeWorkload(const WorkloadParams& params)
{
    return std::make_unique<W>(params);
}

/** FNV-1a, 64-bit. */
class Fnv1a
{
  public:
    void
    add(const void* data, std::size_t size)
    {
        const auto* bytes = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            _hash ^= bytes[i];
            _hash *= 1099511628211ull;
        }
    }

    u64 value() const { return _hash; }

  private:
    u64 _hash = 1469598103934665603ull;
};

/** FNV-1a over every frame's pixels. */
u64
framebufferHash(const gpu::Gpu& gpu)
{
    u64 h = 1469598103934665603ull;
    for (const gpu::FrameImage& frame : gpu.frames()) {
        for (u32 px : frame.pixels) {
            h ^= px;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** The observables a run is judged by. */
struct RunFingerprint
{
    u64 cycles = 0;
    u64 fbHash = 0;
    std::size_t frames = 0;
    std::string windowsCsv;
    std::string totalsCsv;
};

RunFingerprint
runWith(const gpu::CommandList& list, bool idle_skip = true,
        gpu::MemModel mem_model = gpu::MemModel::Flat,
        gpu::DramSchedPolicy dram_policy = gpu::DramSchedPolicy::Fifo)
{
    gpu::GpuConfig config = gpu::GpuConfig::baseline();
    // The test pins its own configuration: no environment layer.
    config.envApplied = true;
    config.memorySize = 32u << 20;
    config.idleSkip = idle_skip;
    config.memModel = mem_model;
    config.dramScheduler = dram_policy;
    // A small window so several windows close during the run and the
    // CSV actually exercises the sampling path.
    config.statsWindow = 1000;

    gpu::Gpu gpu(config);
    gpu.submit(list);
    EXPECT_TRUE(gpu.runUntilIdle(200'000'000))
        << "pipeline did not drain";

    RunFingerprint fp;
    fp.cycles = gpu.cycle();
    fp.fbHash = framebufferHash(gpu);
    fp.frames = gpu.frames().size();
    std::ostringstream windows, totals;
    gpu.stats().writeCsv(windows);
    gpu.stats().writeTotalsCsv(totals);
    fp.windowsCsv = windows.str();
    fp.totalsCsv = totals.str();
    return fp;
}

void
expectIdentical(const RunFingerprint& reference,
                const RunFingerprint& run, const char* label)
{
    EXPECT_EQ(reference.cycles, run.cycles) << label;
    EXPECT_EQ(reference.frames, run.frames) << label;
    EXPECT_EQ(reference.fbHash, run.fbHash) << label;
    EXPECT_EQ(reference.totalsCsv, run.totalsCsv) << label;
    EXPECT_EQ(reference.windowsCsv, run.windowsCsv) << label;
}

/** A small scene and the memory model it runs on. */
struct Scene
{
    const char* name;
    std::unique_ptr<Workload> (*make)(const WorkloadParams&);
    gpu::MemModel memModel;
    gpu::DramSchedPolicy dramPolicy;
};

/** The four scenes FixedValuePin pins and IdleSkipBitIdentical
 * checks: every workload on flat memory, plus cubes on banked DRAM
 * with FR-FCFS scheduling. */
const std::vector<Scene>&
pinnedScenes()
{
    static const std::vector<Scene> scenes = {
        {"terrain", makeWorkload<TerrainWorkload>,
         gpu::MemModel::Flat, gpu::DramSchedPolicy::Fifo},
        {"shadows", makeWorkload<ShadowsWorkload>,
         gpu::MemModel::Flat, gpu::DramSchedPolicy::Fifo},
        {"cubes", makeWorkload<CubesWorkload>, gpu::MemModel::Flat,
         gpu::DramSchedPolicy::Fifo},
        {"cubes-banked-frfcfs", makeWorkload<CubesWorkload>,
         gpu::MemModel::Banked, gpu::DramSchedPolicy::FrFcfs},
    };
    return scenes;
}

} // anonymous namespace

TEST(Determinism, IdleSkipBitIdentical)
{
    // Idle skipping is a pure wall-clock optimization: on every
    // pinned scene, every observable (cycle count, stats windows and
    // totals, pixels) must match the always-clocked run.
    const WorkloadParams params = smallParams();
    for (const Scene& s : pinnedScenes()) {
        const std::unique_ptr<Workload> workload = s.make(params);
        const gpu::CommandList list =
            buildCommands(*workload, params);
        const RunFingerprint on =
            runWith(list, true, s.memModel, s.dramPolicy);
        const RunFingerprint off =
            runWith(list, false, s.memModel, s.dramPolicy);
        ASSERT_GT(off.cycles, 0u) << s.name;
        ASSERT_EQ(off.frames, params.frames) << s.name;
        expectIdentical(off, on, s.name);
    }
}

TEST(Determinism, FixedValuePin)
{
    // Pinned at smallParams(), statsWindow 1000; same order as
    // pinnedScenes().
    struct Pin
    {
        u64 cycles;
        u64 totalsDigest;
        u64 fbHash;
    };
    const Pin pins[] = {
        {21184, 0x897b0a5bf5809770ull, 0x48d99d8752406c84ull},
        {64448, 0x495c801f59221c7dull, 0x37267c4448793decull},
        {4800, 0xb028b824e6e0eb6cull, 0x44f2a1b1ed5f03a8ull},
        {7872, 0x0bfeed929517d044ull, 0x44f2a1b1ed5f03a8ull},
    };
    const std::vector<Scene>& scenes = pinnedScenes();
    ASSERT_EQ(scenes.size(), std::size(pins));

    const WorkloadParams params = smallParams();
    for (std::size_t i = 0; i < scenes.size(); ++i) {
        const Scene& c = scenes[i];
        const Pin& pin = pins[i];
        const std::unique_ptr<Workload> workload = c.make(params);
        const RunFingerprint fp = runWith(
            buildCommands(*workload, params), true, c.memModel,
            c.dramPolicy);
        Fnv1a totals;
        totals.add(fp.totalsCsv.data(), fp.totalsCsv.size());
        EXPECT_EQ(fp.frames, params.frames) << c.name;
        EXPECT_EQ(fp.cycles, pin.cycles) << c.name;
        EXPECT_EQ(totals.value(), pin.totalsDigest)
            << c.name << ": stats totals CSV digest";
        EXPECT_EQ(fp.fbHash, pin.fbHash) << c.name << ": framebuffer";
    }
}
