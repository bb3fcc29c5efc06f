/**
 * @file
 * RefRenderer: an independent, purely functional renderer consuming
 * the same Command Processor streams as the timing GPU.
 *
 * It shares the *emulation* libraries (shader interpreter, texture
 * sampler, rasterizer equations, fragment operations) but none of
 * the *timing* code (boxes, signals, caches, scheduling), so
 * comparing its output against the DAC dump catches exactly the
 * class of bugs the paper's Figure 10 methodology targets: data
 * corruption introduced by the timing simulator.
 *
 * Fragments are processed as 2x2 quads with helper pixels, in
 * lockstep, so texture level-of-detail selection matches the
 * hardware model bit for bit.
 */

#ifndef ATTILA_GPU_REF_RENDERER_HH
#define ATTILA_GPU_REF_RENDERER_HH

#include <memory>

#include "emu/decoded_program.hh"
#include "emu/memory.hh"
#include "emu/shader_emulator.hh"
#include "gpu/commands.hh"
#include "gpu/dac.hh"

namespace attila::gpu
{

/** The functional reference renderer. */
class RefRenderer
{
  public:
    /** @param memory_size GPU memory image size in bytes. */
    explicit RefRenderer(u32 memory_size = 64u << 20);

    /** Execute a command stream. */
    void execute(const CommandList& list);

    /** Frames produced at Swap commands. */
    const std::vector<FrameImage>& frames() const { return _frames; }

    emu::GpuMemory& memory() { return *_memory; }

  private:
    struct ShadedVertex
    {
        std::array<emu::Vec4, emu::regix::numOutputRegs> out;
    };

    void draw(const DrawParams& params);
    void drawTriangle(const ShadedVertex& v0, const ShadedVertex& v1,
                      const ShadedVertex& v2);
    /** Shade vertices [first, first + 4) of the draw (fewer at its
     * tail) as one quad into @p out. */
    void shadeVertices(const DrawParams& params, u32 first,
                       ShadedVertex* out);
    u32 fetchIndex(u32 i) const;
    emu::Vec4 fetchAttribute(u32 stream, u32 index) const;
    void clearColor();
    void clearZStencil();
    void swap();

    /** Run the fragment program on a 2x2 quad in lockstep. */
    void shadeQuad(
        std::array<emu::ShaderThreadState, 4>& lanes,
        std::array<bool, 4>& killed) const;

    std::unique_ptr<emu::GpuMemory> _memory;
    RenderState _state;
    std::vector<FrameImage> _frames;
    emu::ShaderEmulator _emulator;
    /** Pre-decoded program cache; mutable because shadeQuad() is
     * const and decode-on-first-use is pure. */
    mutable emu::DecodedProgramCache _decodeCache;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_REF_RENDERER_HH
