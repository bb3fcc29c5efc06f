/**
 * @file
 * Quad-interpreter parity tests: the pre-decoded quad-lockstep
 * interpreter the model runs must be bit-identical to the legacy
 * per-lane interpreter (its independent oracle) over the whole ISA —
 * randomized programs covering every opcode, including TEX/TXB/TXP
 * and partial KIL masks, under every lane mask (a masked quad is how
 * scalar and tail-of-draw vertex work runs) — and over the real
 * vertex and fragment programs of the terrain, shadows and cubes
 * scenes on seeded random inputs.  The decode cache must reuse and
 * invalidate entries by program identity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "emu/decoded_program.hh"
#include "emu/shader_emulator.hh"
#include "emu/shader_isa.hh"
#include "gl/context.hh"
#include "gpu/commands.hh"
#include "workloads/cubes.hh"
#include "workloads/shadows.hh"
#include "workloads/terrain.hh"

using namespace attila;
using namespace attila::emu;

namespace
{

/** Deterministic generator so failures reproduce exactly. */
struct Lcg
{
    u64 state;

    explicit Lcg(u64 seed) : state(seed * 0x9e3779b97f4a7c15ull + 1)
    {}

    u32
    next(u32 bound)
    {
        state = state * 6364136223846793005ull +
                1442695040888963407ull;
        return static_cast<u32>(state >> 33) % bound;
    }

    f32
    uniform(f32 lo, f32 hi)
    {
        const f32 t =
            static_cast<f32>(next(0x1000000)) / 16777215.0f;
        return lo + (hi - lo) * t;
    }
};

/**
 * A pure per-lane texture function shared by both sampler shapes.
 * The quad sampler receives one shared lod bias (first live lane)
 * while the legacy scalar path passes each lane's own bias, so the
 * texel deliberately ignores the bias argument — projection, which
 * both paths hand down unapplied, is applied identically per lane.
 */
Vec4
texel(u32 unit, const Vec4& coord, bool projected)
{
    Vec4 c = coord;
    if (projected) {
        const f32 q = c.w != 0.0f ? c.w : 1.0f;
        c = {c.x / q, c.y / q, c.z / q, c.w};
    }
    const f32 s =
        std::sin(c.x * 3.0f + static_cast<f32>(unit) * 0.7f);
    const f32 t = std::cos(c.y * 5.0f - c.z);
    return {s * t, s + t, c.z * 0.5f, 1.0f};
}

SrcOperand
randomSrc(Lcg& rng)
{
    SrcOperand src;
    switch (rng.next(3)) {
      case 0:
        src.bank = Bank::Attrib;
        src.index = static_cast<u8>(rng.next(regix::numInputRegs));
        break;
      case 1:
        src.bank = Bank::Temp;
        src.index = static_cast<u8>(rng.next(8));
        break;
      default:
        src.bank = Bank::Param;
        src.index = static_cast<u8>(rng.next(8));
        break;
    }
    for (u32 c = 0; c < 4; ++c)
        src.swizzle[c] = static_cast<u8>(rng.next(4));
    src.negate = rng.next(2) != 0;
    return src;
}

DstOperand
randomDst(Lcg& rng)
{
    DstOperand dst;
    dst.bank = rng.next(4) == 0 ? Bank::Output : Bank::Temp;
    dst.index = static_cast<u8>(rng.next(8));
    dst.writeMask = static_cast<u8>(1 + rng.next(15));
    return dst;
}

/**
 * Build a random fragment program.  The first pass emits every
 * non-END opcode once (rotated per seed so each opcode also appears
 * early, before any KIL can retire lanes); a second pass appends
 * random extras.  Operands, swizzles, negates, saturates and write
 * masks are all randomized.
 */
ShaderProgram
makeRandomProgram(Lcg& rng)
{
    ShaderProgram prog;
    prog.target = ShaderTarget::Fragment;

    const u32 numOps = numOpcodes - 1; // All but END.
    const u32 rotate = rng.next(numOps);
    const u32 extras = 8 + rng.next(8);
    for (u32 i = 0; i < numOps + extras; ++i) {
        Opcode op;
        if (i < numOps)
            op = static_cast<Opcode>((i + rotate) % numOps);
        else
            op = static_cast<Opcode>(rng.next(numOps));
        const OpcodeInfo& info = opcodeInfo(op);

        Instruction ins;
        ins.op = op;
        const std::size_t numSrc =
            std::min<std::size_t>(info.numSrc, ins.src.size());
        for (std::size_t s = 0; s < numSrc; ++s)
            ins.src[s] = randomSrc(rng);
        if (info.hasDst) {
            ins.dst = randomDst(rng);
            ins.saturate = rng.next(2) != 0;
        }
        if (info.isTexture) {
            ins.texUnit = static_cast<u8>(rng.next(4));
            ins.texTarget = TexTarget::Tex2D;
        }
        if (op == Opcode::KIL) {
            // A fully random KIL source kills almost every lane on
            // the spot (any component < 0).  Bias it so partial
            // quad kill masks actually occur.
            ins.src[0].negate = false;
            if (rng.next(2))
                ins.src[0].bank = Bank::Param;
        }
        prog.code.push_back(ins);
    }
    Instruction end;
    end.op = Opcode::END;
    prog.code.push_back(end);

    for (u32 slot = 0; slot < 8; ++slot) {
        prog.literals.push_back(
            {slot,
             Vec4{rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f),
                  rng.uniform(-1.0f, 1.0f),
                  rng.uniform(0.1f, 2.0f)}});
    }
    analyzeProgram(prog);
    return prog;
}

std::array<ShaderThreadState, 4>
randomQuad(Lcg& rng)
{
    std::array<ShaderThreadState, 4> quad;
    for (auto& lane : quad) {
        lane.reset();
        for (u32 r = 0; r < regix::numInputRegs; ++r) {
            lane.in[r] = {rng.uniform(-2.0f, 2.0f),
                          rng.uniform(-2.0f, 2.0f),
                          rng.uniform(-2.0f, 2.0f),
                          rng.uniform(-2.0f, 2.0f)};
        }
    }
    return quad;
}

void
expectLaneEqual(const ShaderThreadState& a,
                const ShaderThreadState& b, u32 seed, u32 lane)
{
    EXPECT_EQ(std::memcmp(a.in.data(), b.in.data(),
                          sizeof(a.in)),
              0)
        << "seed " << seed << " lane " << lane << " inputs";
    EXPECT_EQ(std::memcmp(a.out.data(), b.out.data(),
                          sizeof(a.out)),
              0)
        << "seed " << seed << " lane " << lane << " outputs";
    EXPECT_EQ(std::memcmp(a.temp.data(), b.temp.data(),
                          sizeof(a.temp)),
              0)
        << "seed " << seed << " lane " << lane << " temps";
    EXPECT_EQ(a.pc, b.pc) << "seed " << seed << " lane " << lane;
    EXPECT_EQ(a.killed, b.killed)
        << "seed " << seed << " lane " << lane;
}

/** Both interpreters' results for one quad under one lane mask. */
struct QuadRun
{
    std::array<ShaderThreadState, 4> lanes;
    std::array<bool, 4> killed{};
};

/** One sampler of each shape over texel(); named, so the
 * non-owning sampler references below can bind to them. */
const auto immediateFn = [](u32 unit, TexTarget, const Vec4& coord, f32,
                            bool projected) {
    return texel(unit, coord, projected);
};

const auto quadFn = [](u32 unit, TexTarget,
                       const std::array<Vec4, 4>& coords, u8 liveMask,
                       f32, bool projected) {
    std::array<Vec4, 4> texels{};
    for (u32 l = 0; l < 4; ++l) {
        if (liveMask & (1u << l))
            texels[l] = texel(unit, coords[l], projected);
    }
    return texels;
};

/** The two interpreters side by side. */
struct Interpreters
{
    ShaderEmulator emulator;
    const ImmediateSampler immediate = immediateFn;
    const QuadSampler quadSampler = quadFn;

    /** Reference: the legacy per-lane interpreter on the live lanes
     * of @p liveMask; masked lanes keep their input state. */
    QuadRun
    legacy(const ShaderProgram& prog, const ConstantBank& constants,
           const std::array<ShaderThreadState, 4>& input,
           u8 liveMask) const
    {
        QuadRun r{input, {}};
        for (u32 l = 0; l < 4; ++l) {
            if (liveMask & (1u << l)) {
                r.killed[l] = !emulator.run(prog, constants, r.lanes[l],
                                            &immediate);
            }
        }
        return r;
    }

    /** The quad-lockstep interpreter with masked lanes done from the
     * start. */
    QuadRun
    lockstep(const DecodedProgram& decoded,
             const ConstantBank& constants,
             const std::array<ShaderThreadState, 4>& input,
             u8 liveMask, const std::string& label) const
    {
        QuadRun r{input, {}};
        std::array<bool, 4> laneDone{};
        for (u32 l = 0; l < 4; ++l)
            laneDone[l] = !(liveMask & (1u << l));
        emulator.runQuad(decoded, constants, r.lanes, laneDone,
                         r.killed, quadSampler);
        for (u32 l = 0; l < 4; ++l)
            EXPECT_TRUE(laneDone[l]) << label << " lane " << l;
        return r;
    }

    /** Run both interpreters on @p quad under @p liveMask and
     * compare every lane bit for bit. */
    void
    expectMatch(const ShaderProgram& prog, const DecodedProgram& decoded,
                const ConstantBank& constants,
                const std::array<ShaderThreadState, 4>& quad,
                u8 liveMask, u32 seed, const std::string& label) const
    {
        const std::string where =
            label + " mask " + std::to_string(liveMask);
        const QuadRun ref = legacy(prog, constants, quad, liveMask);
        const QuadRun got =
            lockstep(decoded, constants, quad, liveMask, where);
        for (u32 l = 0; l < 4; ++l) {
            SCOPED_TRACE(where);
            expectLaneEqual(ref.lanes[l], got.lanes[l], seed, l);
            EXPECT_EQ(got.killed[l], ref.killed[l])
                << where << " seed " << seed << " lane " << l;
        }
    }
};

TEST(EmuFastPath, RandomProgramsScalarVsQuadBitIdentical)
{
    // Every lane mask: all four lanes, the single live lane of scalar
    // work, the 1-3 live lanes of a draw's last vertex quad, and
    // every other partial quad.
    const Interpreters interp;
    for (u32 seed = 0; seed < 48; ++seed) {
        Lcg rng(seed);
        const ShaderProgram prog = makeRandomProgram(rng);
        const ConstantBank constants =
            ShaderEmulator::makeConstants(prog);
        const DecodedProgram decoded = DecodedProgram::decode(prog);
        const std::array<ShaderThreadState, 4> quad =
            randomQuad(rng);
        for (u8 mask = 1; mask < 16; ++mask) {
            interp.expectMatch(prog, decoded, constants, quad, mask,
                               seed, "random");
        }
    }
}

TEST(EmuFastPath, DecodeCacheReusesAndInvalidatesByIdentity)
{
    ShaderAssembler assembler;
    const ShaderProgramPtr first = assembler.assemble(
        "!!ARBfp1.0\n"
        "TEMP t;\n"
        "MUL t, fragment.color, fragment.texcoord[0];\n"
        "ADD_SAT result.color, t, fragment.color;\n"
        "END\n");

    DecodedProgramCache cache;
    const DecodedProgram& decodedFirst = cache.get(first);
    EXPECT_EQ(decodedFirst.code.size(), first->code.size());

    // Same program object: the cached entry is returned, not a
    // fresh decode.
    EXPECT_EQ(&cache.get(first), &decodedFirst);

    // Re-upload: a new program object must get its own decode even
    // while the old one is alive.
    const ShaderProgramPtr second = assembler.assemble(
        "!!ARBfp1.0\n"
        "TEMP t;\n"
        "SUB t, fragment.color, fragment.texcoord[1];\n"
        "KIL t;\n"
        "MOV result.color, t;\n"
        "END\n");
    const DecodedProgram& decodedSecond = cache.get(second);
    EXPECT_NE(&decodedSecond, &decodedFirst);
    EXPECT_EQ(decodedSecond.code.size(), second->code.size());
    EXPECT_TRUE(decodedSecond.hasKil);
    EXPECT_FALSE(decodedFirst.hasKil);

    // The first entry survives the second's insertion (node
    // stability): the reference still reads valid decoded state.
    EXPECT_EQ(&cache.get(first), &decodedFirst);
    EXPECT_EQ(decodedFirst.code.back().op, Opcode::END);
}

// ---- Whole-scene programs ----------------------------------------

gpu::CommandList
buildCommands(workloads::Workload& workload,
              const workloads::WorkloadParams& params)
{
    gl::Context ctx(params.width, params.height, 32u << 20);
    workload.setup(ctx);
    for (u32 f = 0; f < params.frames; ++f)
        workload.renderFrame(ctx, f);
    return ctx.takeCommands();
}

workloads::WorkloadParams
smallParams()
{
    workloads::WorkloadParams params;
    params.width = 96;
    params.height = 96;
    params.frames = 1;
    params.textureSize = 32;
    params.detail = 4;
    return params;
}

/** Run every distinct vertex and fragment program a scene loads
 * through both interpreters on seeded random inputs and constants. */
void
expectSceneProgramsMatch(workloads::Workload& workload,
                         const std::string& scene)
{
    const gpu::CommandList list = buildCommands(workload, smallParams());
    std::set<const ShaderProgram*> seen;
    const Interpreters interp;
    u32 programs = 0;
    for (const gpu::Command& cmd : list) {
        if (cmd.op != gpu::CommandOp::LoadVertexProgram &&
            cmd.op != gpu::CommandOp::LoadFragmentProgram)
            continue;
        if (!seen.insert(cmd.program.get()).second)
            continue;
        const ShaderProgram& prog = *cmd.program;
        const DecodedProgram decoded = DecodedProgram::decode(prog);
        const bool vertex =
            cmd.op == gpu::CommandOp::LoadVertexProgram;
        const std::string label = scene +
                                  (vertex ? " vertex" : " fragment") +
                                  " program " +
                                  std::to_string(programs++);
        for (u32 seed = 0; seed < 16; ++seed) {
            Lcg rng(seed);
            ConstantBank constants;
            for (Vec4& c : constants) {
                c = {rng.uniform(-2.0f, 2.0f), rng.uniform(-2.0f, 2.0f),
                     rng.uniform(-2.0f, 2.0f), rng.uniform(-2.0f, 2.0f)};
            }
            ShaderEmulator::applyLiterals(prog, constants);
            const std::array<ShaderThreadState, 4> quad =
                randomQuad(rng);
            for (const u8 mask : {u8{0xf}, u8{0x1}, u8{0x3}, u8{0x7},
                                  u8{0xe}}) {
                interp.expectMatch(prog, decoded, constants, quad,
                                   mask, seed, label);
            }
        }
    }
    // Each scene loads at least one vertex and one fragment program.
    EXPECT_GE(programs, 2u) << scene;
}

TEST(EmuFastPath, SceneProgramsScalarVsQuadBitIdentical)
{
    const workloads::WorkloadParams params = smallParams();
    workloads::TerrainWorkload terrain(params);
    expectSceneProgramsMatch(terrain, "terrain");
    workloads::ShadowsWorkload shadows(params);
    expectSceneProgramsMatch(shadows, "shadows");
    workloads::CubesWorkload cubes(params);
    expectSceneProgramsMatch(cubes, "cubes");
}

} // anonymous namespace
