/**
 * @file
 * Unit tests for the texture emulator: addressing, wrap modes, DXT
 * decompression, LOD selection and filtering; the decoded-palette
 * cache, in-place planning and the Texture Unit's line list against
 * their reference paths.
 */

#include <bit>
#include <cmath>
#include <cstring>
#include <set>
#include <gtest/gtest.h>

#include "emu/texture_emulator.hh"
#include "gpu/texture_unit.hh"

using namespace attila;
using namespace attila::emu;
using attila::gpu::collectTexelLines;

namespace
{

/** Build a 2D RGBA8 texture in GPU memory with given mip images
 * (tight packed). */
TextureDescriptor
makeTexture(GpuMemory& mem, u32 size,
            const std::vector<std::vector<u8>>& mips,
            TexFormat format = TexFormat::RGBA8)
{
    TextureDescriptor desc;
    desc.target = TexTarget::Tex2D;
    desc.format = format;
    desc.levels = static_cast<u32>(mips.size());
    u32 addr = 4096;
    u32 dim = size;
    for (u32 level = 0; level < mips.size(); ++level) {
        desc.mips[0][level] = {dim, dim, 1, addr};
        addr += mipStorageBytes(format, dim, dim);
        dim = std::max(1u, dim / 2);
    }
    // Upload through the device-layout path.
    dim = size;
    for (u32 level = 0; level < mips.size(); ++level) {
        TextureEmulator::uploadMip(mem, desc, 0, level,
                                   mips[level].data(),
                                   static_cast<u32>(
                                       mips[level].size()));
        dim = std::max(1u, dim / 2);
    }
    return desc;
}

/** Solid-color tight-packed RGBA8 image. */
std::vector<u8>
solid(u32 size, u8 r, u8 g, u8 b, u8 a = 255)
{
    std::vector<u8> img(size * size * 4);
    for (u32 i = 0; i < size * size; ++i) {
        img[i * 4] = r;
        img[i * 4 + 1] = g;
        img[i * 4 + 2] = b;
        img[i * 4 + 3] = a;
    }
    return img;
}

} // anonymous namespace

TEST(TextureFormats, UnitSizes)
{
    EXPECT_EQ(texFormatUnitBytes(TexFormat::RGBA8), 4u);
    EXPECT_EQ(texFormatUnitBytes(TexFormat::LUM8), 1u);
    EXPECT_EQ(texFormatUnitBytes(TexFormat::DXT1), 8u);
    EXPECT_EQ(texFormatUnitBytes(TexFormat::DXT5), 16u);
    EXPECT_TRUE(texFormatCompressed(TexFormat::DXT3));
    EXPECT_FALSE(texFormatCompressed(TexFormat::RGBA8));
}

TEST(TextureFormats, MipStorage)
{
    // 8x8 RGBA8 = one 256-byte tile.
    EXPECT_EQ(mipStorageBytes(TexFormat::RGBA8, 8, 8), 256u);
    // 16x16 -> 4 tiles.
    EXPECT_EQ(mipStorageBytes(TexFormat::RGBA8, 16, 16), 1024u);
    // Non-multiple dims round up to tiles.
    EXPECT_EQ(mipStorageBytes(TexFormat::RGBA8, 9, 9), 4 * 256u);
    // DXT1: 4x4 blocks of 8 bytes.
    EXPECT_EQ(mipStorageBytes(TexFormat::DXT1, 16, 16), 128u);
}

TEST(TextureWrap, Modes)
{
    EXPECT_EQ(TextureEmulator::wrap(WrapMode::Repeat, 5, 4), 1);
    EXPECT_EQ(TextureEmulator::wrap(WrapMode::Repeat, -1, 4), 3);
    EXPECT_EQ(TextureEmulator::wrap(WrapMode::Clamp, 7, 4), 3);
    EXPECT_EQ(TextureEmulator::wrap(WrapMode::Clamp, -2, 4), 0);
    EXPECT_EQ(TextureEmulator::wrap(WrapMode::Mirror, 4, 4), 3);
    EXPECT_EQ(TextureEmulator::wrap(WrapMode::Mirror, 5, 4), 2);
    EXPECT_EQ(TextureEmulator::wrap(WrapMode::Mirror, -1, 4), 0);
}

TEST(TextureWrap, PowerOfTwoMaskMatchesRemainder)
{
    // Power-of-two sizes wrap with a mask; every size must give the
    // remainder-based result.
    for (s32 size = 1; size <= 70; ++size) {
        for (s32 coord = -300; coord <= 300; ++coord) {
            const s32 repeat = ((coord % size) + size) % size;
            const s32 period = 2 * size;
            const s32 m = ((coord % period) + period) % period;
            const s32 mirror = m < size ? m : period - 1 - m;
            ASSERT_EQ(TextureEmulator::wrap(WrapMode::Repeat, coord,
                                            size),
                      repeat)
                << coord << " " << size;
            ASSERT_EQ(TextureEmulator::wrap(WrapMode::Mirror, coord,
                                            size),
                      mirror)
                << coord << " " << size;
        }
    }
}

TEST(TextureFetch, TexelRoundTrip)
{
    GpuMemory mem(1 << 20);
    // Distinct texel values across a 16x16 texture.
    std::vector<u8> img(16 * 16 * 4);
    for (u32 y = 0; y < 16; ++y) {
        for (u32 x = 0; x < 16; ++x) {
            img[(y * 16 + x) * 4] = static_cast<u8>(x * 16);
            img[(y * 16 + x) * 4 + 1] = static_cast<u8>(y * 16);
            img[(y * 16 + x) * 4 + 2] = 0;
            img[(y * 16 + x) * 4 + 3] = 255;
        }
    }
    auto desc = makeTexture(mem, 16, {img});
    for (u32 y = 0; y < 16; y += 3) {
        for (u32 x = 0; x < 16; x += 3) {
            const Vec4 texel =
                TextureEmulator::fetchTexel(desc, 0, 0, x, y, mem);
            EXPECT_NEAR(texel.x, x * 16 / 255.0f, 1e-6);
            EXPECT_NEAR(texel.y, y * 16 / 255.0f, 1e-6);
        }
    }
}

TEST(TextureSample, NearestAndBilinear)
{
    GpuMemory mem(1 << 20);
    // 2x2 texture: distinct corners.
    std::vector<u8> img = {
        255, 0,   0,   255, //
        0,   255, 0,   255, //
        0,   0,   255, 255, //
        255, 255, 255, 255, //
    };
    auto desc = makeTexture(mem, 2, {img});
    desc.minFilter = MinFilter::Nearest;
    desc.magLinear = false;

    // Center of texel (0,0).
    Vec4 t = TextureEmulator::sample(desc, {0.25f, 0.25f, 0, 0},
                                     -1.0f, mem);
    EXPECT_FLOAT_EQ(t.x, 1.0f);
    EXPECT_FLOAT_EQ(t.y, 0.0f);

    // Bilinear at the exact center blends all four texels equally.
    desc.magLinear = true;
    t = TextureEmulator::sample(desc, {0.5f, 0.5f, 0, 0}, -1.0f,
                                mem);
    EXPECT_NEAR(t.x, 0.5f, 1e-5);
    EXPECT_NEAR(t.y, 0.5f, 1e-5);
    EXPECT_NEAR(t.z, 0.5f, 1e-5);
}

TEST(TextureSample, MipSelectionAndTrilinear)
{
    GpuMemory mem(1 << 20);
    auto desc = makeTexture(
        mem, 4,
        {solid(4, 255, 0, 0), solid(2, 0, 255, 0),
         solid(1, 0, 0, 255)});
    desc.minFilter = MinFilter::NearestMipNearest;

    // lod 0 -> level 0 (red).
    Vec4 t = TextureEmulator::sample(desc, {0.5f, 0.5f, 0, 0}, 0.0f,
                                     mem);
    EXPECT_FLOAT_EQ(t.x, 1.0f);
    // lod 1 -> level 1 (green).
    t = TextureEmulator::sample(desc, {0.5f, 0.5f, 0, 0}, 1.0f, mem);
    EXPECT_FLOAT_EQ(t.y, 1.0f);
    // lod clamped to the last level (blue).
    t = TextureEmulator::sample(desc, {0.5f, 0.5f, 0, 0}, 9.0f, mem);
    EXPECT_FLOAT_EQ(t.z, 1.0f);

    // Trilinear halfway between levels 0 and 1.
    desc.minFilter = MinFilter::LinearMipLinear;
    t = TextureEmulator::sample(desc, {0.5f, 0.5f, 0, 0}, 0.5f, mem);
    EXPECT_NEAR(t.x, 0.5f, 1e-5);
    EXPECT_NEAR(t.y, 0.5f, 1e-5);
}

TEST(TextureSample, QuadLodFromDerivatives)
{
    GpuMemory mem(1 << 20);
    auto desc = makeTexture(mem, 64, {solid(64, 255, 255, 255)});
    // One texel per pixel -> lod 0.
    std::array<Vec4, 4> coords = {
        Vec4{0.0f, 0.0f, 0, 0}, Vec4{1.0f / 64, 0.0f, 0, 0},
        Vec4{0.0f, 1.0f / 64, 0, 0},
        Vec4{1.0f / 64, 1.0f / 64, 0, 0}};
    EXPECT_NEAR(TextureEmulator::quadLod(desc, coords), 0.0f, 1e-4);
    // Two texels per pixel -> lod 1.
    for (auto& c : coords)
        c = c * 2.0f;
    EXPECT_NEAR(TextureEmulator::quadLod(desc, coords), 1.0f, 1e-4);
}

TEST(TextureSample, AnisotropyDetection)
{
    GpuMemory mem(1 << 20);
    auto desc = makeTexture(mem, 64, {solid(64, 1, 2, 3)});
    desc.maxAnisotropy = 8;
    // 4:1 anisotropic footprint (du/dx 4 texels, dv/dy 1 texel).
    std::array<Vec4, 4> coords = {
        Vec4{0, 0, 0, 0}, Vec4{4.0f / 64, 0, 0, 0},
        Vec4{0, 1.0f / 64, 0, 0}, Vec4{4.0f / 64, 1.0f / 64, 0, 0}};
    EXPECT_EQ(TextureEmulator::quadAniso(desc, coords), 4u);
    desc.maxAnisotropy = 2;
    EXPECT_EQ(TextureEmulator::quadAniso(desc, coords), 2u);
    desc.maxAnisotropy = 1;
    EXPECT_EQ(TextureEmulator::quadAniso(desc, coords), 1u);
}

TEST(TextureSample, BilinearOpsAccounting)
{
    GpuMemory mem(1 << 20);
    auto desc = makeTexture(
        mem, 4, {solid(4, 9, 9, 9), solid(2, 9, 9, 9),
                 solid(1, 9, 9, 9)});
    desc.minFilter = MinFilter::LinearMipLinear;

    // Magnified quad: bilinear, 1 op per fragment.
    std::array<Vec4, 4> coords = {
        Vec4{0.5f, 0.5f, 0, 0}, Vec4{0.51f, 0.5f, 0, 0},
        Vec4{0.5f, 0.51f, 0, 0}, Vec4{0.51f, 0.51f, 0, 0}};
    u32 ops = 0;
    TextureEmulator::sampleQuad(desc, coords, 0.0f, mem, &ops);
    EXPECT_EQ(ops, 4u);

    // Minified between two levels: trilinear, 2 ops per fragment
    // (paper: one trilinear sample every two cycles).
    std::array<Vec4, 4> minified = {
        Vec4{0.0f, 0.0f, 0, 0}, Vec4{0.75f, 0.0f, 0, 0},
        Vec4{0.0f, 0.75f, 0, 0}, Vec4{0.75f, 0.75f, 0, 0}};
    TextureEmulator::sampleQuad(desc, minified, 0.0f, mem, &ops);
    EXPECT_EQ(ops, 8u);
}

TEST(TextureDxt, Dxt1SolidBlock)
{
    // c0 > c1 four-colour mode, all indices 0 -> c0 everywhere.
    u8 block[8] = {};
    const u16 c0 = (31 << 11); // Pure red.
    const u16 c1 = 0;
    block[0] = static_cast<u8>(c0);
    block[1] = static_cast<u8>(c0 >> 8);
    block[2] = static_cast<u8>(c1);
    block[3] = static_cast<u8>(c1 >> 8);
    Vec4 out[16];
    decodeDxt1Block(block, out);
    for (u32 i = 0; i < 16; ++i) {
        EXPECT_FLOAT_EQ(out[i].x, 1.0f);
        EXPECT_FLOAT_EQ(out[i].y, 0.0f);
        EXPECT_FLOAT_EQ(out[i].w, 1.0f);
    }
}

TEST(TextureDxt, Dxt1TransparentMode)
{
    // c0 <= c1 three-colour mode: index 3 is transparent black.
    u8 block[8] = {};
    block[4] = 0xff; // First 4 texels index 3.
    Vec4 out[16];
    decodeDxt1Block(block, out);
    EXPECT_FLOAT_EQ(out[0].w, 0.0f);
    EXPECT_FLOAT_EQ(out[1].w, 0.0f);
    EXPECT_FLOAT_EQ(out[4].w, 1.0f);
}

TEST(TextureDxt, Dxt3ExplicitAlpha)
{
    u8 block[16] = {};
    block[0] = 0xf0; // texel0 alpha 0, texel1 alpha 15.
    // Colors: both endpoints white.
    block[8] = 0xff;
    block[9] = 0xff;
    block[10] = 0xff;
    block[11] = 0xff;
    Vec4 out[16];
    decodeDxt3Block(block, out);
    EXPECT_FLOAT_EQ(out[0].w, 0.0f);
    EXPECT_FLOAT_EQ(out[1].w, 1.0f);
    EXPECT_FLOAT_EQ(out[0].x, 1.0f);
}

TEST(TextureDxt, Dxt5InterpolatedAlpha)
{
    u8 block[16] = {};
    block[0] = 255; // a0.
    block[1] = 0;   // a1: 8-alpha mode.
    // First texel index 0 (a0), second index 1 (a1).
    block[2] = 0x08; // bits: texel0 = 0, texel1 = 1.
    Vec4 out[16];
    decodeDxt5Block(block, out);
    EXPECT_FLOAT_EQ(out[0].w, 1.0f);
    EXPECT_FLOAT_EQ(out[1].w, 0.0f);
}

TEST(TextureCube, FaceSelection)
{
    u32 face;
    f32 s, t;
    TextureEmulator::cubeFace({1, 0, 0, 0}, face, s, t);
    EXPECT_EQ(face, 0u);
    EXPECT_FLOAT_EQ(s, 0.5f);
    EXPECT_FLOAT_EQ(t, 0.5f);
    TextureEmulator::cubeFace({-1, 0, 0, 0}, face, s, t);
    EXPECT_EQ(face, 1u);
    TextureEmulator::cubeFace({0, 1, 0, 0}, face, s, t);
    EXPECT_EQ(face, 2u);
    TextureEmulator::cubeFace({0, -1, 0, 0}, face, s, t);
    EXPECT_EQ(face, 3u);
    TextureEmulator::cubeFace({0, 0, 1, 0}, face, s, t);
    EXPECT_EQ(face, 4u);
    TextureEmulator::cubeFace({0, 0, -1, 0}, face, s, t);
    EXPECT_EQ(face, 5u);
}

TEST(TexturePlan, AddressesAreLineCoherent)
{
    GpuMemory mem(1 << 20);
    auto desc = makeTexture(mem, 64, {solid(64, 7, 7, 7)});
    desc.minFilter = MinFilter::Linear;
    const SamplePlan plan = TextureEmulator::planSample(
        desc, {0.5f, 0.5f, 0, 0}, 0.5f);
    ASSERT_FALSE(plan.texels.empty());
    // Bilinear footprint: four texels, weights sum to 1.
    f32 weight = 0.0f;
    for (const TexelRef& ref : plan.texels) {
        weight += ref.weight;
        EXPECT_EQ(ref.bytes, 4u);
        EXPECT_GE(ref.address, 4096u);
    }
    EXPECT_NEAR(weight, 1.0f, 1e-5);
}

namespace
{

/** Seeded generator (the idiom of test_emu_fastpath.cc). */
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

/** Bitwise equality of two texels (EXPECT_EQ on floats would let
 * -0.0 match 0.0). */
::testing::AssertionResult
bitEqual(const Vec4& a, const Vec4& b)
{
    if (std::memcmp(&a, &b, sizeof(Vec4)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "(" << a.x << ", " << a.y << ", " << a.z << ", " << a.w
           << ") != (" << b.x << ", " << b.y << ", " << b.z << ", "
           << b.w << ")";
}

/** A random block of @p fmt.  DXT1 picks its colour mode from
 * @p fourColor (c0 > c1) and DXT5 its alpha mode from @p eightAlpha
 * (a0 > a1). */
std::array<u8, 16>
randomBlock(Lcg& rng, TexFormat fmt, bool fourColor, bool eightAlpha)
{
    std::array<u8, 16> block{};
    for (u8& b : block)
        b = static_cast<u8>(rng.next(256));
    u8* color = fmt == TexFormat::DXT1 ? block.data() : block.data() + 8;
    u16 c0 = static_cast<u16>(color[0] | (color[1] << 8));
    u16 c1 = static_cast<u16>(color[2] | (color[3] << 8));
    if (c0 == c1)
        c0 = c1 ^ 1;
    if ((c0 > c1) != fourColor)
        std::swap(c0, c1);
    color[0] = static_cast<u8>(c0);
    color[1] = static_cast<u8>(c0 >> 8);
    color[2] = static_cast<u8>(c1);
    color[3] = static_cast<u8>(c1 >> 8);
    if (fmt == TexFormat::DXT5 && (block[0] > block[1]) != eightAlpha)
        std::swap(block[0], block[1]);
    return block;
}

void
decodeReference(TexFormat fmt, const u8* block, Vec4 out[16])
{
    if (fmt == TexFormat::DXT1)
        decodeDxt1Block(block, out);
    else if (fmt == TexFormat::DXT3)
        decodeDxt3Block(block, out);
    else
        decodeDxt5Block(block, out);
}

} // anonymous namespace

TEST(TexturePaletteCache, MatchesFullBlockDecode)
{
    // Blocks k and k + entries share a cache entry, so a random walk
    // over 16 blocks keeps evicting.
    constexpr u32 numBlocks = 16;
    constexpr u32 base = 8192;
    const TexFormat formats[] = {TexFormat::DXT1, TexFormat::DXT3,
                                 TexFormat::DXT5};
    for (const TexFormat fmt : formats) {
        const u32 unit = texFormatUnitBytes(fmt);
        ASSERT_EQ(TexBlockCache::index(fmt, base),
                  TexBlockCache::index(
                      fmt, base + TexBlockCache::entries * unit));
        Lcg rng(static_cast<u64>(fmt) + 7);
        GpuMemory mem(1 << 16);
        Vec4 expect[numBlocks][16];
        u32 fourColor = 0, eightAlpha = 0;
        for (u32 k = 0; k < numBlocks; ++k) {
            // Alternate the modes so both halves are covered.
            const auto block =
                randomBlock(rng, fmt, k % 2 == 0, (k / 2) % 2 == 0);
            mem.write(base + k * unit, unit, block.data());
            decodeReference(fmt, block.data(), expect[k]);
            const u8* color = fmt == TexFormat::DXT1 ? block.data()
                                                     : block.data() + 8;
            fourColor += (color[0] | (color[1] << 8)) >
                         (color[2] | (color[3] << 8));
            eightAlpha += block[0] > block[1];
        }
        EXPECT_GT(fourColor, 0u);
        EXPECT_LT(fourColor, numBlocks);
        if (fmt == TexFormat::DXT5) {
            EXPECT_GT(eightAlpha, 0u);
            EXPECT_LT(eightAlpha, numBlocks);
        }

        TexBlockCache cache;
        for (u32 n = 0; n < 4000; ++n) {
            const u32 k = rng.next(numBlocks);
            const u32 i = rng.next(16);
            const Vec4 got =
                cache.block(fmt, base + k * unit, mem).texel(i);
            ASSERT_TRUE(bitEqual(got, expect[k][i]))
                << "format " << static_cast<u32>(fmt) << " block "
                << k << " texel " << i;
        }
        // Ping-pong between two blocks of one entry.
        for (u32 n = 0; n < 64; ++n) {
            const u32 k = (n % 2) * TexBlockCache::entries;
            ASSERT_TRUE(bitEqual(
                cache.block(fmt, base + k * unit, mem).texel(n % 16),
                expect[k][n % 16]));
        }
    }
}

namespace
{

/** A random texture layout: 2D or cube, any wrap mode, any format,
 * a full mip chain per face.  Level addresses are offset by
 * @p misalign bytes so DXT blocks straddle cache-line boundaries. */
TextureDescriptor
randomTexture(Lcg& rng, u32 misalign)
{
    TextureDescriptor desc;
    const TexFormat formats[] = {TexFormat::RGBA8, TexFormat::LUM8,
                                 TexFormat::DXT1, TexFormat::DXT3,
                                 TexFormat::DXT5};
    desc.format = formats[rng.next(5)];
    desc.target = rng.next(4) == 0 ? TexTarget::Cube : TexTarget::Tex2D;
    const WrapMode wraps[] = {WrapMode::Repeat, WrapMode::Clamp,
                              WrapMode::Mirror};
    desc.wrapS = wraps[rng.next(3)];
    desc.wrapT = wraps[rng.next(3)];
    desc.minFilter = rng.next(4) == 0
                         ? static_cast<MinFilter>(rng.next(6))
                         : MinFilter::LinearMipLinear;
    desc.magLinear = rng.next(4) != 0;
    desc.maxAnisotropy = 1 + rng.next(16);
    const u32 size = 16u << rng.next(4);
    desc.levels = static_cast<u32>(std::bit_width(size));
    const u32 faces = desc.target == TexTarget::Cube ? 6 : 1;
    u32 addr = 4096 + misalign;
    for (u32 f = 0; f < faces; ++f) {
        u32 dim = size;
        for (u32 level = 0; level < desc.levels; ++level) {
            desc.mips[f][level] = {dim, dim, 1, addr};
            addr += mipStorageBytes(desc.format, dim, dim);
            dim = std::max(1u, dim / 2);
        }
    }
    return desc;
}

/** Four coordinates of a random quad: a random centre and random
 * screen-space derivatives, some strongly anisotropic. */
std::array<Vec4, 4>
randomQuad(Lcg& rng, const TextureDescriptor& desc)
{
    const Vec4 c(rng.uniform(-1.5f, 2.5f), rng.uniform(-1.5f, 2.5f),
                 rng.uniform(-1.0f, 1.0f), 1.0f);
    const f32 scale = rng.uniform(0.0005f, 0.2f);
    const Vec4 dx(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale,
                  0, 0);
    const f32 squash = rng.uniform(0.02f, 1.0f);
    Vec4 dy(-dx.y * squash, dx.x * squash, 0, 0);
    if (desc.target == TexTarget::Cube)
        dy.z = rng.uniform(-1, 1) * scale;
    return {c, c + dx, c + dy, c + dx + dy};
}

/** The line list as an ordered set builds it. */
std::vector<u32>
linesBySet(const std::array<SamplePlan, 4>& plans, u32 lineBytes)
{
    std::set<u32> lines;
    for (const SamplePlan& plan : plans) {
        for (const TexelRef& ref : plan.texels) {
            lines.insert(ref.address - ref.address % lineBytes);
            const u32 end = ref.address + ref.bytes - 1;
            lines.insert(end - end % lineBytes);
        }
    }
    return {lines.begin(), lines.end()};
}

bool
samePlan(const SamplePlan& a, const SamplePlan& b)
{
    if (a.bilinearOps != b.bilinearOps ||
        a.texels.size() != b.texels.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.texels.size(); ++i) {
        const TexelRef& x = a.texels[i];
        const TexelRef& y = b.texels[i];
        if (x.address != y.address || x.bytes != y.bytes ||
            x.face != y.face || x.level != y.level || x.x != y.x ||
            x.y != y.y ||
            std::memcmp(&x.weight, &y.weight, sizeof(f32)) != 0) {
            return false;
        }
    }
    return true;
}

} // anonymous namespace

TEST(TexturePlan, PlanSampleIntoDirtyPlanMatchesPlanSample)
{
    GpuMemory mem(1 << 16);
    auto desc = makeTexture(
        mem, 8, {solid(8, 1, 2, 3), solid(4, 1, 2, 3),
                 solid(2, 1, 2, 3), solid(1, 1, 2, 3)});
    desc.minFilter = MinFilter::LinearMipLinear;
    desc.maxAnisotropy = 16;
    // Dirty the plan with a large footprint (16x aniso, trilinear),
    // then plan a small one into it.
    SamplePlan plan;
    TextureEmulator::planSampleInto(desc, {0.3f, 0.6f, 0, 0}, 0.5f, 16,
                                    {0.5f, 0.1f, 0, 0}, plan);
    const std::size_t big = plan.texels.size();
    ASSERT_GE(big, 64u);
    TextureEmulator::planSampleInto(desc, {0.7f, 0.2f, 0, 0}, -1.0f, 1,
                                    Vec4(), plan);
    EXPECT_LT(plan.texels.size(), big);
    EXPECT_TRUE(samePlan(plan, TextureEmulator::planSample(
                                   desc, {0.7f, 0.2f, 0, 0}, -1.0f)));
}

TEST(TexturePlan, RandomQuadsMatchReferencePaths)
{
    // Over random quads: planSampleInto() into reused plans equals
    // planSample(); collectTexelLines() equals the ordered-set list;
    // the cached executePlan() and samplePlanned() equal the
    // reference fetchTexel() path bit for bit.
    Lcg rng(2749);
    GpuMemory mem(1 << 22);
    for (u32 a = 0; a < (1u << 22); a += 4) {
        const u32 word = rng.next(0x7fffffff) * 2 + rng.next(2);
        mem.write(a, 4, reinterpret_cast<const u8*>(&word));
    }
    const u32 lineSizes[] = {64, 256, 48};
    u32 straddles = 0, cubes = 0, aniso = 0, trilinear = 0;
    std::array<SamplePlan, 4> plans;
    std::vector<u32> lines;
    for (u32 n = 0; n < 400; ++n) {
        const TextureDescriptor desc =
            randomTexture(rng, 4 * rng.next(4));
        const auto coords = randomQuad(rng, desc);
        u32 quadAniso;
        f32 lod;
        Vec4 majorAxis;
        TextureEmulator::quadFootprint(desc, coords,
                                       rng.uniform(-1, 1), quadAniso,
                                       lod, majorAxis);
        cubes += desc.target == TexTarget::Cube;
        aniso += quadAniso > 1;
        TexBlockCache cache, fusedCache;
        for (u32 l = 0; l < 4; ++l) {
            TextureEmulator::planSampleInto(desc, coords[l], lod,
                                            quadAniso, majorAxis,
                                            plans[l]);
            const SamplePlan fresh = TextureEmulator::planSample(
                desc, coords[l], lod, quadAniso, majorAxis);
            ASSERT_TRUE(samePlan(plans[l], fresh)) << "quad " << n;
            trilinear +=
                plans[l].bilinearOps > std::max(quadAniso, 1u);

            const Vec4 reference =
                TextureEmulator::executePlan(desc, plans[l], mem);
            ASSERT_TRUE(bitEqual(TextureEmulator::executePlan(
                                     desc, plans[l], mem, &cache),
                                 reference))
                << "quad " << n << " lane " << l;
            ASSERT_TRUE(bitEqual(TextureEmulator::samplePlanned(
                                     desc, coords[l], lod, quadAniso,
                                     majorAxis, mem, &fusedCache),
                                 reference))
                << "quad " << n << " lane " << l;
            for (const TexelRef& ref : plans[l].texels) {
                straddles += ref.address / 64 !=
                             (ref.address + ref.bytes - 1) / 64;
            }
        }
        for (const u32 lineBytes : lineSizes) {
            collectTexelLines(plans, lineBytes, lines);
            ASSERT_EQ(lines, linesBySet(plans, lineBytes))
                << "quad " << n << " line " << lineBytes;
        }
    }
    // The random mix covers every case the test is about.
    EXPECT_GT(straddles, 0u);
    EXPECT_GT(cubes, 0u);
    EXPECT_GT(aniso, 0u);
    EXPECT_GT(trilinear, 0u);
}
