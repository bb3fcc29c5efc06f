/**
 * @file
 * Figure 10 reproduction: rendered-frame verification.  The paper
 * compares a frame rendered by the ATTILA simulator against a real
 * GeForce 5900 to find rendering bugs (DXT alpha decode, negative
 * colour clamping, stencil clear).
 *
 * Here the independent comparator is the functional reference
 * renderer (no real GPU in the loop — see DESIGN.md §1): the timing
 * simulator's DAC dump must match it pixel for pixel on every
 * workload, including the DXT-compressed, stencil-heavy and
 * alpha-tested paths the paper's bugs lived in.
 */

#include "bench_common.hh"

#include "gpu/ref_renderer.hh"

using namespace attila;
using namespace attila::bench;

int
main(int argc, char** argv)
{
    parseArgs(argc, argv);
    setBench("fig10_image_verify");
    printHeader("Figure 10: simulator vs reference image"
                " verification");

    struct Scene
    {
        const char* name;
        gpu::CommandList commands;
        u32 frames;
    };
    std::vector<Scene> scenes;
    {
        auto params = benchParams(/*frames=*/1);
        workloads::ShadowsWorkload shadows(params);
        scenes.push_back({"shadows (stencil + DXT3 + alpha test)",
                          buildCommands(shadows), params.frames});
        workloads::TerrainWorkload terrain(params);
        scenes.push_back({"terrain (DXT1 + fog + multitexture)",
                          buildCommands(terrain), params.frames});
        workloads::CubesWorkload cubes(params);
        scenes.push_back({"cubes (fixed-function lighting)",
                          buildCommands(cubes), params.frames});
    }

    bool allClean = true;
    std::cout << std::left << std::setw(44) << "scene"
              << std::setw(12) << "pixels" << "differing\n";
    for (Scene& scene : scenes) {
        // Short name doubling as the BENCH_JSON label and the stem
        // of the per-scene output files (.ppm, .evtrace, .trace.json).
        const std::string shortName =
            scene.name[0] == 's' ? "shadows"
            : scene.name[0] == 't' ? "terrain"
                                   : "cubes";
        RunResult result = run(scene.commands,
                               gpu::GpuConfig::baseline(),
                               scene.frames, shortName);

        gpu::RefRenderer reference(64u << 20);
        reference.execute(scene.commands);

        const auto& simFrame = result.gpu->frames().back();
        const auto& refFrame = reference.frames().back();
        const u64 diff = simFrame.diffCount(refFrame);
        allClean &= diff == 0;
        std::cout << std::left << std::setw(44) << scene.name
                  << std::setw(12) << simFrame.pixels.size() << diff
                  << "\n";

        const std::string base =
            sim::outPath("fig10_" + shortName);
        simFrame.writePpm(base + "_sim.ppm");
        refFrame.writePpm(base + "_ref.ppm");
    }

    std::cout << "\n"
              << (allClean
                      ? "All frames identical: no timing-simulator"
                        " rendering bugs detected."
                      : "DIFFERENCES FOUND: inspect the fig10_*.ppm"
                        " pairs (paper §5 found DXT alpha, colour"
                        " clamp and stencil clear bugs this way).")
              << "\n";
    return allClean ? 0 : 1;
}
