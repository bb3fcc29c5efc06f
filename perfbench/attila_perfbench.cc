/**
 * @file
 * attila_perfbench: one workload run of the repository benchmark
 * (see README.md beside this file; run.py drives it).
 *
 * A run records the workload's API calls into a GL trace, replays the
 * trace into a fresh context, builds a Gpu with the compiled-in
 * defaults, submits the replayed command stream, simulates it to
 * drain, renders the same stream on the RefRenderer and compares
 * every frame.  Each of those calls is timed from here as a span
 * (steady_clock, so the timestamps share run.py's time.monotonic()
 * clock).  The run prints one JSON object on stdout: the spans, the
 * per-layer values (span durations and StatisticManager totals
 * summed over unit instances), the verification outcome and a digest
 * of every statistic total and every frame.
 *
 * With --event-trace the simulator's own event trace is enabled
 * through Simulator::enableEventTrace(), exported as Chrome-trace
 * JSON after the run, and cross-checked against the statistics.
 *
 * Usage:
 *   attila_perfbench --workload <name> --seed <n> --work-dir <dir>
 *                    [--event-trace]
 */

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "gl/context.hh"
#include "gl/trace.hh"
#include "gpu/gpu.hh"
#include "gpu/ref_renderer.hh"
#include "sim/event_trace.hh"
#include "sim/trace_export.hh"
#include "workloads/cubes.hh"
#include "workloads/terrain.hh"

extern char** environ;

namespace
{

using namespace attila;

/** Cycle budget for one run: about ten times the longest workload, so
 * a pipeline that never drains fails in bounded host time. */
constexpr u64 kMaxCycles = 20'000'000;

/** Framebuffer width and height of every workload. */
constexpr u32 kSize = 256;

/** Seeds wrap to this many first-frame indices so that f32 animation
 * angles stay exact for any seed. */
constexpr u64 kFrameWrap = 4096;

/**
 * One benchmark workload.  The frames of a run are spread evenly over
 * one period of the scene's animation (`stride` frames apart), so the
 * amount of work hardly depends on the seed while each seed still
 * renders different images.
 */
struct WorkloadSpec
{
    const char* name;
    u32 frames;
    u32 stride;
};

// Orbit periods: terrain turns 0.12 rad/frame (52.4 frames); the cube
// carousel turns 3 deg/frame (120 frames).
constexpr WorkloadSpec kWorkloads[] = {
    {"terrain-aniso", 4, 13},
    {"cubes-banked", 4, 30},
};

std::unique_ptr<workloads::Workload>
makeWorkload(const std::string& name, u32 frames)
{
    workloads::WorkloadParams params;
    params.width = kSize;
    params.height = kSize;
    params.frames = frames;
    params.textureSize = 64;
    params.anisotropy = 8;
    params.detail = 8;
    if (name == "terrain-aniso")
        return std::make_unique<workloads::TerrainWorkload>(params);
    params.detail = 32;
    return std::make_unique<workloads::CubesWorkload>(params);
}

/** The compiled-in defaults, plus the banked GDDR + FR-FCFS memory
 * keys of examples/configs/dram_banked_frfcfs.cfg for cubes-banked. */
gpu::GpuConfig
makeConfig(const std::string& name)
{
    gpu::GpuConfig config = gpu::GpuConfig::baseline();
    if (name == "cubes-banked") {
        config.applySet("memory.memModel=banked");
        config.applySet("memory.dramScheduler=frfcfs");
        config.applySet("memory.frfcfsCap=64");
        config.applySet("memory.frfcfsWindow=16");
    }
    return config;
}

f64
now()
{
    return std::chrono::duration<f64>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Benchmark-side spans, kept in memory until the run prints them. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int parent;
        f64 start;
        f64 end;
    };

    /** Open a span under the innermost open one; returns its index. */
    int
    open(const std::string& name)
    {
        const int parent = _open.empty() ? -1 : _open.back();
        _spans.push_back({name, parent, now(), 0.0});
        _open.push_back(static_cast<int>(_spans.size()) - 1);
        return _open.back();
    }

    void
    close()
    {
        _spans[_open.back()].end = now();
        _open.pop_back();
    }

    /** Run @p fn inside a span named @p name; returns its seconds. */
    template <typename Fn>
    f64
    time(const std::string& name, Fn&& fn)
    {
        const int index = open(name);
        fn();
        close();
        return seconds(index);
    }

    f64
    seconds(int index) const
    {
        return _spans[index].end - _spans[index].start;
    }

    const std::vector<Span>& spans() const { return _spans; }

  private:
    std::vector<Span> _spans;
    std::vector<int> _open;
};

/** FNV-1a, 64-bit. */
class Digest
{
  public:
    void
    add(const void* data, std::size_t size)
    {
        const auto* bytes = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            _hash ^= bytes[i];
            _hash *= 0x100000001b3ull;
        }
    }

    void add(u64 value) { add(&value, sizeof(value)); }
    void add(const std::string& s) { add(s.data(), s.size() + 1); }

    u64 value() const { return _hash; }

  private:
    u64 _hash = 0xcbf29ce484222325ull;
};

std::string
hex(u64 value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(f64 value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** StatisticManager totals by name. */
using Totals = std::map<std::string, u64>;

Totals
collectTotals(const sim::StatisticManager& stats)
{
    Totals totals;
    for (const std::string& name : stats.names())
        totals[name] = stats.find(name)->total();
    return totals;
}

/** Sum of `<unit>.<stat>` and `<unit><index>.<stat>` over unit
 * instances; @p instances receives how many matched. */
u64
unitTotal(const Totals& totals, const std::string& unit,
          const std::string& stat, u32* instances = nullptr)
{
    u64 sum = 0;
    u32 count = 0;
    const std::string suffix = "." + stat;
    for (auto it = totals.lower_bound(unit);
         it != totals.end() && it->first.rfind(unit, 0) == 0; ++it) {
        const std::string& name = it->first;
        std::size_t pos = unit.size();
        while (pos < name.size() &&
               std::isdigit(static_cast<unsigned char>(name[pos])))
            ++pos;
        if (name.compare(pos, std::string::npos, suffix) == 0) {
            sum += it->second;
            ++count;
        }
    }
    if (instances)
        *instances = count;
    return sum;
}

f64
ratio(u64 numerator, u64 denominator)
{
    return denominator ? static_cast<f64>(numerator) /
                             static_cast<f64>(denominator)
                       : 0.0;
}

/**
 * The per-layer counts of one run.  Every ratio comes with its
 * numerator and denominator.  busy_frac is busy cycles over
 * (simulated cycles x unit instances); the memory controller counts
 * busy cycles per channel.
 */
void
addStatLayers(std::map<std::string, f64>& layers,
              const Totals& totals, u64 cycles, u32 channels)
{
    const auto put = [&](const std::string& name, u64 v) {
        layers[name] = static_cast<f64>(v);
        return v;
    };
    const auto unit = [&](const std::string& box,
                          std::initializer_list<const char*> stats) {
        for (const char* stat : stats)
            put("gpu." + box + "." + stat, unitTotal(totals, box, stat));
    };
    const auto fraction = [&](const std::string& box, const char* part,
                              const char* whole, const char* rate) {
        const u64 p = put("gpu." + box + "." + part,
                          unitTotal(totals, box, part));
        const u64 w = put("gpu." + box + "." + whole,
                          unitTotal(totals, box, whole));
        layers["gpu." + box + "." + rate] = ratio(p, w);
    };
    const auto hitRate = [&](const std::string& box, const char* hits,
                             const char* misses, const char* rate) {
        const u64 h = put("gpu." + box + "." + hits,
                          unitTotal(totals, box, hits));
        const u64 m = put("gpu." + box + "." + misses,
                          unitTotal(totals, box, misses));
        layers["gpu." + box + "." + rate] = ratio(h, h + m);
    };
    // @p lanes: units busy in parallel inside one box (0: one per
    // box instance).
    const auto busy = [&](const std::string& box, u32 lanes = 0) {
        u32 instances = 0;
        const u64 b = put("gpu." + box + ".busyCycles",
                          unitTotal(totals, box, "busyCycles",
                                    &instances));
        layers["gpu." + box + ".busy_frac"] =
            ratio(b, cycles * (lanes ? lanes : instances));
    };

    put("sim.cycles", cycles);
    u64 signalWrites = 0;
    u64 creditWrites = 0;
    for (const auto& [name, total] : totals) {
        if (name.rfind("signal.", 0) != 0)
            continue;
        if (name.ends_with(".credit.writes"))
            creditWrites += total;
        else if (name.ends_with(".writes"))
            signalWrites += total;
    }
    put("sim.signal_writes", signalWrites);
    put("sim.credit_writes", creditWrites);

    unit("TextureUnit", {"requests", "bilinearOps"});
    hitRate("TextureUnit", "cacheHits", "cacheMisses", "hit_rate");
    busy("TextureUnit");
    unit("ShaderUnit", {"instructions", "threads", "textureStallCycles"});
    busy("ShaderUnit");
    unit("FragmentFIFO", {"windowFullCycles"});

    fraction("ZStencilTest", "fragmentsPassed", "fragmentsTested",
             "pass_rate");
    hitRate("ZStencilTest", "cacheHits", "cacheMisses", "hit_rate");
    unit("ColorWrite", {"fragments", "blendedFragments"});
    hitRate("ColorWrite", "cacheHits", "cacheMisses", "hit_rate");

    fraction("HierarchicalZ", "tilesCulled", "tiles", "cull_rate");
    unit("FragmentGenerator", {"fragments"});
    unit("Interpolator", {"quads"});

    unit("Streamer", {"vertices"});
    hitRate("Streamer", "vertexCacheHits", "vertexCacheMisses",
            "vertex_hit_rate");
    unit("PrimitiveAssembly", {"triangles"});
    unit("TriangleSetup", {"triangles", "culled"});
    unit("Clipper", {"triangles", "trivialRejects"});

    unit("MemoryController", {"readBytes", "writeBytes", "turnarounds",
                              "rowConflicts"});
    put("gpu.MemoryController.channels", channels);
    busy("MemoryController", channels);
    hitRate("MemoryController", "rowHits", "rowMisses", "row_hit_rate");
}

/** Stats and frames of a run, hashed for the repetition check. */
struct RunDigest
{
    u64 stats;
    u64 frames;
};

RunDigest
digestRun(const Totals& totals, u64 cycles,
          const std::vector<gpu::FrameImage>& frames)
{
    Digest stats;
    stats.add(cycles);
    for (const auto& [name, total] : totals) {
        stats.add(name);
        stats.add(total);
    }
    Digest images;
    for (const gpu::FrameImage& frame : frames) {
        images.add(frame.width);
        images.add(frame.height);
        images.add(frame.pixels.data(),
                   frame.pixels.size() * sizeof(u32));
    }
    return {stats.value(), images.value()};
}

[[noreturn]] void
usage(const std::string& message)
{
    std::cerr << "attila_perfbench: " << message << "\n"
              << "usage: attila_perfbench --workload <name> --seed <n>"
                 " --work-dir <dir> [--event-trace]\n";
    std::exit(2);
}

struct Options
{
    std::string workload;
    u64 seed = 0;
    std::string workDir;
    bool eventTrace = false;
};

Options
parseArgs(int argc, char** argv)
{
    Options options;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            const std::string v = value();
            char* end = nullptr;
            options.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() ||
                !std::isdigit(static_cast<unsigned char>(v[0])) ||
                *end != '\0')
                usage("bad seed '" + v + "'");
            haveSeed = true;
        } else if (arg == "--work-dir") {
            options.workDir = value();
        } else if (arg == "--event-trace") {
            options.eventTrace = true;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (!haveSeed || options.workDir.empty())
        usage("--seed and --work-dir are required");
    return options;
}

/** The benchmark measures the program's defaults only. */
void
refuseOverrides()
{
    bool found = false;
    for (char** env = environ; *env; ++env) {
        if (std::strncmp(*env, "ATTILA_", 7) == 0) {
            const char* eq = std::strchr(*env, '=');
            std::cerr << "attila_perfbench: refusing to run with "
                      << std::string(*env, eq ? eq - *env
                                              : std::strlen(*env))
                      << " set; the benchmark measures the"
                         " compiled-in defaults\n";
            found = true;
        }
    }
    if (found)
        std::exit(2);
}

int
runBenchmark(const Options& options, const WorkloadSpec& spec)
{
    const u32 firstFrame = static_cast<u32>(options.seed % kFrameWrap);
    std::vector<u32> frameIndices;
    for (u32 k = 0; k < spec.frames; ++k)
        frameIndices.push_back(firstFrame + k * spec.stride);

    const gpu::GpuConfig config = makeConfig(spec.name);
    const std::string stem = options.workDir + "/" + spec.name + "-" +
                             std::to_string(options.seed);
    const std::string glTracePath =
        stem + "-" + std::to_string(::getpid()) + ".agltrace";

    SpanLog log;
    std::map<std::string, f64> layers;
    std::vector<std::string> errors;
    gpu::CommandList commands;
    std::unique_ptr<gpu::Gpu> gpu;
    std::unique_ptr<gpu::RefRenderer> reference;
    bool drained = false;
    bool traced = false;

    const int run = log.open("run");
    const int setup = log.open("setup");
    layers["gl.record_s"] = log.time("gl.record", [&] {
        auto workload = makeWorkload(spec.name, spec.frames);
        gl::TraceRecorder recorder(glTracePath);
        gl::Context ctx(kSize, kSize, config.memorySize);
        ctx.setRecorder(&recorder);
        workload->setup(ctx);
        for (const u32 frame : frameIndices)
            workload->renderFrame(ctx, frame);
        layers["gl.trace_records"] =
            static_cast<f64>(recorder.recordCount());
    });
    layers["gl.replay_s"] = log.time("gl.replay", [&] {
        gl::TracePlayer player(glTracePath);
        gl::Context ctx(kSize, kSize, config.memorySize);
        player.play(ctx);
        commands = ctx.takeCommands();
    });
    layers["gl.trace_bytes"] =
        static_cast<f64>(std::filesystem::file_size(glTracePath));
    layers["gl.commands"] = static_cast<f64>(commands.size());
    std::filesystem::remove(glTracePath);
    layers["gpu.construct_s"] = log.time("gpu.construct", [&] {
        gpu = std::make_unique<gpu::Gpu>(config);
    });
    if (options.eventTrace && sim::kEventTraceCompiled) {
        log.time("sim.trace_enable",
                 [&] { gpu->simulator().enableEventTrace(); });
        traced = true;
    }
    layers["gpu.submit_s"] =
        log.time("gpu.submit", [&] { gpu->submit(commands); });
    log.close();
    const f64 setupSeconds = log.seconds(setup);

    layers["gpu.run_s"] = log.time("gpu.run", [&] {
        drained = gpu->runUntilIdle(kMaxCycles);
    });
    if (!drained)
        errors.push_back("pipeline did not drain within " +
                         std::to_string(kMaxCycles) + " cycles");
    const u64 cycles = gpu->cycle();

    if (traced) {
        sim::EventTraceData data;
        const u64 window = std::max<u64>(1, config.statsWindow);
        layers["sim.trace_export_s"] = log.time("sim.trace_export", [&] {
            data = gpu->simulator().finishEventTrace();
            sim::writeChromeTraceJson(data, window,
                                      stem + ".evtrace.json");
        });
        log.time("sim.trace_check", [&] {
            const auto mismatches = sim::crossCheckStats(
                sim::aggregateTrace(data, window), gpu->stats());
            for (const std::string& m : mismatches)
                errors.push_back("event trace vs stats: " + m);
        });
        layers["sim.trace_events"] = static_cast<f64>(data.events.size());
        layers["sim.trace_dropped"] = static_cast<f64>(data.dropped);
    }

    layers["gpu.ref_execute_s"] = log.time("gpu.ref_execute", [&] {
        reference = std::make_unique<gpu::RefRenderer>(config.memorySize);
        reference->execute(commands);
    });

    Totals totals;
    RunDigest digest{};
    layers["bench.verify_s"] = log.time("bench.verify", [&] {
        const auto& simFrames = gpu->frames();
        const auto& refFrames = reference->frames();
        if (simFrames.size() != spec.frames ||
            refFrames.size() != spec.frames) {
            errors.push_back(
                "frame count: simulator " +
                std::to_string(simFrames.size()) + ", reference " +
                std::to_string(refFrames.size()) + ", expected " +
                std::to_string(spec.frames));
        }
        for (std::size_t i = 0;
             i < std::min(simFrames.size(), refFrames.size()); ++i) {
            if (const u64 diff = simFrames[i].diffCount(refFrames[i]))
                errors.push_back("frame " + std::to_string(i) + ": " +
                                 std::to_string(diff) +
                                 " pixels differ from RefRenderer");
        }
        totals = collectTotals(gpu->stats());
        digest = digestRun(totals, cycles, simFrames);
    });
    log.close();

    addStatLayers(layers, totals, cycles, config.memoryChannels);

    std::ostringstream os;
    os << "{\"workload\":" << jsonString(spec.name)
       << ",\"seed\":" << options.seed << ",\"frames\":[";
    for (std::size_t i = 0; i < frameIndices.size(); ++i)
        os << (i ? "," : "") << frameIndices[i];
    os << "],\"event_trace\":" << (traced ? "true" : "false")
       << ",\"trace_events_compiled\":"
       << (sim::kEventTraceCompiled ? "true" : "false")
       << ",\"cycles\":" << cycles
       << ",\"stats_digest\":" << jsonString(hex(digest.stats))
       << ",\"frame_digest\":" << jsonString(hex(digest.frames))
       << ",\"config_hash\":" << jsonString(hex(config.configHash()))
       << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
       << ",\"compiler\":" << jsonString(PERFBENCH_COMPILER)
       << ",\"wall_s\":" << jsonNumber(log.seconds(run))
       << ",\"setup_s\":" << jsonNumber(setupSeconds)
       << ",\"errors\":[";
    for (std::size_t i = 0; i < errors.size() && i < 20; ++i)
        os << (i ? "," : "") << jsonString(errors[i]);
    os << "],\"spans\":[";
    const auto& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        os << (i ? "," : "") << "[" << jsonString(spans[i].name) << ","
           << spans[i].parent << "," << jsonNumber(spans[i].start)
           << "," << jsonNumber(spans[i].end) << "]";
    }
    os << "],\"layers\":{";
    bool first = true;
    for (const auto& [name, value] : layers) {
        os << (first ? "" : ",") << jsonString(name) << ":"
           << jsonNumber(value);
        first = false;
    }
    os << "}}\n";
    std::cout << os.str() << std::flush;
    return errors.empty() ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char** argv)
{
    const Options options = parseArgs(argc, argv);
    refuseOverrides();
    for (const WorkloadSpec& spec : kWorkloads) {
        if (options.workload != spec.name)
            continue;
        try {
            return runBenchmark(options, spec);
        } catch (const std::exception& e) {
            std::cerr << "attila_perfbench: " << e.what() << "\n";
            return 1;
        }
    }
    usage("unknown workload '" + options.workload + "'");
}
