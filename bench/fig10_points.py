#!/usr/bin/env python3
"""Write BENCH_fig10.json: a before/after point of the fig10 benchmark.

Runs two builds of bench_fig10_image_verify (a parent revision and a
change), alternating them so slow phases of a shared host hit both
alike, and records per scene: cycles, best and median wall_s, kHz at
the best wall time, and box_clocks (update() calls summed over every
box).  box_clocks is read from each build's event trace (the activity
spans cover exactly the clocked cycles), so revisions that predate the
BENCH_JSON box_clocks field are measured the same way; where the field
exists it must agree with the trace.  Per build it records peak_rss_mb,
the lowest peak resident set (ru_maxrss from wait4) over its runs; one
run renders every scene.

Usage (each build directory configured with CMake and built with the
bench_fig10_image_verify target):

    python3 bench/fig10_points.py --parent <parent-build-dir> \\
        --change <change-build-dir> [--runs 5] [--out BENCH_fig10.json]
"""

import argparse
import json
import os
import statistics
import subprocess
import tempfile


def cmake_cache(build_dir, key):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def git_sha(source_dir):
    def git(*args):
        return subprocess.run(["git", "-C", source_dir, *args],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    sha = git("rev-parse", "--short=12", "HEAD")
    return sha + ("+uncommitted" if git("status", "--porcelain") else "")


def run_bench(binary, workdir, *flags):
    """One run's BENCH_JSON lines and its peak RSS in MB."""
    proc = subprocess.Popen([binary, *flags], stdout=subprocess.PIPE,
                            cwd=workdir)
    out = proc.stdout.read().decode()
    proc.stdout.close()
    # Reap with wait4() for the child's own rusage; tell Popen it ended.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, binary)
    lines = [json.loads(line[len("BENCH_JSON "):])
             for line in out.splitlines()
             if line.startswith("BENCH_JSON ")]
    return lines, usage.ru_maxrss / 1024.0  # ru_maxrss is KiB


def traced_box_clocks(binary, workdir):
    """Sum of each scene's <box>.activeCycles trace counters."""
    clocks = {}
    for line in run_bench(binary, workdir, "--event-trace")[0]:
        if not line["label"].endswith("/event_trace"):
            continue
        assert line["match"] and line["dropped"] == 0, line
        scene = line["label"].split("/")[0]
        with open(os.path.join(workdir, line["json"])) as f:
            trace = json.load(f)
        clocks[scene] = sum(
            e["args"]["value"] for e in trace["traceEvents"]
            if e.get("ph") == "C" and e["name"].endswith(".activeCycles"))
    return clocks


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", default="BENCH_fig10.json")
    args = parser.parse_args()

    builds = {"parent": os.path.abspath(args.parent),
              "change": os.path.abspath(args.change)}
    walls = {name: {} for name in builds}
    lines = {name: {} for name in builds}
    rss = {name: [] for name in builds}
    with tempfile.TemporaryDirectory() as workdir:
        for _ in range(args.runs):
            for name, build in builds.items():
                binary = os.path.join(build, "bench",
                                      "bench_fig10_image_verify")
                run_lines, peak_rss_mb = run_bench(binary, workdir)
                rss[name].append(peak_rss_mb)
                for line in run_lines:
                    walls[name].setdefault(line["label"], []).append(
                        line["wall_s"])
                    lines[name][line["label"]] = line
        points = []
        for name, build in builds.items():
            binary = os.path.join(build, "bench",
                                  "bench_fig10_image_verify")
            clocks = traced_box_clocks(binary, workdir)
            scenes = {}
            for scene, line in lines[name].items():
                if "box_clocks" in line:
                    assert line["box_clocks"] == clocks[scene], (
                        name, scene, line["box_clocks"], clocks[scene])
                best = min(walls[name][scene])
                scenes[scene] = {
                    "cycles": line["cycles"],
                    "wall_s": round(best, 6),
                    "wall_s_median": round(
                        statistics.median(walls[name][scene]), 6),
                    "khz": round(line["cycles"] / best / 1e3, 1),
                    "box_clocks": clocks[scene],
                    "box_clocks_per_cycle": round(
                        clocks[scene] / line["cycles"], 3),
                }
            points.append({
                "label": name,
                "git_sha": git_sha(cmake_cache(build,
                                               "CMAKE_HOME_DIRECTORY")),
                "build_type": cmake_cache(build, "CMAKE_BUILD_TYPE"),
                "nproc": os.cpu_count(),
                "runs": args.runs,
                "peak_rss_mb": round(min(rss[name]), 1),
                "scenes": scenes,
            })

    for scene in points[0]["scenes"]:
        before, after = (p["scenes"][scene] for p in points)
        assert before["cycles"] == after["cycles"], scene
        print(f"{scene:8s} cycles {after['cycles']:7d}  kHz "
              f"{before['khz']:7.1f} -> {after['khz']:7.1f}  box clocks "
              f"{before['box_clocks_per_cycle']:.2f} -> "
              f"{after['box_clocks_per_cycle']:.2f} per cycle")
    print(f"peak RSS {points[0]['peak_rss_mb']:.1f} -> "
          f"{points[1]['peak_rss_mb']:.1f} MB")
    with open(args.out, "w") as f:
        json.dump({"bench": "fig10_image_verify",
                   "generator": "bench/fig10_points.py",
                   "points": points}, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
