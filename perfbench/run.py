#!/usr/bin/env python3
"""Repository benchmark of the ATTILA simulator (see README.md here).

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Builds perfbench/ (the simulator libraries from src/ plus the
attila_perfbench program) in Release under .bench_build/, then repeats
one workload run, each in a fresh process, for --seconds: it starts no
run that would end later, but always does at least MIN_RUNS runs.  CPU
time and peak RSS of every run come from wait4(); host times come from
the spans attila_perfbench takes around each layer call.  Every run
must drain, match RefRenderer on every frame, and produce the same
statistics/frame digest as the other runs of this workload and seed.

Host times, CPU time and peak RSS are the least over the runs, and
sim_khz the highest.  The work of a run repeats exactly (the gate
checks it), so a slower run measures interference from the rest of
the host, not the program; the best of many runs is the steadiest
estimate of the program's own cost on a shared machine (see "Measured
spread" in README.md).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates plain
runs with runs that also enable the simulator's event trace, prints
the per-layer metrics, and writes the benchmark spans of all runs as
Chrome-trace JSON under .bench_build/perfbench-out/.

The last line of stdout is the result object; everything before it is
a human-readable report, and build output goes to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
OUT_DIR = BUILD_ROOT / "perfbench-out"
WORKLOADS = ("terrain-aniso", "cubes-banked")
MIN_RUNS = 3
MIN_TRACE_PAIRS = 2


class SetupError(Exception):
    """The benchmark cannot run at all (as opposed to a failed run)."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(trace_events):
    """Configure once, then build incrementally; returns the binary."""
    build_dir = BUILD_ROOT / ("perfbench" if trace_events
                              else "perfbench-no-trace-events")
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(build_dir), "-j", jobs]]
    if not (build_dir / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release",
                         "-DATTILA_TRACE_EVENTS="
                         + ("ON" if trace_events else "OFF")])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            raise SetupError("build failed: " + " ".join(cmd))
    return build_dir / "attila_perfbench"


def run_once(binary, workload, seed, event_trace):
    """One workload run in a fresh process.

    Returns the program's record (None if it printed none) extended
    with the process's exit code, CPU seconds and peak RSS."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--work-dir", str(OUT_DIR)]
    if event_trace:
        cmd.append("--event-trace")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.read().decode()
    proc.stdout.close()
    # Reap with wait4() for the child's own rusage; tell Popen it ended.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == 2:
        raise SetupError("attila_perfbench refused to run")
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    if record is None:
        log(f"run failed: exit {proc.returncode}, no result")
        return None
    record["exit"] = proc.returncode
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB
    return record


def run_failed(record, reference):
    """Why a run failed, or None.  @p reference is the first run."""
    if record is None:
        return "no result"
    if record["exit"] != 0 or record["errors"]:
        return "; ".join(record["errors"]) or f"exit {record['exit']}"
    for key in ("cycles", "stats_digest", "frame_digest"):
        if record[key] != reference[key]:
            return f"{key} {record[key]} differs from {reference[key]}"
    return None


def best(records, key):
    """Least value of @p key over the runs (see the module doc)."""
    return min(r[key] for r in records)


def layer_best(records, name):
    return min(r["layers"][name] for r in records)


def end_to_end(ok, attempted, failed):
    return {
        "wall_s": best(ok, "wall_s"),
        "setup_s": best(ok, "setup_s"),
        "sim_khz": max(r["cycles"] / r["layers"]["gpu.run_s"] / 1e3
                       for r in ok),
        "cpu_s": best(ok, "cpu_s"),
        "sim_cycles": best(ok, "cycles"),
        "peak_rss_mb": best(ok, "peak_rss_mb"),
        "pass_frac": (attempted - failed) / attempted,
    }


def per_layer(plain, traced):
    """Layer values of the plain runs, trace costs of the traced ones.
    Counts repeat exactly across runs (the gate checks their digest),
    so taking the least value only selects among host times."""
    values = {name: layer_best(plain, name) for name in plain[0]["layers"]}
    if traced:
        run_s = layer_best(traced, "gpu.run_s")
        values["sim.trace_run_s"] = run_s
        values["sim.trace_overhead"] = run_s / values["gpu.run_s"]
        for name in ("sim.trace_export_s", "sim.trace_events",
                     "sim.trace_dropped"):
            values[name] = layer_best(traced, name)
    return values


def write_spans(path, records, provenance):
    """Chrome-trace JSON of the benchmark spans of every run."""
    events = []
    origin = min(r["spans"][0][2] for r in records)
    for run_id, record in enumerate(records):
        spans = record["spans"]
        for name, parent, start, end in spans:
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": run_id,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"run": run_id,
                         "parent": spans[parent][0] if parent >= 0 else None,
                         "event_trace": record["event_trace"]},
            })
    path.write_text(json.dumps({"traceEvents": events,
                                "otherData": provenance}))


def git_sha():
    """HEAD of the checkout, read without leaving it; or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared():
    """Metric name -> (unit, kind) as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], kind)
            for kind in ("end_to_end", "per_layer") for m in spec[kind]}


def measure(binary, workload, args, spec):
    """Run @p workload for args.seconds; print its report and return
    (correct, attempted, failed, metrics)."""
    need = MIN_TRACE_PAIRS * 2 if args.trace else MIN_RUNS
    start = time.monotonic()
    records = []
    while True:
        round_start = time.monotonic()
        for event_trace in ((False, True) if args.trace else (False,)):
            records.append(run_once(binary, workload, args.seed,
                                    event_trace))
        # Start no round that would end after --seconds.
        now = time.monotonic()
        if (len(records) >= need
                and now + (now - round_start) - start > args.seconds):
            break

    reference = next((r for r in records if r is not None), None)
    failed = 0
    for i, record in enumerate(records):
        why = run_failed(record, reference) if reference else "no result"
        if why:
            failed += 1
            log(f"{workload} run {i} failed: {why}")
    attempted = len(records)
    ok = [r for r in records if r is not None and not run_failed(r, reference)]
    plain = [r for r in ok if not r["event_trace"]]
    traced = [r for r in ok if r["event_trace"]]
    trace_compiled = bool(reference and reference["trace_events_compiled"])

    provenance = {
        "workload": workload, "seed": args.seed,
        "frames": reference["frames"] if reference else None,
        "runs": attempted, "nproc": len(os.sched_getaffinity(0)),
        "build_type": reference["build_type"] if reference else None,
        "compiler": reference["compiler"] if reference else None,
        "git_sha": git_sha(),
        "config_hash": reference["config_hash"] if reference else None,
        "digest": (reference["stats_digest"] + reference["frame_digest"]
                   if reference else None),
    }
    print(f"== {workload}\nprovenance " + json.dumps(provenance))

    kind = "per_layer" if args.trace else "end_to_end"
    expected = {n for n, (_, k) in spec.items() if k == kind}
    if args.trace and not trace_compiled:
        print("event trace compiled out (ATTILA_TRACE_EVENTS=OFF):"
              " sim.trace_* metrics skipped")
        expected = {n for n in expected if not n.startswith("sim.trace_")}
    values = {}
    if plain:
        if args.trace:
            values = per_layer(plain, traced)
            path = OUT_DIR / f"{workload}-{args.seed}.spans.json"
            write_spans(path, [r for r in records if r], provenance)
            print(f"spans: {path.relative_to(ROOT)}")
        else:
            values = end_to_end(plain, attempted, failed)
        if set(values) != expected:
            raise SetupError("metrics out of step with BENCHMARK.json: "
                             + " ".join(sorted(set(values) ^ expected)))
    metrics = {}
    for name, value in values.items():
        unit = spec[name][0]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:36s} {value:.6g} {unit}")
    if plain:
        print(f"{'wall_s median over runs':36s} "
              f"{statistics.median(r['wall_s'] for r in plain):.6g} s "
              f"({len(plain)} plain runs)")
    print(f"{'failed_frac':36s} {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} runs)")

    correct = failed == 0 and bool(plain)
    if args.trace and trace_compiled:
        correct = correct and len(traced) == attempted // 2
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0,
                        help="first animation frame index (default 0)")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--no-trace-events", action="store_true",
                        help="build with -DATTILA_TRACE_EVENTS=OFF")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    results = []
    try:
        spec = declared()
        binary = build(not args.no_trace_events)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        for workload in workloads:
            results.append((workload,
                            measure(binary, workload, args, spec)))
    except SetupError as e:
        log(f"error: {e}")
        return 2

    if len(results) == 1:
        metrics = results[0][1][3]
    else:
        # All workloads: one object, metric names prefixed "<workload>/".
        metrics = {f"{w}/{name}": m for w, r in results
                   for name, m in r[3].items()}
    print(json.dumps({
        "correct": all(r[0] for _, r in results),
        "attempted": sum(r[1] for _, r in results),
        "failed": sum(r[2] for _, r in results),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
