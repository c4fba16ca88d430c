#!/usr/bin/env python3
"""End-to-end benchmark of the codelayout reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. The first run builds the libraries, the
service daemon and the perfbench program with CMake into $CARGO_TARGET_DIR (default
.bench_build); later runs rebuild only what changed. Raw results, the
Perfetto trace and the daemon log go to .bench_out/<workload>-seed<N>-trace<0|1>/.

Workloads (see README.md for why each one is there):
  table2-corun   Table II regenerated cold, engine width = host threads
  fig5-layout    Fig. 5 regenerated cold at 1 thread
  service-mixed  a seeded, cold-started job stream against service_daemon

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of the traced run. Every output is checked against
checksums.json; a mismatch marks every operation failed and exits 1. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402

WORKLOADS = ("table2-corun", "fig5-layout", "service-mixed")
# Extra timed set-ups, on top of the one each regeneration or round pays, so
# setup_s is a median of many: per regeneration process for the artifacts
# (a tenth of a second or more each), per run for the daemon (milliseconds).
ARTIFACT_SETUP_REPS = 2
DAEMON_SETUP_REPS = 20
# A median that one slow regeneration cannot move.
MIN_REGENERATIONS = 3
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def host_threads():
    return len(os.sched_getaffinity(0))


def engine_threads(workload):
    """Table II runs at host width, Fig. 5 on the 1-thread path."""
    return host_threads() if workload == "table2-corun" else 1


def run_group(cmd, timeout):
    """Runs cmd from the checkout root in its own process group, with its
    output on our stderr, and kills whatever of the group is left (a daemon
    a crashed perfbench did not stop) once it ends."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} did not finish within {timeout} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def build(build_dir):
    for needed in ("src/CMakeLists.txt", "bench/service_daemon.cpp",
                   "bench/bench_common.hpp"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not (build_dir / "CMakeCache.txt").is_file():
        if run_group(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                     BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    if run_group(["cmake", "--build", str(build_dir), "-j",
                  str(min(4, host_threads()))], BUILD_TIMEOUT_S) != 0:
        fail("build failed")


def run_artifact(binary, workload, seconds, out_dir):
    """Cold regenerations, one perfbench process each so that every one starts
    from a fresh heap, until `seconds` have passed and at least
    MIN_REGENERATIONS ran."""
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_REGENERATIONS or \
            time.monotonic() - start < seconds:
        remaining = RUN_TIMEOUT_S - (time.monotonic() - start)
        path = out_dir / f"regeneration{len(runs)}.json"
        if remaining <= 0 or run_group(
                [binary, "artifact", "--workload", workload,
                 "--threads", str(engine_threads(workload)),
                 "--setup-reps", str(ARTIFACT_SETUP_REPS),
                 "--out", str(path)], remaining) != 0 or \
                not (ROOT / path).is_file():
            fail("perfbench failed")
        runs.append(json.loads((ROOT / path).read_text()))
    return runs


def artifact_metrics(runs, expected):
    """End-to-end metrics of an artifact workload. A regeneration is one
    request: its wall time is the latency a user of the artifact sees."""
    cells = runs[0]["cells"]
    attempted = cells * len(runs)
    failed = sum(r["failed_cells"] for r in runs)
    correct = all(r["rows"] == expected["rows"] for r in runs)
    if not correct:
        failed = attempted
    wall_s = statistics.median(r["wall_ns"] / 1e9 for r in runs)
    latency_ms = [r["wall_ns"] / 1e6 for r in runs]
    setup_ns = [ns for r in runs for ns in r["setup_ns"]]
    values = {
        "setup_s": statistics.median(setup_ns) / 1e9,
        "wall_s": wall_s,
        "jobs_per_s": cells / wall_s,
        "latency_p50_ms": statistics.median(latency_ms),
        "latency_p99_ms": stats.percentile(latency_ms, 99),
        "peak_rss_mib": statistics.median(
            r["peak_rss_kib"] for r in runs) / 1024,
        "ok_share": stats.ok_share(attempted, failed),
    }
    notes = [f"{len(runs)} regenerations of {cells} cells; "
             f"{len(setup_ns)} set-ups; latency samples: {len(runs)} "
             f"(p99 is their highest, not a tail estimate)"]
    return values, attempted, failed, correct, notes


def service_samples(raw, expected):
    """All job samples, and whether every reply matched its checksum."""
    keys = [job["key"] for job in raw["universe"]]
    samples = [s for r in raw["rounds"] for s in r["samples"]]
    correct = all(
        s["status"] != 0 or
        (keys[s["job"]] in expected and
         s["reply"] == expected[keys[s["job"]]]["reply"])
        for s in samples)
    return samples, correct


def service_failures(raw, samples):
    """Failed jobs: error or rejected replies, broken connections, and every
    job of a round whose daemon did not exit cleanly."""
    failed = sum(1 for s in samples if s["status"] != 0)
    failed += sum(len(r["samples"]) for r in raw["rounds"]
                  if r["unclean_exit"])
    return min(failed + sum(raw["setup_failures"]), len(samples))


def service_metrics(raw, expected):
    samples, correct = service_samples(raw, expected)
    attempted = len(samples)
    failed = attempted if not correct else service_failures(raw, samples)
    rounds = raw["rounds"]
    latency_ms = [s["latency_ns"] / 1e6 for s in samples]
    p99, p99_ok = stats.tail_percentile(latency_ms, 99)
    values = {
        "setup_s": statistics.median(raw["setup_ns"]) / 1e9,
        "wall_s": statistics.median(r["wall_ns"] / 1e9 for r in rounds),
        "jobs_per_s": statistics.median(
            len(r["samples"]) / (r["wall_ns"] / 1e9) for r in rounds),
        "latency_p50_ms": statistics.median(latency_ms),
        "latency_p99_ms": p99,
        "peak_rss_mib": statistics.median(
            r["peak_rss_kib"] for r in rounds) / 1024,
        "ok_share": stats.ok_share(attempted, failed),
    }
    notes = [f"{len(rounds)} cold rounds, {attempted} jobs; "
             f"{len(raw['setup_ns'])} daemon set-ups; latency samples: "
             f"{attempted}, beyond p99: "
             f"{stats.samples_beyond(attempted, 99)}"
             + ("" if p99_ok else " (fewer than 10)")]
    return values, attempted, failed, correct, notes


def layer_values(part):
    """Per-layer metrics from one run_layers() record of perfbench."""
    layers = part["layers"]

    def s(key):
        return layers[key] / 1e9

    return {
        "workloads.build_s": s("build_ns"),
        "exec.profile_s": s("profile_ns"),
        "exec.events": layers["profile_events"],
        "trace.prune_s": s("prune_ns"),
        "trace.run_compression": stats.ratio(layers["trace_events"],
                                             layers["trace_runs"]),
        "affinity.calls": layers["affinity_calls"],
        "affinity.self_s": s("affinity_ns"),
        "affinity.ns_per_event": stats.ratio(layers["affinity_ns"],
                                             layers["affinity_events"]),
        "trg.build_s": s("trg_build_ns"),
        "trg.reduce_s": s("trg_reduce_ns"),
        "layout.transform_s": s("transform_ns"),
        "cache.fetch_plan_s": s("fetch_plan_ns"),
        "cache.solo_calls": layers["solo_calls"],
        "cache.solo_s": s("solo_ns"),
        "cache.solo_ns_per_event": stats.ratio(layers["solo_ns"],
                                               layers["solo_events"]),
        "cache.corun_calls": layers["corun_calls"],
        "cache.corun_s": s("corun_ns"),
        "cache.corun_ns_per_event": stats.ratio(layers["corun_ns"],
                                                layers["corun_events"]),
        "cache.corun_l2_s": s("corun_l2_ns"),
        "perfmodel.profile_s": s("perf_profile_ns"),
        "perfmodel.predict_calls": layers["predict_calls"],
        "perfmodel.schedule_s": s("schedule_ns"),
        "harness.evaluate_all_s": part["evaluate_all_ns"] / 1e9,
        "harness.cells_computed": part["cells_computed"],
        "harness.cells_deduplicated": part["cells_deduplicated"],
        "harness.parallel_efficiency": stats.parallel_efficiency(
            layers["engine_ns"] / 1e9, part["threads"],
            part["evaluate_all_ns"] / 1e9),
    }


SERVICE_LAYER = ("service.hit_share", "service.hit_latency_p50_ms",
                 "service.miss_latency_p50_ms", "service.miss_latency_p99_ms",
                 "service.codec_us", "service.queue_wait_ms",
                 "service.exec_ms")


def service_layer_values(samples):
    """Service-layer metrics; hits and misses split on CostReceipt.cached."""
    ok = [s for s in samples if s["status"] == 0]
    hits = [s["latency_ns"] / 1e6 for s in ok if s["cached"]]
    misses = [s for s in ok if not s["cached"]]
    miss_ms = [s["latency_ns"] / 1e6 for s in misses]

    def median_or_zero(values):
        return statistics.median(values) if values else 0.0

    return {
        "service.hit_share": stats.ratio(len(hits), len(ok)),
        "service.hit_latency_p50_ms": median_or_zero(hits),
        "service.miss_latency_p50_ms": median_or_zero(miss_ms),
        "service.miss_latency_p99_ms":
            stats.percentile(miss_ms, 99) if miss_ms else 0.0,
        "service.codec_us": median_or_zero([s["codec_ns"] / 1e3 for s in ok]),
        "service.queue_wait_ms":
            median_or_zero([s["queue_wait_ns"] / 1e6 for s in misses]),
        "service.exec_ms": median_or_zero([s["exec_ns"] / 1e6 for s in misses]),
    }


def traced_metrics(workload, raw, expected):
    """Per-layer metrics of the traced run. Layers a workload does not reach
    read 0."""
    if workload == "service-mixed":
        part = raw["in_process"]
        samples, correct = service_samples(raw, expected)
        values = layer_values(part)
        values.update(service_layer_values(samples))
        attempted = part["cells"] + len(samples)
        failed = part["failed_cells"] + service_failures(raw, samples)
        notes = [f"service: {len(samples)} jobs over {len(raw['rounds'])} "
                 f"rounds; in-process replay of {part['cells']} cells"]
    else:
        part = raw
        correct = raw["rows"] == expected["rows"]
        values = layer_values(part)
        values.update(dict.fromkeys(SERVICE_LAYER, 0.0))
        attempted = part["cells"]
        failed = part["failed_cells"]
        notes = []
    correct = correct and part["mismatches"] == 0
    if not correct:
        failed = attempted
    overhead = (part["walk_ns"] - part["evaluate_all_ns"]) / 1e9
    notes.append(
        f"tracing overhead {overhead:+.3f} s: traced layer walk "
        f"{part['walk_ns'] / 1e9:.3f} s - untraced evaluate_all "
        f"{part['evaluate_all_ns'] / 1e9:.3f} s; walk cells that differ "
        f"from the Lab's: {part['mismatches']}")
    return values, attempted, failed, correct, notes, overhead


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build(build_dir)

    # Relative to the checkout root, which keeps the daemon's socket path
    # short.
    out_dir = Path(".bench_out") / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(ROOT / out_dir, ignore_errors=True)
    (ROOT / out_dir).mkdir(parents=True)
    expected = json.loads((BENCH / "checksums.json").read_text())[
        args.workload]
    binary = str(build_dir / "perfbench")

    if args.workload != "service-mixed" and not args.trace:
        values, attempted, failed, correct, notes = artifact_metrics(
            run_artifact(binary, args.workload, args.seconds, out_dir),
            expected)
    else:
        raw_path = out_dir / "raw.json"
        trace_path = out_dir / "trace.json"
        if args.workload == "service-mixed":
            cmd = [binary, "service", "--seed", str(args.seed),
                   "--daemon", str(build_dir / "service_daemon"),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if not args.trace:
                cmd += ["--setup-reps", str(DAEMON_SETUP_REPS)]
        else:
            cmd = [binary, "layers", "--workload", args.workload,
                   "--threads", str(engine_threads(args.workload))]
        cmd += ["--trace-out", str(trace_path), "--out", str(raw_path)]
        if run_group(cmd, RUN_TIMEOUT_S) != 0 or \
                not (ROOT / raw_path).is_file():
            fail("perfbench failed")
        raw = json.loads((ROOT / raw_path).read_text())
        if args.trace:
            values, attempted, failed, correct, notes, overhead = \
                traced_metrics(args.workload, raw, expected)
            (ROOT / out_dir / "layers.json").write_text(json.dumps(
                {"metrics": values, "tracing_overhead_s": overhead},
                indent=1))
            notes.append(f"Perfetto trace: {trace_path}")
        else:
            values, attempted, failed, correct, notes = service_metrics(
                raw, expected)

    if set(values) != set(units):
        fail("metric set differs from BENCHMARK.json")
    for note in notes:
        print(f"# {note}")
    if not correct:
        print("# CHECKSUM MISMATCH: every operation counts as failed")
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
