#!/usr/bin/env python3
"""ringent end-to-end benchmark (perfbench).

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 30 --trace 0

Builds ringent and the perfbench runner from source into .bench_build/,
then runs the workload for about --seconds seconds. Every iteration is a
fresh process in a fresh working directory under .bench_build/work/, which
is removed afterwards. With --trace 0 the run reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 it alternates untraced and traced
iterations and reports the per-layer metrics, and the last traced iteration
leaves a Chrome-trace file in .bench_build/traces/.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and every metric.
"""

import argparse
import collections
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "perfbench"
BINARY = CMAKE_DIR / "ringent_perfbench"
WORK_DIR = BUILD_DIR / "work"
TRACE_DIR = BUILD_DIR / "traces"

CAMPAIGNS = ("paper_figures", "entropy_extensions")
WORKLOADS = CAMPAIGNS + ("entropy_service",)
DEFAULT_SEED = 1

# Experiments whose per-cell time is reported as core.cell_s.<experiment>.
EXPERIMENTS = ("voltage_sweep", "process_variability", "jitter_vs_stages",
               "mode_map", "deterministic_jitter", "restart", "entropy_map",
               "attack_resilience")

# Cell-record counter -> per-layer metric.
CELL_COUNTERS = {
    "events_fired": "sim.events_fired",
    "events_scheduled": "sim.events_scheduled",
    "heap_pops": "sim.heap_pops",
    "calendar_pops": "sim.calendar_pops",
    "pool_tasks": "sim.pool_tasks",
    "charlie_evaluations": "ring.charlie_evaluations",
    "token_collision_checks": "ring.token_collision_checks",
    "fault_activations": "noise.fault_activations",
    "health_rct_alarms": "trng.rct_alarms",
    "health_apt_alarms": "trng.apt_alarms",
    "health_bits_muted": "trng.bits_muted",
    "health_relock_attempts": "trng.relock_attempts",
    "health_failovers": "trng.failovers",
    "health_transitions": "trng.transitions",
}

# Service-generator counter (summed over slots) -> per-layer metric.
SERVICE_TRNG = {
    "rct_alarms": "trng.rct_alarms",
    "apt_alarms": "trng.apt_alarms",
    "bits_muted": "trng.bits_muted",
    "relock_attempts": "trng.relock_attempts",
    "failovers": "trng.failovers",
    "transitions": "trng.transitions",
}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs so far, from /proc/stat."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]
    values = [int(f) for f in fields] + [0] * (8 - len(fields))
    return values[7], sum(values)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"ringent sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    compile_cmd = ["cmake", "--build", str(CMAKE_DIR), "-j", str(nproc()),
                   "--target", "ringent_perfbench"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def read_store(store):
    """SHA-256 of the normalized store and the summed cell-record counters.

    The build provenance (manifest "version") is dropped before hashing so
    the digest names the science, not the checkout it was built from.
    """
    digest = hashlib.sha256()
    counters = collections.Counter()
    for path in sorted((store / "cells").glob("*.json")):
        record = json.loads(path.read_text())
        record["manifest"].pop("version", None)
        counters.update(record["manifest"]["counters"])
        digest.update(path.name.encode())
        digest.update(json.dumps(record, sort_keys=True,
                                 separators=(",", ":")).encode())
    index = store / "index.json"
    if index.is_file():
        digest.update(index.read_bytes())
    return digest.hexdigest(), dict(counters)


def git_describe():
    """`git describe` of the checkout the benchmark runs in, read on every run
    so that a build directory reused across checkouts never mislabels it."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    result = subprocess.run(
        ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--tags"],
        env=env, capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def run_iteration(args, jobs, traced, index):
    """One fresh process in a fresh working directory; returns its record."""
    work = WORK_DIR / f"{args.workload}-{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "result.json"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--jobs", str(jobs), "--out", str(out)]
    if args.workload in CAMPAIGNS:
        cmd += ["--plan", str(HERE / "plans" / f"{args.workload}.json")]
    if traced:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("RINGENT_")}
    env["RINGENT_JOBS"] = str(jobs)  # caps every library thread pool

    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)

    record = {"ok": False}
    if proc.returncode == 0 and out.is_file():
        record = json.loads(out.read_text())
        record["ok"] = True
        if args.workload in CAMPAIGNS:
            record["store_sha256"], record["counters"] = read_store(work / "store")
    else:
        print(f"perfbench: iteration {index} exited with {proc.returncode}",
              file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    record["traced"] = traced
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB
    return record


def check_iteration(workload, it, seed, pinned):
    """Correctness gate for one iteration: (operations attempted, failures)."""
    if not it["ok"]:
        return 1, 1  # the process failed; nothing it wrote can be trusted
    if workload in CAMPAIGNS:
        planned = it["planned"]
        checks = [
            (it["error"] == "", f"run_campaign threw: {it['error']}"),
            (it["executed"] == planned and it["cached"] == 0,
             f"cold run executed {it['executed']}/{planned} cells"),
            (it["progress_mismatch"] == 0, "progress order differs from expand_plan"),
            (it["verify_ok"], "verify_campaign not ok"),
            (it["loaded"] == planned, f"{it['loaded']}/{planned} records load"),
            (it.get("warm_cached") == planned and it.get("warm_executed") == 0,
             "warm rerun was not all cache hits"),
        ]
        bad_cells = planned - min(it["verify_valid"], planned)
        attempted = planned + len(checks)
    else:
        checks = [
            (it["delivered"] == it["expected_bytes"],
             f"delivered {it['delivered']} of {it['expected_bytes']} bytes"),
            (it["slots_failed"] == 0, f"{it['slots_failed']} slots failed"),
            (it["slots_exhausted"] == it["slots"], "not every slot drained"),
        ]
        if seed == pinned["seed"]:
            checks.append((it["stream_fnv1a64"] == pinned["stream_fnv1a64"],
                           f"stream FNV {it['stream_fnv1a64']} != pinned "
                           f"{pinned['stream_fnv1a64']}"))
        bad_cells = it["short_calls"] + it["early_starvation"]
        attempted = it["acquire_samples"] + it["early_starvation"] + len(checks)
    failed = bad_cells
    for ok, message in checks:
        if not ok:
            print(f"perfbench: check failed: {message}", file=sys.stderr)
            failed += 1
    return attempted, failed


def exact_fingerprint(workload, it):
    """What must repeat bit for bit between runs of one code and seed."""
    if workload in CAMPAIGNS:
        return {"store_sha256": it["store_sha256"], "counters": it["counters"],
                "sampled_bits": it["sampled_bits"], "planned": it["planned"]}
    keys = ("stream_fnv1a64", "delivered", "raw_bits_in", "conditioned_bytes",
            *SERVICE_TRNG)
    return {k: it[k] for k in keys}


def median_of(iterations, key):
    return statistics.median(it[key] for it in iterations)


def work_done(workload, it):
    """The workload's unit of output: cells, DFF-sampled bits, or bytes."""
    if workload == "paper_figures":
        return it["executed"]
    if workload == "entropy_extensions":
        return it["sampled_bits"]
    return it["delivered"]


def end_to_end(workload, its):
    return {
        "wall_s": median_of(its, "wall_s"),
        "setup_s": median_of(its, "setup_s"),
        "cpu_s": median_of(its, "cpu_s"),
        "peak_rss_mb": median_of(its, "peak_rss_mb"),
        "output_per_s": statistics.median(
            work_done(workload, it) / it["wall_s"] for it in its),
    }


def per_layer(workload, untraced, traced, jobs, failed_fraction):
    """Per-layer metrics: times from the traced iterations, exact counts from
    the cell records or service stats, native end-to-end views from the
    untraced iterations."""
    m = collections.defaultdict(float)
    wall = median_of(traced, "wall_s")
    cpu = median_of(traced, "cpu_s")
    wall_untraced = median_of(untraced, "wall_s")
    last = traced[-1]
    if workload in CAMPAIGNS:
        for key in ("expand_ms", "index_rebuild_ms", "warm_rerun_ms",
                    "verify_ms", "load_records_ms", "store_bytes"):
            m[f"campaign.{key}"] = median_of(traced, key)
        per_exp = collections.defaultdict(float)
        for cell in last["cells"]:
            per_exp[cell["experiment"]] += cell["s"]
        for exp in EXPERIMENTS:
            m[f"core.cell_s.{exp}"] = per_exp.get(exp, 0.0)
        m["core.cell_s_max"] = max((c["s"] for c in last["cells"]), default=0.0)
        m["core.cwd_manifest_files"] = last["cwd_manifest_files"]
        for counter, name in CELL_COUNTERS.items():
            m[name] = last["counters"].get(counter, 0)
        events = m["sim.events_fired"]
        bits = last["sampled_bits"]
        m["sim.events_per_s"] = events / wall
        m["sim.events_per_bit"] = events / bits if bits else 0.0
        m["sim.cpu_utilization"] = cpu / (wall * jobs)
        m["cells_per_s"] = statistics.median(
            it["executed"] / it["wall_s"] for it in untraced)
        m["sampled_bits_per_s"] = statistics.median(
            it["sampled_bits"] / it["wall_s"] for it in untraced)
    else:
        threads = last["workers"] + 1  # pool workers plus the consumer
        m["sim.cpu_utilization"] = cpu / (wall * threads)
        for counter, name in SERVICE_TRNG.items():
            m[name] = last[counter]
        for key in ("requests", "bytes_delivered", "raw_bits_in", "waits",
                    "starvations", "slots_failed", "acquire_samples"):
            m[f"service.{key}"] = last[key]
        m["service.yield"] = last["bytes_delivered"] * 8 / last["raw_bits_in"]
        m["service.wait_fraction"] = last["waits"] / last["requests"]
        for key in ("acquire_p99_us", "acquire_p999_us", "pool_start_ms"):
            m[f"service.{key}"] = median_of(traced, key)
        m["conditioned_mb_per_s"] = statistics.median(
            it["delivered"] / it["wall_s"] / 1e6 for it in untraced)
        m["acquire_p50_us"] = median_of(untraced, "acquire_p50_us")
    m["bench.trace_overhead_fraction"] = wall / wall_untraced - 1.0
    m["failed_fraction"] = failed_fraction
    return m


def host_fingerprint(seed, jobs, it, describe):
    model, flags = "unknown", set()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and model == "unknown":
                model = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
    return {"seed": seed, "nproc": jobs, "cpu_model": model,
            "avx512f": "avx512f" in flags, "sha_ni": "sha_ni" in flags,
            "compiler": it.get("compiler", "unknown"),
            "build_type": it.get("build_type", "unknown"),
            "git_describe": describe}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    build()
    pinned = json.loads((HERE / "pinned.json").read_text())["entropy_service"]

    jobs = nproc()
    # Rounds: one untraced iteration, or an untraced/traced pair whose order
    # alternates. Stop before a round would overrun --seconds, after a
    # minimum count, and always well inside the 180 s run limit.
    min_rounds = 1 if args.trace else 3
    iterations, round_times = [], []
    steal0, total0 = cpu_jiffies()
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        order = [False]
        if args.trace:
            order = [False, True] if len(round_times) % 2 == 0 else [True, False]
        for traced in order:
            iterations.append(run_iteration(args, jobs, traced, len(iterations)))
        round_times.append(time.monotonic() - round_start)
        elapsed = time.monotonic() - start
        estimate = max(round_times)
        if len(round_times) >= min_rounds and elapsed + estimate > args.seconds:
            break
        if elapsed + estimate > 150.0:
            break

    steal1, total1 = cpu_jiffies()
    steal_fraction = (steal1 - steal0) / max(total1 - total0, 1)

    attempted = failed = 0
    for it in iterations:
        a, f = check_iteration(args.workload, it, args.seed, pinned)
        attempted += a
        failed += f
    good = [it for it in iterations if it["ok"]]
    # Exact-count guard: counters, store digest and stream FNV must repeat.
    if good:
        reference = exact_fingerprint(args.workload, good[0])
        for it in good[1:]:
            attempted += 1
            if exact_fingerprint(args.workload, it) != reference:
                failed += 1
                print("perfbench: exact counts drifted between iterations of "
                      "one seed (nondeterminism)", file=sys.stderr)

    untraced = [it for it in good if not it["traced"]]
    traced = [it for it in good if it["traced"]]
    if not untraced or (args.trace and not traced):
        fail("no iteration completed", 4)

    first = good[0]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} untraced={len(untraced)} traced={len(traced)}")
    print("host: " + json.dumps(host_fingerprint(args.seed, jobs, first,
                                                 git_describe())))
    if args.workload in CAMPAIGNS:
        print(f"store_sha256: {first['store_sha256']}  "
              f"({first['planned']} cells)")
    else:
        print(f"stream_fnv1a64: {first['stream_fnv1a64']}  "
              f"({first['delivered']} bytes, {first['workers']} workers)")
        print(f"acquire latency: p50 {first['acquire_p50_us']:.1f} us, "
              f"p99 {first['acquire_p99_us']:.1f} us, "
              f"p999 {first['acquire_p999_us']:.1f} us "
              f"over {first['acquire_samples']} samples")
    print(f"failed_fraction: {failed / max(attempted, 1):.6g} ratio "
          f"({failed}/{attempted})")
    print(f"host steal: {steal_fraction:.4f} of CPU time went to other guests "
          "during the run")
    if traced:
        print(f"trace: {TRACE_DIR / f'{args.workload}-seed{args.seed}.json'}")

    if args.trace:
        values = per_layer(args.workload, untraced, traced, jobs,
                           failed / max(attempted, 1))
        wanted = spec["per_layer"]
    else:
        values = end_to_end(args.workload, untraced)
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = float(values[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']}: {value:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
