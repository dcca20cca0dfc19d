#!/usr/bin/env python3
"""The repository benchmark: the DieHard shim as people run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload larson-server --seed 1 \
        --seconds 15 --trace 0

The script builds the DieHard library, the libdiehard.so shim and the
workload child (perfbench/child.cpp) from the checkout's sources, then
fork+execs the child once per measurement and reads its result line and
its wait4 rusage.

--trace 0 measures the shim end to end: libdiehard.so LD_PRELOADed into
the child in its default configuration (one shard per CPU, thread cache
K = 32, sweeper off, DIEHARD_SEED fixed). Each child runs the workload once;
children repeat until --seconds have passed and every metric is the median
over them. One warm-up child runs first and is reported but excluded.

--trace 1 runs the layer ladder instead: the same workload and seed
through the shim with every call timed, then through an in-process
ShardedHeap with (tcache) and without (sharded) thread caches, and through
one DieHardHeap behind a lock (heap), each in its own child, plus glibc
and the in-tree Lea allocator as references.

Every child's workload checksum must equal the one a glibc child computes
from the same seed, every allocation must be freed, and the in-process
heaps' counters must balance; otherwise the run prints "correct": false
and exits 1. The last line of standard output is the result as JSON.
"""

import argparse
import collections
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

WORKLOADS = ("larson-server", "cfrac-app", "fragment-mixed")

# The shim's placement seed; only the workload seed varies between runs.
SHIM_SEED = "23459"

# The metrics --trace 0 reports, in BENCHMARK.json's order, with units.
END_TO_END = {
    "ops_per_s": "ops/s",
    "malloc_p50_ns": "ns",
    "malloc_p99_ns": "ns",
    "free_p50_ns": "ns",
    "free_p99_ns": "ns",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "cpu_s": "s",
}

# Printed with the end-to-end metrics but not gated: its run-to-run spread
# on the development VM reached 0.31, above the largest bound a gated metric
# may have (README.md, Run-to-run spread). The traced run reports it as
# kernel.teardown_s.
TEARDOWN = "teardown_s"

# The metrics --trace 1 reports.
PER_LAYER = {
    "interpose.malloc_ns": "ns",
    "interpose.free_ns": "ns",
    "tcache.malloc_ns": "ns",
    "tcache.free_ns": "ns",
    "tcache.refills_per_kop": "count/kop",
    "tcache.flushes_per_kop": "count/kop",
    "sharded.malloc_ns": "ns",
    "sharded.free_ns": "ns",
    "sharded.remote_frees_per_kop": "count/kop",
    "sharded.sidecar_drains_per_kop": "count/kop",
    "sharded.overflow_share": "ratio",
    "heap.malloc_ns": "ns",
    "heap.free_ns": "ns",
    "heap.lock_wait_ns": "ns",
    "partition.probes_per_malloc": "count",
    "partition.fallback_share": "ratio",
    "large.mallocs_per_kop": "count/kop",
    "large.malloc_ns": "ns",
    "large.free_ns": "ns",
    "kernel.minflt_per_kop": "count/kop",
    "kernel.majflt": "count",
    "kernel.sys_s": "s",
    "kernel.nivcsw": "count",
    "kernel.teardown_s": "s",
    "mutator.self_s": "s",
    "ref.glibc_ops_per_s": "ops/s",
    "ref.lea_ops_per_s": "ops/s",
    "trace.overhead_share": "ratio",
}

MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """A child failed to run or to report; the run cannot produce numbers."""


def log(*parts):
    print(*parts, flush=True)


# --- Building ---------------------------------------------------------------

def build():
    """Configures and builds perfbench/ under the build directory; returns
    the paths of the child binary and of libdiehard.so."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            raise BenchError("build step failed: " + " ".join(step))
    child = os.path.join(build_dir, "perfbench_child")
    # perfbench/CMakeLists.txt builds the repository into the "diehard"
    # subdirectory of the build tree.
    shim = os.path.join(build_dir, "diehard", "libdiehard.so")
    if not os.path.exists(child) or not os.path.exists(shim):
        raise BenchError("build produced no perfbench_child or libdiehard.so")
    return child, shim


# --- Children ----------------------------------------------------------------

def child_env(shim=None, stats_file=None):
    """The child's environment: the parent's minus every DIEHARD_* setting
    and LD_PRELOAD, plus the shim in its default configuration."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DIEHARD_") and k != "LD_PRELOAD"}
    if shim is not None:
        env["LD_PRELOAD"] = shim
        env["DIEHARD_SEED"] = SHIM_SEED
    if stats_file is not None:
        env["DIEHARD_STATS"] = stats_file
    return env


def parse_rusage(ru):
    """The wait4 rusage fields the benchmark uses, as plain numbers."""
    return {
        "minflt": int(ru.ru_minflt),
        "majflt": int(ru.ru_majflt),
        "nvcsw": int(ru.ru_nvcsw),
        "nivcsw": int(ru.ru_nivcsw),
        "utime_s": float(ru.ru_utime),
        "stime_s": float(ru.ru_stime),
        "maxrss_kb": int(ru.ru_maxrss),
    }


def parse_child_output(text):
    """Returns the JSON object of the child's PERFBENCH_CHILD line."""
    for line in reversed(text.splitlines()):
        if line.startswith("PERFBENCH_CHILD "):
            return json.loads(line[len("PERFBENCH_CHILD "):])
    raise BenchError("child printed no result line")


def parse_stats_dump(text):
    """Returns the counters of the last {"diehard_stats": {...}} line the
    shim appended to its DIEHARD_STATS file."""
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line:
            return json.loads(line)["diehard_stats"]
    raise BenchError("empty DIEHARD_STATS dump")


def spawn(argv, env):
    """Fork+execs one child and returns its result line merged with its
    wait4 rusage and the parent's CLOCK_MONOTONIC stamps."""
    read_end, write_end = os.pipe()
    t_spawn = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    pid = os.posix_spawn(argv[0], argv, env, file_actions=[
        (os.POSIX_SPAWN_DUP2, write_end, 1),
        (os.POSIX_SPAWN_CLOSE, read_end)])
    os.close(write_end)
    chunks = []
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        sel.register(read_end, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not sel.select(left):
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
                os.close(read_end)
                raise BenchError("child timed out: " + " ".join(argv[1:]))
            chunk = os.read(read_end, 65536)
            if not chunk:
                break
            chunks.append(chunk)
    os.close(read_end)
    _, status, ru = os.wait4(pid, 0)
    t_reaped = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    if not os.WIFEXITED(status) or os.WEXITSTATUS(status) != 0:
        raise BenchError("child failed (wait status %d): %s"
                         % (status, " ".join(argv[1:])))
    result = parse_child_output(b"".join(chunks).decode())
    result["rusage"] = parse_rusage(ru)
    result["t_spawn_ns"] = t_spawn
    result["t_reaped_ns"] = t_reaped
    return result


def run_child(child, workload, rung, seed, timing, shim=None,
              stats_file=None, corrupt_every=0):
    argv = [child, workload, rung, str(seed), timing]
    if corrupt_every:
        argv.append(str(corrupt_every))
    return spawn(argv, child_env(shim, stats_file))


# --- Checks and per-child numbers -------------------------------------------

def check(result, reference):
    """Lists every way a child's run differs from a correct one."""
    name = result["rung"] + "/" + result["timing"]
    problems = []
    if result["checksum"] != reference["checksum"]:
        problems.append("%s: checksum %d differs from the glibc reference %d"
                        % (name, result["checksum"], reference["checksum"]))
    if result["mallocs"] != result["frees"]:
        problems.append("%s: %d mallocs but %d frees"
                        % (name, result["mallocs"], result["frees"]))
    if result["mallocs"] + result["failed"] != reference["mallocs"]:
        problems.append("%s: %d allocations attempted, the reference made %d"
                        % (name, result["mallocs"] + result["failed"],
                           reference["mallocs"]))
    if result["large_malloc_calls"] != result["large_free_calls"]:
        problems.append("%s: %d large mallocs but %d large frees"
                        % (name, result["large_malloc_calls"],
                           result["large_free_calls"]))
    stats = result.get("stats")
    if stats is not None:
        if stats["allocations"] != stats["frees"]:
            problems.append("%s: heap counts %d allocations but %d frees"
                            % (name, stats["allocations"], stats["frees"]))
        if stats["large_allocations"] != stats["large_frees"]:
            problems.append("%s: heap counts %d large allocations but %d "
                            "large frees" % (name, stats["large_allocations"],
                                             stats["large_frees"]))
    return problems


def wall_s(result):
    return (result["t_end_ns"] - result["t_start_ns"]) / 1e9


def ops(result):
    return result["mallocs"] + result["frees"]


def child_metrics(result):
    """The end-to-end metrics one untraced shim child yields on its own;
    the latency percentiles come from pooled_quantile() instead."""
    ru = result["rusage"]
    return {
        "ops_per_s": ops(result) / wall_s(result),
        "peak_rss_mb": ru["maxrss_kb"] / 1024.0,
        "setup_s": (result["t_start_ns"] - result["t_spawn_ns"]) / 1e9,
        "teardown_s": (result["t_reaped_ns"] - result["t_end_ns"]) / 1e9,
        "cpu_s": ru["utime_s"] + ru["stime_s"],
    }


def pooled_quantile(histograms, q):
    """Quantile `q` of the latency samples of all `histograms` together
    (lists of [low, width, count] buckets as the child prints them),
    interpolated linearly inside its bucket; returns the value in ns and
    the number of samples."""
    counts = collections.Counter()
    for histogram in histograms:
        for low, width, count in histogram:
            counts[(low, width)] += count
    total = sum(counts.values())
    if total == 0:
        raise BenchError("no latency samples")
    rank = int(q * (total - 1))
    seen = 0
    for low, width in sorted(counts):
        count = counts[(low, width)]
        if seen + count > rank:
            return low + width * (rank - seen + 0.5) / count, total
        seen += count
    raise AssertionError("unreachable")


def end_to_end(children):
    """The end-to-end metrics of a run: the median over its children, and
    percentiles of all their latency samples pooled."""
    per_child = [child_metrics(c) for c in children]
    metrics = {name: statistics.median(c[name] for c in per_child)
               for name in per_child[0]}
    for kind in ("malloc", "free"):
        histograms = [c[kind + "_latency"] for c in children]
        for label, q in (("p50", 0.50), ("p99", 0.99)):
            metrics["%s_%s_ns" % (kind, label)], samples = pooled_quantile(
                histograms, q)
        log("  %s latency: %d samples, %d beyond p99"
            % (kind, samples, samples - int(0.99 * (samples - 1)) - 1))
    return metrics


def mean_ns(result, path):
    calls = result[path + "_calls"]
    return result[path + "_ns"] / calls if calls else 0.0


def per_kop(count, result):
    return count * 1000.0 / ops(result)


def share(part, whole):
    return part / whole if whole else 0.0


def per_layer(shim, dump, tcache, sharded, heap, glibc, lea, untraced):
    """The per-layer metrics from one traced child per rung; `untraced`
    holds the end-to-end metrics of the run's untraced shim children."""
    ru = shim["rusage"]
    span_s = sum(shim[p + "_ns"] for p in
                 ("small_malloc", "small_free", "large_malloc",
                  "large_free")) / 1e9
    ss = sharded["stats"]
    return {
        "interpose.malloc_ns": mean_ns(shim, "small_malloc"),
        "interpose.free_ns": mean_ns(shim, "small_free"),
        "tcache.malloc_ns": mean_ns(tcache, "small_malloc"),
        "tcache.free_ns": mean_ns(tcache, "small_free"),
        "tcache.refills_per_kop": per_kop(dump["cache_refills"], shim),
        "tcache.flushes_per_kop": per_kop(dump["cache_flushes"], shim),
        "sharded.malloc_ns": mean_ns(sharded, "small_malloc"),
        "sharded.free_ns": mean_ns(sharded, "small_free"),
        "sharded.remote_frees_per_kop": per_kop(ss["remote_frees"], sharded),
        "sharded.sidecar_drains_per_kop":
            per_kop(ss["sidecar_drains"], sharded),
        "sharded.overflow_share": share(ss["overflow"], ss["allocations"]),
        "heap.malloc_ns": mean_ns(heap, "small_malloc"),
        "heap.free_ns": mean_ns(heap, "small_free"),
        "heap.lock_wait_ns": mean_ns(heap, "lock_wait"),
        "partition.probes_per_malloc":
            share(dump["probes"], dump["allocations"]),
        "partition.fallback_share":
            share(ss["probe_fallbacks"], ss["allocations"]),
        "large.mallocs_per_kop": per_kop(shim["large_malloc_calls"], shim),
        "large.malloc_ns": mean_ns(shim, "large_malloc"),
        "large.free_ns": mean_ns(shim, "large_free"),
        "kernel.minflt_per_kop": per_kop(ru["minflt"], shim),
        "kernel.majflt": ru["majflt"],
        "kernel.sys_s": ru["stime_s"],
        "kernel.nivcsw": ru["nivcsw"],
        "kernel.teardown_s": untraced[TEARDOWN],
        "mutator.self_s": wall_s(shim) * shim["threads"] - span_s,
        "ref.glibc_ops_per_s": ops(glibc) / wall_s(glibc),
        "ref.lea_ops_per_s": ops(lea) / wall_s(lea),
        "trace.overhead_share": wall_s(shim) / untraced["wall_s"] - 1.0,
    }


def ratio_bases(shim, dump, tcache, sharded, heap, untraced_wall):
    """One line per ratio metric naming its numerator and denominator."""
    ss = sharded["stats"]
    large_s = (shim["large_malloc_ns"] + shim["large_free_ns"]) / 1e9
    return [
        "tcache.*_per_kop: shim dump refills %d, flushes %d over %d ops"
        % (dump["cache_refills"], dump["cache_flushes"], ops(shim)),
        "sharded.*_per_kop: remote frees %d, sidecar drains %d over %d ops; "
        "overflow %d of %d allocations" % (
            ss["remote_frees"], ss["sidecar_drains"], ops(sharded),
            ss["overflow"], ss["allocations"]),
        "partition.probes_per_malloc: shim dump probes %d over %d "
        "allocations" % (dump["probes"], dump["allocations"]),
        "partition.fallback_share: sharded-rung fallbacks %d over %d "
        "allocations" % (ss["probe_fallbacks"], ss["allocations"]),
        "large.mallocs_per_kop: %d large mallocs over %d ops"
        % (shim["large_malloc_calls"], ops(shim)),
        "large share of traced shim thread time: %.3f (%.3f s of %.3f s x "
        "%d threads)" % (share(large_s, wall_s(shim) * shim["threads"]),
                         large_s, wall_s(shim), shim["threads"]),
        "kernel.minflt_per_kop: %d minor faults over %d ops"
        % (shim["rusage"]["minflt"], ops(shim)),
        "heap.lock_wait_ns: %d ns over %d acquisitions"
        % (heap["lock_wait_ns"], heap["lock_wait_calls"]),
        "trace.overhead_share: traced %.3f s over untraced median %.3f s"
        % (wall_s(shim), untraced_wall),
        "tcache rung heap counts: refills %d, flushes %d over %d ops"
        % (tcache["stats"]["cache_refills"], tcache["stats"]["cache_flushes"],
           ops(tcache)),
    ]


# --- Runs --------------------------------------------------------------------

class Run:
    """Spawns the children of one benchmark run and gathers their checks."""

    def __init__(self, child, shim, workload, seed, corrupt_every=0):
        self.child, self.shim = child, shim
        self.workload, self.seed = workload, seed
        self.corrupt_every = corrupt_every
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.reference = run_child(child, workload, "malloc", seed, "sample")

    def spawn(self, rung, timing, shim=True, stats_file=None):
        result = run_child(self.child, self.workload, rung, self.seed, timing,
                           shim=self.shim if shim else None,
                           stats_file=stats_file,
                           corrupt_every=self.corrupt_every if shim else 0)
        self.problems += check(result, self.reference)
        self.attempted += result["mallocs"] + result["failed"]
        self.failed += result["failed"]
        return result

    def untraced(self, seconds):
        """A warm-up child, then shim children until `seconds` pass."""
        warm = child_metrics(self.spawn("malloc", "sample"))
        children = []
        start = time.monotonic()
        while (len(children) < MIN_CHILDREN
               or time.monotonic() - start < seconds):
            children.append(self.spawn("malloc", "sample"))
        median_ops = statistics.median(child_metrics(c)["ops_per_s"]
                                       for c in children)
        log("warm-up shim child (excluded from the medians): %.0f ops/s, "
            "%.2fx the median of the %d measured children"
            % (warm["ops_per_s"], warm["ops_per_s"] / median_ops,
               len(children)))
        return children


def report_end_to_end(children):
    metrics = end_to_end(children)
    per_child = [child_metrics(c) for c in children]
    for name, unit in list(END_TO_END.items()) + [(TEARDOWN, "s")]:
        line = "  %-16s %14.4f %-6s" % (name, metrics[name], unit)
        if name in per_child[0]:
            values = sorted(c[name] for c in per_child)
            line += " (median of %d children, min %.4f, max %.4f)" % (
                len(values), values[0], values[-1])
        else:
            line += " (all children's samples pooled)"
        if name == TEARDOWN:
            line += ", not gated"
        log(line)
    return metrics


def run_trace(run, seconds, stats_dir):
    children = run.untraced(seconds)
    untraced = end_to_end(children)
    untraced["wall_s"] = statistics.median(wall_s(c) for c in children)
    stats_file = os.path.join(stats_dir, "shim-stats.json")
    if os.path.exists(stats_file):
        os.unlink(stats_file)
    shim = run.spawn("malloc", "trace", stats_file=stats_file)
    with open(stats_file) as f:
        dump = parse_stats_dump(f.read())
    os.unlink(stats_file)
    tcache = run.spawn("tcache", "trace", shim=False)
    sharded = run.spawn("sharded", "trace", shim=False)
    heap = run.spawn("heap", "trace", shim=False)
    # The reference child ran first, on a cold machine; time glibc again.
    glibc = run.spawn("malloc", "sample", shim=False)
    lea = run.spawn("lea", "sample", shim=False)
    metrics = per_layer(shim, dump, tcache, sharded, heap, glibc, lea,
                        untraced)
    for name, unit in PER_LAYER.items():
        log("  %-32s %14.4f %s" % (name, metrics[name], unit))
    for line in ratio_bases(shim, dump, tcache, sharded, heap,
                            untraced["wall_s"]):
        log("  base: " + line)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-every", type=int, default=0,
                        help="test hook: make the adapter hand out "
                             "overlapping objects (see child.cpp)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        child, shim = build()
        run = Run(child, shim, args.workload, args.seed, args.corrupt_every)
        log("%s, seed %d, %d worker thread(s), shim %s"
            % (args.workload, args.seed, run.reference["threads"],
               os.path.relpath(shim, ROOT)))
        if args.trace:
            metrics = run_trace(run, args.seconds, os.path.dirname(child))
            units = PER_LAYER
        else:
            metrics = report_end_to_end(run.untraced(args.seconds))
            units = END_TO_END
    except BenchError as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 2

    for problem in run.problems:
        log("INCORRECT: " + problem)
    log("failed_share: %.6f (%d failed of %d attempted allocations)"
        % (run.failed / run.attempted, run.failed, run.attempted))
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
