#!/usr/bin/env python3
"""Tests for the repository benchmark (perfbench/run.py).

Run from the root of a checkout:

    python3 perfbench/test_run.py

The parser and metric tests are pure Python. CorruptionGateTest builds
the benchmark like run.py does (about a minute the first time) and runs
cfrac-app through an adapter that hands out overlapping objects; the run
must report "correct": false and exit 1.
"""

import json
import os
import resource
import subprocess
import sys
import unittest

import run

# Renaming or dropping a metric breaks every stored baseline, so the names
# are frozen here as well as in BENCHMARK.json.
FROZEN_END_TO_END = [
    "ops_per_s", "malloc_p50_ns", "malloc_p99_ns", "free_p50_ns",
    "free_p99_ns", "peak_rss_mb", "setup_s", "cpu_s",
]
FROZEN_PER_LAYER = [
    "interpose.malloc_ns", "interpose.free_ns", "tcache.malloc_ns",
    "tcache.free_ns", "tcache.refills_per_kop", "tcache.flushes_per_kop",
    "sharded.malloc_ns", "sharded.free_ns", "sharded.remote_frees_per_kop",
    "sharded.sidecar_drains_per_kop", "sharded.overflow_share",
    "heap.malloc_ns", "heap.free_ns", "heap.lock_wait_ns",
    "partition.probes_per_malloc", "partition.fallback_share",
    "large.mallocs_per_kop", "large.malloc_ns", "large.free_ns",
    "kernel.minflt_per_kop", "kernel.majflt", "kernel.sys_s",
    "kernel.nivcsw", "kernel.teardown_s", "mutator.self_s",
    "ref.glibc_ops_per_s",
    "ref.lea_ops_per_s", "trace.overhead_share",
]


def child_result(**overrides):
    """A well-formed untraced child result as spawn() returns it."""
    result = {
        "workload": "cfrac-app", "rung": "malloc", "timing": "sample",
        "threads": 1, "checksum": 77, "mallocs": 1000, "frees": 1000,
        "failed": 0, "t_start_ns": 3_000_000_000,
        "t_end_ns": 3_500_000_000,
        "malloc_latency": [[90, 1, 98], [2000, 16, 2]],
        "free_latency": [[70, 1, 99], [1500, 8, 1]],
        "small_malloc_calls": 0, "small_malloc_ns": 0,
        "small_free_calls": 0, "small_free_ns": 0,
        "large_malloc_calls": 0, "large_malloc_ns": 0,
        "large_free_calls": 0, "large_free_ns": 0,
        "lock_wait_calls": 0, "lock_wait_ns": 0,
        "t_spawn_ns": 2_990_000_000, "t_reaped_ns": 3_520_000_000,
        "rusage": {"minflt": 5000, "majflt": 0, "nvcsw": 3, "nivcsw": 2,
                   "utime_s": 0.4, "stime_s": 0.1, "maxrss_kb": 2048},
    }
    result.update(overrides)
    return result


class ParserTest(unittest.TestCase):
    def test_rusage_fields(self):
        # struct_rusage order: utime, stime, maxrss, ixrss, idrss, isrss,
        # minflt, majflt, nswap, inblock, oublock, msgsnd, msgrcv,
        # nsignals, nvcsw, nivcsw.
        ru = resource.struct_rusage(
            (1.5, 0.25, 4096, 0, 0, 0, 700, 2, 0, 0, 0, 0, 0, 0, 9, 4))
        self.assertEqual(run.parse_rusage(ru), {
            "minflt": 700, "majflt": 2, "nvcsw": 9, "nivcsw": 4,
            "utime_s": 1.5, "stime_s": 0.25, "maxrss_kb": 4096})

    def test_child_output_takes_the_result_line(self):
        text = ("noise\nPERFBENCH_CHILD {\"checksum\": 1}\n"
                "PERFBENCH_CHILD {\"checksum\": 2}\ntrailing\n")
        self.assertEqual(run.parse_child_output(text), {"checksum": 2})

    def test_child_output_without_result_line_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.parse_child_output("a crash message\n")

    def test_stats_dump_takes_the_last_line(self):
        text = ('{"diehard_stats":{"allocations":1,"probes":1}}\n'
                '{"diehard_stats":{"allocations":10,"probes":12}}\n\n')
        self.assertEqual(run.parse_stats_dump(text),
                         {"allocations": 10, "probes": 12})

    def test_empty_stats_dump_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.parse_stats_dump("\n")


class MetricTest(unittest.TestCase):
    def test_child_metrics_from_stamps_and_rusage(self):
        m = run.child_metrics(child_result())
        self.assertAlmostEqual(m["ops_per_s"], 2000 / 0.5)
        self.assertAlmostEqual(m["setup_s"], 0.01)
        self.assertAlmostEqual(m["teardown_s"], 0.02)
        self.assertAlmostEqual(m["cpu_s"], 0.5)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)

    def test_pooled_quantile_interpolates_inside_the_bucket(self):
        histograms = [[[10, 1, 1], [20, 2, 2]], [[20, 2, 1], [40, 4, 1]]]
        # Five samples; rank 2 is the second of three in [20, 22).
        self.assertEqual(run.pooled_quantile(histograms, 0.5), (21.0, 5))
        value, _ = run.pooled_quantile(histograms, 0.99)
        self.assertAlmostEqual(value, 20 + 2 * 2.5 / 3)

    def test_end_to_end_takes_medians_and_pools_latency(self):
        fast = child_result(t_end_ns=3_250_000_000)
        m = run.end_to_end([child_result(), fast, child_result()])
        self.assertLessEqual(set(run.END_TO_END) | {run.TEARDOWN}, set(m))
        self.assertAlmostEqual(m["ops_per_s"], 2000 / 0.5)
        # 300 samples: rank 149 is the 150th of 294 in [90, 91), rank 296
        # the third of six in [2000, 2016).
        self.assertAlmostEqual(m["malloc_p50_ns"], 90 + 149.5 / 294)
        self.assertAlmostEqual(m["malloc_p99_ns"], 2000 + 16 * 2.5 / 6)

    def test_clean_child_passes_the_checks(self):
        self.assertEqual(run.check(child_result(), child_result()), [])

    def test_checks_catch_each_defect(self):
        ref = child_result()
        cases = {
            "checksum": child_result(checksum=78),
            "frees": child_result(frees=999),
            "attempted": child_result(mallocs=999, frees=999),
            "large": child_result(large_malloc_calls=3, large_free_calls=2),
            "heap counts": child_result(stats={
                "allocations": 5, "frees": 4, "large_allocations": 0,
                "large_frees": 0}),
        }
        for what, result in cases.items():
            with self.subTest(what=what):
                self.assertEqual(len(run.check(result, ref)), 1)


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_names_are_frozen(self):
        self.assertEqual(list(run.END_TO_END), FROZEN_END_TO_END)
        self.assertEqual(list(run.PER_LAYER), FROZEN_PER_LAYER)

    def test_benchmark_json_matches_the_script(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertLessEqual(set(names), set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"]
                          for m in self.spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"]
                          for m in self.spec["per_layer"]}, run.PER_LAYER)


class CorruptionGateTest(unittest.TestCase):
    def test_overlapping_objects_fail_the_run(self):
        done = subprocess.run(
            [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
             "--workload", "cfrac-app", "--seed", "5", "--seconds", "0",
             "--corrupt-every", "7"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(done.returncode, 1, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertIn("differs from the glibc reference", done.stdout)


if __name__ == "__main__":
    unittest.main()
