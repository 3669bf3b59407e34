#!/usr/bin/env python3
"""Self-tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py

Covers the tail-percentile helper and the SMG_* refusal here, and runs the
driver's own self-tests (seeded inputs, correctness checker) when the driver
has been built by perfbench/run.py.
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        xs = list(range(1, 61))  # n = 60: p90 leaves 6 beyond, p75 leaves 15
        self.assertEqual(run.tail_percentile(xs), (75.0, 45, 15))

    def test_p90_exactly_ten_beyond(self):
        xs = [float(i) for i in range(100)]
        p, value, beyond = run.tail_percentile(xs)
        self.assertEqual((p, beyond), (90.0, 10))
        self.assertEqual(value, 89.0)

    def test_order_does_not_matter(self):
        xs = list(range(1000, 0, -1))
        self.assertEqual(run.tail_percentile(xs), (99.0, 990, 10))

    def test_few_samples_fall_back_to_median_with_count(self):
        p, value, beyond = run.tail_percentile([3.0, 1.0, 2.0])
        self.assertEqual((p, value, beyond), (50.0, 2.0, 1))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.tail_percentile([])


class Environment(unittest.TestCase):
    def test_smg_overrides_are_refused(self):
        env = {"PATH": "/bin", "SMG_DECOMP": "2x2x2", "OMP_NUM_THREADS": "4", "SMG_CYCLE": "f"}
        self.assertEqual(run.refuse_overrides(env), ["SMG_CYCLE", "SMG_DECOMP"])
        self.assertEqual(run.refuse_overrides({"PATH": "/bin"}), [])


class Driver(unittest.TestCase):
    def test_driver_selftest(self):
        driver = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench_driver")
        if not os.path.exists(driver):
            self.skipTest("driver not built; run perfbench/run.py once")
        r = subprocess.run([driver, "--selftest"], capture_output=True, text=True, timeout=120)
        self.assertEqual(r.returncode, 0, r.stderr)


if __name__ == "__main__":
    unittest.main()
