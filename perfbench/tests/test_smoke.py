"""Smoke test of the benchmark: every workload, briefly, in both modes.

    python3 -m unittest discover -s perfbench/tests

Fails unless every end-to-end and per-layer metric BENCHMARK.json names is
printed with its unit, every run reports correct, and no operation failed
(the short mode of perfbench/run.py does the checking).
"""

import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "run.py")


class SmokeTest(unittest.TestCase):
    def test_every_workload_prints_every_metric(self):
        done = subprocess.run([sys.executable, RUN, "--smoke"], timeout=1800,
                              check=False)
        self.assertEqual(done.returncode, 0, "run.py --smoke failed")


if __name__ == "__main__":
    unittest.main()
