#!/usr/bin/env python3
"""The benchmark's own tests: a failed correctness check is counted.

Runs the benchmark with a deliberate fault and requires the result to be
refused: `correct` false, at least one failed operation, and a non-zero
exit.  Run from the root of a checkout:

    python3 perfbench/test_failures.py
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_with_fault(workload, fault):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "0", "--inject", fault],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stdout


class FailuresAreCounted(unittest.TestCase):
    def assert_refused(self, workload, fault):
        code, result, stdout = run_with_fault(workload, fault)
        self.assertIsNotNone(result, stdout)
        self.assertFalse(result["correct"], stdout)
        self.assertGreaterEqual(result["failed"], 1, stdout)
        self.assertLessEqual(result["failed"], result["attempted"], stdout)
        self.assertNotEqual(code, 0, stdout)

    def test_tampered_certificate_fails_certify(self):
        self.assert_refused("certify", "tampered-cert")

    def test_mistimed_failure_detector_fails_net_launch(self):
        # A 5 ms FD timeout against the 20 ms heartbeat period suspects
        # live nodes: P's accuracy is broken and every launch must say so.
        self.assert_refused("net-launch", "fd-timeout-5ms")


if __name__ == "__main__":
    unittest.main()
