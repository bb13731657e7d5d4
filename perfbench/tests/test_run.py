"""Tests of perfbench/run.py that need no build: command-line exit codes and
the refusal to run outside a full checkout.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
RUN = os.path.join(PERFBENCH, "run.py")


def run(args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=60)


class CommandLine(unittest.TestCase):
    def test_help_exits_zero(self):
        result = run(["--help"])
        self.assertEqual(result.returncode, 0)
        self.assertIn("--workload", result.stdout)

    def test_usage_errors_exit_two(self):
        cases = [
            [],                                          # no workload
            ["--workload", "nosuch"],                    # unknown workload
            ["--workload", "fabric", "--bogus"],         # unknown flag
            ["--workload", "fabric", "--seed"],          # missing value
            ["--workload", "fabric", "--seed", "x"],     # malformed value
            ["--workload", "fabric", "--seed", "-1"],    # negative seed
            ["--workload", "fabric", "--trace", "2"],    # trace is 0 or 1
            ["--workload", "fabric", "--seconds", "0"],  # empty run
        ]
        for args in cases:
            with self.subTest(args=args):
                result = run(args)
                self.assertEqual(result.returncode, 2, result.stderr)
                self.assertEqual(result.stdout, "")


class IncompleteCheckout(unittest.TestCase):
    def test_without_sources_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(PERFBENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            result = run(["--workload", "fabric", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp,
                         script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(result.returncode, 0)
            self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    unittest.main()
