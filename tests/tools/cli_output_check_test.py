#!/usr/bin/env python3
"""End-to-end tests of the cextend CLI's output check and flag parsing.

The CLI evaluates the DCs on every output it writes. A --method=hybrid run
promises a DC-clean output (Prop. 5.5), so a violation must fail it (exit 1,
tables still written); the baselines ignore DCs by design, so their
violations are only reported.

Numeric flags are parsed strictly: a value that is not plain decimal digits
within the flag's range prints usage and exits 2 before anything runs.

Three owners share two houses under a one-owner-per-house DC. A baseline
therefore always violates it, and so does a hybrid stream written without
the DC: the manifest binds the plan, and the plan does not depend on the
DCs, so `--resume` under the stricter spec replays that stream unchanged.

Usage: cli_output_check_test.py, with CEXTEND_CLI naming the built
cextend_cli binary.
"""

import os
import re
import subprocess
import tempfile
import unittest

CLI = os.environ.get("CEXTEND_CLI", "cextend_cli")

PERSONS = """pid,Age,Rel,hid
1,40,Owner,
2,38,Owner,
3,12,Child,
4,70,Owner,
5,35,Spouse,
6,9,Child,
"""
HOUSING = """hid,Area
1,Chicago
2,Chicago
"""
CC = 'cc chicago: COUNT(Area = "Chicago") = 6\n'
DC = 'dc one_owner: !(t0.Rel = "Owner" & t1.Rel = "Owner")\n'

VIOLATIONS_RE = re.compile(r"^DC error: .* (\d+) violations\)$", re.M)


class CliTestCase(unittest.TestCase):
    """Runs the CLI on the three-owner instance in a fresh directory."""

    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.dir = self._dir.name
        for name, text in [("persons.csv", PERSONS), ("housing.csv", HOUSING),
                           ("cc_only.txt", CC), ("cc_dc.txt", CC + DC)]:
            with open(os.path.join(self.dir, name), "w") as f:
                f.write(text)

    def tearDown(self):
        self._dir.cleanup()

    def run_cli(self, spec, *extra):
        return subprocess.run(
            [CLI, "--r1=persons.csv",
             "--r1-schema=pid:int,Age:int,Rel:str,hid:int",
             "--r2=housing.csv", "--r2-schema=hid:int,Area:str",
             "--key1=pid", "--fk=hid", "--key2=hid",
             "--constraints=" + spec, *extra],
            cwd=self.dir, capture_output=True, text=True, timeout=120)

    def violations(self, proc):
        m = VIOLATIONS_RE.search(proc.stdout)
        self.assertIsNotNone(m, proc.stdout)
        return int(m.group(1))


class CliOutputCheckTest(CliTestCase):
    def test_baseline_violation_is_only_reported(self):
        proc = self.run_cli("cc_dc.txt", "--method=baseline")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertGreater(self.violations(proc), 0)

    def test_hybrid_clean_output_passes(self):
        proc = self.run_cli("cc_dc.txt")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(self.violations(proc), 0)

    def test_hybrid_violation_fails_the_run(self):
        first = self.run_cli("cc_only.txt", "--stream-out=out.stream")
        self.assertEqual(first.returncode, 0, first.stderr)
        os.remove(os.path.join(self.dir, "r1_hat.csv"))

        resumed = self.run_cli("cc_dc.txt", "--stream-out=out.stream",
                               "--resume")
        self.assertEqual(resumed.returncode, 1, resumed.stdout)
        self.assertGreater(self.violations(resumed), 0)
        self.assertIn("output violates denial constraints", resumed.stderr)
        # The tables are written before the run fails, for inspection.
        self.assertTrue(os.path.exists(os.path.join(self.dir, "r1_hat.csv")))


class CliNumericFlagTest(CliTestCase):
    BAD_VALUES = [
        "--timeout-ms=10s",     # suffix
        "--timeout-ms=-5",      # negative
        "--seed=abc",           # no digits
        "--seed=+3",            # sign
        "--seed=18446744073709551616",  # 2^64 overflows
        "--threads=-1",         # would wrap to SIZE_MAX
        "--threads=0",          # below range
        "--threads= 2",         # leading space
        "--shards=1.5",         # trailing characters
        "--max-resident-shards=",  # empty
        "--max-attempts=0",     # below range
    ]

    def test_malformed_numbers_print_usage_and_exit_2(self):
        for flag in self.BAD_VALUES:
            with self.subTest(flag=flag):
                proc = self.run_cli("cc_dc.txt", flag)
                self.assertEqual(proc.returncode, 2, proc.stdout)
                self.assertIn("usage:", proc.stderr)
                self.assertEqual(proc.stdout, "")
                self.assertFalse(
                    os.path.exists(os.path.join(self.dir, "r1_hat.csv")))

    def test_well_formed_numbers_run(self):
        proc = self.run_cli("cc_dc.txt", "--seed=18446744073709551615",
                            "--threads=2", "--shards=0",
                            "--max-resident-shards=1", "--timeout-ms=600000",
                            "--max-attempts=1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(self.violations(proc), 0)


if __name__ == "__main__":
    unittest.main()
