#!/usr/bin/env python3
"""The benchmark's own tests: BENCHMARK.json is well formed, and a smoke run
of every workload yields every named metric, finite, with every correctness
check run and passed.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SpecTest(unittest.TestCase):
    def test_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         {"nt_open", "nt_closed_skew", "lookup_large", "failover"})
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


class SmokeTest(unittest.TestCase):
    def test_smoke_run(self):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                              capture_output=True, text=True, cwd=ROOT, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        spec = load_spec()
        seen = {}
        for line in proc.stdout.splitlines():
            parts = line.split()
            if len(parts) == 4 and not line.startswith("#"):
                seen.setdefault(parts[0], set()).add(parts[1])
        wanted = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
        for w in spec["workloads"]:
            self.assertEqual(wanted - seen.get(w["name"], set()), set(), w["name"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
