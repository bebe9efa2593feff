#!/usr/bin/env python3
"""Unit tests for tools/compare_outputs.py, run on fake build trees.

Each fake tree holds a shell stub for every bench the tool runs, so the
tool's own behaviour — sweep and non-digest lines ignored, the first
difference reported with exit 1, no report left in the caller's directory —
is covered by ctest without building or running a real bench. Each case
shells out to the real script.
"""

import importlib.util
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "compare_outputs.py")

_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)
BENCHES = sorted({bench for bench, _, _ in compare_outputs.RUNS})

# A stub bench: a table line naming itself and its arguments, a digest, a
# sweep line that differs run to run, and a report in its working directory.
STUB = """#!/bin/sh
echo "table {name} $*"
echo "digest: {digest}"
echo "sweep: wall $$ s"
echo "{extra}"
echo "{{}}" > BENCH_{name}.json
exit {status}
"""


class CompareOutputsTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def tree(self, name, overrides=None):
        """A fake build tree; `overrides` maps a bench to stub fields."""
        bench_dir = os.path.join(self._dir.name, name, "bench")
        os.makedirs(bench_dir)
        for bench in BENCHES:
            fields = {"name": bench, "digest": "abc", "extra": "row 1", "status": 0}
            fields.update((overrides or {}).get(bench, {}))
            path = os.path.join(bench_dir, bench)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(STUB.format(**fields))
            os.chmod(path, 0o755)
        return os.path.join(self._dir.name, name)

    def compare(self, parent, change):
        cwd = os.path.join(self._dir.name, "cwd")
        os.makedirs(cwd, exist_ok=True)
        result = subprocess.run(
            [sys.executable, SCRIPT, parent, change],
            capture_output=True,
            text=True,
            cwd=cwd,
        )
        return result, os.listdir(cwd)

    def test_identical_trees_pass_with_one_line_per_run(self):
        result, left_behind = self.compare(self.tree("a"), self.tree("b"))
        self.assertEqual(result.returncode, 0, result.stdout)
        lines = result.stdout.splitlines()
        self.assertEqual(len(lines), len(compare_outputs.RUNS))
        self.assertTrue(all(line.startswith("identical") for line in lines))
        self.assertIn("identical  fig1_overflow_waste --jobs 1", lines)
        self.assertIn("identical  chaos_unified --jobs 8", lines)
        self.assertIn(
            "identical  scale_elastic --jobs 8 --max-devices 50000", lines
        )
        self.assertEqual(left_behind, [])  # no BENCH_*.json in the caller's tree

    def test_first_difference_fails_and_stops(self):
        change = self.tree("b", {"fig3_buffer_prefetch": {"extra": "row 2"}})
        result, _ = self.compare(self.tree("a"), change)
        self.assertEqual(result.returncode, 1)
        self.assertIn("DIFFERENT  fig3_buffer_prefetch --jobs 1", result.stdout)
        self.assertIn("parent: row 1", result.stdout)
        self.assertIn("change: row 2", result.stdout)
        # Runs after the first difference are not made.
        self.assertNotIn("fig3_buffer_prefetch --jobs 8", result.stdout)
        self.assertNotIn("fig4", result.stdout)

    def test_scale_million_compares_only_its_digest_lines(self):
        rows = self.tree("b", {"scale_million": {"extra": "rate 9e9/s"}})
        result, _ = self.compare(self.tree("a"), rows)
        self.assertEqual(result.returncode, 0, result.stdout)

        digest = self.tree("c", {"scale_million": {"digest": "abd"}})
        result, _ = self.compare(self.tree("d"), digest)
        self.assertEqual(result.returncode, 1)
        self.assertIn("DIFFERENT  scale_million", result.stdout)

    def test_exit_status_is_compared(self):
        failing = self.tree("b", {"chaos_recovery": {"status": 3}})
        result, _ = self.compare(self.tree("a"), failing)
        self.assertEqual(result.returncode, 1)
        self.assertIn("DIFFERENT  chaos_recovery --jobs 1", result.stdout)
        self.assertIn("exit status 3", result.stdout)

    def test_missing_bench_fails(self):
        change = self.tree("b")
        os.remove(os.path.join(change, "bench", "scale_autoscale"))
        result, _ = self.compare(self.tree("a"), change)
        self.assertEqual(result.returncode, 1)
        self.assertIn("MISSING    scale_autoscale", result.stdout)


if __name__ == "__main__":
    unittest.main()
