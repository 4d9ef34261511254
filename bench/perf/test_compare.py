#!/usr/bin/env python3
"""Tests for compare.py on synthetic result sets, one per verdict.

Run from anywhere: python3 bench/perf/test_compare.py
"""

import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

GATES = {
    "ops_per_s": {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
    "get_p50_us": {"name": "get_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
}


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.benchmark = self.dir / "BENCHMARK.json"
        self.benchmark.write_text(json.dumps({"end_to_end": list(GATES.values())}))

    def tearDown(self):
        self.tmp.cleanup()

    def runs(self, name, metric, values, workload="kv-sat", extra=""):
        """One result file per value, shaped like run.sh output."""
        paths = []
        for i, value in enumerate(values):
            path = self.dir / f"{name}-{i}.txt"
            path.write_text(
                f'# fingerprint nproc=4 cpu="Test CPU @ 2GHz" seed={i + 1}\n'
                f"{workload} calib_ms 200.0 ms\n"
                f"{workload} {metric} {value} unit  # n=100 beyond=10\n"
                f"{extra}"
                '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}\n')
            paths.append(str(path))
        return paths

    def verdicts(self, base, change):
        out = io.StringIO()
        counts = compare.compare(base, change, GATES, out=out)
        return counts, out.getvalue()

    def test_identical_sets_are_unchanged(self):
        values = [100.0, 102.0, 98.0, 101.0, 99.0]
        counts, text = self.verdicts(self.runs("a", "ops_per_s", values),
                                     self.runs("b", "ops_per_s", values))
        self.assertEqual(counts["unchanged"], 1, text)
        self.assertEqual(counts["regressed"] + counts["unresolved"], 0, text)

    def test_clear_win_is_improved(self):
        counts, _ = self.verdicts(
            self.runs("a", "ops_per_s", [100.0, 102.0, 98.0, 101.0, 99.0]),
            self.runs("b", "ops_per_s", [120.0, 121.0, 119.0, 122.0, 118.0]))
        self.assertEqual(counts["improved"], 1)

    def test_lower_is_better_metrics_improve_downward(self):
        counts, _ = self.verdicts(
            self.runs("a", "get_p50_us", [50.0, 51.0, 49.0, 50.5, 49.5]),
            self.runs("b", "get_p50_us", [40.0, 41.0, 39.0, 40.5, 39.5]))
        self.assertEqual(counts["improved"], 1)

    def test_small_win_inside_spread_is_unchanged(self):
        # Wins every pair, but by less than the parent's quartile spread.
        counts, _ = self.verdicts(
            self.runs("a", "ops_per_s", [100.0, 104.0, 96.0, 102.0, 98.0]),
            self.runs("b", "ops_per_s", [101.0, 105.0, 97.0, 103.0, 99.0]))
        self.assertEqual(counts["unchanged"], 1)

    def test_worse_beyond_bound_is_regressed(self):
        counts, _ = self.verdicts(
            self.runs("a", "ops_per_s", [100.0, 102.0, 98.0, 101.0, 99.0]),
            self.runs("b", "ops_per_s", [80.0, 82.0, 78.0, 81.0, 79.0]))
        self.assertEqual(counts["regressed"], 1)

    def test_worse_within_bound_is_unchanged(self):
        counts, _ = self.verdicts(
            self.runs("a", "get_p50_us", [50.0, 50.5, 49.5, 50.2, 49.8]),
            self.runs("b", "get_p50_us", [53.0, 53.5, 52.5, 53.2, 52.8]))
        self.assertEqual(counts["unchanged"], 1)

    def test_wide_spread_is_unresolved(self):
        counts, _ = self.verdicts(
            self.runs("a", "ops_per_s", [100.0, 140.0, 60.0, 120.0, 80.0]),
            self.runs("b", "ops_per_s", [95.0, 135.0, 55.0, 115.0, 75.0]))
        self.assertEqual(counts["unresolved"], 1)

    def test_wide_spread_but_every_run_worse_is_regressed(self):
        counts, _ = self.verdicts(
            self.runs("a", "ops_per_s", [100.0, 140.0, 110.0, 130.0, 120.0]),
            self.runs("b", "ops_per_s", [40.0, 70.0, 50.0, 60.0, 45.0]))
        self.assertEqual(counts["regressed"], 1)

    def test_error_rate_rise_is_regressed(self):
        counts, text = self.verdicts(self.runs("a", "error_rate", [0, 0, 0]),
                                     self.runs("b", "error_rate", [0, 0.001, 0]))
        self.assertEqual(counts["regressed"], 1, text)

    def test_metric_missing_from_change_is_unresolved(self):
        counts, _ = self.verdicts(self.runs("a", "ops_per_s", [100.0, 101.0]),
                                  self.runs("b", "get_p50_us", [50.0, 51.0]))
        self.assertEqual(counts["unresolved"], 2)

    def test_machine_drift_is_reported(self):
        base = self.runs("a", "ops_per_s", [100.0, 101.0, 99.0])
        change = self.runs("b", "ops_per_s", [100.0, 101.0, 99.0])
        for path in change:
            p = Path(path)
            p.write_text(p.read_text().replace("calib_ms 200.0", "calib_ms 240.0"))
        _, text = self.verdicts(base, change)
        self.assertIn("warning: the machine's own speed moved", text)

    def test_parser_skips_comments_json_and_noise(self):
        path = self.dir / "noisy.txt"
        path.write_text("# fingerprint nproc=4 cpu=\"A B\" seed=3\n"
                        "-- build chatter --\n"
                        "geo-des ops_per_s 7.5e4 ops/s\n"
                        "geo-des bad_value x ops/s\n"
                        '{"correct": true}\n')
        values, units, fingerprint = compare.parse_run(path)
        self.assertEqual(values, {("geo-des", "ops_per_s"): 75000.0})
        self.assertEqual(units["ops_per_s"], "ops/s")
        self.assertEqual(fingerprint["cpu"], "A B")

    def test_cli_exit_status(self):
        base = self.runs("a", "ops_per_s", [100.0, 102.0, 98.0])
        worse = self.runs("b", "ops_per_s", [70.0, 72.0, 68.0])
        same = self.runs("c", "ops_per_s", [100.0, 102.0, 98.0])
        args = ["--benchmark", str(self.benchmark), "--base", *base, "--change"]
        stdout = sys.stdout
        try:
            sys.stdout = io.StringIO()
            self.assertEqual(compare.main(args + worse), 1)
            self.assertEqual(compare.main(args + same), 0)
        finally:
            sys.stdout = stdout

    def test_summary_has_quartiles_and_fingerprint(self):
        runs = self.runs("a", "ops_per_s", [100.0, 110.0, 90.0, 105.0, 95.0])
        traced = self.runs("t", "dsm.write_ns", [500.0, 510.0, 490.0])
        doc = compare.summary(runs, traced, GATES)
        cell = doc["end_to_end"]["kv-sat"]["ops_per_s"]
        self.assertEqual(cell["median"], 100.0)
        self.assertEqual(cell["runs"], 5)
        self.assertLess(cell["q1"], cell["median"])
        self.assertGreater(cell["q3"], cell["median"])
        self.assertEqual(doc["seeds"], [1, 2, 3, 4, 5])
        self.assertEqual(doc["fingerprint"]["cpu"], "Test CPU @ 2GHz")
        self.assertIn("dsm.write_ns", doc["per_layer"]["kv-sat"])

    def test_repository_benchmark_declares_usable_gates(self):
        gates = compare.load_benchmark(compare.default_benchmark())
        self.assertIn("setup_s", gates)
        for gate in gates.values():
            self.assertIn(gate["better"], ("higher", "lower"))
            self.assertTrue(0 < gate["bound"] <= 0.25, gate)


if __name__ == "__main__":
    unittest.main()
