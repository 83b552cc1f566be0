"""Unit tests for compare_runs.py: verdicts and the comparability checks."""

import json
import os
import tempfile
import unittest

import compare_runs

BENCH = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "node_mcyc_per_s", "unit": "Mcyc/s", "better": "higher", "bound": 0.1},
]}


def write_runs(directory, walls, rates=None, sim_cycles=1000, failed=0, workload="w"):
    os.makedirs(directory, exist_ok=True)
    rates = rates or [100.0] * len(walls)
    for seed, (wall, rate) in enumerate(zip(walls, rates), start=1):
        rec = {"workload": workload, "seed": seed, "trace": 0, "failed": failed,
               "sim_cycles": sim_cycles,
               "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                          "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                      "node_mcyc_per_s": {"value": rate, "unit": "Mcyc/s"}}}}
        with open(os.path.join(directory, f"{workload}-seed{seed}-trace0.json"), "w") as f:
            json.dump(rec, f)


class VerdictTest(unittest.TestCase):
    def verdict(self, parent, change, lower=True, bound=0.1):
        return compare_runs.verdict(parent, change, list(zip(parent, change)), lower, bound)

    def test_clear_gain_is_improved(self):
        parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
        change = [v * 0.8 for v in parent]
        self.assertEqual(self.verdict(parent, change), ("improved", 1.0))

    def test_higher_is_better_direction(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5]
        change = [v * 1.3 for v in parent]
        self.assertEqual(self.verdict(parent, change, lower=False)[0], "improved")
        self.assertEqual(self.verdict(change, parent, lower=False)[0], "regressed")

    def test_worse_beyond_bound_is_regressed(self):
        parent = [10.0, 10.1, 9.9, 10.05, 9.95]
        change = [v * 1.2 for v in parent]
        self.assertEqual(self.verdict(parent, change), ("regressed", 0.0))

    def test_small_worsening_within_bound_is_unchanged(self):
        parent = [10.0, 10.1, 9.9, 10.05, 9.95]
        change = [v * 1.05 for v in parent]
        self.assertEqual(self.verdict(parent, change)[0], "unchanged")

    def test_wide_spread_is_unresolved(self):
        parent = [5.0, 10.0, 15.0, 8.0, 12.0]
        change = [6.0, 9.0, 14.0, 8.0, 13.0]
        self.assertEqual(self.verdict(parent, change)[0], "unresolved")

    def test_wide_spread_with_every_run_better_is_resolved(self):
        parent = [20.0, 30.0, 25.0, 22.0, 28.0]
        change = [5.0, 9.0, 7.0, 6.0, 8.0]
        self.assertEqual(self.verdict(parent, change)[0], "improved")

    def test_gain_within_parent_spread_is_not_improved(self):
        parent = [10.0, 10.4, 9.6, 10.2, 9.8]
        change = [v - 0.1 for v in parent]
        self.assertEqual(self.verdict(parent, change)[0], "unchanged")


class CompareDirsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.parent = os.path.join(self.tmp.name, "parent")
        self.change = os.path.join(self.tmp.name, "change")

    def tearDown(self):
        self.tmp.cleanup()

    def test_one_row_per_workload_and_metric(self):
        write_runs(self.parent, [10.0] * 5)
        write_runs(self.change, [8.0] * 5, rates=[130.0] * 5)
        rows, problems = compare_runs.compare(self.parent, self.change, BENCH)
        self.assertEqual(problems, [])
        self.assertEqual([(r["metric"], r["verdict"]) for r in rows],
                         [("wall_s", "improved"), ("node_mcyc_per_s", "improved")])
        self.assertEqual(rows[0]["pairs"], 5)

    def test_sim_cycles_must_match(self):
        write_runs(self.parent, [10.0] * 5, sim_cycles=1000)
        write_runs(self.change, [10.0] * 5, sim_cycles=1001)
        _, problems = compare_runs.compare(self.parent, self.change, BENCH)
        self.assertEqual(len(problems), 5)
        self.assertIn("sim_cycles differ", problems[0])

    def test_failed_runs_are_not_comparable(self):
        write_runs(self.parent, [10.0] * 5)
        write_runs(self.change, [10.0] * 5, failed=1)
        _, problems = compare_runs.compare(self.parent, self.change, BENCH)
        self.assertEqual(len(problems), 5)
        self.assertIn("failed", problems[0])

    def test_traced_records_are_ignored(self):
        write_runs(self.parent, [10.0] * 5)
        write_runs(self.change, [10.0] * 5)
        with open(os.path.join(self.change, "w-seed1-trace1.json"), "w") as f:
            json.dump({"workload": "w", "seed": 1, "trace": 1, "result": {}}, f)
        rows, problems = compare_runs.compare(self.parent, self.change, BENCH)
        self.assertEqual(problems, [])
        self.assertTrue(all(r["verdict"] == "unchanged" for r in rows))


if __name__ == "__main__":
    unittest.main()
