"""Self-tests of the benchmark, on tiny inputs.  Run from the checkout root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import run
import workloads
from workloads import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent


def tiny() -> dict[str, workloads.Workload]:
    layout = workloads.LayoutGeneral()
    layout.small, layout.large = 2, 1
    hexgrid = workloads.CrossingsHexgrid()
    hexgrid.rows = range(2, 4)
    stretch = workloads.StretchCurved()
    stretch.sizes = (30, 40)
    gadget = workloads.GadgetVerify()
    gadget.shapes = (0, 1)
    out = {w.name: w for w in (layout, hexgrid, stretch, gadget)}
    for w in out.values():
        w.round_s, w.min_rounds = 1.0, 1
    return out


def run_once(spec, seed: int, trace: bool) -> tuple[dict, list[str]]:
    """Run a workload for one pass; return its JSON result and report lines."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run.run(spec, seed, 1, trace) == 0
    lines = stdout.getvalue().splitlines()
    return json.loads(lines[-1]), lines[:-1]


class Metrics(unittest.TestCase):
    def test_benchmark_json_lists_the_emitted_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))

    def test_every_metric_is_emitted_with_its_unit(self):
        for spec in tiny().values():
            for trace, expected in ((False, END_TO_END), (True, PER_LAYER)):
                with self.subTest(workload=spec.name, trace=trace):
                    result, _ = run_once(spec, 1, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)

    def test_same_seed_same_digest(self):
        spec = tiny()["stretch_curved"]
        digests = [next(l for l in run_once(spec, 3, False)[1] if l.startswith("output digest"))
                   for _ in range(2)]
        self.assertEqual(digests[0], digests[1])

    def test_seed_changes_inputs_not_metrics(self):
        for spec in tiny().values():
            work_root = ROOT / ".bench_work"
            work_root.mkdir(exist_ok=True)
            with self.subTest(workload=spec.name), tempfile.TemporaryDirectory(dir=work_root) as tmp:
                texts = []
                for seed in (1, 2):
                    work = Path(tmp) / str(seed)
                    work.mkdir()
                    cases = spec.make_cases(random.Random(seed), work, 1)
                    texts.append([Path(c.source).read_text() for c in cases])
                self.assertNotEqual(texts[0], texts[1])
                keys = [set(run_once(spec, seed, False)[0]["metrics"]) for seed in (1, 2)]
                self.assertEqual(keys[0], keys[1])


class Corruption(unittest.TestCase):
    """A wrong output is counted as a failed operation."""

    def run_corrupted(self, spec, corrupt) -> dict:
        spec = copy.copy(spec)
        check = spec.check

        def corrupting_check(case):
            path = Path(case.outputs[0])
            obj = json.loads(path.read_text())
            corrupt(obj)
            path.write_text(json.dumps(obj))
            return check(case)

        spec.check = corrupting_check
        return run_once(spec, 1, False)[0]

    def test_moved_x_coordinate(self):
        def swap_on_a_level(obj):
            levels: dict[str, list[str]] = {}
            for v in obj["graph"]["vertices"]:
                levels.setdefault(str(Fraction(v["height"])), []).append(v["id"])
            a, b = next(vs for vs in levels.values() if len(vs) > 1)[:2]
            obj["x"][a], obj["x"][b] = obj["x"][b], obj["x"][a]

        result = self.run_corrupted(tiny()["stretch_curved"], swap_on_a_level)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_dropped_edge(self):
        def drop_last_edge(obj):
            obj["graph"]["edges"].pop()
            obj["edges"].pop()

        result = self.run_corrupted(tiny()["layout_general"], drop_last_edge)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_reported_crossing(self):
        def add_crossing(obj):
            obj["count"] = 1

        result = self.run_corrupted(tiny()["crossings_hexgrid"], add_crossing)
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
