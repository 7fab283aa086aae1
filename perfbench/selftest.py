"""Self-test of the benchmark's own arithmetic and checks.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

Needs no program run: it covers span self-time on nested spans, the
span installer, the apportionment recomputation, the output checks on
hand-made inputs, and that ``BENCHMARK.json`` lists exactly the
metrics ``run.py`` reports.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import types
import unittest
from pathlib import Path

import checks
import run
import spans


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        rec = spans.Recorder(clock=clock, keep=("a",))
        rec.enter("a")          # a: 0 .. 10
        clock.now = 1.0
        rec.enter("b")          # b: 1 .. 4, holding c: 2 .. 3
        clock.now = 2.0
        rec.enter("c")
        clock.now = 3.0
        rec.exit("c")
        clock.now = 4.0
        rec.exit("b")
        clock.now = 6.0
        rec.enter("c")          # c: 6 .. 8
        clock.now = 8.0
        rec.exit("c")
        clock.now = 10.0
        rec.exit("a")
        self.assertEqual(rec.stats["a"], [1, 10.0, 10.0 - 3.0 - 2.0])
        self.assertEqual(rec.stats["b"], [1, 3.0, 2.0])
        self.assertEqual(rec.stats["c"], [2, 3.0, 3.0])
        self.assertEqual(rec.spans, [("a", 0.0, 10.0, None, None)])

    def test_recursion_counts_outermost_once(self):
        clock = FakeClock()
        rec = spans.Recorder(clock=clock)
        rec.enter("r")
        clock.now = 1.0
        rec.enter("r")
        clock.now = 3.0
        rec.exit("r")
        clock.now = 4.0
        rec.exit("r")
        calls, incl, self_s = rec.stats["r"]
        self.assertEqual((calls, incl, self_s), (2, 4.0, 4.0))

    def test_added_interval(self):
        rec = spans.Recorder(clock=FakeClock())
        rec.add("w", 0.5)
        rec.add("w", 0.25)
        self.assertEqual(rec.stats["w"], [2, 0.75, 0.75])


class InstallTest(unittest.TestCase):
    def test_every_binding_is_replaced(self):
        home = types.ModuleType("fakepkg.home")
        user = types.ModuleType("fakepkg.user")

        def work(x):
            return x * 2

        class Box:
            def method(self, x):
                return x + 1

        home.work, home.Box = work, Box
        user.work = work        # ``from .home import work``
        sys.modules["fakepkg.home"] = home
        sys.modules["fakepkg.user"] = user
        try:
            rec = spans.Recorder(clock=FakeClock())
            replaced = spans.install(rec, (
                ("fakepkg.home:work", "w", "span"),
                ("fakepkg.home:Box.method", "m", "distinct"),
            ), prefix="fakepkg")
            self.assertEqual(replaced, {"fakepkg.home:work": 2,
                                        "fakepkg.home:Box.method": 1})
            self.assertEqual(user.work(3), 6)
            self.assertEqual(home.work(4), 8)
            box = Box()
            self.assertEqual([box.method(1), box.method(1), box.method(2)],
                             [2, 2, 3])
            self.assertEqual(rec.stats["w"][0], 2)
            self.assertEqual(rec.stats["m"][0], 3)
            self.assertEqual(rec.dump()["distinct"], {"m": 2})
            with self.assertRaises(AttributeError):
                spans.install(rec, (("fakepkg.home:gone", "g", "span"),),
                              prefix="fakepkg")
        finally:
            del sys.modules["fakepkg.home"], sys.modules["fakepkg.user"]


class ApportionTest(unittest.TestCase):
    def test_largest_remainder(self):
        self.assertEqual(checks.apportion(7, [0.5, 0.3, 0.2]), [4, 2, 1])
        # Equal remainders go to the earlier index.
        self.assertEqual(checks.apportion(10, [1, 1, 1]), [4, 3, 3])
        self.assertEqual(checks.apportion(0, [3, 1]), [0, 0])

    def test_day_split_is_exact(self):
        weights = [300.0, 250.0, 220.0, 190.0, 110.0, 35.0, 20.0, 8.0,
                   6.0, 4.0]
        counts = checks.apportion(1_250_000, weights)
        self.assertEqual(sum(counts), 1_250_000)
        quota = [1_250_000 * w / sum(weights) for w in weights]
        for count, exact in zip(counts, quota):
            self.assertLess(abs(count - exact), 1.0)


def _population(isp, sessions, blocked, leaked):
    return {"type": "unit", "experiment": "population-scale", "unit": isp,
            "payload": {"population": {
                "sessions": sessions, "blocked": blocked, "leaked": leaked,
                "per_category": [{"category": "c", "sessions": sessions,
                                  "blocked": blocked, "leaked": leaked}]}}}


class PopulationCheckTest(unittest.TestCase):
    weights = {"a": 3.0, "b": 1.0}
    mechanisms = {"a": "http_wm", "b": "none"}

    def test_passes_and_totals(self):
        records = [_population("a", 8, 2, 1), _population("b", 2, 0, 0)]
        totals = checks.check_population(records, 10, self.weights,
                                         self.mechanisms)
        self.assertEqual(totals, {"sessions": 10, "blocked": 2, "leaked": 1})

    def test_catches_broken_properties(self):
        for records in (
                [_population("a", 7, 2, 1), _population("b", 3, 0, 0)],
                [_population("a", 8, 2, 1), _population("b", 2, 1, 0)],
                [_population("a", 8, 6, 3), _population("b", 2, 0, 0)]):
            with self.assertRaises(checks.CheckError):
                checks.check_population(records, 10, self.weights,
                                        self.mechanisms)


def _table2(cells):
    return [{"type": "unit", "experiment": "table2", "unit": isp,
             "payload": {"rows": [[isp, f"{i:.2f}", f"{o:.2f}", t, "5",
                                   "-"]]}}
            for isp, (i, o, t) in cells.items()]


class Table2CheckTest(unittest.TestCase):
    good = {"airtel": (85.2, 56.7, "WM"), "idea": (100.0, 83.3, "IM"),
            "vodafone": (14.4, 3.3, "IM"), "jio": (15.2, 0.0, "WM")}

    def test_paper_shape_passes(self):
        checks.check_table2(_table2(self.good))

    def test_undetermined_type_is_tolerated(self):
        cells = dict(self.good, vodafone=(14.4, 3.3, "?"))
        checks.check_table2(_table2(cells))

    def test_violations(self):
        for isp, cell in (("jio", (15.2, 0.0, "IM")),
                          ("idea", (89.0, 83.3, "IM")),
                          ("jio", (15.2, 3.3, "WM")),
                          ("vodafone", (30.0, 3.3, "IM"))):
            with self.assertRaises(checks.CheckError):
                checks.check_table2(_table2(dict(self.good, **{isp: cell})))


class JournalCheckTest(unittest.TestCase):
    def _write(self, path, records):
        prev = checks.GENESIS
        with open(path, "w", encoding="utf-8") as fh:
            for seq, record in enumerate(records):
                body = dict(record, seq=seq, prev=prev)
                canon = json.dumps(body, sort_keys=True,
                                   separators=(",", ":"))
                body["hash"] = hashlib.sha256(
                    f"{prev}|{canon}".encode()).hexdigest()[:16]
                prev = body["hash"]
                fh.write(json.dumps(body, sort_keys=True,
                                    separators=(",", ":")) + "\n")

    def test_chain_and_tamper(self):
        records = [{"type": "meta"},
                   {"type": "unit", "experiment": "e", "unit": "u",
                    "status": "ok"},
                   {"type": "end", "status": "complete"}]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "journal.jsonl")
            self._write(path, records)
            loaded = checks.load_journal(path)
            self.assertEqual(checks.check_journal(loaded, [("e", "u")]), 0)
            with self.assertRaises(checks.CheckError):
                checks.check_journal(loaded, [("e", "u"), ("e", "v")])
            text = Path(path).read_text().replace('"ok"', '"failed"')
            Path(path).write_text(text)
            with self.assertRaises(checks.CheckError):
                checks.load_journal(path)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
