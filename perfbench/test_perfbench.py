"""Self-tests of the benchmark: generator, span arithmetic, output checks, spec.

Run with ``python3 -m unittest discover -s perfbench`` from the repository
root.  Standard library only; the package itself is not imported.
"""

from __future__ import annotations

import json
import math
import tempfile
import unittest
from pathlib import Path

import checks
import rgg
import spans
from run import Judge
from workloads import LAYER_MAP, WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_config(self):
        a = rgg.generate(200, 0.1, 16, 100.0, 7)
        b = rgg.generate(200, 0.1, 16, 100.0, 7)
        self.assertEqual(a, b)
        self.assertNotEqual(a[0], rgg.generate(200, 0.1, 16, 100.0, 8)[0])

    def test_stats_match_text(self):
        text, stats = rgg.generate(50, 0.3, 4, 30.0, 1)
        pairs = next(ln for ln in text.splitlines() if ln.startswith("pairs = ")).split()[2:]
        routes = next(ln for ln in text.splitlines() if ln.startswith("routes = ")).split()[2:]
        self.assertEqual(stats["links"], len(pairs))
        self.assertEqual(len(set(pairs)), len(pairs))
        self.assertAlmostEqual(stats["mean_degree"], 2 * len(pairs) / 50)
        self.assertEqual(len(routes), 4)
        self.assertIn("horizon = 30.0", text)


def _span(parent, name, start, end, trace=0):
    return [trace, parent, name, start, end]


class SpanArithmeticTest(unittest.TestCase):
    # root [0,10] has children a [1,4], b [3,6] (overlapping a) and c [9,12],
    # which sticks out past the root's end; a has a child a2 [2,3].
    TREE = [
        _span(-1, "root", 0.0, 10.0),
        _span(0, "a", 1.0, 4.0),
        _span(1, "a2", 2.0, 3.0),
        _span(0, "b", 3.0, 6.0),
        _span(0, "c", 9.0, 12.0),
    ]

    def test_self_time_subtracts_union_of_children(self):
        selfs = spans.self_times(self.TREE)
        self.assertEqual(selfs, [10.0 - 5.0 - 1.0, 3.0 - 1.0, 1.0, 3.0, 3.0])

    def test_nested_same_name_counts_once(self):
        tree = [_span(-1, "f", 0.0, 4.0), _span(0, "g", 1.0, 3.0), _span(1, "f", 1.5, 2.5)]
        stats = spans.aggregate(tree)
        self.assertEqual(stats["f"]["calls"], 1)
        self.assertEqual(stats["f"]["s"], 4.0)
        self.assertEqual(stats["f"]["self_s"], 2.0 + 1.0)
        self.assertEqual(stats["g"]["self_s"], 1.0)

    def test_recorder_nests_and_counts(self):
        ticks = iter(range(100))
        rec = spans.Recorder(clock=lambda: float(next(ticks)))
        inner = rec.wrap("inner", lambda x: x + 1)
        outer = rec.wrap("outer", lambda x: inner(x) * 2)
        self.assertEqual(outer(1), 4)
        self.assertEqual([s[1] for s in rec.spans], [-1, 0])
        self.assertEqual(spans.child_counts(rec.spans, "inner", "outer"), 1)


def _density_csv(x: float, t: float, n: int) -> str:
    rows = ["# tool=test", "theta,density"]
    for i in range(n):
        th = t * i / (n - 1)
        rows.append(f"{th!r},{x * math.exp(x * (th - t)) / -math.expm1(-x * t)!r}")
    return "\n".join(rows) + "\n"


CONFIG = """[scenario]
beta = 2.0
staleness = 25.0
exhaust_threshold = 0.05
[links]
pairs = A-B B-C C-D A-D
"""

EVENTS = """# tool=test
10.0,hello,A,slot=3;delay=0.5;residual=0.5
10.0,hello,B,slot=3;delay=0.5;residual=0.5
10.0,table,A,neighbor=B;energy=0.5
10.0,table,B,neighbor=C;energy=0.25
10.0,collision,D,slot=3;senders=A|C
10.0,route,A,dst=C;path=A>B>C;cost=3.0
10.0,route,A,dst=D;path=none
"""

METRICS = "# tool=test\nmetric,value\nhello_sent,2.0\n"


class ChecksRejectCorruptionTest(unittest.TestCase):
    def test_density(self):
        good = _density_csv(1.0, 10.0, 200)
        self.assertEqual(checks.check_density(good), [])
        lines = good.splitlines()
        lines[100] = lines[100].split(",")[0] + ",5.0"
        self.assertTrue(checks.check_density("\n".join(lines)))
        self.assertTrue(checks.check_density(good.replace("theta,density\n", "theta,density\n0.0,x\n")))

    def test_mean_curve(self):
        good = "x,mean_on_time\n0.1,5.2\n0.2,5.4\n"
        self.assertEqual(checks.check_mean_curve(good, 10.0), [])
        self.assertTrue(checks.check_mean_curve("x,mean_on_time\n0.1,5.2\n0.2,5.1\n", 10.0))
        self.assertTrue(checks.check_mean_curve("x,mean_on_time\n0.1,5.2\n0.2,10.0\n", 10.0))

    def test_discharge(self):
        segs = "# h\nsegment_index,state,start,duration\n0,ON,0.0,1.0\n1,OFF,1.0,2.0\n2,ON,3.0,1.0\n"
        good = "time,sod,active_time,current\n0.0,0.1,0.0,1.0\n1.0,0.3,1.0,0.5\n2.0,0.3,1.0,0.5\n4.0,0.4,2.0,0.2\n"
        self.assertEqual(checks.check_discharge(good, segs), [])
        self.assertTrue(checks.check_discharge(good.replace("2.0,0.3,", "2.0,0.35,"), segs))
        self.assertTrue(checks.check_discharge(good.replace("4.0,0.4,", "4.0,0.2,"), segs))
        self.assertTrue(checks.check_discharge(good.replace("4.0,0.4,", "4.0,1.4,")))

    def test_validate(self):
        exact = checks.exact_mean_on_time(1.0, 3.0, 4.0)
        header = "lambda,mu,horizon,mc_mean,mc_stderr\n"
        self.assertEqual(checks.check_validate(header + f"1.0,3.0,4.0,{exact + 0.004!r},0.004\n"), [])
        self.assertTrue(checks.check_validate(header + f"1.0,3.0,4.0,{exact + 0.04!r},0.004\n"))

    def test_exact_mean_limits(self):
        # No switching out of ON: the whole window is ON.
        self.assertAlmostEqual(checks.exact_mean_on_time(0.0, 2.0, 3.0), 3.0)
        # Long window: the stationary ON share mu/(lam+mu), plus a start-up excess.
        self.assertAlmostEqual(checks.exact_mean_on_time(1.0, 1.0, 1e6), 0.5e6 + 0.25)

    def test_route(self):
        self.assertEqual(checks.check_route(EVENTS, METRICS, CONFIG), [])
        bad_cost = EVENTS.replace("cost=3.0", "cost=3.5")
        not_a_link = EVENTS.replace("path=A>B>C;cost=3.0", "path=A>C;cost=1.0")
        dead = EVENTS.replace("10.0,route,A,dst=C", "5.0,death,B,sod=1.0;active_time=1.0\n10.0,route,A,dst=C")
        for corrupted in (bad_cost, not_a_link, dead, EVENTS.replace("hello,B", "bogus,B"), EVENTS + "garbage\n"):
            self.assertTrue(checks.check_route(corrupted, METRICS, CONFIG), corrupted)
        self.assertTrue(checks.check_route(EVENTS, METRICS.replace("2.0", "3.0"), CONFIG))

    def test_judge_counts_corrupted_and_changed_artifacts(self):
        with tempfile.TemporaryDirectory() as tmp:
            wdir = Path(tmp)
            out = wdir / "d.csv"
            command = Command(("density",), ("d.csv",), lambda read: checks.check_density(read("d.csv")),
                              lambda read: 1.0)
            judge = Judge(wdir)
            out.write_text(_density_csv(0.5, 2.0, 200))
            self.assertEqual(judge.judge(0, command, 0), 1.0)
            out.write_text(_density_csv(0.5, 2.0, 201))
            self.assertEqual(judge.judge(0, command, 0), 0.0)
            out.unlink()
            self.assertEqual(judge.judge(0, command, 0), 0.0)
            self.assertEqual((judge.attempted, judge.failed), (3, 2))


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_workloads_and_layer_map(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(w["why"], WORKLOADS[w["name"]].why)
        mapped = [m for group in LAYER_MAP for m in group["metrics"]]
        self.assertEqual(sorted(m["name"] for m in spec["per_layer"]), sorted(mapped))
        self.assertEqual(len(set(mapped)), len(mapped))
        e2e = {m["name"] for m in spec["end_to_end"]}
        for group in LAYER_MAP:
            for metric, workload in group["moves"]:
                self.assertIn(metric, e2e)
                self.assertIn(workload, WORKLOADS)


if __name__ == "__main__":
    unittest.main()
