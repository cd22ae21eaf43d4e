"""Unit tests of run.py: seed plumbing, result assembly and the traced checks.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import json
import os
import stat
import sys
import tempfile
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))


def pass_result(**over):
    res = {
        "attempted": 10, "failed": 0, "peak_rss_mib": 50.0, "violations": [],
        "exit_code": 0,
        "modeled": {"model_rps": 1.0, "p50_us": 2.0, "p99_us": 3.0,
                    "secondary_p99_us": 4.0, "ok_ratio": 1.0, "slo_ok_ratio": 1.0},
        "counts": {"sim.events_per_req": 150.0},
        "wall": {"setup_s": 0.10, "setup.build_s": 0.01, "setup.deploy_s": 0.05,
                 "setup.ingress_s": 0.03, "setup.connect_s": 0.01,
                 "sim_req_per_wall_s": 1000.0},
        "crit": {},
    }
    res.update(over)
    return res


class SeedPlumbing(unittest.TestCase):
    def test_seed_and_seconds_reach_the_workload_binary(self):
        with tempfile.TemporaryDirectory() as tmp:
            fake = os.path.join(tmp, "fake_run")
            with open(fake, "w") as f:
                f.write("#!%s\nimport json, sys\n"
                        "print(json.dumps({'argv': sys.argv[1:], 'violations': []}))\n"
                        % sys.executable)
            os.chmod(fake, os.stat(fake).st_mode | stat.S_IEXEC)
            args = SimpleNamespace(workload="tenants_dwrr", seed=42, seconds=7)
            res = run.run_pass(fake, args, traced=True, spans_path="s.json")
        self.assertEqual(res["argv"], ["--workload", "tenants_dwrr", "--seed", "42",
                                       "--seconds", "7", "--traced", "--spans", "s.json"])
        self.assertEqual(res["exit_code"], 0)


class Assembly(unittest.TestCase):
    def test_benchmark_json_matches_the_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         {k: unit for k, (unit, _) in run.END_TO_END.items()})
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.layer_units())

    def test_end_to_end_reads_every_metric(self):
        metrics = run.end_to_end(pass_result())
        self.assertEqual(set(metrics), set(run.END_TO_END))
        self.assertEqual(metrics["setup_s"], {"value": 0.10, "unit": "s"})
        self.assertEqual(metrics["peak_rss_mib"]["value"], 50.0)


class TracedChecks(unittest.TestCase):
    def test_identical_passes_pass(self):
        self.assertEqual(run.traced_problems(pass_result(), pass_result()), [])

    def test_a_perturbed_model_is_caught(self):
        traced = pass_result(counts={"sim.events_per_req": 151.0})
        problems = run.traced_problems(pass_result(), traced)
        self.assertEqual(len(problems), 1)
        self.assertIn("sim.events_per_req", problems[0])

    def test_setup_parts_must_sum_to_setup(self):
        base = pass_result()
        base["wall"]["setup.deploy_s"] = 0.08  # parts now sum to 0.13 s
        self.assertEqual(len(run.traced_problems(base, pass_result())), 1)

    def test_trace_overhead_is_relative_to_the_measured_pass(self):
        base = pass_result(counts={k: 0.0 for k in run.layer_units()})
        base["wall"].update({k: 0.0 for k in run.WALL_LAYERS})
        crit = {}
        for q in ("p50", "p99"):
            crit["crit.%s_us" % q] = 9.0
            for cls in run.CRIT_CLASSES:
                crit["crit.%s.%s_us" % (q, cls)] = 1.0
        traced = pass_result(crit=crit, peak_rss_mib=70.0)
        traced["wall"]["sim_req_per_wall_s"] = 750.0
        layers = run.per_layer(base, traced)
        self.assertAlmostEqual(layers["obs.trace_overhead"]["value"], 0.25)
        self.assertAlmostEqual(layers["obs.trace_rss_mib"]["value"], 20.0)
        self.assertEqual(layers["crit.p99_us"]["value"], 9.0)


if __name__ == "__main__":
    unittest.main()
