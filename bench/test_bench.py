"""Tests of the benchmark's own code: the oracle, the checkers, and each
workload end to end on a tiny input.

    python3 -m unittest discover -s bench -t bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from surd_sails import QuadraticForm, QuadraticSurd, classify, expand, lagrange_automorphism, value  # noqa: E402

TINY = {
    "box_roundtrip": {"sample": 200},
    "survey_classify": {"max_disc": 60},
    "long_period": {"count": 3, "disc": (2000, 6000), "period": (20, 60)},
    "cli_cold": {"rounds": 1, "survey_disc": 20},
}


class OracleTest(unittest.TestCase):
    def test_known_expansions(self):
        self.assertEqual(oracle.expand((0, 1, 1, 19)), ((4,), (2, 1, 3, 1, 2, 8)))
        self.assertEqual(oracle.expand((0, 1, 1, 2)), ((1,), (2,)))
        self.assertEqual(oracle.expand((1, 1, 2, 5)), ((), (1,)))

    def test_reduced_enumeration_counts(self):
        # 7,153 reduced surds of discriminant <= 1200, as the survey records
        self.assertEqual(len(oracle.reduced_surds(1200)), 7153)

    def test_shape_and_trace(self):
        self.assertEqual(oracle.shape_flags((1,)), frozenset("bcd"))
        self.assertEqual(oracle.shape_flags((2, 1, 3, 1, 2, 8)), frozenset("abc"))
        self.assertFalse(oracle.is_cyclic_palindrome((1, 2, 3)))
        self.assertEqual(oracle.continuant_trace((2,)), 6)  # [[3, 2], [4, 3]] for sqrt(2)


def lib_key(alpha):
    return alpha.a, alpha.b, alpha.c, alpha.d


class CheckerRejectsCorruptionTest(unittest.TestCase):
    def assertRejects(self, fn, *args):
        with self.assertRaises(checks.CheckFailed):
            fn(*args)

    def test_wrong_letter(self):
        alpha = QuadraticSurd(0, 1, 1, 19)
        cf = expand(alpha)
        checks.check_box((0, 1, 1, 19), lib_key(alpha), cf.preperiod, cf.period, lib_key(value(cf)))
        period = (cf.period[0] + 1,) + cf.period[1:]
        self.assertRejects(checks.check_box, (0, 1, 1, 19), lib_key(alpha), cf.preperiod, period,
                           lib_key(value(cf)))

    def classification(self, alpha):
        return workloads.classification_record(classify(alpha))

    def test_dropped_flag(self):
        alpha = QuadraticSurd(1, 1, 2, 5)
        pre, per, flags, witnesses = self.classification(alpha)
        checks.check_classification(lib_key(alpha), pre, per, flags, witnesses)
        dropped = {f: w for f, w in witnesses.items() if f != "d"}
        self.assertRejects(checks.check_classification, lib_key(alpha), pre, per, flags - {"d"}, dropped)

    def test_witness_with_wrong_trace(self):
        alpha = QuadraticSurd(0, 1, 1, 19)
        pre, per, flags, witnesses = self.classification(alpha)
        (a, b, c, d), cert = witnesses["a"]
        shifted = {**witnesses, "a": ((a + c, b, c, d), cert)}  # omega + 1: equivalent, trace 2
        self.assertRejects(checks.check_classification, lib_key(alpha), pre, per, flags, shifted)

    def test_automorph_with_wrong_trace(self):
        alpha = QuadraticSurd(0, 1, 1, 7)
        m = lagrange_automorphism(QuadraticForm.from_surd(alpha))
        form, period = oracle.form_of(lib_key(alpha)), expand(alpha).period
        checks.check_automorph(form, period, (m.p, m.q, m.r, m.s))
        square = m @ m  # still an automorph with determinant 1, but not the fundamental one
        self.assertRejects(checks.check_automorph, form, period, (square.p, square.q, square.r, square.s))

    def test_missing_csv_row(self):
        wl = workloads.CliCold(**TINY["cli_cold"])
        survey = [item for item in wl.make_inputs(random.Random(1)) if item.command == "survey"][0]
        _code, _out, csv, _err = wl.run_item(survey)
        checks.check_cli_survey(survey.data, csv)
        lines = csv.splitlines()
        self.assertRejects(checks.check_cli_survey, survey.data, "\n".join(lines[:3] + lines[4:]) + "\n")


class WorkloadEndToEndTest(unittest.TestCase):
    def run_tiny(self, name, trace):
        wl = workloads.WORKLOADS[name](**TINY[name])
        inputs = wl.make_inputs(random.Random(7))
        if trace:
            metrics, _tracer, attempted, failed, outputs = tracing.run_traced(wl, inputs, 0.2, 7)
            self.assertIn("trace.coverage", metrics)
        else:
            best, attempted, _wall, failed, outputs, differed = run.timed_phase(wl, inputs, 0.2)
            self.assertEqual(differed, [])
            metrics = run.end_to_end(best, 1024, 0.1)
            self.assertTrue(all(value > 0 for value, _unit in metrics.values()))
        self.assertEqual(failed, 0)
        self.assertGreater(attempted, 0)
        wl.check_all(inputs, outputs)

    def test_untraced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                self.run_tiny(name, trace=False)

    def test_traced(self):
        for name in ("box_roundtrip", "cli_cold"):
            with self.subTest(name):
                self.run_tiny(name, trace=True)

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wl = workloads.BoxRoundtrip(**TINY["box_roundtrip"])
        inputs = wl.make_inputs(random.Random(3))
        best, *_rest = run.timed_phase(wl, inputs, 0.1)
        e2e = run.end_to_end(best, 1024, 0.1)
        self.assertEqual({(m["name"], m["unit"]) for m in spec["end_to_end"]},
                         {(name, unit) for name, (_v, unit) in e2e.items()})
        layer, *_rest = tracing.run_traced(wl, inputs, 0.1, 3)
        self.assertEqual({(m["name"], m["unit"]) for m in spec["per_layer"]},
                         {(name, unit) for name, (_v, unit) in layer.items()})

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            done = subprocess.run([sys.executable, "bench/run.py", "--workload", "box_roundtrip",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
