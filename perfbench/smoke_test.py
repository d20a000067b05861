"""Smoke test of the benchmark itself, on a tiny instance set per workload.

    python3 perfbench/smoke_test.py

Runs every workload untraced and traced, with every output check, and
checks that the checks and the tracer can see what they claim to see.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run  # puts perfbench/ on sys.path

import instances
import oracle
import trace
import workloads

sys.path.insert(0, str(run.SRC))


def _setup(workload, seed=3):
    _, lib, items = run.setup(workload, seed, instances.SMOKE_SIZES)
    return lib, items


class WorkloadTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in run.WORKLOADS:
            self.assertEqual(_setup(name)[1], _setup(name)[1])
            self.assertNotEqual(_setup(name, 3)[1], _setup(name, 4)[1])

    def test_every_workload_passes_its_checks(self):
        for name in run.WORKLOADS:
            lib, items = _setup(name)
            p = run.run_pass(lib, name, items)
            self.assertEqual((p.failed, p.problems), (0, []), name)
            self.assertEqual(len(p.times), len(items))

    def test_traced_pass_counts_layers(self):
        for name in run.WORKLOADS:
            lib, items = _setup(name)
            tracer = trace.Tracer()
            tracer.install(lib)
            try:
                p = run.run_pass(lib, name, items, tracer)
            finally:
                tracer.uninstall()
            self.assertEqual((p.failed, p.problems), (0, []), name)
            self.assertEqual(tracer.calls["norms.build"], p.misses, name)
            self.assertGreater(tracer.coords["norms.kernel"], 0, name)
            star_calls = tracer.calls["starcomplex.reductive_orbits"]
            self.assertEqual(star_calls > 0, name == "star", name)
            self.assertEqual(tracer.calls["selftest.check"] > 0, name == "verify")
            roots = set(tracer.root)
            self.assertEqual(len(roots), len(items))
            self.assertEqual(set(tracer.metrics()), {m for m, _ in trace.METRICS})
            # uninstall restores the package functions
            self.assertFalse(hasattr(lib.moves.reductivity, "__wrapped__"))


class InstanceTest(unittest.TestCase):
    def test_star_markings_have_their_forest_counts(self):
        lib, _ = _setup("star")
        for forests, markings in instances.STAR_MARKINGS.items():
            for images in markings:
                text = instances._rose(3, images)
                m = lib.selftest.reduce_to_forest_free(lib.cli.parse(text))
                R = lib.starcomplex.reductive_orbits(m, "tot", instances.STAR_HORIZON)
                got = len(lib.starcomplex.enumerate_ideal_forests(m, R))
                self.assertEqual(got, forests, images)

    def test_r3_z3_seeds_draw_rank_3_under_z3(self):
        lib, _ = _setup("descent")
        for s in instances.R3_Z3_SEEDS:
            m = lib.fixtures.random_instance(s, max_rank=3)
            self.assertEqual((m.n, m.graph.group.order), (3, 3), s)
            self.assertTrue(instances._faithful(m), s)


class CheckTest(unittest.TestCase):
    def test_oracle_matches_fixture_norms(self):
        lib, items = _setup("descent")
        for label, _, horizon, text in items:
            m = lib.cli.parse(text)
            out, aut = oracle.naive_norms(text, horizon)
            self.assertEqual(out, lib.norms.norm(m, "out", horizon).coords, label)
            self.assertEqual(aut, lib.norms.norm(m, "aut", horizon).coords, label)

    def test_descent_check_rejects_a_wrong_output(self):
        lib, items = _setup("descent")
        item = next(i for i in items if i[0] == "FIX-R2W")
        m2, log, text = workloads.op_descent(lib, item)
        workloads.check_descent(lib, item, (m2, log, text))
        unreduced = lib.cli.canonical_text(lib.cli.parse(item[3]))
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_descent(lib, item, (m2, log, unreduced))

    def test_chain_counts(self):
        a, b, ab = frozenset("a"), frozenset("b"), frozenset("ab")
        self.assertEqual(oracle.chain_counts([a, b, ab]), [3, 2])
        self.assertEqual(oracle.euler_characteristic([a, b, ab]), 1)
        self.assertEqual(oracle.euler_characteristic([a, b]), 2)

    def test_star_check_rejects_nonzero_homology(self):
        lib, items = _setup("star")
        item = next(i for i in items if i[1] == "two_move")
        R, K, betti, tr = workloads.op_star(lib, item)
        workloads.check_star(lib, item, (R, K, betti, tr))
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_star(lib, item, (R, K, (1,) + betti[1:], tr))


class RunnerTest(unittest.TestCase):
    def test_reference_speed(self):
        ref = run.CAL_REF_S
        self.assertEqual(run.at_reference_speed([1.0, 2.0], [(ref, 1)] * 2), [1.0, 2.0])
        # a machine running at half speed doubles both the times and the unit
        self.assertEqual(run.at_reference_speed([2.0, 4.0], [(4 * ref, 2)] * 2), [1.0, 2.0])
        seconds, units = run.calibrate(20 * ref / run.CAL_SHARE)
        self.assertGreaterEqual(units, 2)
        self.assertGreaterEqual(seconds, 20 * ref)

    def test_fails_without_package_source(self):
        (run.HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.HERE / "out") as tmp:
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "descent",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
