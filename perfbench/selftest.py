#!/usr/bin/env python3
"""Self-tests of the benchmark: its references, checks, deadline and tracer.

    python3 perfbench/selftest.py

The expm reference is pinned to the closed forms the critsense test suite
uses (tests/conftest.py, tests/test_metrology.py) and to a steady-state
Lyapunov solve; the forced-timeout test proves an op past its deadline counts
as failed.
"""

import json
import math
import signal
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def pqs_qfi_closed_form(alpha, r, gamma, t):
    """Zero-temperature passive QFI of a displaced squeezed input (tests/conftest.py)."""
    first = 4.0 * alpha ** 2 / (math.exp(-2.0 * r) + math.exp(2.0 * gamma * t) - 1.0)
    num = math.exp(-2.0 * r) * (math.exp(4.0 * r) - 1.0) ** 2
    den = 2.0 * math.exp(2.0 * r + 4.0 * gamma * t) + (math.exp(2.0 * r) - 1.0) ** 2 * (
        math.exp(2.0 * gamma * t) - 1.0
    )
    return (first + num / den) * t * t


def pqs_moments(alpha, r, gamma, n_bath, t):
    v0, s0 = ref.displaced_squeezed(alpha, r, n_bath)
    return ref.pqs(v0, s0, gamma, n_bath, t)


def slow_rate(omega0, eps, gamma):
    s = eps * eps - omega0 * omega0
    return gamma - math.sqrt(s) if s > 0 else gamma


class ReferenceClosedForms(unittest.TestCase):
    def test_pqs_dissipative_closed_form(self):
        for alpha, r, g, t in [(2.0, 1.0, 1.0, 0.3), (0.5, 2.0, 1.0, 1.2), (0.0, 3.0, 1.0, 0.8)]:
            got = ref.gaussian_qfi(pqs_moments(alpha, r, g, 0.0, t))
            self.assertAlmostEqual(got / pqs_qfi_closed_form(alpha, r, g, t), 1.0, delta=1e-10)

    def test_noiseless_squeezed_vacuum(self):
        for n, t in [(5.0, 0.7), (50.0, 0.25), (1e6, 0.5)]:
            got = ref.gaussian_qfi(pqs_moments(0.0, math.asinh(math.sqrt(n)), 0.0, 0.0, t))
            self.assertAlmostEqual(got / (8.0 * n * (1.0 + n) * t * t), 1.0, delta=1e-10)

    def test_noiseless_coherent(self):
        alpha, t = 1.5, 0.7
        got = ref.gaussian_qfi(pqs_moments(alpha, 0.0, 0.0, 0.0, t))
        self.assertAlmostEqual(got / (4.0 * alpha ** 2 * t ** 2), 1.0, delta=1e-12)

    def test_homodyne_p_quadrature_closed_form(self):
        for alpha, r, g, nb, t in [(2.0, 1.0, 1.0, 0.0, 0.5), (1.5, 0.8, 1.0, 1.0, 0.7)]:
            got = ref.homodyne_fi(pqs_moments(alpha, r, g, nb, t), math.pi / 2.0)
            want = 4.0 * alpha ** 2 * t * t / (
                (1.0 + 2.0 * nb) * (math.exp(-2.0 * r) + math.exp(2.0 * g * t) - 1.0))
            self.assertAlmostEqual(got / want, 1.0, delta=1e-10)

    def test_noiseless_optimal_split(self):
        n, t = 25.0, 0.6
        r = 0.5 * math.log(2.0 * n + 1.0)
        alpha = math.sqrt(n - math.sinh(r) ** 2)
        got = ref.homodyne_fi(pqs_moments(alpha, r, 0.0, 0.0, t), math.pi / 2.0)
        self.assertAlmostEqual(got / (4.0 * n * (1.0 + n) * t * t), 1.0, delta=1e-10)

    def test_steady_state_homodyne_closed_form(self):
        w0 = gamma = 1.0
        eps = 1.2
        m = ref.cqs(w0, eps, gamma, 0.0, 60.0 / slow_rate(w0, eps, gamma))
        ec2 = w0 * w0 + gamma * gamma
        for psi in (0.0, 0.3, 0.9, math.pi / 2, 2.0):
            num = eps ** 2 * (
                (gamma ** 2 - w0 ** 2 - eps ** 2) * math.cos(2 * psi)
                + 2 * w0 * eps
                + 2 * w0 * gamma * math.sin(2 * psi)
            ) ** 2
            den = 2.0 * (ec2 - eps ** 2) ** 2 * (
                ec2 - eps * (w0 * math.cos(2 * psi) - gamma * math.sin(2 * psi))
            ) ** 2
            self.assertAlmostEqual(ref.homodyne_fi(m, psi) / (num / den), 1.0, delta=1e-8)

    def test_steady_state_matches_lyapunov_solve(self):
        """Late-time expm QFI equals the stationary QFI up to N = 1e6."""
        for n in (10.0, 1e3, 1e6):
            for nb in (0.0, 2.0):
                for w0 in (0.25, 1.0, 4.0):
                    eps = ref.cqs_epsilon(n, w0, 1.0, nb)
                    late = ref.gaussian_qfi(ref.cqs(w0, eps, 1.0, nb, 60.0 / slow_rate(w0, eps, 1.0)))
                    stationary = ref.gaussian_qfi(ref.steady_state_lyapunov(w0, eps, 1.0, nb))
                    self.assertAlmostEqual(late / stationary, 1.0, delta=1e-6, msg=(n, nb, w0))

    def test_steady_state_photons_equal_budget(self):
        for n, nb, w0 in [(10.0, 0.0, 1.0), (1e4, 0.5, 0.25), (1e6, 2.0, 4.0)]:
            eps = ref.cqs_epsilon(n, w0, 1.0, nb)
            t = 60.0 / slow_rate(w0, eps, 1.0)
            photons, _ = ref.photons_and_purity(w0, eps, 1.0, nb, np.zeros(2), ref.thermal_sigma(nb), t)
            self.assertAlmostEqual(photons / n, 1.0, delta=1e-7)

    def test_bound_integral_closed_form(self):
        """Squeezed vacuum at n_B = 0 decays as N0 e^{-2 g t}: integral N0 (1 - e^{-2gT}) / g^2."""
        n0, gamma = 100.0, 0.7
        v0, s0 = ref.squeezed_input(n0, 0.0)
        for total in (0.5, 3.0, 20.0):
            got = ref.bound_integral(
                lambda t: ref.photons_and_purity(0.0, 0.0, gamma, 0.0, v0, s0, t)[0], total, gamma, 0.0)
            want = n0 * -math.expm1(-2.0 * gamma * total) / gamma ** 2
            self.assertAlmostEqual(got / want, 1.0, delta=1e-9)

    def test_agrees_with_program_where_finite_differences_are_accurate(self):
        from critsense import SystemParams, cqs_qfi, pqs_qfi
        from critsense.protocols import default_pqs_input

        for n, t in [(10.0, 0.5), (100.0, 3.0)]:
            base = SystemParams(1.0, 0.0, 1.0)
            eps = ref.cqs_epsilon(n, 1.0, 1.0, 0.0)
            got = cqs_qfi(SystemParams(1.0, eps, 1.0), t)
            self.assertAlmostEqual(got / ref.gaussian_qfi(ref.cqs(1.0, eps, 1.0, 0.0, t)), 1.0, delta=1e-7)
            alpha, squeeze = default_pqs_input(n)
            got = pqs_qfi(alpha, squeeze, base, t)
            v0, s0 = ref.squeezed_input(n, 0.0)
            self.assertAlmostEqual(got / ref.gaussian_qfi(ref.pqs(v0, s0, 1.0, 0.0, t)), 1.0, delta=1e-7)


class Checks(unittest.TestCase):
    def test_strict_json_rejects_non_finite_constants(self):
        for text in ('{"x": Infinity}', '{"x": -Infinity}', '{"x": NaN}'):
            with self.assertRaises(ValueError):
                workloads.strict_json(text)
        self.assertEqual(workloads.strict_json('{"x": 1.5}'), {"x": 1.5})

    def test_compute_check_flags_a_wrong_qfi(self):
        case = workloads.ComputeCase("qfi", "CQS", 100.0, 0.0, 1.0, 1.0, 0.0, 2.0, 0.0)
        info = ref.gaussian_qfi(case.moments(2.0))
        report = {"qfi_single_shot": info, "fi_homodyne_best": 0.5 * info,
                  "photons_at_t": case.photons(2.0), "t_opt": 2.0}
        good = workloads.check_compute_output(case, '{"report": %s}' % json.dumps(report))
        self.assertIsNone(good)
        report["qfi_single_shot"] = info * (1.0 + 1e-5)
        bad = workloads.check_compute_output(case, '{"report": %s}' % json.dumps(report))
        self.assertTrue(bad.startswith("reference_miss"), bad)

    def test_tail_percentile_leaves_ten_samples_beyond(self):
        value, pct = run.tail([float(i) for i in range(1, 101)])
        self.assertEqual(value, 90.0)
        self.assertEqual(pct, 90.0)


class Deadline(unittest.TestCase):
    def test_forced_timeout_counts_as_failed(self):
        def spin():
            end = time.perf_counter() + 5.0
            while time.perf_counter() < end:
                pass
            return "finished"

        checked = []
        op = workloads.Op("spin", spin, lambda value: checked.append(value), deadline_s=0.2)

        r = run.Run()
        r.run_pass([op])
        self.assertEqual(r.attempted, 1)
        self.assertEqual(len(r.failures), 1)
        self.assertTrue(r.failures[0].reason.startswith("deadline"), r.failures[0].reason)
        self.assertLess(r.records[0].seconds, 1.0)
        self.assertEqual(r.latencies(), [])  # left out of the timings
        self.assertEqual(r.pass_times(), [0.0])
        self.assertEqual(r.unexpected, r.failures)  # no finding explains it
        self.assertEqual(checked, [])
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_long_op_is_calibrated_inside(self):
        def spin():
            end = time.process_time() + 0.8
            while time.process_time() < end:
                pass

        samples = []
        elapsed, reason = run.run_op(workloads.Op("spin", spin, lambda value: None), samples)
        self.assertIsNone(reason)
        self.assertGreaterEqual(len(samples), 2)
        self.assertEqual(signal.getitimer(signal.ITIMER_PROF), (0.0, 0.0))

    def test_fast_op_is_checked_and_passes(self):
        op = workloads.Op("fast", lambda: 3, lambda value: None if value == 3 else "wrong")
        elapsed, reason = run.run_op(op)
        self.assertIsNone(reason)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class Findings(unittest.TestCase):
    def test_recorded_failures_are_known_and_others_are_not(self):
        expected = run.expected_failures("budget_sweep")
        big_cqs = {"mode": "qfi", "kind": "CQS", "n_max": 5e4, "n_bath": 0.5, "gamma": 1.0}
        miss = "reference_miss qfi_single_shot 1.0 vs 2.0"
        self.assertEqual(run.known_finding(expected, big_cqs, miss), "fd_qfi_large_n")
        self.assertIsNone(run.known_finding(expected, {**big_cqs, "n_max": 50.0}, miss))
        self.assertIsNone(run.known_finding(expected, {**big_cqs, "kind": "PQS"}, miss))
        self.assertIsNone(run.known_finding(expected, big_cqs, "reference_miss photons_at_t 1.0 vs 2.0"))
        cliff = {"mode": "bound", "kind": "PQS", "n_max": 40.0, "n_bath": 0.0, "gamma": 1.0}
        self.assertEqual(run.known_finding(expected, cliff, "deadline exceeded 10 s"), "pqs_bound_quadrature_cliff")
        self.assertIsNone(run.known_finding(expected, {**cliff, "n_bath": 2.0}, "deadline exceeded 10 s"))
        lossless = {"mode": "fi", "kind": "PQS", "n_max": 40.0, "n_bath": 0.0, "gamma": 0.0}
        self.assertEqual(run.known_finding(expected, lossless, "non_strict_json non-strict JSON constant Infinity"),
                         "non_finite_json")

    def test_workloads_without_rules_accept_no_failure(self):
        self.assertEqual(run.expected_failures("paper_figures"), [])
        self.assertEqual(run.expected_failures("oracle_battery"), [])

    def test_failed_check_makes_the_run_incorrect(self):
        op = workloads.Op("wrong", lambda: 3, lambda value: "reference_miss wrong value", tags={"kind": "figure"})
        r = run.Run(run.expected_failures("paper_figures"))
        r.run_pass([op])
        self.assertEqual([rec.label for rec in r.unexpected], ["wrong"])


class RunSize(unittest.TestCase):
    def test_budget_configs_do_not_depend_on_the_seed(self):
        import tempfile

        def configs(seed):
            with tempfile.TemporaryDirectory() as tmp:
                sweep = workloads.BudgetSweep(seed, Path(tmp))
                return [sorted(json.dumps(case.config(), sort_keys=True) for case in block)
                        for block in sweep.blocks]

        self.assertEqual(configs(1), configs(2))
        self.assertEqual(len(configs(1)), workloads.DESIGN_BLOCKS)

    def test_pass_count_depends_only_on_the_arguments(self):
        sweep = workloads.BudgetSweep
        self.assertEqual(run.passes(sweep, 20.0), workloads.DESIGN_BLOCKS)
        self.assertEqual(run.passes(sweep, 1.0), sweep.min_passes)
        self.assertEqual(run.passes(workloads.OracleBattery, 20.0), 1)


class Scaling(unittest.TestCase):
    def test_op_time_is_scaled_by_the_samples_around_it(self):
        r = run.Run()
        r.records = [run.Record("op", 10.0, 2.0, None, None)]
        r.cal_times, r.cal_s = [9.0, 12.5], [2.0 * run.CAL_NOMINAL_S, 4.0 * run.CAL_NOMINAL_S]
        r.passes = [range(0, 1)]
        r.scale(r.records)
        self.assertAlmostEqual(r.records[0].scaled, 2.0 / 3.0)
        self.assertEqual(r.pass_times(raw=True), [2.0])


class Tracing(unittest.TestCase):
    def test_spans_nest_and_originals_come_back(self):
        import tracer
        from critsense import SystemParams, metrology, protocols

        original = protocols.differentiate_at_zero_shift
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIsNot(protocols.differentiate_at_zero_shift, original)
            protocols.cqs_qfi(SystemParams(1.0, 1.2, 1.0), 2.0)
        finally:
            tr.uninstall()
        self.assertIs(protocols.differentiate_at_zero_shift, original)
        self.assertIs(metrology.differentiate_at_zero_shift, original)
        summary = tr.summary()
        self.assertEqual(summary["protocols.cqs_qfi"]["calls"], 1)
        self.assertEqual(summary["metrology.differentiate_at_zero_shift"]["calls"], 1)
        evolutions = tr.child_count("metrology.differentiate_at_zero_shift", ("dynamics.evolve_critical",))
        self.assertEqual(evolutions, summary["dynamics.evolve_critical"]["calls"])
        self.assertGreater(summary["gaussian.GaussianState"]["calls"], 0)
        for stats in summary.values():
            self.assertLessEqual(stats["self_s"], stats["s"] + 1e-12)


if __name__ == "__main__":
    unittest.main()
