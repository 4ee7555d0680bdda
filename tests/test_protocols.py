import math
import re

import numpy as np
import pytest

from conftest import pqs_qfi_closed_form, van_loan_qfi
from critsense.dynamics import SystemParams, evolve_passive, spectral_info, steady_state_photons
from critsense.errors import ConstraintError, DomainError, InvalidStateError, SearchError, UnsupportedRegimeError
from critsense.gaussian import DisplacementAmplitude, GaussianState, SqueezeParam, mean_photons, thermal_state
from critsense.metrology import DerivativePair, fi_homodyne
from critsense.protocols import (
    ProtocolKind,
    ProtocolSpec,
    ResourceBudget,
    beyond_threshold_epsilon,
    beyond_threshold_qfi,
    best_homodyne,
    budget_cap,
    cqs_pair,
    cqs_qfi,
    cqs_qfi_steady,
    default_pqs_input,
    epsilon_opt,
    fundamental_bound,
    optimal_squeezing_homodyne,
    optimize_time,
    pqs_input_state,
    pqs_pair,
    pqs_qfi,
    steady_time,
    total_qfi,
)

UNIT = SystemParams(1.0, 0.0, 1.0)


class TestCqsQfi:
    def test_zero_time(self):
        assert cqs_qfi(SystemParams(1.0, 1.2, 1.0), 0.0) == pytest.approx(0.0, abs=1e-12)
        assert cqs_qfi(SystemParams(1.0, 1.2, 1.0, n_bath=1.0), 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_steady_state_rate(self):
        """At omega0 = gamma and the budget-optimal drive, I ~ 2 N(inf)^2 / gamma^2."""
        eps = epsilon_opt(100.0, UNIT)
        params = SystemParams(1.0, eps, 1.0)
        n_inf = steady_state_photons(params)
        ratio = cqs_qfi_steady(params) / (2.0 * n_inf ** 2)
        assert 0.9 <= ratio <= 1.1

    def test_finite_time_matches_steady_family(self):
        params = SystemParams(1.0, epsilon_opt(100.0, UNIT), 1.0)
        late = cqs_qfi(params, steady_time(params))
        assert late == pytest.approx(cqs_qfi_steady(params), rel=1e-6)

    def test_steady_state_closed_form(self):
        """Stationary-family QFI: e^2/(2ec^2-e^2) [1/(ec^2-e^2) + 2 w0^2/(ec^2-e^2)^2]."""
        for eps in (0.8, 1.2, 1.4):
            params = SystemParams(1.0, eps, 1.0)
            ec2 = params.epsilon_c ** 2
            k = ec2 - eps ** 2
            expected = eps ** 2 / (2.0 * ec2 - eps ** 2) * (1.0 / k + 2.0 / k ** 2)
            assert cqs_qfi_steady(params) == pytest.approx(expected, rel=1e-8)

    def test_noiseless_exact_formula(self):
        """Lossless QFI from the closed-form covariance, evaluated directly."""
        w0 = 1.0
        for (eps, t) in ((1.2, 0.8), (1.2, 1.3), (1.5, 0.6)):
            u2 = eps ** 2 - w0 ** 2
            u = math.sqrt(u2)
            num = eps ** 2 * (
                eps ** 2 * (3.0 + 8.0 * w0 ** 2 * t ** 2)
                - 4.0 * w0 ** 2 * (1.0 + 2.0 * w0 ** 2 * t ** 2)
                - 4.0 * u2 * math.cosh(2.0 * u * t)
                + eps ** 2 * math.cosh(4.0 * u * t)
                - 8.0 * w0 * t * u * math.sinh(2.0 * u * t)
            )
            expected = num / (4.0 * u2 ** 3)
            assert cqs_qfi(SystemParams(w0, eps, 0.0), t) == pytest.approx(expected, rel=1e-6)

    def test_noiseless_near_critical_asymptote(self):
        """I ~ [2N + 8N^2/9] t^2 as the drive approaches the lossless critical point."""
        from critsense.dynamics import mean_photons_vs_time

        params = SystemParams(1.0, 1.0 - 1e-6, 0.0)
        t = 30.0
        n = mean_photons_vs_time(params, t)
        expected = (2.0 * n + 8.0 * n * n / 9.0) * t * t
        assert cqs_qfi(params, t) == pytest.approx(expected, rel=0.10)

    def test_transient_lower_bound(self):
        """Inside the transient window the QFI exceeds N(t)^2 / (2 gamma^2)."""
        from critsense.dynamics import mean_photons_vs_time

        params = SystemParams(1.0, epsilon_opt(100.0, UNIT), 1.0)
        info = spectral_info(params)
        t_mid = math.sqrt(1.0 / (info.lambda_plus.real * info.lambda_minus.real))
        n = mean_photons_vs_time(params, t_mid)
        assert cqs_qfi(params, t_mid) >= 0.9 * n * n / 2.0


class TestPqsQfi:
    def test_noiseless_optimal_law(self):
        for n in (1.0, 10.0, 100.0):
            alpha, squeeze = default_pqs_input(n)
            for t in (0.1, 1.0):
                got = pqs_qfi(alpha, squeeze, SystemParams(1.0, 0.0, 0.0), t)
                assert got == pytest.approx(8.0 * n * (1.0 + n) * t * t, rel=1e-8)

    def test_matches_closed_form(self):
        for (alpha, r, t) in ((2.0, 1.0, 0.3), (0.5, 2.0, 1.2), (3.0, 0.5, 0.9)):
            got = pqs_qfi(DisplacementAmplitude(alpha), SqueezeParam(r), SystemParams(1.0, 0.0, 1.0), t)
            assert got == pytest.approx(pqs_qfi_closed_form(alpha, r, 1.0, t), rel=1e-8)

    def test_strong_squeezing_simplification(self):
        """With e^{2r} >> e^{4gt}/(e^{2gt}-1), I ~ 4 N t^2 / (e^{2gt} - 1)."""
        n, t = 1e4, 0.5
        e2r = 100.0 * math.exp(4.0 * t) / (math.exp(2.0 * t) - 1.0)
        r = 0.5 * math.log(e2r)
        alpha = math.sqrt(n - math.sinh(r) ** 2)
        got = pqs_qfi(DisplacementAmplitude(alpha), SqueezeParam(r), SystemParams(1.0, 0.0, 1.0), t)
        assert got == pytest.approx(4.0 * n * t * t / (math.exp(2.0 * t) - 1.0), rel=0.02)

    def test_finite_temperature_simplification(self):
        """Same squeezing condition at n_bath > 0: I ~ 4 N t^2 / ((1+2nB)(e^{2gt}-1))."""
        n_max, n_bath, t = 300.0, 1.0, 0.5
        e2r = 50.0 * math.exp(4.0 * t) / (math.exp(2.0 * t) - 1.0)
        r = 0.5 * math.log(e2r)
        alpha = math.sqrt(n_max - (1.0 + 2.0 * n_bath) * math.sinh(r) ** 2 - n_bath)
        params = SystemParams(1.0, 0.0, 1.0, n_bath=n_bath)
        got = pqs_qfi(DisplacementAmplitude(alpha), SqueezeParam(r), params, t)
        expected = 4.0 * n_max * t * t / ((1.0 + 2.0 * n_bath) * (math.exp(2.0 * t) - 1.0))
        assert got == pytest.approx(expected, rel=0.05)

    def test_rejects_driven_params(self):
        with pytest.raises(DomainError):
            pqs_qfi(DisplacementAmplitude(1.0), SqueezeParam(0.0), SystemParams(1.0, 0.5, 1.0), 1.0)


class TestEpsilonOpt:
    def test_reference_value(self):
        assert epsilon_opt(100.0, UNIT) == pytest.approx(math.sqrt(400.0 / 201.0), rel=1e-12)

    def test_half_photon(self):
        assert epsilon_opt(0.5, UNIT) == pytest.approx(UNIT.epsilon_c / math.sqrt(2.0), rel=1e-12)

    def test_approaches_critical_point(self):
        assert epsilon_opt(1e12, UNIT) / UNIT.epsilon_c > 1.0 - 1e-10

    @pytest.mark.parametrize("n_max", [1.0, 100.0, 1e4])
    def test_steady_photons_hit_budget(self, n_max):
        eps = epsilon_opt(n_max, UNIT)
        got = steady_state_photons(SystemParams(1.0, eps, 1.0))
        assert got == pytest.approx(n_max, rel=1e-9)

    def test_finite_temperature(self):
        hot = SystemParams(1.0, 0.0, 1.0, n_bath=1.0)
        eps = epsilon_opt(50.0, hot)
        assert steady_state_photons(SystemParams(1.0, eps, 1.0, n_bath=1.0)) == pytest.approx(50.0, rel=1e-9)

    def test_budget_below_bath_rejected(self):
        with pytest.raises(ConstraintError):
            epsilon_opt(0.5, SystemParams(1.0, 0.0, 1.0, n_bath=1.0))


class TestOptimalSqueezingHomodyne:
    @pytest.mark.parametrize("n_max,gt", [(100.0, 0.8), (1e4, 0.5), (10.0, 2.0)])
    def test_reproduces_closed_form_optimum(self, n_max, gt):
        squeeze = optimal_squeezing_homodyne(n_max, 1.0, gt)
        alpha = DisplacementAmplitude(math.sqrt(n_max - math.sinh(squeeze.r) ** 2))
        pair = pqs_pair(alpha, squeeze, SystemParams(1.0, 0.0, 1.0), gt)
        got = fi_homodyne(pair, math.pi / 2.0)
        x = math.exp(4.0 * gt) + 4.0 * n_max * (math.exp(2.0 * gt) - 1.0)
        expected = 8.0 * n_max * (1.0 + n_max) * gt * gt / (
            math.exp(2.0 * gt) * (1.0 + 2.0 * n_max) - 2.0 * n_max + math.sqrt(x)
        )
        assert got == pytest.approx(expected, rel=1e-8)

    def test_large_budget_asymptote(self):
        n_max, gt = 1e4, 0.5
        squeeze = optimal_squeezing_homodyne(n_max, 1.0, gt)
        alpha = DisplacementAmplitude(math.sqrt(n_max - math.sinh(squeeze.r) ** 2))
        pair = pqs_pair(alpha, squeeze, SystemParams(1.0, 0.0, 1.0), gt)
        got = fi_homodyne(pair, math.pi / 2.0)
        assert got == pytest.approx(4.0 * n_max * gt * gt / (math.exp(2.0 * gt) - 1.0), rel=0.02)

    def test_no_squeezing_at_equilibrium(self):
        assert optimal_squeezing_homodyne(100.0, 1.0, 50.0).r == pytest.approx(0.0, abs=1e-9)

    def test_budget_feasible_over_grid(self):
        for gt in np.geomspace(0.01, 20.0, 30):
            squeeze = optimal_squeezing_homodyne(250.0, 1.0, float(gt))
            assert math.sinh(squeeze.r) ** 2 <= 250.0


class TestBestHomodyne:
    def test_finds_the_higher_of_two_nearby_peaks(self):
        """Two local maxima 0.053 rad apart on a 0.016 rad grid: polishing
        only around the grid's argmax returned FI 0.0697 at psi = 3.089."""
        pair = pqs_pair(DisplacementAmplitude(4.7, 3.0), SqueezeParam(1.9, 3.3),
                        SystemParams(1.0, 0.0, 0.6), 0.01)
        psi, fi = best_homodyne(pair)
        dense = max(fi_homodyne(pair, p) for p in np.linspace(3.0, 3.1, 20001))
        assert fi >= dense * (1.0 - 1e-12)
        assert fi == pytest.approx(0.0727168, rel=1e-6)
        assert psi == pytest.approx(3.0359, abs=1e-4)

    def test_flat_information_has_no_peak(self):
        # Every coefficient of the quartic vanishes: only psi = 0 is tried.
        pair = DerivativePair(thermal_state(1.0), np.zeros(2), np.zeros((2, 2)))
        psi, fi = best_homodyne(pair)
        assert fi == 0.0 and psi == 0.0

    def test_peak_next_to_zero_wraps_into_half_period(self):
        """Lossless CQS at N = 1.2e5 peaks at psi = pi - 0.005: a 192-point
        grid returned psi = -0.00496. The state is pure with zero mean, so the
        best homodyne FI equals the QFI (1.4063046e12 by the mpmath oracle;
        the finite-difference derivative had let FI reach 1.406333e12)."""
        n, omega0, t = 123178.57335893599, 0.7654364352428203, 129.3406989831856
        lossless = SystemParams(omega0, 0.0, 0.0)
        params = SystemParams(omega0, epsilon_opt(n, lossless), 0.0)
        psi, fi = best_homodyne(cqs_pair(params, t))
        assert psi == pytest.approx(math.pi - 0.005, abs=1e-3)
        assert fi == pytest.approx(van_loan_qfi(params, [0.0, 0.0], np.eye(2), t), rel=1e-12)

    def test_rounded_pure_state_has_no_whitening(self):
        # det(sigma) rounds to -128 (see test_gaussian.py): no Cholesky factor.
        sigma = np.array([[354421486.6488003, -613876021.5924665], [-613876021.5924665, 1063264457.946401]])
        pair = DerivativePair(GaussianState(np.zeros(2), sigma), np.ones(2), np.eye(2))
        with pytest.raises(InvalidStateError, match="not invertible"):
            best_homodyne(pair)


class TestOptimizeTime:
    def test_boundary_maximizer(self):
        budget = ResourceBudget(n_max=1.0, total_time=1.0, t_pm=0.0)
        t_opt, best = optimize_time(lambda t: t * t, budget, (0.1, 10.0))
        assert t_opt == pytest.approx(10.0, rel=1e-3)
        assert best == pytest.approx(10.0, rel=1e-3)

    def test_non_finite_rate_rejected(self):
        budget = ResourceBudget(n_max=1.0, total_time=1.0, t_pm=0.0)
        with pytest.raises(SearchError):
            optimize_time(lambda t: math.nan, budget, (0.1, 1.0))

    def test_bad_bracket_rejected(self):
        budget = ResourceBudget(n_max=1.0, total_time=1.0)
        with pytest.raises(DomainError):
            optimize_time(lambda t: t, budget, (1.0, 0.1))

    def test_one_array_call_scans_the_grid(self):
        """The scan is one call with the whole 128-point grid; the best grid
        point's value and the polish use floats."""
        seen = []
        spec = ProtocolSpec(ProtocolKind.PQS, UNIT, ResourceBudget(n_max=100.0, total_time=10.0, t_pm=0.5))

        def rate(t):
            seen.append(t)
            return spec.qfi(t)

        t_opt, best = optimize_time(rate, spec.budget, (1e-3, 5.0))
        first, *later = seen
        assert isinstance(first, np.ndarray) and first.shape == (128,)
        assert np.array_equal(first, np.geomspace(1e-3, 5.0, 128))
        assert later and all(type(t) is float for t in later)
        assert best == pytest.approx(spec.qfi(t_opt) / (t_opt + 0.5), rel=1e-12)

    def test_search_error_names_first_non_finite_grid_point(self):
        budget = ResourceBudget(n_max=1.0, total_time=1.0)
        grid = np.geomspace(0.1, 10.0, 128)
        first_bad = grid[grid > 2.0][0]
        with pytest.raises(SearchError, match=re.escape(f"t = {first_bad!r}")):
            optimize_time(lambda t: np.where(t > 2.0, math.inf, t), budget, (0.1, 10.0))


class TestTotalQfi:
    def test_linear_rate_is_time_independent(self):
        budget = ResourceBudget(n_max=1.0, total_time=7.0, t_pm=0.0)
        _, best = optimize_time(lambda t: 3.0 * t, budget, (0.1, 10.0))
        assert best * budget.total_time == pytest.approx(21.0, rel=1e-9)

    def test_report_fields_consistent(self):
        spec = ProtocolSpec(
            ProtocolKind.PQS, UNIT, ResourceBudget(n_max=100.0, total_time=10.0, t_pm=0.5)
        )
        report = total_qfi(spec, 0.8)
        assert report.repetitions == pytest.approx(10.0 / 1.3, rel=1e-12)
        assert report.total_qfi == pytest.approx(report.repetitions * report.qfi_single_shot, rel=1e-12)
        assert report.total_qfi <= report.bound_value * (1.0 + 1e-6)
        assert report.fi_homodyne_best <= report.qfi_single_shot * (1.0 + 1e-6)
        assert report.photons_at_t <= 100.0 * (1.0 + 1e-9)

    def test_pqs_saturates_bound_at_large_budget(self):
        n = 1e4
        spec = ProtocolSpec(
            ProtocolKind.PQS, UNIT, ResourceBudget(n_max=n, total_time=10.0, t_pm=0.0)
        )
        alpha, squeeze = spec.pqs_input
        rate = lambda t: pqs_qfi(alpha, squeeze, UNIT, t)
        t_opt, best = optimize_time(rate, spec.budget, (1e-4, 5.0))
        report = total_qfi(spec, t_opt)
        assert report.total_qfi >= 0.8 * 2.0 * n * 10.0
        assert report.total_qfi <= report.bound_value * (1.0 + 1e-6)

    def test_overhead_gap(self):
        """t_pm = 2/gamma collapses the passive rate but barely moves the driven one."""
        n = 100.0
        alpha, squeeze = default_pqs_input(n)
        rate_pqs = lambda t: pqs_qfi(alpha, squeeze, UNIT, t)
        b0 = ResourceBudget(n_max=n, total_time=1.0, t_pm=0.0)
        b2 = ResourceBudget(n_max=n, total_time=1.0, t_pm=2.0)
        _, p0 = optimize_time(rate_pqs, b0, (1e-3, 20.0))
        _, p2 = optimize_time(rate_pqs, b2, (1e-3, 20.0))
        driven = SystemParams(1.0, epsilon_opt(n, UNIT), 1.0)
        rate_cqs = lambda t: cqs_qfi(driven, t)
        _, c0 = optimize_time(rate_cqs, b0, (1.0, 4000.0))
        _, c2 = optimize_time(rate_cqs, b2, (1.0, 4000.0))
        assert 1.0 - p2 / p0 > 0.40
        assert abs(1.0 - c2 / c0) < 0.10

    def test_budget_violation_rejected(self):
        with pytest.raises(ConstraintError):
            ProtocolSpec(
                ProtocolKind.PQS,
                UNIT,
                ResourceBudget(n_max=5.0, total_time=1.0),
                pqs_input=(DisplacementAmplitude(3.0), SqueezeParam(0.0)),
            )

    @pytest.mark.parametrize("n_max", [1e7, 1e8, 1e9])
    def test_epsilon_opt_drive_within_budget(self, n_max):
        """epsilon_opt rounds epsilon, and the photon count's condition number
        in epsilon is ~4 n_max: the budget checks allow for that rounding."""
        params = SystemParams(1.0, epsilon_opt(n_max, UNIT), 1.0)
        spec = ProtocolSpec(ProtocolKind.CQS, params, ResourceBudget(n_max=n_max, total_time=1.0))
        report = total_qfi(spec, steady_time(params))
        assert report.photons_at_t == pytest.approx(n_max, rel=1e-5)

    @pytest.mark.parametrize("n_max", [1e3, 1e7, 1e8])
    def test_drive_one_ppm_over_budget_rejected(self, n_max):
        params = SystemParams(1.0, epsilon_opt(n_max * (1.0 + 1e-6), UNIT), 1.0)
        with pytest.raises(ConstraintError):
            ProtocolSpec(ProtocolKind.CQS, params, ResourceBudget(n_max=n_max, total_time=1.0))

    def test_cqs_budget_checked_at_construction(self):
        driven = SystemParams(1.0, epsilon_opt(100.0, UNIT), 1.0)
        with pytest.raises(ConstraintError):
            ProtocolSpec(ProtocolKind.CQS, driven, ResourceBudget(n_max=50.0, total_time=1.0))


class TestFundamentalBound:
    def test_constant_trajectory(self):
        result = fundamental_bound(lambda t: 100.0, 10.0, 1.0, 0.0)
        assert result.integral == pytest.approx(2000.0, rel=1e-8)
        assert result.cap == pytest.approx(2000.0, rel=1e-12)

    def test_zero_temperature_reduction(self):
        """At n_bath = 0 the bound is (2/gamma) * integral of N(t)."""
        traj = lambda t: 2.0 + math.cos(3.0 * t)
        total_time = 4.0
        result = fundamental_bound(traj, total_time, 0.5, 0.0)
        exact = (2.0 / 0.5) * (2.0 * total_time + math.sin(3.0 * total_time) / 3.0)
        assert result.integral == pytest.approx(exact, rel=1e-8)

    def test_large_occupation_integrand_limit(self):
        n = 1e9
        result = fundamental_bound(lambda t: n, 1.0, 1.0, 1.0)
        assert result.integral == pytest.approx(2.0 * n / 3.0, rel=1e-6)

    def test_decayed_squeezed_vacuum(self):
        """PQS squeezed vacuum at n_B = 0: N(t) = N e^{-2t}, so the integral is
        N (1 - e^{-2T}), also where the integrand has decayed to roundoff level."""
        n_max, total_time = 100.0, 18.3
        state0 = pqs_input_state(*default_pqs_input(n_max))
        calls = 0

        def traj(t):
            nonlocal calls
            calls += 1
            return mean_photons(evolve_passive(UNIT, state0, t))

        result = fundamental_bound(traj, total_time, 1.0, 0.0)
        assert result.integral == pytest.approx(n_max * -math.expm1(-2.0 * total_time), rel=1e-9)
        assert result.cap == pytest.approx(2.0 * n_max * total_time, rel=1e-12)
        assert calls <= 10_000

    def test_lossless_bound_infinite(self):
        result = fundamental_bound(lambda t: 5.0, 1.0, 0.0, 0.0)
        assert math.isinf(result.integral) and math.isinf(result.cap)

    def test_negative_trajectory_rejected(self):
        with pytest.raises(DomainError):
            fundamental_bound(lambda t: -1.0, 1.0, 1.0, 0.0)

    def test_budget_cap_matches(self):
        budget = ResourceBudget(n_max=100.0, total_time=10.0)
        assert budget_cap(budget, 1.0, 0.0) == pytest.approx(2000.0)
        assert budget_cap(budget, 1.0, 1.0) == pytest.approx(
            2.0 * 100.0 * 10.0 / (3.0 - 1.0 / 101.0), rel=1e-12
        )


class TestBeyondThreshold:
    def test_zero_time(self):
        params = SystemParams(1.0, 2.0, 0.0)
        assert beyond_threshold_qfi(params, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_photon_growth(self):
        from critsense.dynamics import mean_photons_vs_time

        u = math.sqrt(24.0)
        params = SystemParams(1.0, 5.0, 0.0)
        t = 5.0 / u
        n = mean_photons_vs_time(params, t)
        assert n == pytest.approx(math.exp(2.0 * u * t) / 4.0, rel=0.05)

    def test_quench_asymptote(self):
        """Exact lossless QFI approaches 2 N(t)^2/(eps^2 - eps_c^2): a frequency
        shift rotates the squeezed vacuum's long axis by 1/(2u) per unit shift."""
        from critsense.dynamics import mean_photons_vs_time

        params = SystemParams(1.0, 2.0, 0.0)
        u = math.sqrt(params.epsilon ** 2 - params.epsilon_c ** 2)
        t = 5.0 / u
        n = mean_photons_vs_time(params, t)
        got = beyond_threshold_qfi(params, t)
        assert got == pytest.approx(2.0 * n * n / u ** 2, rel=0.05)

    def test_epsilon_choice(self):
        from critsense.dynamics import mean_photons_vs_time

        n_max, total = 1000.0, 1.0
        w0 = 0.05 * math.log(4.0 * n_max) / 2.0
        eps = beyond_threshold_epsilon(n_max, total, w0)
        n_final = mean_photons_vs_time(SystemParams(w0, eps, 0.0), total)
        assert n_final == pytest.approx(n_max, rel=0.05)

    def test_lossy_quench_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            beyond_threshold_qfi(SystemParams(1.0, 2.0, 0.1), 1.0)


class TestSteadyStateProperties:
    def test_finite_time_tracks_temperature_story(self):
        eps = 0.9975 * math.sqrt(2.0)
        cold = SystemParams(1.0, eps, 1.0)
        hot = SystemParams(1.0, eps, 1.0, n_bath=1.0)
        late = 10.0
        ratio = cqs_qfi(hot, late) / cqs_qfi(cold, late)
        assert ratio == pytest.approx(1.0, abs=0.1)
