import math
import re
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import driven_pair, passive_pair, pqs_qfi_closed_form, steady_time, van_loan_qfi
from critsense.cli import run_compute
from critsense.dynamics import (
    SystemParams, evolve_critical, evolve_passive, mean_photons_vs_time, spectral_info, steady_state_photons,
)
from critsense.errors import (
    AccuracyError,
    ConfigError,
    ConstraintError,
    CritsenseError,
    DomainError,
    InvalidStateError,
    PreconditionError,
    SearchError,
)
from critsense.gaussian import (
    DisplacementAmplitude, GaussianState, SqueezeParam, mean_photons, rotation_matrix, thermal_state,
)
from critsense.metrology import DerivativePair, fi_homodyne, qfi
from critsense.protocols import (
    ProtocolKind,
    ProtocolSpec,
    ResourceBudget,
    best_homodyne,
    budget_cap,
    cqs_qfi,
    cqs_qfi_steady,
    default_pqs_input,
    epsilon_opt,
    fundamental_bound,
    optimal_homodyne_input,
    optimize_time,
    pqs_input_state,
    pqs_qfi,
    total_qfi,
)

UNIT = SystemParams(1.0, 0.0, 1.0)
# A grid with one failing t and the optimal input of each |t|, one per t.
FAILING_TS = np.array([0.5, 1.0, -1.0])
FAILING_TS_INPUT = optimal_homodyne_input(100.0, 1.0, np.abs(FAILING_TS))


@pytest.mark.parametrize("qfi_over_t, error, message", [
    (lambda: pqs_qfi(*FAILING_TS_INPUT, UNIT, FAILING_TS), DomainError, "time must be >= 0, got -1.0"),
    (lambda: ProtocolSpec(ProtocolKind.PQS, UNIT, ResourceBudget(100.0, 1.0), FAILING_TS_INPUT).qfi(FAILING_TS),
     DomainError, "time must be >= 0, got -1.0"),
    (lambda: cqs_qfi(SystemParams(1.0, 2.0, 0.0), np.array([1.0, 1e4, -1.0])), InvalidStateError, "non-finite moments"),
    (lambda: cqs_qfi(SystemParams(1.0, 2.0, 0.0), np.array([-1.0, 1e4, 1.0])), DomainError, "time must be >= 0"),
], ids=["pqs_qfi", "spec_qfi", "cqs_qfi_overflow_first", "cqs_qfi_negative_first"])
def test_array_raises_float_error_at_first_failing_t(qfi_over_t, error, message):
    """A grid with a negative t, and for PQS alpha and r arrays over it: the
    float call's error at the first failing t, each input taken at its own
    t. Above threshold an earlier t that overflows comes first, though the
    negative t is what the array's first check would name."""
    with pytest.raises(error, match=re.escape(message)):
        qfi_over_t()


class TestCqsQfi:
    def test_zero_time(self):
        assert cqs_qfi(SystemParams(1.0, 1.2, 1.0), 0.0) == pytest.approx(0.0, abs=1e-12)
        assert cqs_qfi(SystemParams(1.0, 1.2, 1.0, n_bath=1.0), 0.0) == pytest.approx(0.0, abs=1e-10)

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
        params = SystemParams(1.0, 1.0 - 1e-6, 0.0)
        t = 30.0
        n = mean_photons_vs_time(params, t)
        expected = (2.0 * n + 8.0 * n * n / 9.0) * t * t
        assert cqs_qfi(params, t) == pytest.approx(expected, rel=0.10)

    @pytest.mark.parametrize("gamma,n_bath", [(1.0, 0.0), (0.5, 0.0), (1.0, 1.0)])
    def test_damped_exceptional_point_at_late_times(self, gamma, n_bath):
        """The damped exceptional point settles to its steady state: from t =
        5.7e102, where tau^3 overflows long after e^{-gamma t} reached 0, the
        QFI keeps its t = 5e102 value, as floats and as an array, within
        1e-14 of cqs_qfi_steady, and nothing warns. Without loss tau^3 is due
        and overflows, a typed error."""
        params = SystemParams(1.0, 1.0, gamma, n_bath)
        ts = [5.7e102, 1e103, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            settled = cqs_qfi(params, 5e102)
            floats = [cqs_qfi(params, t) for t in ts]
            array = cqs_qfi(params, np.array(ts))
        assert floats == [settled] * len(ts) and array.tolist() == floats
        steady = cqs_qfi_steady(params)
        assert abs(settled - steady) <= 1e-14 * steady
        with pytest.raises(InvalidStateError):
            cqs_qfi(SystemParams(1.0, 1.0, 0.0, n_bath), 1e103)

    def test_transient_lower_bound(self):
        """Inside the transient window the QFI exceeds N(t)^2 / (2 gamma^2)."""
        params = SystemParams(1.0, epsilon_opt(100.0, UNIT), 1.0)
        info = spectral_info(params)
        t_mid = math.sqrt(1.0 / (info.lambda_plus.real * info.lambda_minus.real))
        n = mean_photons_vs_time(params, t_mid)
        assert cqs_qfi(params, t_mid) >= 0.9 * n * n / 2.0


class TestPqsQfi:
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

    def test_finite_for_every_finite_budget(self):
        """2 n_max overflows from n_max ~ 9e307; the quotient is taken with
        the factor 2 out of both sides, which is exact, so it matches the
        textbook form bit for bit wherever that is finite."""
        assert epsilon_opt(1e308, UNIT) == UNIT.epsilon_c
        hot = SystemParams(1.0, 0.0, 1.0, n_bath=2.5)
        for n_max in np.random.default_rng(3).uniform(0.0, 1.0, 1000) * 10.0 ** np.arange(-4, 296, 0.3) + 2.5:
            textbook = math.sqrt(2.0 * (n_max - 2.5) / (1.0 + 2.0 * n_max)) * hot.epsilon_c
            assert epsilon_opt(float(n_max), hot) == textbook

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
        """epsilon_opt and the default PQS input refuse a cap at or below the
        bath occupation with one message."""
        message = "photon cap 0.5 does not exceed the bath occupation 1.0"
        with pytest.raises(ConstraintError, match=message):
            epsilon_opt(0.5, SystemParams(1.0, 0.0, 1.0, n_bath=1.0))
        with pytest.raises(ConstraintError, match=message):
            default_pqs_input(0.5, 1.0)


class TestOptimalHomodyneInput:
    @pytest.mark.parametrize("n_max,gt", [(100.0, 0.8), (1e4, 0.5), (10.0, 2.0)])
    def test_reproduces_closed_form_optimum(self, n_max, gt):
        pair = passive_pair(*optimal_homodyne_input(n_max, 1.0, gt), SystemParams(1.0, 0.0, 1.0), gt)
        got = fi_homodyne(pair, math.pi / 2.0)
        x = math.exp(4.0 * gt) + 4.0 * n_max * (math.exp(2.0 * gt) - 1.0)
        expected = 8.0 * n_max * (1.0 + n_max) * gt * gt / (
            math.exp(2.0 * gt) * (1.0 + 2.0 * n_max) - 2.0 * n_max + math.sqrt(x)
        )
        assert got == pytest.approx(expected, rel=1e-8)

    def test_large_budget_asymptote(self):
        n_max, gt = 1e4, 0.5
        pair = passive_pair(*optimal_homodyne_input(n_max, 1.0, gt), SystemParams(1.0, 0.0, 1.0), gt)
        got = fi_homodyne(pair, math.pi / 2.0)
        assert got == pytest.approx(4.0 * n_max * gt * gt / (math.exp(2.0 * gt) - 1.0), rel=0.02)

    def test_no_squeezing_at_equilibrium(self):
        alpha, squeeze = optimal_homodyne_input(100.0, 1.0, 50.0)
        assert squeeze.r == pytest.approx(0.0, abs=1e-9)
        assert alpha.magnitude == pytest.approx(10.0, rel=1e-9)

    def test_budget_filled_over_grid(self):
        """The squeezing stays within the budget, and the displacement fills
        the rest of it."""
        for gt in np.geomspace(0.01, 20.0, 30):
            alpha, squeeze = optimal_homodyne_input(250.0, 1.0, float(gt))
            assert math.sinh(squeeze.r) ** 2 <= 250.0
            assert alpha.magnitude**2 + math.sinh(squeeze.r) ** 2 == pytest.approx(250.0, rel=1e-12)

    @pytest.mark.parametrize("n_max", [1.0, 100.0, 1e4])
    @pytest.mark.parametrize("gt", [1e-15, 1e-12, 1e-9])
    def test_small_gamma_t_matches_high_precision(self, n_max, gt):
        """At small gamma t, e^{2r} = (sqrt(1 + 4 N q (1 - q)) - q) / (1 - q),
        q = e^{-2 gamma t}, subtracts nearly equal terms: taken that way, r
        is 7.3e-4 off at N = 1, gamma t = 1e-15. Against 60 digits, to 1e-14
        relative."""
        with mpmath.workdps(60):
            growth = mpmath.expm1(2 * mpmath.mpf(gt))
            e2r = (mpmath.sqrt((growth + 1) ** 2 + 4 * mpmath.mpf(n_max) * growth) - 1) / growth
            exact = float(mpmath.log(e2r) / 2)
        assert optimal_homodyne_input(n_max, 1.0, gt)[1].r == pytest.approx(exact, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("call", [lambda t: cqs_qfi(SystemParams(1.0, 0.9, 1.0), t),
                                  lambda t: optimal_homodyne_input(10.0, 1.0, t)], ids=["cqs_qfi", "optimal_input"])
@pytest.mark.parametrize("t", [np.ones((2, 2)), np.array(1.0)], ids=["2-D", "0-D"])
def test_array_of_times_must_be_one_dimensional(call, t):
    with pytest.raises(DomainError, match="an array of times must be 1-D"):
        call(t)


class TestBestHomodyne:
    def test_finds_the_higher_of_two_nearby_peaks(self):
        """Two local maxima 0.053 rad apart on a 0.016 rad grid: polishing
        only around the grid's argmax returned FI 0.0697 at psi = 3.089."""
        pair = passive_pair(DisplacementAmplitude(4.7, 3.0), SqueezeParam(1.9, 3.3),
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
        psi, fi = best_homodyne(driven_pair(params, t))
        assert psi == pytest.approx(math.pi - 0.005, abs=1e-3)
        assert fi == pytest.approx(van_loan_qfi(params, [0.0, 0.0], np.eye(2), t), rel=1e-12)

    def test_tied_peaks_give_the_smaller_angle(self):
        """A pure lossless state has two angles at which FI = QFI: here
        compute config 76 (gamma = 0, n_max = 279.8, t = 3.835), with peaks
        at psi = 3.0964 and 3.1010 whose FI differ in the last bits. The
        smaller angle is returned for the pair and for a stack of it, and
        still after dsigma is scaled by 1 + 2^-52, which flipped the first
        maximum between the two peaks."""
        omega0, n, t = 2.8100731156007757, 279.83482979392613, 3.8352898602820344
        params = SystemParams(omega0, epsilon_opt(n, SystemParams(omega0, 0.0, 0.0)), 0.0)
        pair = driven_pair(params, t)
        stack = driven_pair(params, np.array([t]))
        for p in (pair, stack):
            for bumped in (p, DerivativePair(p.state, p.dv, p.dsigma * (1.0 + 2.0 ** -52))):
                psi, fi = best_homodyne(bumped)
                assert np.all(psi == pytest.approx(3.0963629588789, abs=1e-12))
                assert np.all(fi == pytest.approx(cqs_qfi(params, t), rel=1e-14))
                assert np.all(fi == fi_homodyne(bumped, psi))

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


class TestProtocolSpec:
    """The kind fixes the start state and the evolution once; state(t),
    pair(t) and qfi(t) are those of the public functions, bit for bit."""

    TIMES = (0.0, 0.3, 2.0, 40.0)
    HOT = SystemParams(1.0, 0.0, 1.0, n_bath=0.5)
    INPUT = (DisplacementAmplitude(1.5, 0.3), SqueezeParam(0.7, 0.2))

    def _cqs(self):
        params = replace(self.HOT, epsilon=epsilon_opt(100.0, self.HOT))
        return ProtocolSpec(ProtocolKind.CQS, params, ResourceBudget(n_max=100.0, total_time=1.0))

    def _pqs(self):
        return ProtocolSpec(ProtocolKind.PQS, self.HOT, ResourceBudget(n_max=100.0, total_time=1.0), self.INPUT)

    @staticmethod
    def _same_state(a, b):
        assert np.array_equal(a.v, b.v) and np.array_equal(a.sigma, b.sigma)

    def _same_pair(self, a, b):
        self._same_state(a.state, b.state)
        assert np.array_equal(a.dv, b.dv) and np.array_equal(a.dsigma, b.dsigma)

    def test_cqs_evolves_critically_from_the_bath(self):
        spec = self._cqs()
        for t in self.TIMES:
            state = spec.evolution(spec.params, spec.start, t)
            self._same_state(state, evolve_critical(spec.params, thermal_state(0.5), t))
            self._same_pair(spec.pair(t), driven_pair(spec.params, t))

    def test_pqs_evolves_passively_from_its_input(self):
        spec = self._pqs()
        for t in self.TIMES:
            state = spec.evolution(spec.params, spec.start, t)
            self._same_state(state, evolve_passive(self.HOT, pqs_input_state(*self.INPUT, 0.5), t))
            self._same_pair(spec.pair(t), passive_pair(*self.INPUT, self.HOT, t))

    def test_array_qfi_is_the_public_one(self):
        ts = np.geomspace(0.01, 50.0, 64)
        assert np.array_equal(self._cqs().qfi(ts), cqs_qfi(self._cqs().params, ts))
        assert np.array_equal(self._pqs().qfi(ts), pqs_qfi(*self.INPUT, self.HOT, ts))

    def test_replace_rebuilds_the_start(self):
        cold = replace(self._cqs(), params=replace(self._cqs().params, n_bath=0.0))
        self._same_state(cold.start, thermal_state(0.0))
        squeezed = replace(self._pqs(), pqs_input=(DisplacementAmplitude(0.0), SqueezeParam(1.0)))
        self._same_state(squeezed.start, pqs_input_state(DisplacementAmplitude(0.0), SqueezeParam(1.0), 0.5))
        assert squeezed.evolution is evolve_passive and cold.evolution is evolve_critical

    def test_equality_ignores_start_and_evolution(self):
        spec = self._pqs()
        twin = replace(spec)
        object.__setattr__(twin, "start", thermal_state(3.0))
        object.__setattr__(twin, "evolution", evolve_critical)
        assert twin == spec and hash(twin) == hash(spec)
        assert "start" not in repr(spec) and "evolution" not in repr(spec)

    def _stacked(self, ts):
        return ProtocolSpec(ProtocolKind.PQS, UNIT, ResourceBudget(n_max=100.0, total_time=1.0),
                            optimal_homodyne_input(100.0, 1.0, ts))

    def test_stacked_input_compares_as_one_bool(self):
        ts = np.array([0.5, 1.0, 2.0])
        spec = self._stacked(ts)
        assert (spec == self._stacked(ts.copy())) is True
        assert (spec == self._stacked(np.array([0.5, 1.0, 3.0]))) is False
        assert (spec == self._stacked(ts[:2])) is False
        assert (spec == replace(spec, budget=ResourceBudget(n_max=200.0, total_time=1.0))) is False

    def test_inputs_per_t_of_different_lengths_rejected(self):
        pqs_input = (DisplacementAmplitude(np.ones(3)), SqueezeParam(np.ones(4)))
        with pytest.raises(PreconditionError, match="input per t of 3 times on a stack of 4 states"):
            pqs_input_state(*pqs_input)
        with pytest.raises(PreconditionError, match="input per t of 3 times on a stack of 4 states"):
            ProtocolSpec(ProtocolKind.PQS, UNIT, ResourceBudget(n_max=100.0, total_time=1.0), pqs_input)

    @pytest.mark.parametrize("kind", ["XYZ", None, "cqs"])
    def test_unknown_kind_is_domain_error(self, kind):
        with pytest.raises(DomainError, match=re.escape(f"kind must be one of ['CQS', 'PQS'], got {kind!r}")):
            ProtocolSpec(kind, UNIT, ResourceBudget(n_max=10.0, total_time=1.0))

    def test_budget_messages(self):
        """Each of the three budget checks names the photons, the budget and,
        for photons(t), the t, in full: for a float and, at the first t over
        the budget, for an array of t (or a stacked input)."""

        def message(call) -> str:
            with pytest.raises(ConstraintError) as raised:
                call()
            return str(raised.value)

        budget = ResourceBudget(n_max=5.0, total_time=1.0)
        for magnitude, k in ((3.0, 0), (np.array([1.0, 3.0, 4.0]), 1)):
            start = (DisplacementAmplitude(magnitude), SqueezeParam(0.0))
            photons = np.ravel(mean_photons(pqs_input_state(*start)))[k].item()
            assert photons == pytest.approx(9.0, rel=1e-12)
            assert message(lambda: ProtocolSpec(ProtocolKind.PQS, UNIT, budget, start)) == (
                f"input state holds {photons!r} photons, budget allows 5.0"
            )
        driven = SystemParams(1.0, 1.4, 1.0)
        assert message(lambda: ProtocolSpec(ProtocolKind.CQS, driven, budget)) == (
            f"steady state holds {steady_state_photons(driven)!r} photons, budget allows 5.0"
        )
        beyond = ProtocolSpec(ProtocolKind.CQS, SystemParams(1.0, 2.0, 1.0), ResourceBudget(100.0, 1.0))
        for t, k in ((4.0, 0), (np.array([1.0, 4.0, 5.0]), 1)):
            photons = np.ravel(mean_photons(evolve_critical(beyond.params, beyond.start, t)))[k].item()
            assert message(lambda: beyond.photons(t)) == (
                f"protocol holds {photons!r} photons at t = {np.ravel(t)[k].item()!r}, budget allows 100.0"
            )


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

    @pytest.mark.parametrize(
        "traj",
        [lambda t: 0.0, lambda t: 1e-16 * (1.0 + np.cos(t))],
        ids=["zero", "roundoff"],
    )
    def test_zero_trajectory(self, traj):
        """An N that is 0, or 0 up to roundoff, converges to a bound of 0:
        the relative error is 0/0 there, so the absolute floor stops it."""
        result = fundamental_bound(traj, 3.0, 1.0, 2.0)
        assert result.integral == pytest.approx(0.0, abs=1e-14)
        assert 0.0 <= result.error <= 1e-14 and 0.0 <= result.cap <= 1e-14

    def test_zero_temperature_reduction(self):
        """At n_bath = 0 the bound is (2/gamma) * integral of N(t)."""
        traj = lambda t: 2.0 + np.cos(3.0 * t)
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
        N (1 - e^{-2T}), also where the integrand has decayed to roundoff level.
        The trajectory is called on arrays of t, a handful of times."""
        n_max, total_time = 100.0, 18.3
        state0 = pqs_input_state(*default_pqs_input(n_max))
        calls = []

        def traj(t):
            calls.append(t.shape)
            return mean_photons(evolve_passive(UNIT, state0, t))

        result = fundamental_bound(traj, total_time, 1.0, 0.0)
        assert result.integral == pytest.approx(n_max * -math.expm1(-2.0 * total_time), rel=1e-9)
        assert result.cap == pytest.approx(2.0 * n_max * total_time, rel=1e-12)
        assert 0.0 <= result.error <= 1e-12 * result.integral
        assert len(calls) <= 5 and all(len(shape) == 1 for shape in calls)

    def test_late_cqs_matches_tight_integral(self):
        """A lossy CQS config that one scipy quad over [0, T] missed by 1.1e-7
        relative, with no warning: the bound agrees with quad on 40 geometric
        pieces at epsrel 1e-13, over float evaluations of N(t), to 1e-10, and
        its own error estimate is within 1e-10 of the integral."""
        from scipy.integrate import quad

        n_max, n_bath, total_time = 28465.312610945562, 2.0, 1383.8997356993266
        params = SystemParams(3.8696930100543563, 0.0, 1.0, n_bath)
        params = replace(params, epsilon=epsilon_opt(n_max, params))
        spec = ProtocolSpec(ProtocolKind.CQS, params, ResourceBudget(n_max=n_max, total_time=total_time))
        result = fundamental_bound(spec.photons, total_time, 1.0, n_bath)

        def rate(t):
            n = spec.photons(t)
            return 2.0 * n / (1.0 + 2.0 * n_bath - n_bath / (n + 1.0))

        cuts = [0.0, *np.geomspace(1e-8 * total_time, total_time, 40).tolist()]
        tight = math.fsum(quad(rate, a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0] for a, b in zip(cuts, cuts[1:]))
        assert result.integral == pytest.approx(tight, rel=1e-10)
        assert 0.0 <= result.error <= 1e-10 * result.integral

    def test_lossless_bound_infinite(self):
        result = fundamental_bound(lambda t: 5.0, 1.0, 0.0, 0.0)
        assert math.isinf(result.integral) and math.isinf(result.cap)

    def test_negative_trajectory_rejected(self):
        with pytest.raises(DomainError):
            fundamental_bound(lambda t: -1.0, 1.0, 1.0, 0.0)

    def test_bad_photon_number_names_its_t(self):
        traj = lambda t: np.where(t > 0.5, np.nan, 1.0)
        with pytest.raises(DomainError, match=r"got nan at t = 1\.0"):
            fundamental_bound(traj, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "traj,gamma",
        [
            pytest.param(lambda t: np.where(t < 1.0 / 3.0, 1.0, 2.0), 1.0, id="step"),
            pytest.param(lambda t: 1e308, 1e-3, id="overflow"),
        ],
    )
    def test_unconverged_integral_raises_accuracy_error(self, traj, gamma):
        with pytest.raises(AccuracyError, match="did not converge"):
            fundamental_bound(traj, 1.0, gamma, 0.0)

    @pytest.mark.parametrize("total_time,gamma", [(1.0, 1e-320), (1e308, 1.0)], ids=["subnormal_gamma", "huge_time"])
    def test_scale_beyond_double_range_raises_accuracy_error(self, total_time, gamma):
        """The absolute tolerance scales with the bound for one photon held
        over T; where that overflows, a typed error names it before the
        quadrature starts."""
        with pytest.raises(AccuracyError, match="overflows"):
            fundamental_bound(lambda t: 1.0, total_time, gamma, 0.0)

    def test_budget_cap_matches(self):
        budget = ResourceBudget(n_max=100.0, total_time=10.0)
        assert budget_cap(budget, 1.0, 0.0) == pytest.approx(2000.0)
        assert budget_cap(budget, 1.0, 1.0) == pytest.approx(
            2.0 * 100.0 * 10.0 / (3.0 - 1.0 / 101.0), rel=1e-12
        )


def _lossless_quench(params: SystemParams) -> SystemParams:
    """params, once they are shown to be a lossless quench from vacuum above
    the critical point, the regime of the quench analysis."""
    assert params.gamma == 0 and params.n_bath == 0 and params.epsilon > params.epsilon_c
    return params


def _time_at_photons(params: SystemParams, n: float) -> float:
    """The t where a drive beyond threshold, from bath equilibrium, holds n photons."""
    t_hi = 1.0
    while mean_photons_vs_time(params, t_hi) < n:
        t_hi *= 2.0
    return brentq(lambda t: mean_photons_vs_time(params, t) - n, 0.0, t_hi)


class TestBeyondThreshold:
    def test_zero_time(self):
        params = _lossless_quench(SystemParams(1.0, 2.0, 0.0))
        assert cqs_qfi(params, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_photon_growth(self):
        u = math.sqrt(24.0)
        params = SystemParams(1.0, 5.0, 0.0)
        t = 5.0 / u
        n = mean_photons_vs_time(params, t)
        assert n == pytest.approx(math.exp(2.0 * u * t) / 4.0, rel=0.05)

    def test_quench_asymptote(self):
        """Exact lossless QFI approaches 2 N(t)^2/(eps^2 - eps_c^2): a frequency
        shift rotates the squeezed vacuum's long axis by 1/(2u) per unit shift."""
        params = _lossless_quench(SystemParams(1.0, 2.0, 0.0))
        u = math.sqrt(params.epsilon ** 2 - params.epsilon_c ** 2)
        t = 5.0 / u
        n = mean_photons_vs_time(params, t)
        got = cqs_qfi(params, t)
        assert got == pytest.approx(2.0 * n * n / u ** 2, rel=0.05)

    def test_lossy_drive_checked_at_each_t(self):
        """A lossy drive at or beyond threshold builds; `photons` and
        `total_qfi` refuse it only at a t whose state holds more photons
        than the budget allows, and an array of t names its first such t."""
        budget = ResourceBudget(100.0, 1.0)
        for params in (SystemParams(1.0, math.sqrt(2.0), 1.0), SystemParams(1.0, 2.0, 0.1)):
            spec = ProtocolSpec(ProtocolKind.CQS, params, budget)
            t_full = _time_at_photons(params, 100.0)
            state = spec.evolution(spec.params, spec.start, 0.5 * t_full)
            assert spec.photons(0.5 * t_full) == mean_photons(state) < 100.0
            assert total_qfi(spec, 0.5 * t_full).photons_at_t < 100.0
            with pytest.raises(ConstraintError, match=rf"protocol holds \S+ photons at t = {re.escape(repr(2.0 * t_full))},"):
                spec.photons(2.0 * t_full)
            with pytest.raises(ConstraintError, match="protocol holds"):
                total_qfi(spec, 2.0 * t_full)
            grid = np.array([0.5, 2.0, 3.0]) * t_full
            with pytest.raises(ConstraintError, match=rf"at t = {re.escape(repr(float(grid[1])))}, budget allows 100\.0"):
                spec.photons(grid)

    @pytest.mark.parametrize("ratio", [1.05, 1.5, 3.0])
    @pytest.mark.parametrize("n_bath", [0.0, 1.0])
    @pytest.mark.parametrize("gamma", [0.1, 1.0])
    def test_lossy_qfi_at_budget_matches_van_loan(self, gamma, n_bath, ratio):
        """A lossy drive beyond threshold, evaluated through total_qfi at the
        t where it holds N = 1e4 photons, agrees with the 60-digit Van Loan
        oracle to 1e-10, and no homodyne angle beats its QFI."""
        n = 1e4
        unit = SystemParams(1.0, 0.0, gamma, n_bath=n_bath)
        params = replace(unit, epsilon=ratio * unit.epsilon_c)
        t = _time_at_photons(params, n)
        report = total_qfi(ProtocolSpec(ProtocolKind.CQS, params, ResourceBudget(n, 1.0)), t)
        want = van_loan_qfi(params, [0.0, 0.0], (1.0 + 2.0 * n_bath) * np.eye(2), t, dps=60)
        assert report.qfi_single_shot == pytest.approx(want, rel=1e-10)
        assert report.fi_homodyne_best <= report.qfi_single_shot

    @pytest.mark.parametrize("n", [1e4, 1e6, 1e8])
    @pytest.mark.parametrize("epsilon", [1.05, 1.5, 3.0])
    @pytest.mark.parametrize("n_bath", [0.0, 1.0])
    def test_lossless_qfi_at_budget_matches_van_loan(self, n_bath, epsilon, n):
        """A lossless quench (omega0 = 1, so epsilon_c = 1) from a thermal or
        vacuum start, through total_qfi at the t where it holds N photons,
        agrees with the 60-digit Van Loan oracle to 1e-12. The flow gives
        the state det Sigma0, which the det formed at N = 1e8 misses by far
        more than 1 (16 for 9 at n_B = 1, epsilon = 3, a 5x QFI; not
        positive from vacuum at epsilon = 1.5). No homodyne angle beats the
        QFI of a thermal start; from vacuum the state stays pure, and the best
        angle attains it."""
        params = SystemParams(1.0, epsilon, 0.0, n_bath=n_bath)
        t = _time_at_photons(params, n)
        report = total_qfi(ProtocolSpec(ProtocolKind.CQS, params, ResourceBudget(n, t)), t)
        want = van_loan_qfi(params, [0.0, 0.0], (1.0 + 2.0 * n_bath) * np.eye(2), t, dps=60)
        assert report.qfi_single_shot == pytest.approx(want, rel=1e-12)
        if n_bath > 0.0:
            assert report.fi_homodyne_best <= report.qfi_single_shot
        else:
            assert report.fi_homodyne_best == pytest.approx(report.qfi_single_shot, rel=1e-12)

    @pytest.mark.parametrize(
        "params,t,rel",
        [
            pytest.param(SystemParams(7.404169461834643, 13.351729943726664, 0.0, n_bath=2.4388059122667016),
                         0.5515320045601728, 9.4e-14, id="thermal-squeezed"),
            pytest.param(SystemParams(0.40152221061507165, 0.4015223328013827, 0.0, n_bath=1.694), 19924.0, 9.8e-13,
                         id="thermal-late"),
            *(pytest.param(SystemParams(1.0, epsilon, 0.0, n_bath=n_bath), None, rel, id=f"1e10-{n_bath:g}-{epsilon:g}")
              for n_bath, rel in ((0.0, 6e-9), (1.0, 2e-9)) for epsilon in (1.05, 1.5, 3.0)),
        ],
    )
    def test_lossless_qfi_past_1e8_matches_van_loan(self, params, t, rel):
        """Lossless drives beyond the points above agree with the Van Loan
        oracle within 10x their measured error, and no homodyne angle beats
        the QFI. Two thermal starts squeezed so far that a det formed from
        Sigma's entries lost every digit (1.6e-6 off at the first, a
        PureStateError at the second): 9.4e-15 and 9.8e-14. The quench at
        the t where N(t) = 1e10, from vacuum and from n_B = 1: its error
        moves with t's last bits, up to 5.8e-10 from vacuum and 1.9e-10 from
        n_B = 1. 40 digits match 90 to the last bit of a double here."""
        if t is None:
            t = _time_at_photons(params, 1e10)
        report = total_qfi(ProtocolSpec(ProtocolKind.CQS, params, ResourceBudget(1e12, t)), t)
        want = van_loan_qfi(params, [0.0, 0.0], (1.0 + 2.0 * params.n_bath) * np.eye(2), t, dps=40)
        assert report.qfi_single_shot == pytest.approx(want, rel=rel)
        assert report.fi_homodyne_best <= report.qfi_single_shot


class TestSteadyStateProperties:
    def test_finite_time_tracks_temperature_story(self):
        eps = 0.9975 * math.sqrt(2.0)
        cold = SystemParams(1.0, eps, 1.0)
        hot = SystemParams(1.0, eps, 1.0, n_bath=1.0)
        late = 10.0
        ratio = cqs_qfi(hot, late) / cqs_qfi(cold, late)
        assert ratio == pytest.approx(1.0, abs=0.1)


_RATE = lambda t: t


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: epsilon_opt(math.inf, UNIT), id="epsilon_opt-n_max-inf"),
        pytest.param(lambda: epsilon_opt(math.nan, UNIT), id="epsilon_opt-n_max-nan"),
        pytest.param(lambda: fundamental_bound(lambda t: 1.0, math.inf, 1.0), id="bound-total_time-inf"),
        pytest.param(lambda: fundamental_bound(lambda t: 1.0, math.nan, 1.0), id="bound-total_time-nan"),
        pytest.param(lambda: fundamental_bound(lambda t: 1.0, 1.0, math.inf), id="bound-gamma-inf"),
        pytest.param(lambda: fundamental_bound(lambda t: 1.0, 1.0, math.nan), id="bound-gamma-nan"),
        pytest.param(lambda: fundamental_bound(lambda t: 1.0, 1.0, 1.0, math.inf), id="bound-n_bath-inf"),
        pytest.param(lambda: fundamental_bound(lambda t: 1.0, 1.0, 1.0, math.nan), id="bound-n_bath-nan"),
        pytest.param(lambda: budget_cap(ResourceBudget(1.0, 1.0), -1.0), id="cap-gamma-negative"),
        pytest.param(lambda: budget_cap(ResourceBudget(1.0, 1.0), math.inf), id="cap-gamma-inf"),
        pytest.param(lambda: budget_cap(ResourceBudget(1.0, 1.0), math.nan), id="cap-gamma-nan"),
        pytest.param(lambda: budget_cap(ResourceBudget(1.0, 1.0), 1.0, -0.5), id="cap-n_bath-negative"),
        pytest.param(lambda: budget_cap(ResourceBudget(1.0, 1.0), 1.0, math.nan), id="cap-n_bath-nan"),
        pytest.param(lambda: optimize_time(_RATE, ResourceBudget(1.0, 1.0), (0.1, math.inf)), id="optimize-inf"),
        pytest.param(lambda: optimize_time(_RATE, ResourceBudget(1.0, 1.0), (math.nan, 1.0)), id="optimize-nan"),
        pytest.param(lambda: default_pqs_input(10.0, -0.6), id="default_input-n_bath-negative"),
        pytest.param(lambda: rotation_matrix(np.array([0.5, math.inf])), id="rotation-angle-inf"),
    ],
)
def test_non_finite_scalar_inputs_raise_domain_error(call):
    """A non-finite budget, time, rate, bracket edge or angle, or a negative
    rate or bath, raises DomainError, not a nan, inf or negative result, a
    warning, math's or scipy's bare ValueError."""
    with pytest.raises(DomainError):
        call()


# Drives, each with times thinned around where its flows leave the double
# range: the lossless exceptional point (the estimators' whitened frame from
# t ~ 1e36, the tangent from 1e77, a Python float tau^3 from 6e102), the
# damped one (finite: tau^3 is not formed where e^{-gamma t} is 0), above
# threshold (the whitened frame, then the tangent, the photon number and
# s12 + s21 just before the state) and lossless below it (from t ~ 1e299).
OVERFLOW_EDGES = [
    (SystemParams(1.0, 1.0, 0.0), np.geomspace(1e30, 1e104, 38)),
    (SystemParams(1.0, 1.0, 1.0), np.geomspace(1e102, 1e104, 5)),
    (SystemParams(1.0, 3.0 * math.sqrt(2.0), 1.0, n_bath=1.0), np.linspace(112.5, 114.0, 7)),
    (SystemParams(1.0, 3.0, 0.0, n_bath=1.0), np.array([55.0, 85.0, 124.5, 125.0, 125.26, 125.5, 126.0])),
    (SystemParams(1.0, 3.0, 0.0), np.array([125.5])),
    (SystemParams(1.0, 1.5, 0.0), np.linspace(313.0, 318.0, 6)),
    (SystemParams(1.0, 0.999999, 0.0), np.geomspace(1e299, 1e302, 7)),
    (SystemParams(1.0, 0.5, 0.0), np.array([1e307, 9e307])),
]
PQS_INPUT = (DisplacementAmplitude(1.0), SqueezeParam(0.5))
# The values each public entry point returns at (params, t): a list, or a
# report's fields.
ENTRY_POINTS = {
    "evolve_critical": lambda p, t: [evolve_critical(p, thermal_state(p.n_bath), t).sigma],
    "evolve_passive": lambda p, t: [evolve_passive(replace(p, epsilon=0.0), thermal_state(p.n_bath), t).sigma],
    "mean_photons_vs_time": lambda p, t: [mean_photons_vs_time(p, t)],
    "cqs_qfi": lambda p, t: [cqs_qfi(p, t)],
    "pqs_qfi": lambda p, t: [pqs_qfi(*PQS_INPUT, replace(p, epsilon=0.0), t)],
    "qfi": lambda p, t: [qfi(driven_pair(p, t))],
    "best_homodyne": lambda p, t: best_homodyne(driven_pair(p, t)),
    "total_qfi": lambda p, t: vars(total_qfi(ProtocolSpec(ProtocolKind.CQS, p, ResourceBudget(1e308, t)), t)),
    "run_compute": lambda p, t: run_compute({"mode": "qfi", "t": t,
                                             "params": {"omega0": p.omega0, "epsilon": p.epsilon,
                                                        "gamma": p.gamma, "n_bath": p.n_bath},
                                             "protocol": {"kind": "CQS", "n_max": 1e308, "total_time": t}})["report"],
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_overflow_edges_are_typed(entry):
    """Around each drive's overflow edge and at t = 1e308, as floats and, but
    for total_qfi and run_compute, which take floats, as arrays of one t and
    of them all: each call returns finite values or raises a CritsenseError,
    and warns of nothing. A report's bound_value, the budget cap, is left
    out: it is inf without loss, or at this budget of 1e308 photons. A
    ConfigError is no overflow edge, so it fails the test."""
    for params, ts in OVERFLOW_EDGES:
        ts = np.append(ts, 1e308)
        for t in ts.tolist() + ([] if entry in ("total_qfi", "run_compute") else [*ts[:, None], ts]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    values = ENTRY_POINTS[entry](params, t)
                except ConfigError:
                    raise
                except CritsenseError:
                    continue
            if isinstance(values, dict):
                values = [value for key, value in values.items() if key != "bound_value"]
            assert all(np.all(np.isfinite(value)) for value in values), (params, t)


# Each entry point that squares the rates, at omega0 = gamma = w, epsilon = w / 2.
SQUARED_RATES = {
    "spectral_info": spectral_info,
    "steady_state_photons": steady_state_photons,
    "cqs_qfi_steady": cqs_qfi_steady,
    "ProtocolSpec": lambda p: ProtocolSpec(ProtocolKind.CQS, p, ResourceBudget(10.0, 1.0)),
    "evolve_critical": lambda p: evolve_critical(p, thermal_state(0.0), 1.0 / p.omega0),
    "cqs_qfi": lambda p: cqs_qfi(p, 1.0 / p.omega0),
}


@pytest.mark.parametrize("entry", SQUARED_RATES)
@pytest.mark.parametrize("w", [1e154, 1.4e154, 1e155])
def test_squared_rates_beyond_double_range_raise_domain_error(entry, w):
    """Where omega^2 + gamma^2 overflows a sum (1e154), a square itself
    (1.4e154, 1e155), the rates raise DomainError: not fsum's bare
    OverflowError or ValueError, a nan, or a non-finite-moments error."""
    with pytest.raises(DomainError, match="squared rates leave the double range"):
        SQUARED_RATES[entry](SystemParams(w, 0.5 * w, w))


@pytest.mark.parametrize("k", [-190, -64, 3, 64, 190])
def test_power_of_two_units_are_exact(k):
    """Rates times 2^k and times over 2^k give QFIs over 4^k and the same
    photons, to the last bit: below the split, at the exceptional point, in
    the transient, near and above threshold, lossless and passive. Outside
    |k| <= 200 the flows' intermediates leave the normal range."""
    c = 2.0 ** k
    scaled = lambda p: SystemParams(c * p.omega0, c * p.epsilon, c * p.gamma, p.n_bath)
    ts = np.array([0.01, 0.5, 3.0, 20.0])
    for params in (SystemParams(1.0, 0.5, 1.0), SystemParams(1.0, 1.0, 1.0, 0.5),
                   SystemParams(1.0, 1.2, 0.8, 0.3), SystemParams(1.0, 0.9975 * math.sqrt(2.0), 1.0),
                   SystemParams(1.0, 1.6, 1.0, 1.0), SystemParams(1.0, 1.5, 0.0)):
        assert np.array_equal(cqs_qfi(scaled(params), ts / c) * c * c, cqs_qfi(params, ts))
        floats = [cqs_qfi(params, t) for t in ts.tolist()]
        assert [cqs_qfi(scaled(params), t / c) * c * c for t in ts.tolist()] == floats
    steady = SystemParams(1.0, 0.9975 * math.sqrt(2.0), 1.0, 1.0)
    assert cqs_qfi_steady(scaled(steady)) * c * c == cqs_qfi_steady(steady)
    assert steady_state_photons(scaled(steady)) == steady_state_photons(steady)
    passive = SystemParams(1.0, 0.0, 1.0, 0.5)
    assert pqs_qfi(*PQS_INPUT, scaled(passive), 0.5 / c) * c * c == pqs_qfi(*PQS_INPUT, passive, 0.5)
