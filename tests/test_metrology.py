import functools
import math

import numpy as np
import pytest

from conftest import (
    cqs_state_family,
    pqs_qfi_closed_form,
    pqs_state_family,
    rk4_pqs_pair,
    van_loan_qfi,
)
from critsense import dynamics
from critsense.dynamics import SystemParams, evolve_critical, evolve_passive, steady_state
from critsense.errors import AccuracyError, DomainError, PreconditionError, PureStateError
from critsense.gaussian import (
    DisplacementAmplitude,
    GaussianState,
    SqueezeParam,
    apply_squeeze,
    rotation_matrix,
    squeeze_matrix,
    thermal_state,
    vacuum_state,
)
from critsense.metrology import (
    DerivativePair,
    differentiate_at_zero_shift,
    fi_homodyne,
    qfi,
    qfi_fidelity_oracle,
    qfi_terms,
    snr_photon_counting,
)
from critsense.oracle import lyapunov_rk4
from critsense.protocols import (
    best_homodyne,
    cqs_pair,
    cqs_qfi,
    cqs_steady_pair,
    default_pqs_input,
    epsilon_opt,
    pqs_pair,
    pqs_qfi,
    steady_time,
)
from critsense.validate import _rel_state_diff


UNIT = SystemParams(1.0, 0.0, 1.0)


class TestExactDerivative:
    """metrology.differentiate_at_zero_shift against the mpmath Van Loan
    oracle, the RK4 oracle and closed forms."""

    @pytest.mark.parametrize("n_max", [1e5, 1e6, 1e8])
    def test_large_budget_at_steady_time(self, n_max):
        """The finite-difference QFI read 2.7e45 at N = 1e5, raised
        AccuracyError at 1e6 and let a bare OverflowError escape at 1e8."""
        params = SystemParams(1.0, epsilon_opt(n_max, UNIT), 1.0)
        t = steady_time(params)
        want = van_loan_qfi(params, [0.0, 0.0], np.eye(2), t)
        assert cqs_qfi(params, t) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(2.0 * n_max * (n_max + 1.0), rel=1e-4)

    @pytest.mark.parametrize("n_max", [10.0, 100.0, 1e3, 1e4])
    @pytest.mark.parametrize("t", [1.0, 100.0])
    def test_cqs_matches_van_loan(self, n_max, t):
        params = SystemParams(1.0, epsilon_opt(n_max, UNIT), 1.0)
        want = van_loan_qfi(params, [0.0, 0.0], np.eye(2), t)
        assert cqs_qfi(params, t) == pytest.approx(want, rel=1e-12)

    def test_late_time_budget_sweep_config(self):
        """Design config 437 of perfbench/workloads.py (N = 6.6e5 at
        t = 1.1e7), whose finite-difference QFI was nan."""
        params = SystemParams(1.49865, epsilon_opt(657678.35, SystemParams(1.49865, 0.0, 1.0)), 1.0)
        want = van_loan_qfi(params, [0.0, 0.0], np.eye(2), 1.1065e7)
        assert cqs_qfi(params, 1.1065e7) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n_max,frac", [(1e5, 1.0), (1e6, 0.3)])
    def test_lossless_cqs_from_vacuum_is_unitary(self, n_max, frac):
        """A unitary family keeps the purity constant; the finite-difference
        derivative gave |d mu| ~ 1e5 and qfi raised PureStateError."""
        lossless = SystemParams(1.0, 0.0, 0.0)
        params = SystemParams(1.0, epsilon_opt(n_max, lossless), 0.0)
        t = frac * math.pi / (4.0 * math.sqrt(1.0 - params.epsilon ** 2))
        pair = differentiate_at_zero_shift(evolve_critical, params, vacuum_state(), t)
        _, purity_term, _ = qfi_terms(pair)
        assert purity_term == 0.0
        want = van_loan_qfi(params, [0.0, 0.0], np.eye(2), t)
        assert qfi(pair) == pytest.approx(want, rel=1e-12)
        # Pure with zero mean: the best homodyne angle reaches the QFI.
        assert best_homodyne(pair)[1] == pytest.approx(want, rel=1e-12)

    def test_homodyne_below_qfi_at_lossless_quench(self):
        """omega0 = 6.71, eps = 12.75, gamma = 0, t = 0.607: the
        finite-difference pair gave FI 5.4730e8 above its QFI 5.4724e8, and
        0.8% above it for the lossless drive at epsilon_opt(30944.9),
        omega0 = 0.384, at the end of its optimize grid, t = 508.7."""
        w0, n_max = 0.38407669086241203, 30944.926052587714
        budget_drive = SystemParams(w0, epsilon_opt(n_max, SystemParams(w0, 0.0, 0.0)), 0.0)
        for params, t in ((SystemParams(6.71, 12.75, 0.0), 0.607), (budget_drive, 508.72743737077684)):
            pair = cqs_pair(params, t)
            _, best = best_homodyne(pair)
            info = qfi(pair)
            assert best <= info * (1.0 + 1e-12)
            assert info == pytest.approx(van_loan_qfi(params, [0.0, 0.0], np.eye(2), t), rel=1e-12)

    @pytest.mark.parametrize("alpha,r", [(0.0, None), (2.0, 1.0)])
    def test_pqs_thermalised(self, alpha, r):
        """At gamma t = 100 the input survives as e^{-200}: the derivative is
        taken from the decayed input, not from the thermalised sigma."""
        if r is None:
            r = default_pqs_input(100.0)[1].r
        got = pqs_qfi(DisplacementAmplitude(alpha), SqueezeParam(r), UNIT, 100.0)
        assert got > 0.0
        assert got == pytest.approx(pqs_qfi_closed_form(alpha, r, 1.0, 100.0), rel=1e-12)

    @pytest.mark.parametrize(
        "exact,oracle,family",
        [
            (lambda: cqs_pair(SystemParams(1.0, 1.2, 1.0), 2.0),
             lambda: lyapunov_rk4(SystemParams(1.0, 1.2, 1.0), vacuum_state(), 2.0),
             lambda: cqs_state_family(SystemParams(1.0, 1.2, 1.0), 2.0)),
            (lambda: cqs_pair(SystemParams(1.0, 1.0, 1.0, n_bath=0.5), 3.0),
             lambda: lyapunov_rk4(SystemParams(1.0, 1.0, 1.0, n_bath=0.5), thermal_state(0.5), 3.0),
             lambda: cqs_state_family(SystemParams(1.0, 1.0, 1.0, n_bath=0.5), 3.0)),
            (lambda: cqs_pair(SystemParams(1.0, 0.5, 0.0), 2.0),
             lambda: lyapunov_rk4(SystemParams(1.0, 0.5, 0.0), vacuum_state(), 2.0),
             lambda: cqs_state_family(SystemParams(1.0, 0.5, 0.0), 2.0)),
            (lambda: cqs_pair(SystemParams(0.5, 1.0, 2.0, n_bath=1.5), 0.7),
             lambda: lyapunov_rk4(SystemParams(0.5, 1.0, 2.0, n_bath=1.5), thermal_state(1.5), 0.7),
             lambda: cqs_state_family(SystemParams(0.5, 1.0, 2.0, n_bath=1.5), 0.7)),
            # The transient of this exceptional-point drive has decayed as t^3 e^{-2t}.
            (lambda: cqs_steady_pair(SystemParams(1.0, 1.0, 1.0, n_bath=1.0)),
             lambda: lyapunov_rk4(SystemParams(1.0, 1.0, 1.0, n_bath=1.0), thermal_state(1.0), 60.0),
             lambda: lambda d: steady_state(SystemParams(1.0, 1.0, 1.0, n_bath=1.0, delta_omega=d))),
            (lambda: pqs_pair(DisplacementAmplitude(2.0), SqueezeParam(0.8),
                              SystemParams(1.0, 0.0, 1.0, n_bath=0.5), 0.6),
             lambda: rk4_pqs_pair(2.0, 0.8, SystemParams(1.0, 0.0, 1.0, n_bath=0.5), 0.6),
             lambda: pqs_state_family(2.0, 0.8, SystemParams(1.0, 0.0, 1.0, n_bath=0.5), 0.6)),
        ],
    )
    def test_agrees_with_rk4_and_fidelity_oracles(self, exact, oracle, family):
        """The exact pair's state is the public evolution's bit for bit and
        within 1e-8 of the RK4 oracle's; its derivative is within 1e-8 of the
        oracle's, relative to the derivative's size; its QFI is within 1e-4 of
        the fidelity quotient's (that quotient's O(dtheta^2))."""
        pair, rk4, fam = exact(), oracle(), family()
        base = fam(0.0)
        assert np.array_equal(pair.state.sigma, base.sigma)
        assert np.array_equal(pair.state.v, base.v)
        assert _rel_state_diff(pair.state, rk4.state) <= 1e-8
        scale = max(float(np.abs(pair.dsigma).max()), float(np.abs(pair.dv).max()))
        assert np.abs(pair.dsigma - rk4.dsigma).max() <= 1e-8 * scale
        assert np.abs(pair.dv - rk4.dv).max() <= 1e-8 * scale
        assert qfi(pair) == pytest.approx(qfi(rk4), rel=1e-8)
        assert qfi(pair) == pytest.approx(qfi_fidelity_oracle(fam, 1e-4), rel=1e-4)

    def test_one_evolution_per_derivative(self, monkeypatch):
        """The state and its derivative share one evaluation of the closed
        form: s and K, (c, sc), the series test and the noise integrals once
        each. The decorated evolution only names that closed form."""
        calls = []

        @functools.wraps(evolve_critical)
        def counted(*args):
            calls.append(args)
            return evolve_critical(*args)

        pieces = ("_s_and_gap", "_decayed_cosh_sinhc", "_is_series", "_noise_integrals")
        evaluations = dict.fromkeys(pieces, 0)
        for name in evaluations:

            def spy(*args, _name=name, _original=getattr(dynamics, name), **kwargs):
                evaluations[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(dynamics, name, spy)
        pair = differentiate_at_zero_shift(counted, SystemParams(1.0, 1.2, 1.0), thermal_state(0.0), 2.0)
        monkeypatch.undo()
        assert calls == []
        assert evaluations == dict.fromkeys(evaluations, 1)
        assert qfi(pair) == pytest.approx(cqs_qfi(SystemParams(1.0, 1.2, 1.0), 2.0), rel=0.0)

    def test_evaluated_at_zero_shift(self):
        shifted = SystemParams(1.0, 1.2, 1.0, delta_omega=0.3)
        pair = differentiate_at_zero_shift(steady_state, shifted)
        assert np.array_equal(pair.dsigma, cqs_steady_pair(SystemParams(1.0, 1.2, 1.0)).dsigma)

    def test_unknown_evolution_rejected(self):
        with pytest.raises(DomainError):
            differentiate_at_zero_shift(lambda params: vacuum_state(), UNIT)

    def test_passive_rotation_generator(self):
        """dv = t J v for free precession, J = [[0, 1], [-1, 0]]."""
        t = 0.9
        start = apply_squeeze(thermal_state(0.0), SqueezeParam(0.4))
        start = GaussianState(np.array([1.3, -0.2]), start.sigma)
        pair = differentiate_at_zero_shift(evolve_passive, SystemParams(1.0, 0.0, 0.0), start, t)
        v = pair.state.v
        assert np.allclose(pair.dv, [t * v[1], -t * v[0]], rtol=1e-15, atol=0.0)
        assert pair.warn is False


class TestQfi:
    @pytest.mark.parametrize("n_photons,t", [(5.0, 0.7), (50.0, 0.25)])
    def test_noiseless_squeezed_vacuum(self, n_photons, t):
        r = math.asinh(math.sqrt(n_photons))
        pair = pqs_pair(DisplacementAmplitude(0.0), SqueezeParam(r), SystemParams(1.0, 0.0, 0.0), t)
        expected = 8.0 * n_photons * (1.0 + n_photons) * t * t
        assert qfi(pair) == pytest.approx(expected, rel=1e-8)

    def test_noiseless_coherent(self):
        alpha, t = 1.5, 0.7
        pair = pqs_pair(DisplacementAmplitude(alpha), SqueezeParam(0.0), SystemParams(1.0, 0.0, 0.0), t)
        assert qfi(pair) == pytest.approx(4 * alpha ** 2 * t ** 2, rel=1e-9)

    def test_rotation_invariant_state_carries_nothing(self):
        t = 1.1
        st = thermal_state(1.0)
        gen = np.array([[0.0, t], [-t, 0.0]])
        dsigma = gen @ st.sigma + st.sigma @ gen.T  # zero for a thermal state
        pair = DerivativePair(st, np.zeros(2), dsigma)
        assert qfi(pair) == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_with_changing_purity_rejected(self):
        pair = DerivativePair(vacuum_state(), np.zeros(2), np.eye(2))
        with pytest.raises(PureStateError):
            qfi(pair)

    def test_overflow_raises_instead_of_nan(self):
        pair = DerivativePair(thermal_state(1.0), np.zeros(2), np.diag([1e200, -1e200]))
        with np.errstate(over="ignore"):
            for info in (qfi, qfi_terms, lambda p: fi_homodyne(p, 0.0)):
                with pytest.raises(AccuracyError):
                    info(pair)

    def test_dissipative_closed_form(self):
        for (alpha, r, g, t) in [(2.0, 1.0, 1.0, 0.3), (0.5, 2.0, 1.0, 1.2), (0.0, 3.0, 1.0, 0.8)]:
            pair = pqs_pair(DisplacementAmplitude(alpha), SqueezeParam(r), SystemParams(1.0, 0.0, g), t)
            expected = pqs_qfi_closed_form(alpha, r, g, t)
            assert qfi(pair) == pytest.approx(expected, rel=1e-8)

    def test_displacement_term_quadratic(self):
        pair = pqs_pair(DisplacementAmplitude(2.0), SqueezeParam(1.0), SystemParams(1.0, 0.0, 1.0), 0.5)
        _, _, t3 = qfi_terms(pair)
        doubled = DerivativePair(pair.state, 2.0 * pair.dv, pair.dsigma)
        _, _, t3_doubled = qfi_terms(doubled)
        assert t3_doubled == 4.0 * t3

    def test_symplectic_invariance(self):
        pair = lyapunov_rk4(SystemParams(1.0, 1.2, 1.0), vacuum_state(), 2.0)
        base = qfi(pair)
        S = rotation_matrix(0.7) @ squeeze_matrix(SqueezeParam(0.9)) @ rotation_matrix(-1.2)
        moved = DerivativePair(
            GaussianState(S @ pair.state.v, S @ pair.state.sigma @ S.T),
            S @ pair.dv,
            S @ pair.dsigma @ S.T,
        )
        assert qfi(moved) == pytest.approx(base, rel=1e-9)


class TestQfiFidelityOracle:
    def test_constant_family(self):
        # one ulp of fidelity roundoff maps to ~1e-7 after the 8/dtheta^2 quotient
        st = apply_squeeze(thermal_state(0.3), SqueezeParam(0.5))
        assert qfi_fidelity_oracle(lambda d: st, 1e-4) == pytest.approx(0.0, abs=1e-6)

    def test_step_out_of_range(self):
        with pytest.raises(DomainError):
            qfi_fidelity_oracle(lambda d: vacuum_state(), 1e-2)

    @pytest.mark.parametrize(
        "family_builder",
        [
            lambda: (rk4_pqs_pair(2.0, 1.0, SystemParams(1.0, 0.0, 1.0), 0.6),
                     pqs_state_family(2.0, 1.0, SystemParams(1.0, 0.0, 1.0), 0.6)),
            lambda: (rk4_pqs_pair(0.0, 3.0, SystemParams(1.0, 0.0, 1.0, n_bath=1.0), 1.5),
                     pqs_state_family(0.0, 3.0, SystemParams(1.0, 0.0, 1.0, n_bath=1.0), 1.5)),
            lambda: (lyapunov_rk4(SystemParams(1.0, 1.2, 1.0), vacuum_state(), 2.0),
                     cqs_state_family(SystemParams(1.0, 1.2, 1.0), 2.0)),
            lambda: (lyapunov_rk4(SystemParams(1.0, 1.4, 1.0, n_bath=1.0), thermal_state(1.0), 4.0),
                     cqs_state_family(SystemParams(1.0, 1.4, 1.0, n_bath=1.0), 4.0)),
        ],
    )
    def test_agrees_with_formula(self, family_builder):
        """The fidelity quotient against the QFI formula on the RK4 oracle's pair."""
        pair, fam = family_builder()
        reference = qfi(pair)
        estimate = qfi_fidelity_oracle(fam, 1e-4)
        assert estimate == pytest.approx(reference, rel=1e-4)

    def test_noiseless_squeezed_vacuum(self):
        n_photons, t = 10.0, 0.8
        fam = pqs_state_family(0.0, math.asinh(math.sqrt(n_photons)), SystemParams(1.0, 0.0, 0.0), t)
        expected = 8.0 * n_photons * (1.0 + n_photons) * t * t
        assert qfi_fidelity_oracle(fam, 1e-4) == pytest.approx(expected, rel=1e-4)


class TestFiHomodyne:
    @pytest.mark.parametrize("alpha,r,g,n_bath,t", [(2.0, 1.0, 1.0, 0.0, 0.5), (1.5, 0.8, 1.0, 1.0, 0.7)])
    def test_p_quadrature_closed_form(self, alpha, r, g, n_bath, t):
        params = SystemParams(1.0, 0.0, g, n_bath=n_bath)
        pair = pqs_pair(DisplacementAmplitude(alpha), SqueezeParam(r), params, t)
        expected = 4.0 * alpha ** 2 * t * t / (
            (1.0 + 2.0 * n_bath) * (math.exp(-2.0 * r) + math.exp(2.0 * g * t) - 1.0)
        )
        assert fi_homodyne(pair, math.pi / 2) == pytest.approx(expected, rel=1e-8)

    def test_no_signal_gives_zero(self):
        pair = DerivativePair(thermal_state(0.5), np.zeros(2), np.zeros((2, 2)))
        assert fi_homodyne(pair, 0.7) == 0.0

    def test_noiseless_optimal_split(self):
        """alpha/r split with e^{2r} = 2N+1 reaches 4N(1+N)t^2 at psi = pi/2."""
        n_photons, t = 25.0, 0.6
        r = 0.5 * math.log(2.0 * n_photons + 1.0)
        alpha = math.sqrt(n_photons - math.sinh(r) ** 2)
        pair = pqs_pair(DisplacementAmplitude(alpha), SqueezeParam(r), SystemParams(1.0, 0.0, 0.0), t)
        expected = 4.0 * n_photons * (1.0 + n_photons) * t * t
        assert fi_homodyne(pair, math.pi / 2) == pytest.approx(expected, rel=1e-8)

    def test_steady_state_closed_form(self):
        """Stationary-state homodyne FI at arbitrary angle matches the closed form."""
        w0 = gamma = 1.0
        eps = 1.2
        pair = cqs_steady_pair(SystemParams(w0, eps, gamma))
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
            assert fi_homodyne(pair, psi) == pytest.approx(num / den, rel=1e-7)

    def test_mean_uses_the_measured_quadrature(self):
        """The mean signal is taken along x cos(psi) - p sin(psi), the same
        quadrature as the variance: FI at psi equals FI at 0 after rotating
        the family by R(psi), whose first row is (cos psi, -sin psi)."""
        pair = pqs_pair(
            DisplacementAmplitude(2.0, 0.3), SqueezeParam(0.8, 1.1), SystemParams(1.0, 0.0, 1.0), 0.6
        )
        psi = 0.4
        R = rotation_matrix(psi)
        moved = DerivativePair(
            GaussianState(R @ pair.state.v, R @ pair.state.sigma @ R.T),
            R @ pair.dv,
            R @ pair.dsigma @ R.T,
        )
        got = fi_homodyne(pair, psi)
        assert got == pytest.approx(fi_homodyne(moved, 0.0), rel=1e-12)
        assert got == pytest.approx(0.7922, abs=5e-5)

    def test_never_exceeds_qfi(self):
        pairs = [
            lyapunov_rk4(SystemParams(1.0, 1.2, 1.0), vacuum_state(), 2.0),
            lyapunov_rk4(SystemParams(1.0, 1.4, 1.0, n_bath=1.0), thermal_state(1.0), 5.0),
            rk4_pqs_pair(2.0, 1.0, SystemParams(1.0, 0.0, 1.0), 0.5),
            cqs_steady_pair(SystemParams(1.0, 1.35, 1.0)),
        ]
        for pair in pairs:
            info = qfi(pair)
            for psi in np.linspace(0.0, math.pi, 64, endpoint=False):
                assert fi_homodyne(pair, float(psi)) <= info * (1.0 + 1e-6)


class TestSnrPhotonCounting:
    def test_steady_state_closed_form(self):
        """SNR at the stationary state: 4 eps^2 w0^2 / ((3ec^2 - e^2)(ec^2 - e^2)^2)."""
        params = SystemParams(1.0, 1.2, 1.0)
        pair = cqs_steady_pair(params)
        ec2 = params.epsilon_c ** 2
        expected = 4.0 * 1.2 ** 2 / ((3.0 * ec2 - 1.2 ** 2) * (ec2 - 1.2 ** 2) ** 2)
        assert snr_photon_counting(pair) == pytest.approx(expected, rel=1e-8)

    def test_near_critical_asymptote(self):
        eps = 0.9975 * math.sqrt(2.0)
        params = SystemParams(1.0, eps, 1.0)
        pair = cqs_steady_pair(params)
        n_inf = 0.5 * eps ** 2 / (params.epsilon_c ** 2 - eps ** 2)
        asym = 8.0 / params.epsilon_c ** 4 * n_inf ** 2
        assert snr_photon_counting(pair) == pytest.approx(asym, rel=0.05)

    def test_constant_photon_family(self):
        t = 1.1
        st = thermal_state(1.0)
        gen = np.array([[0.0, t], [-t, 0.0]])
        pair = DerivativePair(st, np.zeros(2), gen @ st.sigma + st.sigma @ gen.T)
        assert snr_photon_counting(pair) == 0.0

    def test_requires_zero_mean(self):
        st = GaussianState(np.array([1.0, 0.0]), 2.0 * np.eye(2))
        with pytest.raises(PreconditionError):
            snr_photon_counting(DerivativePair(st, np.zeros(2), np.eye(2)))

    def test_never_exceeds_qfi(self):
        for params in (SystemParams(1.0, 1.2, 1.0), SystemParams(1.0, 1.38, 1.0, n_bath=0.5)):
            pair = cqs_steady_pair(params)
            assert snr_photon_counting(pair) <= qfi(pair) * (1.0 + 1e-6)
