import math

import numpy as np
import pytest

from conftest import cqs_state_family, pqs_qfi_closed_form, pqs_state_family, steady_state_family
from critsense.dynamics import SystemParams
from critsense.errors import AccuracyError, DomainError, PreconditionError, PureStateError
from critsense.gaussian import (
    DisplacementAmplitude,
    GaussianState,
    SqueezeParam,
    apply_rotation,
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
from critsense.protocols import pqs_pair


class TestDifferentiate:
    def test_constant_family(self):
        st = thermal_state(0.5)
        pair = differentiate_at_zero_shift(lambda d: st)
        assert np.allclose(pair.dv, 0.0)
        assert np.allclose(pair.dsigma, 0.0)
        assert not pair.warn

    def test_linear_family(self):
        t = 1.7

        def family(d):
            return GaussianState(np.zeros(2), np.diag([2.0 + d * t, 1.0]))

        pair = differentiate_at_zero_shift(family)
        assert pair.dsigma[0, 0] == pytest.approx(t, abs=1e-9)
        assert abs(pair.dsigma[1, 1]) <= 1e-9

    def test_rotation_generator(self):
        """Free precession: dv/d(shift) = t (v2, -v1) from a(t) = e^{-i dw t} a(0)."""
        t = 0.9
        params = SystemParams(1.0, 0.0, 0.0)
        fam = pqs_state_family(1.3, 0.0, params, t)
        pair = differentiate_at_zero_shift(fam)
        v = pair.state.v
        assert np.allclose(pair.dv, [t * v[1], -t * v[0]], atol=1e-9)

    def test_convergence_order(self):
        params = SystemParams(1.0, 1.2, 1.0)
        fam = cqs_state_family(params, 2.0)
        e1 = differentiate_at_zero_shift(fam, h=1e-3).error_estimate
        e2 = differentiate_at_zero_shift(fam, h=5e-4).error_estimate
        assert e1 / e2 >= 4.0 * (1.0 - 1e-3)

    def test_warn_flag_on_rough_family(self):
        rng = np.random.default_rng(3)

        def family(d):
            noise = 1e-4 * rng.standard_normal()
            return GaussianState(np.zeros(2), np.diag([2.0 + d + noise, 1.0]))

        pair = differentiate_at_zero_shift(family)
        assert pair.warn

    def test_non_finite_family_rejected(self):
        def family(d):
            if d != 0.0:
                raise DomainError("boom")
            return vacuum_state()

        with pytest.raises(DomainError):
            differentiate_at_zero_shift(family)


class TestQfi:
    @pytest.mark.parametrize("n_photons,t", [(5.0, 0.7), (50.0, 0.25)])
    def test_noiseless_squeezed_vacuum(self, n_photons, t):
        r = math.asinh(math.sqrt(n_photons))
        fam = pqs_state_family(0.0, r, SystemParams(1.0, 0.0, 0.0), t)
        expected = 8.0 * n_photons * (1.0 + n_photons) * t * t
        assert qfi(differentiate_at_zero_shift(fam)) == pytest.approx(expected, rel=1e-8)

    def test_noiseless_coherent(self):
        alpha, t = 1.5, 0.7
        fam = pqs_state_family(alpha, 0.0, SystemParams(1.0, 0.0, 0.0), t)
        assert qfi(differentiate_at_zero_shift(fam)) == pytest.approx(4 * alpha ** 2 * t ** 2, rel=1e-9)

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
            fam = pqs_state_family(alpha, r, SystemParams(1.0, 0.0, g), t)
            expected = pqs_qfi_closed_form(alpha, r, g, t)
            assert qfi(differentiate_at_zero_shift(fam)) == pytest.approx(expected, rel=1e-8)

    def test_displacement_term_quadratic(self):
        fam = pqs_state_family(2.0, 1.0, SystemParams(1.0, 0.0, 1.0), 0.5)
        pair = differentiate_at_zero_shift(fam)
        _, _, t3 = qfi_terms(pair)
        doubled = DerivativePair(pair.state, 2.0 * pair.dv, pair.dsigma)
        _, _, t3_doubled = qfi_terms(doubled)
        assert t3_doubled == 4.0 * t3

    def test_symplectic_invariance(self):
        fam = cqs_state_family(SystemParams(1.0, 1.2, 1.0), 2.0)
        pair = differentiate_at_zero_shift(fam)
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
            lambda: pqs_state_family(2.0, 1.0, SystemParams(1.0, 0.0, 1.0), 0.6),
            lambda: pqs_state_family(0.0, 3.0, SystemParams(1.0, 0.0, 1.0, n_bath=1.0), 1.5),
            lambda: cqs_state_family(SystemParams(1.0, 1.2, 1.0), 2.0),
            lambda: cqs_state_family(SystemParams(1.0, 1.4, 1.0, n_bath=1.0), 4.0),
        ],
    )
    def test_agrees_with_formula(self, family_builder):
        fam = family_builder()
        reference = qfi(differentiate_at_zero_shift(fam))
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
        pair = differentiate_at_zero_shift(pqs_state_family(alpha, r, params, t))
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
        pair = differentiate_at_zero_shift(
            pqs_state_family(alpha, r, SystemParams(1.0, 0.0, 0.0), t)
        )
        expected = 4.0 * n_photons * (1.0 + n_photons) * t * t
        assert fi_homodyne(pair, math.pi / 2) == pytest.approx(expected, rel=1e-8)

    def test_steady_state_closed_form(self):
        """Stationary-state homodyne FI at arbitrary angle matches the closed form."""
        w0 = gamma = 1.0
        eps = 1.2
        pair = differentiate_at_zero_shift(steady_state_family(SystemParams(w0, eps, gamma)))
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
            differentiate_at_zero_shift(cqs_state_family(SystemParams(1.0, 1.2, 1.0), 2.0)),
            differentiate_at_zero_shift(cqs_state_family(SystemParams(1.0, 1.4, 1.0, n_bath=1.0), 5.0)),
            differentiate_at_zero_shift(pqs_state_family(2.0, 1.0, SystemParams(1.0, 0.0, 1.0), 0.5)),
            differentiate_at_zero_shift(steady_state_family(SystemParams(1.0, 1.35, 1.0))),
        ]
        for pair in pairs:
            info = qfi(pair)
            for psi in np.linspace(0.0, math.pi, 64, endpoint=False):
                assert fi_homodyne(pair, float(psi)) <= info * (1.0 + 1e-6)


class TestSnrPhotonCounting:
    def test_steady_state_closed_form(self):
        """SNR at the stationary state: 4 eps^2 w0^2 / ((3ec^2 - e^2)(ec^2 - e^2)^2)."""
        params = SystemParams(1.0, 1.2, 1.0)
        pair = differentiate_at_zero_shift(steady_state_family(params))
        ec2 = params.epsilon_c ** 2
        expected = 4.0 * 1.2 ** 2 / ((3.0 * ec2 - 1.2 ** 2) * (ec2 - 1.2 ** 2) ** 2)
        assert snr_photon_counting(pair) == pytest.approx(expected, rel=1e-8)

    def test_near_critical_asymptote(self):
        eps = 0.9975 * math.sqrt(2.0)
        params = SystemParams(1.0, eps, 1.0)
        pair = differentiate_at_zero_shift(steady_state_family(params))
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
            pair = differentiate_at_zero_shift(steady_state_family(params))
            assert snr_photon_counting(pair) <= qfi(pair) * (1.0 + 1e-6)
