import math
import warnings

import mpmath
import numpy as np
import pytest

from critsense.dynamics import (
    Regime,
    SystemParams,
    drift_and_diffusion,
    evolve_critical,
    evolve_passive,
    mean_photons_vs_time,
    spectral_info,
    steady_state,
    steady_state_photons,
)
from critsense.errors import DomainError, InvalidStateError, NoSteadyStateError, PreconditionError
from critsense.gaussian import (
    DisplacementAmplitude,
    SqueezeParam,
    apply_displace,
    apply_squeeze,
    mean_photons,
    purity,
    thermal_state,
    vacuum_state,
)
from critsense.protocols import epsilon_opt
from critsense.validate import battery_params


class TestSpectralInfo:
    def test_exceptional_point(self):
        info = spectral_info(SystemParams(1.0, 1.0, 1.0))
        assert info.lambda_minus == pytest.approx(1.0)
        assert info.lambda_plus == pytest.approx(1.0)
        assert info.regime is Regime.EXCEPTIONAL
        lossless = spectral_info(SystemParams(1.0, 1.0, 0.0))
        assert lossless.lambda_minus == 0.0 and lossless.lambda_plus == 0.0
        assert lossless.regime is Regime.EXCEPTIONAL

    def test_transient_split_values(self):
        info = spectral_info(SystemParams(1.0, 1.2, 1.0))
        root = math.sqrt(1.2 ** 2 - 1.0)
        assert info.lambda_minus.real == pytest.approx(1.0 - root, abs=1e-12)
        assert info.lambda_plus.real == pytest.approx(1.0 + root, abs=1e-12)
        assert info.lambda_minus.real == pytest.approx(0.336675, abs=1e-6)
        assert info.lambda_plus.real == pytest.approx(1.663325, abs=1e-6)
        assert info.regime is Regime.TRANSIENT

    def test_critical_point(self):
        info = spectral_info(SystemParams(1.0, math.sqrt(2.0), 1.0))
        assert info.lambda_minus.real == pytest.approx(0.0, abs=1e-12)
        assert info.regime is Regime.CRITICAL

    def test_below_split_complex(self):
        info = spectral_info(SystemParams(1.0, 0.5, 1.0))
        assert info.regime is Regime.BELOW
        assert info.lambda_minus.real == pytest.approx(1.0)
        assert info.lambda_minus.imag == pytest.approx(-math.sqrt(0.75))

    def test_above_threshold(self):
        assert spectral_info(SystemParams(1.0, 1.6, 1.0)).regime is Regime.ABOVE

    def test_ordering_invariant(self):
        for params in battery_params():
            info = spectral_info(params)
            assert info.lambda_plus.real >= info.lambda_minus.real - 1e-15

    @pytest.mark.parametrize("omega0", [0.25, 1.0, 4.0])
    def test_slow_rate_and_photons_at_large_budget(self, omega0):
        """At epsilon_opt(1e8), K = eps_c^2 - eps^2 is ~1e-8 of eps^2: gamma -
        sqrt(s) and a K formed from rounded squares were ~1e-8 off the
        50-digit values."""
        for n_bath in (0.0, 0.5, 2.0):
            params = SystemParams(omega0, epsilon_opt(1e8, SystemParams(omega0, 0.0, 1.0, n_bath=n_bath)), 1.0, n_bath)
            with mpmath.workdps(50):
                w, eps = mpmath.mpf(params.omega), mpmath.mpf(params.epsilon)
                k = w * w + 1 - eps * eps
                lam = float(1 - mpmath.sqrt(eps * eps - w * w))
                photons = float((eps * eps + 2 * mpmath.mpf(n_bath) * (w * w + 1)) / (2 * k))
            assert spectral_info(params).lambda_minus.real == pytest.approx(lam, rel=1e-14)
            assert steady_state_photons(params) == pytest.approx(photons, rel=1e-14)


class TestDriftAndDiffusion:
    def test_matrices(self):
        A, D = drift_and_diffusion(SystemParams(1.0, 1.2, 0.7, n_bath=0.5))
        assert np.allclose(A, [[-0.7, 1.0 - 1.2], [-(1.0 + 1.2), -0.7]])
        assert np.allclose(D, 2.0 * 0.7 * 2.0 * np.eye(2))

    def test_pure_shear_at_exceptional_lossless(self):
        A, _ = drift_and_diffusion(SystemParams(1.0, 1.0, 0.0))
        assert np.allclose(A, [[0.0, 0.0], [-2.0, 0.0]])

    def test_eigenvalues_match_spectral_info(self):
        for params in battery_params():
            A, _ = drift_and_diffusion(params)
            info = spectral_info(params)
            eig = sorted(np.linalg.eigvals(-A), key=lambda z: (z.real, z.imag))
            expected = sorted([info.lambda_minus, info.lambda_plus], key=lambda z: (z.real, z.imag))
            assert eig[0] == pytest.approx(expected[0], abs=1e-10)
            assert eig[1] == pytest.approx(expected[1], abs=1e-10)

    def test_undriven_equilibrium(self):
        params = SystemParams(1.0, 0.0, 1.0, n_bath=0.7)
        A, D = drift_and_diffusion(params)
        sigma = steady_state(params).sigma
        assert np.allclose(sigma, (1.0 + 2.0 * 0.7) * np.eye(2))
        assert np.allclose(A @ sigma + sigma @ A.T + D, 0.0, atol=1e-12)


class TestEvolveCritical:
    def test_t0_identity(self):
        params = SystemParams(1.0, 1.2, 1.0, n_bath=0.5)
        st0 = apply_squeeze(thermal_state(0.5), SqueezeParam(0.4))
        st = evolve_critical(params, st0, 0.0)
        assert np.allclose(st.sigma, st0.sigma)
        assert np.allclose(st.v, st0.v)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            evolve_critical(SystemParams(1.0, 1.2, 1.0), vacuum_state(), -0.1)

    @pytest.mark.parametrize("eps,t", [(1.2, 0.8), (1.2, 2.5), (2.0, 1.0)])
    def test_lossless_covariance_closed_form(self, eps, t):
        """Free squeezing dynamics matches the lossless covariance closed form."""
        w = 1.0
        u = math.sqrt(eps ** 2 - w ** 2)
        st = evolve_critical(SystemParams(w, eps, 0.0), vacuum_state(), t)
        expected = np.array(
            [
                [(w + eps * math.cosh(2 * u * t)) / (eps + w), -eps * math.sinh(2 * u * t) / u],
                [-eps * math.sinh(2 * u * t) / u, (-w + eps * math.cosh(2 * u * t)) / (eps - w)],
            ]
        )
        assert np.allclose(st.sigma, expected, rtol=1e-12, atol=1e-12)

    def test_lossless_oscillatory_photons(self):
        w, eps, t = 1.0, 0.5, 1.3
        wr = math.sqrt(w ** 2 - eps ** 2)
        n = mean_photons_vs_time(SystemParams(w, eps, 0.0), t)
        assert n == pytest.approx(eps ** 2 * math.sin(wr * t) ** 2 / wr ** 2, rel=1e-12)

    def test_long_time_reaches_steady_state(self):
        params = SystemParams(1.0, 1.2, 1.0)
        lam = spectral_info(params).lambda_minus.real
        st = evolve_critical(params, vacuum_state(), 20.0 / lam)
        ss = steady_state(params)
        assert np.allclose(st.sigma, ss.sigma, rtol=1e-6)

    @pytest.mark.parametrize("t", [400.0, 500.0])
    def test_overflow_is_typed_and_silent(self, t):
        """Far above threshold the moments leave the double range: at t = 400
        in M sigma M^T, at t = 500 already in the exponential of exp(A t)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError, match="non-finite moments"):
                evolve_critical(SystemParams(1.0, 2.0, 0.0), vacuum_state(), t)


class TestSteadyState:
    def test_reference_matrix(self):
        ss = steady_state(SystemParams(1.0, 1.0, 1.0))
        assert np.allclose(ss.sigma, [[1.0, -1.0], [-1.0, 3.0]])
        assert ss.det_sigma >= 1.0

    def test_undriven(self):
        ss = steady_state(SystemParams(1.0, 0.0, 1.0, n_bath=1.0))
        assert np.allclose(ss.sigma, 3.0 * np.eye(2))

    def test_photon_number(self):
        params = SystemParams(1.0, 1.2, 1.0)
        assert steady_state_photons(params) == pytest.approx(1.44 / 1.12, rel=1e-12)
        assert mean_photons(steady_state(params)) == pytest.approx(1.44 / 1.12, rel=1e-12)

    @pytest.mark.parametrize("eps", [math.sqrt(2.0), 1.5, 2.0])
    def test_at_or_above_threshold_rejected(self, eps):
        with pytest.raises(NoSteadyStateError):
            steady_state(SystemParams(1.0, eps, 1.0))


class TestMeanPhotonsVsTime:
    def test_initial_equilibrium(self):
        assert mean_photons_vs_time(SystemParams(1.0, 1.2, 1.0, n_bath=1.5), 0.0) == pytest.approx(1.5)

    def test_full_oscillation_returns_to_zero(self):
        t = math.pi / math.sqrt(0.75)
        assert mean_photons_vs_time(SystemParams(1.0, 0.5, 0.0), t) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_below_split(self):
        w, eps, g = 1.0, 0.8, 1.0
        params = SystemParams(w, eps, g)
        wr = math.sqrt(w ** 2 - eps ** 2)
        eps_c2 = w ** 2 + g ** 2
        for t in (0.3, 1.0, 4.0):
            expected = eps ** 2 / (2.0 * (eps_c2 - eps ** 2)) * (
                1.0
                - math.exp(-2.0 * g * t)
                * (math.cos(2.0 * wr * t) + g / wr * math.sin(2.0 * wr * t))
            )
            assert mean_photons_vs_time(params, t) == pytest.approx(expected, rel=1e-10)

    def test_closed_form_above_split(self):
        """N(t) = eps^2/(2K) [1 - (lam_+/2u) e^{-2 lam_- t} + (lam_-/2u) e^{-2 lam_+ t}],
        rederived from the mode solution (vanishes at t = 0)."""
        w, eps, g = 1.0, 1.2, 1.0
        params = SystemParams(w, eps, g)
        u = math.sqrt(eps ** 2 - w ** 2)
        eps_c2 = w ** 2 + g ** 2
        lam_m, lam_p = g - u, g + u
        for t in (0.3, 1.0, 4.0):
            expected = eps ** 2 / (2.0 * (eps_c2 - eps ** 2)) * (
                1.0
                - (lam_p / (2.0 * u)) * math.exp(-2.0 * lam_m * t)
                + (lam_m / (2.0 * u)) * math.exp(-2.0 * lam_p * t)
            )
            assert mean_photons_vs_time(params, t) == pytest.approx(expected, rel=1e-10)

    def test_finite_temperature_rescaling(self):
        """Thermal start rescales the photon trajectory as (1+2nB) N0 + nB."""
        eps = 0.9975 * math.sqrt(2.0)
        cold = SystemParams(1.0, eps, 1.0)
        hot = SystemParams(1.0, eps, 1.0, n_bath=1.0)
        lam = spectral_info(cold).lambda_minus.real
        for t in np.linspace(0.1, 1.0 / lam, 20):
            n0 = mean_photons_vs_time(cold, float(t))
            n1 = mean_photons_vs_time(hot, float(t))
            assert abs(n1 - (3.0 * n0 + 1.0)) / n1 <= 0.02


class TestEvolvePassive:
    def test_requires_zero_drive(self):
        with pytest.raises(PreconditionError):
            evolve_passive(SystemParams(1.0, 0.5, 1.0), vacuum_state(), 1.0)

    def test_lossless_pure_rotation(self):
        params = SystemParams(1.0, 0.0, 0.0, delta_omega=0.3)
        st0 = apply_displace(apply_squeeze(vacuum_state(), SqueezeParam(0.8)), DisplacementAmplitude(1.0))
        st = evolve_passive(params, st0, 2.0)
        assert purity(st) == pytest.approx(1.0, abs=1e-12)
        assert mean_photons(st) == pytest.approx(mean_photons(st0), rel=1e-12)

    def test_equilibration(self):
        params = SystemParams(1.0, 0.0, 1.0, n_bath=0.8)
        st0 = apply_squeeze(vacuum_state(), SqueezeParam(1.0))
        st = evolve_passive(params, st0, 40.0)
        assert np.allclose(st.sigma, (1.0 + 1.6) * np.eye(2), rtol=1e-10, atol=1e-10)
        assert np.allclose(st.v, 0.0, atol=1e-12)

    @pytest.mark.parametrize("t", [0.4, 1.7])
    def test_quadratic_moment_phase(self, t):
        """<a^2(t)> = e^{-2 Gamma t} e^{-2 i dw t} [sinh(2r)(2nB+1)/2 + alpha^2]."""
        n_bath, r, alpha, dw, g = 0.5, 0.7, 1.2, 0.3, 1.0
        params = SystemParams(1.0, 0.0, g, n_bath=n_bath, delta_omega=dw)
        st0 = apply_displace(
            apply_squeeze(thermal_state(n_bath), SqueezeParam(r)), DisplacementAmplitude(alpha)
        )
        st = evolve_passive(params, st0, t)
        (x, p), s = st.v, st.sigma
        a2 = (s[0, 0] - s[1, 1]) / 4.0 + (x * x - p * p) / 2.0 + 1j * (s[0, 1] / 2.0 + x * p)
        expected = (
            math.exp(-2.0 * g * t)
            * np.exp(-2.0j * dw * t)
            * (0.5 * math.sinh(2.0 * r) * (2.0 * n_bath + 1.0) + alpha ** 2)
        )
        assert a2 == pytest.approx(expected, rel=1e-10)


def purity_vs_time(params, t):
    """Purity at time t starting from equilibrium with the bath."""
    return purity(evolve_critical(params, thermal_state(params.n_bath), t))


class TestPurityVsTime:
    def test_initial_values(self):
        assert purity_vs_time(SystemParams(1.0, 1.2, 1.0), 0.0) == pytest.approx(1.0)
        assert purity_vs_time(SystemParams(1.0, 1.2, 1.0, n_bath=1.0), 0.0) == pytest.approx(1.0 / 3.0)

    def test_monotone_decay_from_vacuum(self):
        params = SystemParams(1.0, 0.9975 * math.sqrt(2.0), 1.0)
        grid = np.geomspace(0.01, 100.0, 200)
        values = [purity_vs_time(params, float(t)) for t in grid]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_drops_below_half_by_five_damping_times(self):
        params = SystemParams(1.0, 0.9975 * math.sqrt(2.0), 1.0)
        assert purity_vs_time(params, 5.0) < 0.5


class TestNoiseIntegralBranches:
    """The scalar noise integrals against adaptive quadrature across all branch
    boundaries: the series window |s t^2| ~ 1e-4, the K-form/E-form split at
    s = gamma^2/4, and the critical point s = gamma^2."""

    @staticmethod
    def _reference(gamma, s, t):
        import warnings

        from scipy.integrate import IntegrationWarning, quad

        absu = math.sqrt(abs(s)) if s != 0 else 0.0

        def c2(x):
            z = 4.0 * s * x * x
            if abs(z) < 1e-6:
                return 1.0 + z / 2.0 + z * z / 24.0
            return math.cosh(2 * absu * x) if s > 0 else math.cos(2 * absu * x)

        def s2(x):
            z = 4.0 * s * x * x
            if abs(z) < 1e-6:
                return 2.0 * x * (1.0 + z / 6.0 + z * z / 120.0)
            return math.sinh(2 * absu * x) / absu if s > 0 else math.sin(2 * absu * x) / absu

        def q2(x):
            z = 4.0 * s * x * x
            if abs(z) < 1e-6:
                return x * x * (1.0 + z / 12.0 + z * z / 360.0)
            top = (math.cosh(2 * absu * x) if s > 0 else math.cos(2 * absu * x)) - 1.0
            return top / (2.0 * s)

        opts = dict(epsabs=1e-300, epsrel=1e-13, limit=2000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            return tuple(
                quad(lambda x, f=f: math.exp(-2.0 * gamma * x) * f(x), 0.0, t, **opts)[0]
                for f in (lambda x: 1.0, c2, s2, q2)
            )

    def test_against_quadrature(self):
        from critsense.dynamics import _noise_integrals

        worst = 0.0
        for gamma in (0.3, 1.0):
            g2 = gamma * gamma
            for s in (-4.0, -0.3 * g2, -1e-8, 1e-8, 1e-4, 0.24 * g2, 0.26 * g2,
                      0.9 * g2, g2, 1.5 * g2, 4.0 * g2):
                for t in (1e-3 / gamma, 0.5 / gamma, 5.0 / gamma, 40.0 / gamma):
                    if s > g2 and (math.sqrt(s) - gamma) * t > 300:
                        continue
                    got = _noise_integrals(gamma, s, gamma * gamma - s, t)
                    ref = self._reference(gamma, s, t)
                    for g_, r_ in zip(got, ref):
                        worst = max(worst, abs(g_ - r_) / max(abs(r_), 1e-300))
        assert worst <= 1e-10
