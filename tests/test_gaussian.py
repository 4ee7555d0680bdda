import math

import numpy as np
import pytest

from critsense.errors import DomainError, InvalidStateError, PreconditionError
from critsense.gaussian import (
    DisplacementAmplitude,
    GaussianState,
    SqueezeParam,
    apply_displace,
    apply_squeeze,
    fidelity,
    mean_photons,
    photon_variance,
    purity,
    rotation_matrix,
    thermal_state,
    vacuum_state,
)


def apply_rotation(state: GaussianState, theta: float) -> GaussianState:
    """The state under the phase-space rotation rotation_matrix(theta)."""
    R = rotation_matrix(theta)
    return GaussianState(R @ state.v, R @ state.sigma @ R.T)


class TestThermalState:
    def test_vacuum(self):
        st = thermal_state(0.0)
        assert np.allclose(st.v, 0.0)
        assert np.allclose(st.sigma, np.eye(2))

    @pytest.mark.parametrize("n_bath", [0.5, 1.0, 3.7])
    def test_occupation_factor(self, n_bath):
        st = thermal_state(n_bath)
        assert np.allclose(st.sigma, (1.0 + 2.0 * n_bath) * np.eye(2))
        assert mean_photons(st) == pytest.approx(n_bath)

    def test_negative_occupation_rejected(self):
        with pytest.raises(DomainError):
            thermal_state(-0.1)


class TestSqueeze:
    def test_identity(self):
        st = apply_squeeze(vacuum_state(), SqueezeParam(0.0))
        assert np.allclose(st.sigma, np.eye(2))

    def test_vacuum_r1(self):
        st = apply_squeeze(vacuum_state(), SqueezeParam(1.0))
        assert np.allclose(st.sigma, np.diag([math.e ** 2, math.e ** -2]))

    def test_thermal_purity_preserved(self):
        st = apply_squeeze(thermal_state(1.0), SqueezeParam(1.0))
        assert np.allclose(st.sigma, 3.0 * np.diag([math.e ** 2, math.e ** -2]))
        assert purity(st) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_phase_rotates_squeeze_axis(self):
        direct = apply_squeeze(vacuum_state(), SqueezeParam(0.7, phase=0.8))
        rotated = apply_rotation(
            apply_squeeze(vacuum_state(), SqueezeParam(0.7)), 0.4
        )
        assert np.allclose(direct.sigma, rotated.sigma, atol=1e-12)

    def test_photons_sinh_squared(self):
        r = 1.3
        st = apply_squeeze(vacuum_state(), SqueezeParam(r))
        assert mean_photons(st) == pytest.approx(math.sinh(r) ** 2, rel=1e-12)

    def test_large_squeezing_keeps_its_digits(self):
        # N = 1e8 photons: cosh r - sinh r cancels to 4.6e-8 of e^-r.
        r = math.asinh(math.sqrt(1e8))
        st = apply_squeeze(vacuum_state(), SqueezeParam(r))
        assert st.sigma[1, 1] == pytest.approx(math.exp(-2.0 * r), rel=1e-14, abs=0.0)
        assert st.det_sigma == pytest.approx(1.0, rel=1e-14, abs=0.0)


class TestDisplace:
    def test_along_x(self):
        st = apply_displace(vacuum_state(), DisplacementAmplitude(1.0))
        assert np.allclose(st.v, [math.sqrt(2.0), 0.0])
        assert np.allclose(st.sigma, np.eye(2))

    def test_zero_is_identity(self):
        base = apply_squeeze(thermal_state(0.3), SqueezeParam(0.4))
        st = apply_displace(base, DisplacementAmplitude(0.0, phase=1.1))
        assert np.allclose(st.v, base.v)
        assert np.allclose(st.sigma, base.sigma)

    def test_phase_and_energy(self):
        st = apply_displace(vacuum_state(), DisplacementAmplitude(2.0, phase=math.pi / 2))
        assert np.allclose(st.v, [0.0, 2.0 * math.sqrt(2.0)], atol=1e-15)
        assert mean_photons(st) == pytest.approx(4.0)

    @pytest.mark.parametrize("n_bath,r", [(0.0, 0.0), (1.0, 0.0), (0.5, 0.8)])
    def test_adds_alpha_squared_photons(self, n_bath, r):
        base = apply_squeeze(thermal_state(n_bath), SqueezeParam(r))
        before = mean_photons(base)
        after = mean_photons(apply_displace(base, DisplacementAmplitude(1.7, phase=0.3)))
        assert after - before == pytest.approx(1.7 ** 2, rel=1e-12)

    def test_displaced_thermal_photons(self):
        st = apply_displace(thermal_state(1.0), DisplacementAmplitude(1.0))
        assert mean_photons(st) == pytest.approx(2.0, rel=1e-12)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(DomainError):
            DisplacementAmplitude(-1.0)


class TestRotation:
    """rotation_matrix acting on states, through the helper apply_rotation."""

    def test_identity(self):
        st = apply_rotation(vacuum_state(), 0.0)
        assert np.allclose(st.sigma, np.eye(2))

    def test_thermal_invariant(self):
        st = apply_rotation(thermal_state(1.5), 1.234)
        assert np.allclose(st.sigma, 4.0 * np.eye(2), atol=1e-14)

    def test_quadrature_swap(self):
        """A quarter turn takes x to p: rotation_matrix turns counterclockwise,
        the sense that evolve_passive's R(-delta_omega t) assumes."""
        sq = apply_displace(apply_squeeze(vacuum_state(), SqueezeParam(1.0)), DisplacementAmplitude(1.0))
        st = apply_rotation(sq, math.pi / 2)
        assert np.allclose(st.sigma, np.diag([math.e ** -2, math.e ** 2]), atol=1e-13)
        assert np.allclose(st.v, [0.0, math.sqrt(2.0)], atol=1e-15)

    def test_composition(self):
        base = apply_displace(
            apply_squeeze(thermal_state(0.2), SqueezeParam(0.5)), DisplacementAmplitude(1.0)
        )
        a = apply_rotation(apply_rotation(base, 0.7), 1.1)
        b = apply_rotation(base, 1.8)
        assert np.allclose(a.sigma, b.sigma, atol=1e-12)
        assert np.allclose(a.v, b.v, atol=1e-12)

    def test_photons_preserved(self):
        base = apply_displace(
            apply_squeeze(vacuum_state(), SqueezeParam(1.2)), DisplacementAmplitude(0.9)
        )
        n0 = mean_photons(base)
        for theta in np.linspace(0.0, 2 * math.pi, 9):
            assert mean_photons(apply_rotation(base, theta)) == pytest.approx(n0, rel=1e-12)


class TestObservables:
    def test_vacuum_zeros(self):
        assert mean_photons(vacuum_state()) == 0.0
        assert photon_variance(vacuum_state()) == 0.0
        assert purity(vacuum_state()) == 1.0

    def test_thermal_variance_matches_fock(self):
        # Fock oracle: thermal variance n(n+1) = 2 for n = 1
        assert photon_variance(thermal_state(1.0)) == pytest.approx(2.0, rel=1e-12)

    def test_squeezed_variance(self):
        st = apply_squeeze(vacuum_state(), SqueezeParam(1.0))
        expected = 2.0 * math.sinh(1.0) ** 2 * math.cosh(1.0) ** 2
        assert photon_variance(st) == pytest.approx(expected, rel=1e-12)
        n = mean_photons(st)
        assert photon_variance(st) == pytest.approx(2.0 * n * (n + 1.0), rel=1e-12)

    def test_variance_requires_zero_mean(self):
        st = apply_displace(vacuum_state(), DisplacementAmplitude(1.0))
        with pytest.raises(PreconditionError):
            photon_variance(st)

    def test_thermal_purity(self):
        assert purity(thermal_state(1.0)) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_unphysical_state_rejected(self):
        with pytest.raises(InvalidStateError):
            GaussianState(np.zeros(2), np.diag([0.5, 0.5]))

    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidStateError, match="negative variance"):
            GaussianState(np.zeros(2), np.diag([4e4, -1e-5]))

    def test_non_positive_determinant_rejected(self):
        # Positive variances, det = 0.4 - 0.49 < 0.
        with pytest.raises(InvalidStateError, match="uncertainty relation"):
            GaussianState(np.zeros(2), np.array([[4e4, 0.7], [0.7, 1e-5]]))

    def test_determinant_below_one_rejected(self):
        # det = 0.4 sits within 1e-9 of max|sigma_ij|^2 = 1.6e9, but s11 s22 = 0.4
        # rounds by ulps of 0.4, not of 1.6e9.
        with pytest.raises(InvalidStateError, match="uncertainty relation"):
            GaussianState(np.zeros(2), np.diag([4e4, 1e-5]))

    def test_rounded_pure_state_kept(self):
        # evolve_critical(SystemParams(1, 2, 0), vacuum, 6): a pure state whose
        # det rounds to -128 against products of ~3.8e17.
        sigma = np.array([[354421486.6488003, -613876021.5924665], [-613876021.5924665, 1063264457.946401]])
        st = GaussianState(np.zeros(2), sigma)
        assert st.det_sigma == -128.0
        assert purity(st) == 1.0

    def test_asymmetric_sigma_rejected(self):
        with pytest.raises(InvalidStateError):
            GaussianState(np.zeros(2), np.array([[2.0, 0.5], [-0.5, 2.0]]))

    def test_det_sigma_stored_with_frozen_moments(self):
        st = GaussianState(np.zeros(2), np.array([[2.0, 0.5], [0.5, 3.0]]))
        assert st.det_sigma == 2.0 * 3.0 - 0.5 * 0.5
        with pytest.raises(ValueError):
            st.sigma[0, 0] = 1.0
        with pytest.raises(ValueError):
            st.v[0] = 1.0

    def test_huge_covariance_overflows_quietly(self):
        # det overflows to inf: purity 0, and no numpy overflow warning.
        st = GaussianState(np.zeros(2), 1e200 * np.eye(2))
        assert st.det_sigma == math.inf
        assert purity(st) == 0.0


class TestTransformChains:
    """Physicality survives arbitrary compositions of the exact transforms."""

    def test_random_chains_stay_physical(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            st = thermal_state(float(rng.uniform(0.0, 2.0)))
            mu0 = purity(st)
            for _ in range(6):
                op = rng.integers(0, 3)
                if op == 0:
                    st = apply_squeeze(st, SqueezeParam(float(rng.uniform(-1.5, 1.5)),
                                                        float(rng.uniform(0, 2 * math.pi))))
                elif op == 1:
                    st = apply_rotation(st, float(rng.uniform(0, 2 * math.pi)))
                else:
                    st = apply_displace(st, DisplacementAmplitude(float(rng.uniform(0, 2.0)),
                                                                  float(rng.uniform(0, 2 * math.pi))))
            assert abs(st.sigma[0, 1] - st.sigma[1, 0]) <= 1e-12
            scale = max(1.0, float(np.max(np.abs(st.sigma))) ** 2)
            assert st.det_sigma >= 1.0 - 1e-12 * scale
            assert purity(st) == pytest.approx(mu0, rel=1e-12)


class TestFidelity:
    def test_self_fidelity(self):
        for st in (vacuum_state(), thermal_state(1.0),
                   apply_squeeze(vacuum_state(), SqueezeParam(0.8))):
            assert fidelity(st, st) == pytest.approx(1.0, abs=1e-12)

    def test_coherent_vacuum_overlap(self):
        alpha = 1.3
        st = apply_displace(vacuum_state(), DisplacementAmplitude(alpha))
        assert fidelity(st, vacuum_state()) == pytest.approx(math.exp(-alpha ** 2), rel=1e-12)

    def test_symmetric(self):
        a = apply_squeeze(thermal_state(0.5), SqueezeParam(0.6))
        b = apply_displace(thermal_state(0.2), DisplacementAmplitude(0.7))
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), rel=1e-12)
