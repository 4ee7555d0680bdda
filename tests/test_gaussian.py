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
    is_pure,
    mean_photons,
    photon_variance,
    purity,
    rotation_matrix,
    squeeze_matrix,
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

    @pytest.mark.parametrize(
        "r",
        [1000.0, 400.0, -1000.0, np.array([1.0, 400.0]), np.array([1.0, 1000.0])],
        ids=["exp_overflows", "moments_overflow", "negative", "array_moments", "array_exp"],
    )
    def test_beyond_double_range_raises_typed_error(self, r):
        """An e^r or a moment beyond the double range raises, with no numpy
        warning (the suite turns RuntimeWarning into an error)."""
        with pytest.raises(InvalidStateError, match="non-finite moments"):
            apply_squeeze(thermal_state(0.5), SqueezeParam(r))

    @pytest.mark.parametrize("r", [800.0, np.array([1.0, 800.0])], ids=["float", "array"])
    def test_squeeze_matrix_beyond_double_range_raises_typed_error(self, r):
        """An e^r beyond the double range raises: not math's bare
        OverflowError, nor a numpy warning and non-finite entries."""
        with pytest.raises(InvalidStateError, match="non-finite moments"):
            squeeze_matrix(SqueezeParam(r))


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


@pytest.mark.parametrize("cls", [SqueezeParam, DisplacementAmplitude])
def test_arrays_over_t_compare_as_one_bool(cls):
    """A value type holding an array over t compares equal to one with the
    same shape and entries, and unequal otherwise, as a bool; it is not
    hashable, while one holding floats is."""
    grid = cls(np.array([0.1, 0.2]), 0.3)
    assert (grid == cls(np.array([0.1, 0.2]), 0.3)) is True
    for other in (cls(np.array([0.1, 0.25]), 0.3), cls(np.array([0.1, 0.2]), 0.4),
                  cls(np.array([0.1, 0.2, 0.3]), 0.3), cls(np.array([0.1])), cls(0.1, 0.3)):
        assert (grid == other) is False and (grid != other) is True
    assert grid != 0.1
    with pytest.raises(TypeError):
        hash(grid)
    assert cls(0.1, 0.3) == cls(0.1, 0.3) and hash(cls(0.1, 0.3)) == hash(cls(0.1, 0.3))


def _rows():
    """(v, sigma) of a few physical states, each sigma off symmetry by a
    rounding-sized amount that the constructor removes."""
    states = [thermal_state(0.4), apply_squeeze(vacuum_state(), SqueezeParam(1.3, 0.7)),
              apply_displace(apply_squeeze(thermal_state(2.0), SqueezeParam(-0.4)), DisplacementAmplitude(3.0, 1.1))]
    skew = np.array([[0.0, 1e-13], [-1e-13, 0.0]])
    return np.array([s.v for s in states]), np.array([s.sigma + skew for s in states])


def test_states_compare_as_one_bool():
    """GaussianState compares v and sigma entry by entry, as one bool, for
    one state and for a stack of them."""
    state = GaussianState(np.zeros(2), np.eye(2))
    assert (state == GaussianState(np.zeros(2), np.eye(2))) is True
    for other in (GaussianState(np.ones(2), np.eye(2)), GaussianState(np.zeros(2), 2.0 * np.eye(2))):
        assert (state == other) is False and (state != other) is True
    assert state != 0.0
    v, sigma = _rows()
    stack = GaussianState(v, sigma)
    assert (stack == GaussianState(v.copy(), sigma.copy())) is True
    for other in (GaussianState(v[:2], sigma[:2]), GaussianState(v[0], sigma[0]), GaussianState(v + 1.0, sigma)):
        assert (stack == other) is False and (stack != other) is True


def test_stacked_state_is_its_rows():
    """A GaussianState over t holds, bit for bit, the v, symmetrised sigma
    and det_sigma of each row's own GaussianState."""
    v, sigma = _rows()
    stack = GaussianState(v, sigma)
    assert stack.v.shape == (3, 2) and stack.sigma.shape == (3, 2, 2) and stack.det_sigma.shape == (3,)
    for k, row in enumerate(GaussianState(v[k], sigma[k]) for k in range(3)):
        assert stack.v[k].tobytes() == row.v.tobytes()
        assert stack.sigma[k].tobytes() == row.sigma.tobytes()
        assert stack.det_sigma[k].item() == row.det_sigma
    assert np.array_equal(stack.sigma, stack.sigma.swapaxes(1, 2))
    with pytest.raises(ValueError):
        stack.sigma[0, 0, 0] = 1.0


@pytest.mark.parametrize(
    "v_shape,sigma_shape",
    [((3, 2), (4, 2, 2)), ((3, 2), (2, 2)), ((2,), (3, 2, 2)), ((3, 3), (3, 3, 3)), ((1, 3, 2), (1, 3, 2, 2))],
)
def test_mismatched_moment_shapes_rejected(v_shape, sigma_shape):
    with pytest.raises(InvalidStateError, match="expected v shape"):
        GaussianState(np.zeros(v_shape), np.broadcast_to(np.eye(v_shape[-1]), sigma_shape))


def test_stacked_state_rejects_its_first_bad_row():
    v, sigma = _rows()
    sigma[1:] = np.diag([0.5, 0.5])
    with pytest.raises(InvalidStateError, match=r"det\(sigma\) = 0.25 < 1"):
        GaussianState(v, sigma)


def test_input_per_t_of_another_length_rejected():
    """An input per t on a stack of states over a grid of another length."""
    stack = apply_squeeze(vacuum_state(), SqueezeParam(np.ones(3)))
    with pytest.raises(PreconditionError, match="input per t of 4 times on a stack of 3 states"):
        apply_squeeze(stack, SqueezeParam(np.ones(4)))
    with pytest.raises(PreconditionError, match="input per t of 2 times on a stack of 3 states"):
        apply_displace(stack, DisplacementAmplitude(np.ones(2)))
    assert apply_displace(stack, DisplacementAmplitude(np.ones(3))).v.shape == (3, 2)


class TestRotation:
    """rotation_matrix acting on states, through the helper apply_rotation."""

    def test_identity(self):
        st = apply_rotation(vacuum_state(), 0.0)
        assert np.allclose(st.sigma, np.eye(2))

    def test_thermal_invariant(self):
        st = apply_rotation(thermal_state(1.5), 1.234)
        assert np.allclose(st.sigma, 4.0 * np.eye(2), atol=1e-14)

    def test_quadrature_swap(self):
        """A quarter turn takes x to p: rotation_matrix turns counterclockwise."""
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

    @pytest.mark.parametrize("sigma, message", [
        (np.diag([0.5, 0.5]), "uncertainty relation"),
        (np.diag([4e4, -1e-5]), "negative variance"),
        # Positive variances, det = 0.4 - 0.49 < 0.
        (np.array([[4e4, 0.7], [0.7, 1e-5]]), "uncertainty relation"),
        # det = 0.4 sits within 1e-9 of max|sigma_ij|^2 = 1.6e9, but s11 s22 = 0.4
        # rounds by ulps of 0.4, not of 1.6e9.
        (np.diag([4e4, 1e-5]), "uncertainty relation"),
        (np.array([[2.0, 0.5], [-0.5, 2.0]]), "covariance asymmetry"),
        # Finite entries whose symmetrised s12 overflows.
        (np.array([[1e308, 1e308], [1e308, 1e308]]), "non-finite moments"),
    ], ids=["unphysical", "negative_variance", "non_positive_det", "det_below_one", "asymmetric", "s12_overflows"])
    def test_unphysical_state_rejected(self, sigma, message):
        with pytest.raises(InvalidStateError, match=message):
            GaussianState(np.zeros(2), sigma)

    def test_rounded_pure_state_kept(self):
        # evolve_critical(SystemParams(1, 2, 0), vacuum, 6): a pure state whose
        # det rounds to -128 against products of ~3.8e17.
        sigma = np.array([[354421486.6488003, -613876021.5924665], [-613876021.5924665, 1063264457.946401]])
        st = GaussianState(np.zeros(2), sigma)
        assert st.det_sigma == -128.0
        assert purity(st) == 1.0
        # evolve_critical(SystemParams(1, 0.5, 0), vacuum, 5): a pure state
        # whose det rounds to 1 + 7e-16, above 1 but within is_pure's rounding.
        above = np.array([[0.4260960077792234, -0.399638095757546], [-0.399638095757546, 2.7217119766623314]])
        st = GaussianState(np.zeros(2), above)
        assert st.det_sigma == 1.0000000000000007
        assert purity(st) == 1.0
        stack = GaussianState(np.zeros((3, 2)), np.stack([sigma, above, np.diag([3.0, 3.0])]))
        assert purity(stack).tolist() == [1.0, 1.0, 1.0 / 3.0]

    def test_det_sigma_stored_with_frozen_moments(self):
        st = GaussianState(np.zeros(2), np.array([[2.0, 0.5], [0.5, 3.0]]))
        assert st.det_sigma == 2.0 * 3.0 - 0.5 * 0.5
        with pytest.raises(ValueError):
            st.sigma[0, 0] = 1.0
        with pytest.raises(ValueError):
            st.v[0] = 1.0

    @pytest.mark.parametrize("call, match", [
        (lambda: mean_photons(GaussianState(np.array([1e160, 0.0]), np.eye(2))), "non-finite photon number"),
        (lambda: mean_photons(GaussianState(np.array([[1.0, 0.0], [1e160, 0.0]]), np.stack([np.eye(2)] * 2))),
         "non-finite photon number"),
        (lambda: photon_variance(thermal_state(1e300)), "non-finite moments"),
    ], ids=["one", "stack", "variance"])
    def test_photon_number_overflow_is_typed(self, call, match):
        """A |v|^2, or a photon-number variance, beyond the double range
        raises, with no numpy warning."""
        with pytest.raises(InvalidStateError, match=match):
            call()

    def test_huge_covariance_overflows_quietly(self):
        # det overflows to inf: purity 0, and no numpy overflow warning.
        st = GaussianState(np.zeros(2), 1e200 * np.eye(2))
        assert st.det_sigma == math.inf
        assert purity(st) == 0.0

    def test_given_det_is_kept_with_its_rounding(self):
        """A flow that keeps det(sigma) exactly gives it with its rounding,
        and is_pure reads that rounding. The thermal state n_B = 1 squeezed
        by r = 9 off the axes forms det 8 for 9, within its rounding of 1,
        so it counts as pure; given det 9, it is mixed."""
        formed = apply_squeeze(thermal_state(1.0), SqueezeParam(9.0, math.pi / 2.0))
        assert (formed.det_sigma, is_pure(formed), purity(formed)) == (8.0, True, 1.0)
        given = GaussianState(formed.v, formed.sigma, 9.0, 9e-14)
        assert (given.det_sigma, given.det_rounding, is_pure(given)) == (9.0, 9e-14, False)
        assert purity(given) == 1.0 / 3.0
        stack = GaussianState(np.zeros((2, 2)), np.stack([formed.sigma, np.eye(2)]), np.array([9.0, 1.0]), np.zeros(2))
        assert is_pure(stack).tolist() == [False, True]

    @pytest.mark.parametrize(
        "det, rounding, sigma",
        [(9.0, 1e-13, np.eye(2)), (9.0, None, 3.0 * np.eye(2)), (None, 0.0, np.eye(2)),
         (9.0, 0.0, np.stack([3.0 * np.eye(2)] * 2))],
        ids=["far_from_formed", "no_rounding", "no_det", "one_for_a_stack"],
    )
    def test_given_det_rejected(self, det, rounding, sigma):
        """A given det beyond the formed det's hard tolerance, one without
        its rounding (or the reverse), or one det for a stack, raises."""
        with pytest.raises(InvalidStateError, match="given"):
            GaussianState(np.zeros(sigma.shape[:-1]), sigma, det, rounding)


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
