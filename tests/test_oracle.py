import math

import numpy as np
import pytest

from conftest import cqs_state_family
from critsense.dynamics import SystemParams, drift_and_diffusion, evolve_critical, mean_photons_vs_time
from critsense.errors import AccuracyError, DomainError, TruncationError
from critsense.gaussian import thermal_state, vacuum_state
from critsense.metrology import qfi
from critsense.oracle import (
    FockDensityMatrix,
    _rk4_increment,
    default_step,
    fd_shift_derivative,
    fock_coherent,
    fock_evolve,
    fock_moments,
    fock_qfi_fidelity,
    fock_thermal,
    fock_vacuum,
    ladder,
    lyapunov_rk4,
    suggested_dim,
    uhlmann_fidelity,
)
from critsense.validate import ALL_CHECKS, _horizon


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda check: check.check_name)
def test_validate_check(check):
    result = check()
    assert result.name == check.check_name
    assert result.passed, result.detail


def stepped_rk4(rhs, y, h, n):
    """n steps of the four-stage RK4 loop: the reference for the Horner step."""
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


class TestLyapunovRk4:
    def test_horner_step_equals_four_stages(self):
        rng = np.random.default_rng(7)
        L, y = rng.normal(size=(6, 6)), rng.normal(size=6)
        horner = y + _rk4_increment(lambda x: L @ x, y, 0.1)
        assert np.allclose(horner, stepped_rk4(lambda x: L @ x, y, 0.1, 1), rtol=1e-14, atol=0.0)

    def test_matches_the_step_loop(self):
        """5657 steps near threshold: the step-matrix power keeps the loop's
        accuracy (raising I + E itself would drift by 1.5e-13 here)."""
        params = SystemParams(1.0, 1.4, 1.0)
        A, D = drift_and_diffusion(params)
        t = 0.2 * _horizon(params)
        n = math.ceil(t / default_step(params))

        def rhs(z):
            m = A @ z[2:].reshape(2, 2)
            return np.concatenate((A @ z[:2], (m + m.T + D).ravel()))

        z = stepped_rk4(rhs, np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0]), t / n, n)
        state = lyapunov_rk4(params, vacuum_state(), t, verify_step=False)
        scale = np.linalg.norm(state.sigma)
        assert np.linalg.norm(state.sigma.ravel() - z[2:]) <= 1e-13 * scale

    def test_vacuum_fixed_point(self):
        params = SystemParams(1.0, 0.0, 1.0)
        st = lyapunov_rk4(params, vacuum_state(), 3.0)
        assert np.allclose(st.sigma, np.eye(2), atol=1e-12)
        assert np.allclose(st.v, 0.0)

    def test_matches_analytic_propagator(self):
        params = SystemParams(1.0, 1.2, 1.0)
        analytic = evolve_critical(params, vacuum_state(), 5.0)
        numeric = lyapunov_rk4(params, vacuum_state(), 5.0, verify_step=False)
        assert np.allclose(numeric.sigma, analytic.sigma, rtol=1e-8)

    def test_fourth_order_convergence(self):
        params = SystemParams(1.0, 1.2, 1.0)
        ref = evolve_critical(params, vacuum_state(), 1.0)
        errs = []
        for dt in (0.05, 0.025):
            num = lyapunov_rk4(params, vacuum_state(), 1.0, dt=dt, verify_step=False)
            errs.append(np.linalg.norm(num.sigma - ref.sigma))
        rate = math.log2(errs[0] / errs[1])
        assert 3.7 <= rate <= 4.3

    def test_step_verification_catches_coarse_steps(self):
        params = SystemParams(1.0, 1.2, 1.0)
        with pytest.raises(AccuracyError):
            lyapunov_rk4(params, vacuum_state(), 5.0, dt=0.4)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            lyapunov_rk4(SystemParams(1.0, 1.2, 1.0), vacuum_state(), -1.0)


class TestFockEvolve:
    def test_vacuum_fixed_point(self):
        params = SystemParams(1.0, 0.0, 1.0)
        rho = fock_evolve(params, fock_vacuum(30), 2.0)
        assert rho.matrix[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert rho.leakage <= 1e-10

    def test_moments_match_gaussian(self):
        params = SystemParams(1.0, 1.2, 1.0)
        rho = fock_evolve(params, fock_vacuum(60), 2.0)
        assert rho.leakage <= 1e-8
        v, sigma = fock_moments(rho)
        st = evolve_critical(params, thermal_state(0.0), 2.0)
        assert np.max(np.abs(sigma - st.sigma)) <= 1e-4
        assert np.max(np.abs(v)) <= 1e-8
        n_fock = 0.25 * np.trace(sigma) - 0.5
        assert n_fock == pytest.approx(mean_photons_vs_time(params, 2.0), abs=1e-4)

    def test_hot_moments_match_gaussian(self):
        params = SystemParams(1.0, 1.2, 1.0, n_bath=1.0)
        rho = fock_evolve(params, fock_thermal(1.0, 100), 1.0)
        assert rho.leakage <= 1e-8
        _, sigma = fock_moments(rho)
        st = evolve_critical(params, thermal_state(1.0), 1.0)
        assert np.max(np.abs(sigma - st.sigma)) <= 1e-4

    def test_hermitian_and_positive(self):
        params = SystemParams(1.0, 1.2, 1.0, n_bath=0.5)
        rho = fock_evolve(params, fock_thermal(0.5, 80), 1.0)
        m = rho.matrix
        assert np.max(np.abs(m - m.conj().T)) <= 1e-10
        assert float(np.linalg.eigvalsh(m).min()) >= -1e-9

    def test_truncation_gate(self):
        params = SystemParams(1.0, 1.2, 1.0)
        with pytest.raises(TruncationError) as err:
            fock_evolve(params, fock_vacuum(12), 2.0)
        assert err.value.suggested_dim and err.value.suggested_dim > 12

    @pytest.mark.parametrize(
        "params, rho0, t",
        [
            (SystemParams(1.0, 0.3, 0.0), fock_vacuum(16), 1.0),  # lossless squeezing
            (SystemParams(1.0, 0.3, 1.0, n_bath=0.5), fock_vacuum(16), 0.3),  # lossy, hot bath
            (SystemParams(1.0, 0.3, 0.5), fock_coherent(0.3 + 0.2j, 16), 1.0),  # odd m - n sector
        ],
        ids=["lossless_squeezing", "lossy_thermal", "coherent"],
    )
    def test_matches_dense_expm(self, params, rho0, t):
        """exp(t L) with L built column by column from the master equation
        applied to the basis matrices E_jk, so a vec-ordering slip shows."""
        import scipy.linalg as la

        dim = rho0.dim
        a = ladder(dim)
        ad = a.conj().T
        H = params.omega * ad @ a + 0.5 * params.epsilon * (a @ a + ad @ ad)
        jumps = ((params.gamma * (1.0 + params.n_bath), a), (params.gamma * params.n_bath, ad))
        columns = []
        for k in range(dim * dim):
            E = np.zeros((dim, dim), dtype=complex)
            E.flat[k] = 1.0
            out = -1j * (H @ E - E @ H)
            for rate, L in jumps:
                Ld = L.conj().T
                out += rate * (2.0 * L @ E @ Ld - Ld @ L @ E - E @ Ld @ L)
            columns.append(out.ravel())
        want = (la.expm(t * np.array(columns).T) @ rho0.matrix.ravel()).reshape(dim, dim)
        rho = fock_evolve(params, rho0, t)
        assert np.max(np.abs(rho.matrix - want)) <= 1e-12
        assert np.max(np.abs(want - rho0.matrix)) >= 0.1  # the state does move

    def test_reproducible_and_leaves_global_rng_alone(self):
        # expm_multiply estimates norms from numpy's global RNG at this size.
        params = SystemParams(1.0, 1.2, 1.0)
        for run in (
            lambda: fock_evolve(params, fock_vacuum(30), 1.0).matrix,
            lambda: fock_qfi_fidelity(params, 1.0, 5e-3, dim=30),
        ):
            np.random.seed(1)
            first = run()
            draw = np.random.random()
            np.random.seed(1)
            assert np.random.random() == draw
            np.random.seed(2)
            assert np.array_equal(run(), first)

    @pytest.mark.parametrize(
        "rho0",
        [fock_thermal(0.5, 40), fock_coherent(0.6 - 0.4j, 40)],
        ids=["thermal", "coherent"],
    )
    def test_shared_evolution_matches_single_calls(self, rho0):
        params = SystemParams(1.0, 0.8, 1.0, n_bath=0.5)
        pair = (params, params.with_shift(-5e-3))
        together = fock_evolve(pair, rho0, 0.8)
        assert len(together) == 2
        for p, rho in zip(pair, together):
            alone = fock_evolve(p, rho0, 0.8)
            assert np.max(np.abs(rho.matrix - alone.matrix)) <= 1e-12
            assert rho.leakage == pytest.approx(alone.leakage, abs=1e-14)

    def test_shared_evolution_gates_each_member(self):
        # The unshifted member fits in dim 12 at t = 0.05; a large shift does not.
        rho0 = fock_vacuum(12)
        calm = SystemParams(1.0, 0.1, 1.0)
        assert fock_evolve(calm, rho0, 0.05).leakage <= 1e-8
        with pytest.raises(TruncationError):
            fock_evolve((calm, SystemParams(1.0, 40.0, 1.0)), rho0, 0.05)

    def test_odd_parity_sector_stays_empty(self):
        rho = fock_evolve(SystemParams(1.0, 0.8, 1.0, n_bath=0.5), fock_thermal(0.5, 40), 1.0).matrix
        odd = np.add.outer(np.arange(40), np.arange(40)) % 2 == 1
        assert np.all(rho[odd] == 0.0)
        assert np.max(np.abs(rho[~odd])) >= 0.1

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            fock_evolve(SystemParams(1.0, 0.3, 1.0), FockDensityMatrix(10, np.zeros((10, 10))), 1.0)
        with pytest.raises(DomainError):
            fock_evolve((), fock_vacuum(10), 1.0)

    def test_suggested_dim_rule(self):
        assert suggested_dim(0.5) == 30
        assert suggested_dim(10.0) == 120


class TestFockQfi:
    def test_zero_time(self):
        params = SystemParams(1.0, 1.2, 1.0)
        assert fock_qfi_fidelity(params, 0.0, 5e-3, dim=30) == pytest.approx(0.0, abs=1e-9)

    def test_cqs_agreement(self):
        params = SystemParams(1.0, 1.2, 1.0)
        reference = qfi(fd_shift_derivative(cqs_state_family(params, 2.0))[0])
        estimate = fock_qfi_fidelity(params, 2.0, 5e-3, dim=60)
        assert estimate == pytest.approx(reference, rel=0.02)

    def test_passive_coherent(self):
        params = SystemParams(0.0, 0.0, 0.0)
        estimate = fock_qfi_fidelity(params, 1.0, 5e-3, dim=30, rho0=fock_coherent(1.0, 30))
        assert estimate == pytest.approx(4.0, rel=0.01)

    def test_step_out_of_range(self):
        with pytest.raises(DomainError):
            fock_qfi_fidelity(SystemParams(1.0, 1.2, 1.0), 1.0, 5e-2, dim=30)


class TestFockStates:
    def test_thermal_moments(self):
        rho = fock_thermal(1.0, 80)
        a = ladder(80)
        n_op = a.conj().T @ a
        n = float(np.real(np.trace(n_op @ rho.matrix)))
        n2 = float(np.real(np.trace(n_op @ n_op @ rho.matrix)))
        assert n == pytest.approx(1.0, rel=1e-10)
        assert n2 - n * n == pytest.approx(2.0, rel=1e-10)

    def test_coherent_far_beyond_float_powers(self):
        """|alpha|^k overflows at k ~ 237 for alpha = 20; the populations are
        the Poisson weights of mean 400 below the truncation."""
        from scipy.stats import poisson

        rho = fock_coherent(20.0j, 300)
        pops = np.real(np.diag(rho.matrix))
        assert np.all(np.isfinite(rho.matrix))
        assert np.allclose(pops, poisson.pmf(np.arange(300), 400.0), rtol=1e-10, atol=0.0)
        assert rho.matrix[1, 0] / pops[0] == pytest.approx(20j, rel=1e-12)

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(DomainError):
            FockDensityMatrix(2, np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_coherent_moments(self):
        rho = fock_coherent(1.0 + 0.5j, 40)
        v, sigma = fock_moments(rho)
        assert np.allclose(v, math.sqrt(2.0) * np.array([1.0, 0.5]), atol=1e-10)
        assert np.allclose(sigma, np.eye(2), atol=1e-9)

    def test_uhlmann_pure_overlap(self):
        # eigenvalue dust under the square root limits the precision to ~1e-8
        a = fock_coherent(0.8, 40)
        b = fock_coherent(0.3, 40)
        overlap = math.exp(-0.5 * abs(0.8 - 0.3) ** 2)
        assert uhlmann_fidelity(a, b) == pytest.approx(overlap, rel=1e-6)

    def test_gaussian_fidelity_cross_check(self):
        """Closed-form Gaussian fidelity equals the Fock-space Uhlmann fidelity."""
        import scipy.linalg as la

        from critsense.gaussian import (
            DisplacementAmplitude,
            SqueezeParam,
            apply_displace,
            apply_squeeze,
            fidelity,
        )

        dim = 90
        a_op = ladder(dim)
        ad = a_op.conj().T

        def build(alpha, r, n_bath):
            squeezer = la.expm(0.5 * r * (ad @ ad - a_op @ a_op))
            displacer = la.expm(alpha * ad - np.conj(alpha) * a_op)
            rho = fock_thermal(n_bath, dim).matrix
            rho = displacer @ (squeezer @ rho @ squeezer.conj().T) @ displacer.conj().T
            return FockDensityMatrix(dim, rho)

        def gauss(alpha, r, n_bath):
            return apply_displace(
                apply_squeeze(thermal_state(n_bath), SqueezeParam(r)),
                DisplacementAmplitude(alpha),
            )

        f_fock = uhlmann_fidelity(build(0.8, 0.4, 0.3), build(0.5, 0.6, 0.5)) ** 2
        f_gauss = fidelity(gauss(0.8, 0.4, 0.3), gauss(0.5, 0.6, 0.5))
        assert f_gauss == pytest.approx(f_fock, abs=1e-7)
