import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import driven_pair, gaussian_fidelity, kron_rk4_generator, kron_superoperators
from critsense import dynamics, oracle
from critsense.dynamics import SystemParams, drift_and_diffusion, evolve_critical, mean_photons_vs_time
from critsense.errors import AccuracyError, DomainError, PureStateError, TruncationError
from critsense.gaussian import (
    DisplacementAmplitude,
    GaussianState,
    SqueezeParam,
    apply_displace,
    apply_squeeze,
    thermal_state,
    vacuum_state,
)
from critsense.metrology import DerivativePair, fi_homodyne, qfi, snr_photon_counting
from critsense.oracle import (
    LEAK_BUDGET,
    FockDensityMatrix,
    _expm_apply,
    _from_coordinates,
    _liouvillian,
    _rk4_increment,
    _superoperators,
    _to_coordinates,
    default_step,
    fock_coherent,
    fock_evolve,
    fock_moments,
    fock_qfi_fidelity,
    fock_thermal,
    fock_vacuum,
    gaussian_qfi,
    ladder,
    lyapunov_rk4,
    suggested_dim,
    uhlmann_fidelity,
)
from critsense.protocols import (
    ProtocolKind,
    ProtocolSpec,
    ResourceBudget,
    optimal_homodyne_input,
    total_qfi,
)
from critsense.validate import ALL_CHECKS, BATTERY, _horizon, _rel_tangent_diff, check_rk4_agreement


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda check: check.check_name)
def test_validate_check(check):
    result = check()
    assert result.name == check.check_name
    assert result.passed, result.detail


def test_rk4_agreement_sees_a_branch_error_below_the_exceptional_point(monkeypatch):
    """A 1e-8 relative error in _decayed_cosh_sinhc's trigonometric branch,
    only for -1e-6 < s < 0, fails the RK4 agreement check: its points hold
    eps = omega (1 - 1e-7), s = -2e-7, to the oracle at 1e-11."""
    exact = dynamics._decayed_cosh_sinhc

    def planted(gamma, s, k, tau):
        c, sc = exact(gamma, s, k, tau)
        return (c * (1.0 + 1e-8), sc * (1.0 + 1e-8)) if -1e-6 < s < 0.0 else (c, sc)

    assert check_rk4_agreement().passed
    monkeypatch.setattr(dynamics, "_decayed_cosh_sinhc", planted)
    result = check_rk4_agreement()
    assert not result.passed and "eps=0.9999999" in result.detail, result.detail


def same_bits(a, b):
    """Equal dtype, shape and bytes: equal to the bit, signed zeros included."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
        accuracy (raising I + E itself would drift by 1.5e-13 here), for the
        state and for its tangent dSigma' = A dSigma + dSigma A^T + J Sigma + Sigma J^T."""
        params = SystemParams(1.0, 1.4, 1.0)
        A, D = drift_and_diffusion(params)
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        t = 0.2 * _horizon(params)
        n = math.ceil(t / default_step(params))

        def rhs(z):
            m = A @ z[:4].reshape(2, 2)
            dm = A @ z[4:].reshape(2, 2) + J @ z[:4].reshape(2, 2)
            return np.concatenate(((m + m.T + D).ravel(), (dm + dm.T).ravel()))

        z = stepped_rk4(rhs, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]), t / n, n)
        pair = lyapunov_rk4(params, vacuum_state(), t, verify_step=False)
        assert np.linalg.norm(pair.state.sigma.ravel() - z[:4]) <= 1e-13 * np.linalg.norm(pair.state.sigma)
        assert np.linalg.norm(pair.dsigma.ravel() - z[4:]) <= 1e-13 * np.linalg.norm(pair.dsigma)

    def test_vacuum_fixed_point(self):
        params = SystemParams(1.0, 0.0, 1.0)
        pair = lyapunov_rk4(params, vacuum_state(), 3.0)
        assert np.allclose(pair.state.sigma, np.eye(2), atol=1e-12)
        assert np.allclose(pair.state.v, 0.0)
        # The vacuum is rotation-invariant: a shift changes nothing.
        assert np.allclose(pair.dsigma, 0.0, atol=1e-12)

    def test_matches_analytic_propagator(self):
        params = SystemParams(1.0, 1.2, 1.0)
        analytic = evolve_critical(params, vacuum_state(), 5.0)
        numeric = lyapunov_rk4(params, vacuum_state(), 5.0, verify_step=False)
        assert np.allclose(numeric.state.sigma, analytic.sigma, rtol=1e-8)
        assert _rel_tangent_diff(driven_pair(params, 5.0), numeric) <= 1e-8

    def test_fourth_order_convergence(self):
        params = SystemParams(1.0, 1.2, 1.0)
        ref = driven_pair(params, 1.0)
        errs = []
        for dt in (0.05, 0.025):
            num = lyapunov_rk4(params, vacuum_state(), 1.0, dt=dt, verify_step=False)
            errs.append([np.linalg.norm(num.state.sigma - ref.state.sigma), np.linalg.norm(num.dsigma - ref.dsigma)])
        for rate in np.log2(np.divide(*errs)):
            assert 3.7 <= rate <= 4.3

    def test_step_verification_catches_coarse_steps(self):
        params = SystemParams(1.0, 1.2, 1.0)
        with pytest.raises(AccuracyError):
            lyapunov_rk4(params, vacuum_state(), 5.0, dt=0.4)

    def test_step_matrix_matches_the_kron_generator(self, monkeypatch):
        """With its blocks a S + S a^T written out, the generator gives every
        step increment to the bit as np.kron(a, I) + np.kron(I, a) does, at
        each battery parameter set and check_rk4_agreement's three times."""
        increments = []
        power = oracle._power
        monkeypatch.setattr(oracle, "_power", lambda E, n: increments.append((E, n)) or power(E, n))
        for params in BATTERY:
            G = kron_rk4_generator(params)
            for frac in (0.02, 0.2, 1.0):
                t = frac * _horizon(params)
                increments.clear()
                lyapunov_rk4(params, thermal_state(params.n_bath), t)
                assert len(increments) == 2
                for E, n in increments:
                    assert same_bits(E, _rk4_increment(lambda y: G @ y, np.eye(13), t / n))


class TestGaussianQfi:
    """oracle.gaussian_qfi, the general mixed-state formula, against closed forms."""

    @pytest.mark.parametrize("nu", [1.5, 3.0, 11.0])
    def test_thermal_closed_form(self, nu):
        """A thermal state sigma = nu I carries 1/(nu^2 - 1) about nu = 1 + 2 n_B."""
        pair = DerivativePair(GaussianState(np.zeros(2), nu * np.eye(2)), np.zeros(2), np.eye(2))
        assert gaussian_qfi(pair) == pytest.approx(1.0 / (nu * nu - 1.0), rel=1e-14)

    def test_displaced_thermal_state(self):
        """A displacement alpha moves v by sqrt(2) alpha: about alpha, a thermal
        state of sigma = 3 I carries 4/3 (a coherent state, 4)."""
        state = apply_displace(thermal_state(1.0), DisplacementAmplitude(0.7, 0.4))
        dv = math.sqrt(2.0) * np.array([math.cos(0.4), math.sin(0.4)])
        pair = DerivativePair(state, dv, np.zeros((2, 2)))
        assert gaussian_qfi(pair) == pytest.approx(4.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("squeeze", [SqueezeParam(0.0), SqueezeParam(1.0), SqueezeParam(1.3, 0.7)],
                             ids=["vacuum", "squeezed", "rotated"])
    def test_pure_state_rejected(self, squeeze):
        """det(sigma kron sigma - W kron W) = (det sigma - 1)^2 (det sigma + 1)^2
        vanishes at a pure state, exactly or within rounding: a typed error,
        not numpy's LinAlgError or a quotient of rounding."""
        state = apply_squeeze(vacuum_state(), squeeze)
        pair = DerivativePair(state, np.ones(2), np.zeros((2, 2)))
        with pytest.raises(PureStateError, match="general formula is singular"):
            gaussian_qfi(pair)


# The nodes (n_B, eps/eps_c, t Gamma) of the benchmark's Fock design, each at
# the dim its op settles on (omega0 = Gamma = 1, eps_c = sqrt(2)), and a
# coherent start, which fills both parity sectors.
SHIFT_PAIR_NODES = [
    *(
        (SystemParams(1.0, ratio * math.sqrt(2.0), 1.0, n_bath=n_bath), fock_thermal(n_bath, dim), t)
        for n_bath, ratio, t, dim in [
            (0.0, 0.35, 2.3, 30), (0.0, 0.55, 2.7, 30), (0.5, 0.35, 1.5, 30), (0.0, 0.85, 1.5, 43),
            (0.5, 0.55, 0.7, 38), (0.5, 0.62, 1.0, 46), (0.5, 0.70, 0.8, 48), (0.5, 0.80, 0.6, 47),
        ]
    ),
    (SystemParams(1.0, 0.8, 1.0, n_bath=0.5), fock_coherent(0.6 - 0.4j, 40), 0.8),
]
SHIFT_PAIR_IDS = [f"node{k}" for k in range(8)] + ["coherent"]


def shift_pair(params):
    """params and params with omega0 shifted by -5e-3: the pair that
    fock_qfi_fidelity evolves at dtheta = 5e-3."""
    return params, replace(params, omega0=params.omega0 - 5e-3)


def filled_parities(rho0):
    """The parities of m + n over the entries |m><n| rho0 fills."""
    parity = np.add.outer(np.arange(rho0.dim), np.arange(rho0.dim)).ravel() % 2
    return tuple(np.unique(parity[rho0.matrix.ravel() != 0]).tolist())


def start_coordinates(rho0):
    """The coordinate layout (m, n, reals) of the sectors rho0 fills, and
    rho0 gathered into it, as fock_evolve takes its start."""
    layout = _superoperators(rho0.dim, filled_parities(rho0))[0]
    return layout, _to_coordinates(rho0.matrix, layout)


def shift_pair_generator(params, rho0):
    """The coordinate layout, the real block-diagonal generator of the shift
    pair (params, shift -5e-3) and its start, as fock_qfi_fidelity evolves
    them."""
    import scipy.sparse as sp

    layout, start = start_coordinates(rho0)
    pair = shift_pair(params)
    generator = sp.block_diag([_liouvillian(p, rho0.dim, filled_parities(rho0)) for p in pair], format="csr")
    return layout, generator, np.tile(start, 2)


def hermitian_in_sectors(dim, parities, seed):
    """A random Hermitian matrix on the sectors of `parities`, 0 elsewhere,
    with some entries 0 and some -0 in the real or imaginary part."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    z = z + z.conj().T

    def symmetric(share):
        mask = np.triu(rng.random((dim, dim)) < share)
        return mask | mask.T

    z[symmetric(0.2)] = 0.0
    z.real[symmetric(0.1)] = -0.0
    z.imag[symmetric(0.1)] = -0.0
    in_sectors = np.isin(np.add.outer(np.arange(dim), np.arange(dim)) % 2, parities)
    return np.where(in_sectors, z, 0.0), int(in_sectors.sum())


def plain_expm_apply(generator, x, t):
    """_expm_apply's Taylor loop, theta_55 = 9.9, unshifted step count and
    stopping rule included, with scipy's `a @ term` for each product and
    ||x||_inf = abs(x).max() taken after every term."""
    steps = max(1, math.ceil(t * float(abs(generator).sum(axis=0).max()) / 9.9))
    h = t / steps
    x = x.copy()
    for _ in range(steps):
        term, last = x, abs(x).max()
        for k in range(1, 56):
            term = generator @ term
            term *= h / k
            size = abs(term).max()
            x += term
            if last + size <= 2.0 ** -53 * abs(x).max():
                break
            last = size
    return x


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
        assert np.array_equal(m, m.conj().T)
        assert float(np.linalg.eigvalsh(m).min()) >= -1e-9

    def test_truncation_gate(self):
        params = SystemParams(1.0, 1.2, 1.0)
        with pytest.raises(TruncationError) as err:
            fock_evolve(params, fock_vacuum(12), 2.0)
        assert err.value.suggested_dim and err.value.suggested_dim > 12
        assert fock_evolve(params, fock_vacuum(err.value.suggested_dim), 2.0).leakage <= LEAK_BUDGET

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
        H = params.omega0 * ad @ a + 0.5 * params.epsilon * (a @ a + ad @ ad)
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

    @pytest.mark.parametrize("params, rho0, t", SHIFT_PAIR_NODES, ids=SHIFT_PAIR_IDS)
    def test_matches_scipy_expm_multiply(self, params, rho0, t):
        """The shared evolution of a shift pair, as fock_qfi_fidelity runs it,
        to 1e-13 of the largest entry against scipy's expm_multiply on the
        same real block-diagonal generator."""
        from scipy.sparse.linalg import expm_multiply

        layout, generator, start = shift_pair_generator(params, rho0)
        np.random.seed(0)  # expm_multiply's norm estimates draw from the global RNG
        want = expm_multiply(t * generator, start)
        for rho, x in zip(fock_evolve(shift_pair(params), rho0, t), want.reshape(2, -1)):
            ref = _from_coordinates(x, rho0.dim, layout)
            assert np.max(np.abs(rho.matrix - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("params, rho0, t", SHIFT_PAIR_NODES, ids=SHIFT_PAIR_IDS)
    def test_taylor_loop_matches_plain_products(self, params, rho0, t):
        """_expm_apply's direct csr_matvec calls and its deferred inf-norm of
        the partial sum give, to the bit, the loop with `a @ term` and
        ||x||_inf taken after every term."""
        _, generator, start = shift_pair_generator(params, rho0)
        assert np.array_equal(_expm_apply(generator, start, t), plain_expm_apply(generator, start, t))

    def test_taylor_loop_rejects_a_start_the_kernel_cannot_take(self):
        # csr_matvec would read past a short start and cannot write a complex
        # one; idamax and the kernel would take a float32 one in single precision.
        _, generator, start = shift_pair_generator(*SHIFT_PAIR_NODES[0][:2])
        for bad in (start[:-1], start.astype(complex), start.astype(np.float32)):
            kept = bad.copy()
            with pytest.raises(DomainError, match="Taylor loop needs"):
                _expm_apply(generator, bad, 1.0)
            assert np.array_equal(bad, kept) and bad.dtype == kept.dtype
        kept = start.copy()
        _expm_apply(generator, start, 1.0)
        assert np.array_equal(start, kept)

    @pytest.mark.parametrize(
        "params, rho0, t",
        [
            (SystemParams(1.0, 0.5, 1.0, n_bath=0.5), FockDensityMatrix(30, np.diag(np.eye(30)[25])), 0.5),
            (SystemParams(1.0, 0.5, 1.0, n_bath=0.5), fock_coherent(4.5, 30), 0.2),
            (SystemParams(1.0, 5.0, 10.0, n_bath=0.5), fock_thermal(0.5, 30), 0.5),
        ],
        ids=["fock_25", "coherent_4.5", "strongly_damped"],
    )
    def test_taylor_loop_matches_dense_expm(self, params, rho0, t):
        """Without a trace shift, to 1e-13 of the largest entry against a dense
        expm of the generator: starts weighted near the truncation edge, which
        take more terms unshifted, and a strongly damped drive, which takes
        fewer."""
        import scipy.linalg as la

        _, start = start_coordinates(rho0)
        generator = _liouvillian(params, rho0.dim, filled_parities(rho0))
        want = la.expm(t * generator.toarray()) @ start
        assert np.max(np.abs(_expm_apply(generator, start, t) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "rho0", [fock_thermal(0.5, 20), fock_coherent(0.6 - 0.4j, 20)], ids=["thermal", "coherent"]
    )
    def test_all_rates_zero_leaves_the_state(self, rho0):
        # Every rate 0: the generator is a CSR with no stored entries.
        params = SystemParams(0.0, 0.0, 0.0)
        assert _liouvillian(params, 20, filled_parities(rho0)).nnz == 0
        assert np.array_equal(fock_evolve(params, rho0, 1.3).matrix, rho0.matrix)

    def test_reproducible_and_leaves_global_rng_alone(self):
        # The same result under any global seed, and the caller's stream untouched.
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
        pair = shift_pair(SystemParams(1.0, 0.8, 1.0, n_bath=0.5))
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


def direct_liouvillian(params, dim):
    """The Lindblad superoperator on the row-major vec of rho, assembled
    term by term with sp.kron: the reference for the cached pieces."""
    import scipy.sparse as sp

    a = sp.diags(np.sqrt(np.arange(1, dim, dtype=float)), 1, format="csr")
    ad = a.T.tocsr()
    n_op = ad @ a
    eye = sp.identity(dim, format="csr")
    H = params.omega0 * n_op + 0.5 * params.epsilon * (a @ a + ad @ ad)
    liouvillian = -1j * (sp.kron(H, eye) - sp.kron(eye, H))
    for rate, L, LdL in ((params.gamma * (1.0 + params.n_bath), a, n_op), (params.gamma * params.n_bath, ad, a @ ad)):
        if rate > 0:
            liouvillian = liouvillian + rate * (2.0 * sp.kron(L, L) - sp.kron(LdL, eye) - sp.kron(eye, LdL))
    return liouvillian.tocsr()


class TestCachedLiouvillian:
    @pytest.mark.parametrize(
        "params, rho0",
        [
            (SystemParams(1.0 - 5e-3, 0.5, 1.0), fock_vacuum(16)),  # n_B = 0
            (SystemParams(1.0 - 5e-3, 0.49, 1.0, n_bath=0.5), fock_thermal(0.5, 16)),
            (SystemParams(1.3, 0.7, 0.0), fock_coherent(0.3 + 0.2j, 16)),  # gamma = 0, both sectors
            (SystemParams(0.0, 0.7, 0.0), fock_vacuum(16)),  # one piece alone, not a sum
            (SystemParams(0.0, 0.0, 0.0), fock_coherent(1.0, 16)),  # every rate 0
        ],
        ids=["vacuum", "thermal", "coherent_lossless", "squeezing_only", "at_rest"],
    )
    def test_matches_direct_assembly(self, params, rho0):
        """Entry for entry and with the same stored entries, none of them 0,
        as a direct assembly taken through the coordinate maps of the
        sectors rho0 fills."""
        dim = rho0.dim
        parity = np.add.outer(np.arange(dim), np.arange(dim)).ravel() % 2
        parities = tuple(np.unique(parity[rho0.matrix.ravel() != 0]).tolist())
        coords, back, _ = kron_superoperators(dim, parities)
        want = (coords @ direct_liouvillian(params, dim) @ back).real.tocsr()
        want.eliminate_zeros()
        got = _liouvillian(params, dim, parities)
        assert got.dtype == np.float64 and np.all(got.data != 0)
        assert got.shape == want.shape and got.nnz == want.nnz
        assert np.all(abs(got - want).toarray() <= 1e-15 * abs(want).toarray())

    @pytest.mark.parametrize("parities", [(0,), (1,), (0, 1)])
    @pytest.mark.parametrize("dim", [2, 3, 7, 30, 38, 48, 60])
    def test_pieces_match_the_kron_build(self, dim, parities):
        """The index-arithmetic build gives the pattern (indptr, indices,
        rows) to the bit as the generic one does: Re(coords P back) over
        sp.kron pieces, with the union of their entries as the pattern. Its
        index arrays gather a Hermitian rho to the bits of Re(coords vec rho)
        and scatter those back to the bits of back x."""
        layout, pattern = _superoperators(dim, parities)
        coords, back, want = kron_superoperators(dim, parities)
        assert all(same_bits(g, w) for g, w in zip(pattern, want))
        rho, _ = hermitian_in_sectors(dim, parities, seed=dim)
        x = _to_coordinates(rho, layout)
        assert same_bits(x, (coords @ rho.ravel()).real)
        assert same_bits(_from_coordinates(x, dim, layout).ravel(), back @ x)

    @pytest.mark.parametrize("parities", [(0,), (1,), (0, 1)])
    def test_coordinates_round_trip(self, parities):
        """A Hermitian rho on the sectors comes back exactly from its real
        coordinates, one real per entry of the sectors, and both ways agree
        to the bit with the complex sparse maps coords and back."""
        dim = 9
        rho, count = hermitian_in_sectors(dim, parities, seed=5)
        layout = _superoperators(dim, parities)[0]
        coords, back, _ = kron_superoperators(dim, parities)
        x = _to_coordinates(rho, layout)
        assert len(x) == count and same_bits(x, (coords @ rho.ravel()).real)
        rebuilt = _from_coordinates(x, dim, layout)
        assert np.array_equal(rebuilt, rho) and same_bits(rebuilt.ravel(), back @ x)

    def test_calls_leave_the_cached_pieces_alone(self):
        cached = _superoperators(30, (0,))
        (m, n, _), pattern = cached
        arrays = (m, n, *pattern)
        before = [array.copy() for array in arrays]
        for params in (SystemParams(1.0, 0.5, 1.0, n_bath=0.5), SystemParams(2.0, 0.1, 0.0), SystemParams(0.0, 0.8, 2.0)):
            _liouvillian(params, 30, (0,))
            fock_evolve(shift_pair(params), fock_thermal(params.n_bath, 30), 0.3)
        assert _superoperators(30, (0,)) is cached
        for array, copy in zip(arrays, before):
            assert not array.flags.writeable
            assert np.array_equal(array, copy)

    @pytest.mark.parametrize(
        "params, rho0",
        [
            (SystemParams(1.0, 0.7, 1.0), fock_vacuum(16)),  # n_B = 0: no absorption entries
            (SystemParams(1.0, 0.49, 1.0, n_bath=0.5), fock_thermal(0.5, 16)),
            (SystemParams(0.0, 0.7, 1.0, n_bath=0.5), fock_coherent(0.3 + 0.2j, 16)),  # omega0 = 0
            (SystemParams(0.0, 0.0, 0.0), fock_coherent(1.0, 16)),  # every rate 0
        ],
        ids=["vacuum", "thermal", "omega0_zero", "at_rest"],
    )
    def test_pattern_fill_is_the_sparse_sum(self, params, rho0):
        """The shift pair's generator, as fock_evolve builds it from the cached
        pattern, is to the bit (indptr, indices, data) sp.block_diag of single
        calls, and each single call is the sum of its nonzero-rate pieces as
        sparse matrices, left to right, with no stored zeros."""
        import scipy.sparse as sp

        dim, parities = rho0.dim, filled_parities(rho0)
        indptr, indices, rows = _superoperators(dim, parities)[1]
        pieces = [sp.csr_matrix((row, indices, indptr), copy=True) for row in rows]
        for piece in pieces:
            piece.eliminate_zeros()
        pair = shift_pair(params)
        singles = []
        for p in pair:
            rates = (p.omega0, p.omega0, p.epsilon, p.gamma * (1.0 + p.n_bath), p.gamma * p.n_bath)
            terms = [rate * piece for rate, piece in zip(rates, pieces) if rate != 0]
            want = sum(terms[1:], terms[0]) if terms else sp.csr_matrix(pieces[0].shape)
            got = _liouvillian(p, dim, parities)
            assert all(np.array_equal(getattr(got, a), getattr(want, a)) for a in ("indptr", "indices", "data"))
            assert np.all(got.data != 0)
            singles.append(got)
        want = sp.block_diag(singles, format="csr")
        got = _liouvillian(pair, dim, parities)
        assert all(np.array_equal(getattr(got, a), getattr(want, a)) for a in ("indptr", "indices", "data"))

    # (n_B, eps/eps_c, t Gamma) of the design nodes whose first truncation,
    # suggested_dim's 30 levels, leaks: omega0 = Gamma = 1, eps_c = sqrt(2).
    @pytest.mark.parametrize(
        "n_bath, ratio, t",
        [(0.0, 0.85, 1.5), (0.5, 0.55, 0.7), (0.5, 0.62, 1.0), (0.5, 0.70, 0.8), (0.5, 0.80, 0.6)],
    )
    def test_one_retry_from_the_covariance(self, n_bath, ratio, t):
        """The retry dim sized from the leaked state's covariance passes on
        the first retry, below the doubled 60 levels, and the estimate there
        is within 2% of the Gaussian QFI."""
        params = SystemParams(1.0, ratio * math.sqrt(2.0), 1.0, n_bath=n_bath)
        dim = suggested_dim(mean_photons_vs_time(params, t))
        assert dim == 30
        with pytest.raises(TruncationError) as err:
            fock_qfi_fidelity(params, t, 5e-3, dim)
        retry = err.value.suggested_dim
        assert dim < retry < 60
        want = qfi(driven_pair(params, t))
        assert fock_qfi_fidelity(params, t, 5e-3, retry) == pytest.approx(want, rel=0.02)


class TestFockQfi:
    def test_zero_time(self):
        params = SystemParams(1.0, 1.2, 1.0)
        assert fock_qfi_fidelity(params, 0.0, 5e-3, dim=30) == pytest.approx(0.0, abs=1e-9)

    def test_cqs_agreement(self):
        params = SystemParams(1.0, 1.2, 1.0)
        reference = qfi(lyapunov_rk4(params, vacuum_state(), 2.0))
        estimate = fock_qfi_fidelity(params, 2.0, 5e-3, dim=60)
        assert estimate == pytest.approx(reference, rel=0.02)

    def test_passive_coherent(self):
        params = SystemParams(0.0, 0.0, 0.0)
        estimate = fock_qfi_fidelity(params, 1.0, 5e-3, dim=30, rho0=fock_coherent(1.0, 30))
        assert estimate == pytest.approx(4.0, rel=0.01)

    def test_step_out_of_range(self):
        with pytest.raises(DomainError):
            fock_qfi_fidelity(SystemParams(1.0, 1.2, 1.0), 1.0, 5e-2, dim=30)

    def test_start_of_another_truncation_rejected(self):
        with pytest.raises(DomainError, match="30 levels, but dim = 60"):
            fock_qfi_fidelity(SystemParams(1.0, 0.5, 1.0), 1.0, 5e-3, dim=60, rho0=fock_thermal(0.0, 30))


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
        a = fock_coherent(0.8, 40)
        b = fock_coherent(0.3, 40)
        overlap = math.exp(-0.5 * abs(0.8 - 0.3) ** 2)
        assert uhlmann_fidelity(a, b) == pytest.approx(overlap, rel=1e-12)

    def test_uhlmann_indefinite_state_rejected(self):
        """A tau with an eigenvalue below -1e-9 has no square root: a typed
        error, in either argument, not a fidelity of its clipped spectrum."""
        rho = fock_thermal(0.5, 10)
        tau = FockDensityMatrix(10, np.diag([1.5, -0.5] + [0.0] * 8))
        for args in ((rho, tau), (tau, rho)):
            with pytest.raises(AccuracyError, match="indefinite"):
                uhlmann_fidelity(*args)

    def test_gaussian_fidelity_cross_check(self):
        """Closed-form Gaussian fidelity equals the Fock-space Uhlmann fidelity."""
        import scipy.linalg as la

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
        f_gauss = gaussian_fidelity(gauss(0.8, 0.4, 0.3), gauss(0.5, 0.6, 0.5))
        assert f_gauss == pytest.approx(f_fock, abs=1e-12)


# The shift-derivative pair at t of a driven protocol from the vacuum.
_driven_pair = partial(driven_pair, SystemParams(1.0, 1.2, 1.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: suggested_dim(math.inf),
        lambda: suggested_dim(math.nan),
        lambda: suggested_dim(-1.0),
        lambda: fock_vacuum(0),
        lambda: fock_vacuum(1),
        lambda: fock_thermal(1.0, 0),
        lambda: fock_coherent(1.0, 1),
        lambda: lyapunov_rk4(SystemParams(1.0, 1.2, 1.0), vacuum_state(), 1.0, dt=math.nan),
        lambda: lyapunov_rk4(SystemParams(1.0, 1.2, 1.0), vacuum_state(), 1.0, dt=math.inf),
        lambda: fi_homodyne(_driven_pair(1.0), math.inf),
        lambda: fi_homodyne(_driven_pair(1.0), math.nan),
        lambda: fi_homodyne(_driven_pair(np.array([1.0, 2.0])), np.array([0.5, math.nan])),
        lambda: fi_homodyne(_driven_pair(np.array([1.0, 2.0, 3.0])), np.zeros((3, 1))),
        lambda: fi_homodyne(_driven_pair(np.array([1.0, 2.0, 3.0])), np.zeros((1, 3))),
        lambda: fi_homodyne(_driven_pair(1.0), np.array(0.5)),
        lambda: fi_homodyne(_driven_pair(1.0), np.array([0.1, 0.2, 0.3])),
        lambda: SystemParams(1.0, 0.5, math.nan),
        lambda: SystemParams(1.0, 0.5, -1.0),
        lambda: SystemParams(1.0, 0.5, 1.0, n_bath=-0.5),
        lambda: SystemParams(1.0, -0.5, 1.0),
        lambda: ResourceBudget(100.0, 0.0),
        lambda: ProtocolSpec(ProtocolKind.PQS, SystemParams(1.0, 0.5, 1.0), ResourceBudget(100.0, 1.0)),
        lambda: optimal_homodyne_input(0.0, 1.0, 1.0),
        lambda: total_qfi(ProtocolSpec(ProtocolKind.CQS, SystemParams(1.0, 0.5, 1.0), ResourceBudget(100.0, 1.0)), 0.0),
        lambda: lyapunov_rk4(SystemParams(1.0, 1.2, 1.0), vacuum_state(), -1.0),
        lambda: evolve_critical(SystemParams(1.0, 1.2, 1.0), vacuum_state(), -0.1),
        lambda: fock_evolve(SystemParams(1.0, 0.5, 1.0), fock_vacuum(4), -1.0),
        lambda: fock_evolve(SystemParams(1.0, 0.5, 1.0), fock_vacuum(4), math.nan),
        lambda: lyapunov_rk4(SystemParams(1.0, 1.2, 1.0), vacuum_state(), np.array([1.0, 2.0])),
        lambda: fock_evolve(SystemParams(1.0, 0.5, 1.0), fock_vacuum(4), np.array([1.0, 2.0])),
        lambda: ladder(0),
        lambda: ladder(1),
        lambda: ladder(-2),
        lambda: ladder(2.5),
        lambda: fock_thermal(-1.0, 4),
        lambda: FockDensityMatrix(3, np.eye(2)),
        lambda: FockDensityMatrix(2, np.array([[1.0, 1.0], [0.0, 0.0]])),
        lambda: snr_photon_counting(DerivativePair(vacuum_state(), np.zeros(2), np.zeros((2, 2)))),
    ],
    ids=["suggested_dim_inf", "suggested_dim_nan", "suggested_dim_negative", "fock_vacuum_0", "fock_vacuum_1",
         "fock_thermal_0", "fock_coherent_1", "rk4_dt_nan", "rk4_dt_inf", "fi_psi_inf", "fi_psi_nan", "fi_psi_array_nan",
         "fi_psi_column", "fi_psi_row", "fi_psi_0d", "fi_psi_array_one_pair",
         "params_nan", "params_gamma_negative", "params_n_bath_negative", "params_epsilon_negative",
         "budget_total_time_0", "pqs_driven", "homodyne_input_n_max_0", "total_qfi_t_0", "rk4_t_negative",
         "evolve_critical_t_negative", "fock_evolve_t_negative", "fock_evolve_t_nan", "rk4_t_array",
         "fock_evolve_t_array", "ladder_0", "ladder_1", "ladder_negative", "ladder_2_5", "fock_thermal_negative",
         "fock_matrix_shape", "fock_matrix_not_hermitian", "snr_vacuum"],
)
def test_bad_library_input_raises_domain_error(call):
    """A parameter, budget, time, density matrix, photon number, truncation,
    step or homodyne angle outside its domain, or an array of angles that is
    not 1-D or is given with one pair, raises DomainError, not a bare
    OverflowError, TypeError, ValueError or IndexError, a silently broadcast
    array or rounded truncation, nor an AccuracyError that blames the state,
    and warns of nothing."""
    with pytest.raises(DomainError):
        call()
