"""Independent numerical cross-checks for the closed-form Gaussian machinery.

Three oracles, deliberately sharing no code with the analytic propagator or
its exact shift derivative: a fixed-step RK4 integrator for the moment
(Lyapunov) equations, Richardson-extrapolated central differences of a
state family in the shift, and the full master equation on a Fock-space
truncation, which also yields a fidelity-based QFI estimate valid beyond the
Gaussian calculus. All are library code; the CLI validation command runs the
first two.

RK4 is the Lyapunov oracle only. Its equation is linear and autonomous,
y' = L y, so one classical RK4 step of size h is the degree-4 Taylor
polynomial of hL, in Horner form y + hL(y + hL/2 (y + hL/3 (y + hL/4 y))).
The oracle applies it to the identity to get the step matrix P on
(v, vec Sigma, 1): n steps are P^n, the same discretisation as stepping n
times. The Fock oracle applies exp(t L) for the sparse Liouvillian L with
scipy's expm_multiply (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
(2011)), which chooses its own accuracy. L conserves the parity of m + n in
|m><n|, so only the parity sectors the start fills are evolved: half of vec
rho for vacuum, thermal and squeezed starts, all of it for a coherent one.
The fidelity QFI needs the same start evolved under two shifts; one
expm_multiply on the block diagonal of the two Liouvillians gives both, and
pays the norm estimation and the per-step overhead once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemParams, drift_and_diffusion, spectral_info
from .errors import AccuracyError, DomainError, TruncationError
from .gaussian import GaussianState
from .metrology import DerivativePair, StateFamily

LEAK_BUDGET = 1e-8


def default_step(params: SystemParams) -> float:
    """Conservative RK4 step 0.002 / (fastest rate)."""
    info = spectral_info(params)
    rate = max(abs(info.lambda_plus), params.gamma, abs(params.omega), params.epsilon, 1e-12)
    return 0.002 / rate


def _rk4_increment(apply, y, h: float):
    """What one classical RK4 step of size h adds to y, for y' = apply(y) linear."""
    return h * apply(y + (h / 2.0) * apply(y + (h / 3.0) * apply(y + (h / 4.0) * apply(y))))


def _power(E: np.ndarray, n: int) -> np.ndarray:
    """(I + E)^n by squaring increments: rounding I + E itself would cost a
    relative error of about n * 1e-16 (1.6e-12 at 56 566 steps)."""
    R = np.zeros_like(E)
    while n:
        if n & 1:
            R = R + E + R @ E
        E = 2.0 * E + E @ E
        n >>= 1
    return np.eye(len(E)) + R


def lyapunov_rk4(
    params: SystemParams,
    state0: GaussianState,
    t: float,
    dt: float | None = None,
    verify_step: bool = True,
) -> GaussianState:
    """Integrate dv/dt = A v, dSigma/dt = A Sigma + Sigma A^T + D with RK4.

    With verify_step the run is repeated at half the step; disagreement above
    1e-6 (relative) raises AccuracyError. The finer result is returned.
    """
    if not math.isfinite(t) or t < 0:
        raise DomainError(f"time must be >= 0, got {t!r}")
    if dt is None:
        dt = default_step(params)
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt!r}")
    A, D = drift_and_diffusion(params)
    if t == 0.0:
        return state0
    # z = (v, vec Sigma, 1) obeys z' = G z; vec is row-major.
    G = np.zeros((7, 7))
    G[:2, :2] = A
    G[2:6, 2:6] = np.kron(A, np.eye(2)) + np.kron(np.eye(2), A)
    G[2:6, 6] = D.ravel()
    z0 = np.concatenate((state0.v, state0.sigma.ravel(), [1.0]))

    def moments(steps: int) -> tuple[np.ndarray, np.ndarray]:
        E = _rk4_increment(lambda y: G @ y, np.eye(7), t / steps)
        z = _power(E, steps) @ z0
        return z[:2], z[2:6].reshape(2, 2)

    n = max(1, math.ceil(t / dt))
    v1, s1 = moments(n)
    if not verify_step:
        return GaussianState(v1, s1)
    v2, s2 = moments(2 * n)
    scale = max(float(np.linalg.norm(s2)), 1.0)
    diff = max(float(np.linalg.norm(s1 - s2)), float(np.linalg.norm(v1 - v2))) / scale
    if diff > 1e-6:
        raise AccuracyError(
            f"RK4 step too large: halving changed the result by {diff:.2e} (relative)"
        )
    return GaussianState(v2, s2)


def fd_shift_derivative(family: StateFamily, h: float = 1e-5) -> tuple[DerivativePair, float]:
    """Finite-difference derivative of a state family at zero shift.

    Central differences at steps h and h/2 combined by Richardson
    extrapolation; returns the pair and the error estimate |D(h/2) - D(h)|/3
    (the larger of the dv and dSigma norms). The default step suits families
    expressed in units where gamma ~ 1.
    """
    if not (math.isfinite(h) and h > 0):
        raise DomainError(f"step must be positive, got {h!r}")
    base = family(0.0)

    def central(step: float) -> tuple[np.ndarray, np.ndarray]:
        plus = family(step)
        minus = family(-step)
        return (plus.v - minus.v) / (2.0 * step), (plus.sigma - minus.sigma) / (2.0 * step)

    dv1, ds1 = central(h)
    dv2, ds2 = central(h / 2.0)
    # An overflowing family gives inf or nan here; DerivativePair rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        dv = (4.0 * dv2 - dv1) / 3.0
        dsigma = (4.0 * ds2 - ds1) / 3.0
        err = max(float(np.linalg.norm(dv2 - dv1)), float(np.linalg.norm(ds2 - ds1))) / 3.0
    return DerivativePair(base, dv, dsigma), err


# --- truncated Fock-space master equation -----------------------------------


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix on the lowest `dim` Fock levels with trace bookkeeping."""

    dim: int
    matrix: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DomainError(f"matrix shape {m.shape} does not match dim {self.dim}")
        if not np.isfinite(m).all():
            raise DomainError("density matrix has non-finite entries")
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > 1e-10:
            raise DomainError(f"density matrix not Hermitian (deviation {herm:.2e})")
        object.__setattr__(self, "matrix", 0.5 * (m + m.conj().T))


def ladder(dim: int) -> np.ndarray:
    """Annihilation operator on a dim-level truncation."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def fock_vacuum(dim: int) -> FockDensityMatrix:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return FockDensityMatrix(dim, rho)


def fock_thermal(n_bath: float, dim: int) -> FockDensityMatrix:
    if n_bath < 0:
        raise DomainError("n_bath must be >= 0")
    if n_bath == 0:
        return fock_vacuum(dim)
    k = np.arange(dim)
    weights = np.exp(k * math.log(n_bath / (1.0 + n_bath)) - math.log(1.0 + n_bath))
    return FockDensityMatrix(dim, np.diag(weights).astype(complex))


def fock_coherent(alpha: complex, dim: int) -> FockDensityMatrix:
    if alpha == 0:
        return fock_vacuum(dim)
    # In log space: |alpha|^k and k! overflow long before their ratio does.
    k = np.arange(dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim)))))
    r, phase = abs(alpha), cmath.phase(alpha)
    amps = np.exp(-0.5 * r * r + k * math.log(r) - 0.5 * log_fact + 1j * phase * k)
    rho = np.outer(amps, amps.conj())
    return FockDensityMatrix(dim, rho)


def suggested_dim(max_photons: float) -> int:
    """Truncation rule: 12x the largest expected photon number, at least 30."""
    return max(30, math.ceil(12.0 * max_photons))


def _liouvillian(params: SystemParams, dim: int):
    """The Lindblad superoperator as a CSR matrix on the row-major vec of rho,
    where vec(A rho B) = (A kron B^T) vec rho."""
    import scipy.sparse as sp

    a = sp.diags(np.sqrt(np.arange(1, dim, dtype=float)), 1, format="csr")
    ad = a.T.tocsr()
    n_op = ad @ a
    eye = sp.identity(dim, format="csr")
    # The ladder operators are real: conj(L) = L, and H and L^dagger L are symmetric.
    H = params.omega * n_op + 0.5 * params.epsilon * (a @ a + ad @ ad)
    gamma, n_bath = params.gamma, params.n_bath
    liouvillian = -1j * (sp.kron(H, eye) - sp.kron(eye, H))
    # Emission and absorption: (rate, L, L^dagger L).
    for rate, L, LdL in ((gamma * (1.0 + n_bath), a, n_op), (gamma * n_bath, ad, a @ ad)):
        if rate > 0:
            liouvillian = liouvillian + rate * (
                2.0 * sp.kron(L, L) - sp.kron(LdL, eye) - sp.kron(eye, LdL)
            )
    return liouvillian.tocsr()


def fock_evolve(
    params: SystemParams | tuple[SystemParams, ...], rho0: FockDensityMatrix, t: float
) -> FockDensityMatrix | tuple[FockDensityMatrix, ...]:
    """exp(t L) rho0 for the full Lindblad master equation on a truncation.

    Every term of L moves |m><n| by (+-2, 0), (0, +-2), (+-1, +-1) or (0, 0),
    so the parity of m + n is conserved: only the parity sectors rho0 fills
    are evolved, and the other entries of the result are exactly 0. Given a
    tuple of parameter sets that share rho0, one expm_multiply on the block
    diagonal of their Liouvillians evolves them all, and a tuple of states
    comes back. Trace leakage above LEAK_BUDGET in any of them raises
    TruncationError with a suggested larger dimension; results at that
    leakage level are untrustworthy.
    """
    if not math.isfinite(t) or t < 0:
        raise DomainError(f"time must be >= 0, got {t!r}")
    shared = isinstance(params, tuple)
    members = params if shared else (params,)
    if not members:
        raise DomainError("no parameter sets to evolve")
    if t == 0.0:
        return (rho0,) * len(members) if shared else rho0
    # Imported here: scipy.sparse.linalg adds ~0.1 s to the package's import time.
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    dim = rho0.dim
    start = rho0.matrix.ravel()
    if not start.any():
        raise DomainError("rho0 is the zero matrix")
    parity = np.add.outer(np.arange(dim), np.arange(dim)).ravel() % 2
    idx = np.flatnonzero(np.isin(parity, parity[start != 0]))
    generator = sp.block_diag([_liouvillian(p, dim)[idx][:, idx] for p in members], format="csr")
    # expm_multiply's norm estimates draw from numpy's global RNG: seed it for a
    # reproducible result, and give the caller's stream back untouched.
    saved = np.random.get_state()
    np.random.seed(0)
    try:
        evolved = expm_multiply(t * generator, np.tile(start[idx], len(members)))
    finally:
        np.random.set_state(saved)
    states = []
    for sector in evolved.reshape(len(members), len(idx)):
        rho = np.zeros(dim * dim, dtype=complex)
        rho[idx] = sector
        rho = rho.reshape(dim, dim)
        # The truncated generator conserves the trace exactly, so the trace that
        # would have left the space shows up as boundary-level population instead.
        leakage = abs(1.0 - float(np.real(np.trace(rho)))) + float(
            np.real(rho[dim - 1, dim - 1] + rho[dim - 2, dim - 2])
        )
        if leakage > LEAK_BUDGET:
            raise TruncationError(
                f"truncation leakage {leakage:.2e} exceeds budget {LEAK_BUDGET:.0e}; "
                f"increase the truncation (try dim >= {2 * dim})",
                suggested_dim=2 * dim,
            )
        states.append(FockDensityMatrix(dim, rho, leakage=leakage))
    return tuple(states) if shared else states[0]


def fock_moments(rho: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature mean vector and covariance matrix of a Fock density matrix."""
    a = ladder(rho.dim)
    m = rho.matrix
    mean_a = complex(np.trace(a @ m))
    mean_a2 = complex(np.trace(a @ a @ m))
    mean_n = float(np.real(np.trace(a.conj().T @ a @ m)))
    v = math.sqrt(2.0) * np.array([mean_a.real, mean_a.imag])
    s11 = 2.0 * mean_n + 2.0 * mean_a2.real + 1.0 - 2.0 * v[0] ** 2
    s22 = 2.0 * mean_n - 2.0 * mean_a2.real + 1.0 - 2.0 * v[1] ** 2
    s12 = 2.0 * mean_a2.imag - 2.0 * v[0] * v[1]
    return v, np.array([[s11, s12], [s12, s22]])


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    if float(vals.min()) < -1e-9:
        raise AccuracyError(
            f"matrix square root of an indefinite matrix (min eigenvalue {vals.min():.2e})"
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def uhlmann_fidelity(rho: FockDensityMatrix, tau: FockDensityMatrix) -> float:
    """Amplitude fidelity Tr sqrt(sqrt(rho) tau sqrt(rho))."""
    root = _psd_sqrt(rho.matrix)
    inner = root @ tau.matrix @ root
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    if float(vals.min()) < -1e-9:
        raise AccuracyError(f"indefinite fidelity kernel (min eigenvalue {vals.min():.2e})")
    return float(np.sum(np.sqrt(np.clip(vals, 0.0, None))))


def fock_qfi_fidelity(
    params: SystemParams,
    t: float,
    dtheta: float,
    dim: int,
    rho0: FockDensityMatrix | None = None,
) -> float:
    """QFI estimate 8 (1 - sqrt(fidelity)) / dtheta^2 from the Fock oracle.

    Compares the states evolved at zero shift and at shift -dtheta, starting
    from equilibrium with the bath unless rho0 is given.
    """
    if not (1e-4 <= dtheta <= 1e-2):
        raise DomainError(f"dtheta must lie in [1e-4, 1e-2], got {dtheta!r}")
    if rho0 is None:
        rho0 = fock_thermal(params.n_bath, dim)
    rho_a, rho_b = fock_evolve((params.with_shift(0.0), params.with_shift(-dtheta)), rho0, t)
    f_amp = min(uhlmann_fidelity(rho_a, rho_b), 1.0)
    return 8.0 * (1.0 - f_amp) / dtheta ** 2
