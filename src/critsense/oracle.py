"""Independent numerical cross-checks for the closed-form Gaussian machinery.

Two oracles, deliberately sharing no code with the analytic propagator or
its exact shift derivative: a fixed-step RK4 integrator for the moment
(Lyapunov) equations together with their shift tangent (Van Loan, IEEE TAC
23, 395 (1978)), and the full master equation on a Fock-space truncation,
evolved by truncated Taylor steps (Al-Mohy & Higham, SIAM J. Sci. Comput.
33, 488 (2011)), which also yields a fidelity-based QFI estimate valid
beyond the Gaussian calculus. A third cross-check, `gaussian_qfi`, takes
the QFI of a derivative pair from the general mixed-state Gaussian formula,
sharing no code with metrology.qfi_terms. All are library code; the CLI
validation command runs the first and the third.

RK4 takes n steps as the n-th power of its one-step matrix, the degree-4
Taylor polynomial of h L for the linear system y' = L y: the same
discretisation as stepping n times.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import SystemParams, _check_time, drift_and_diffusion, spectral_info
from .errors import AccuracyError, DomainError, PureStateError, TruncationError
from .gaussian import GaussianState, _check_occupation, is_pure, require_one_state
from .metrology import DerivativePair

LEAK_BUDGET = 1e-8
# dA/d omega, and the symplectic form W of gaussian_qfi: the oracles share no code with dynamics._J.
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def default_step(params: SystemParams) -> float:
    """Conservative RK4 step 0.002 / (fastest rate)."""
    info = spectral_info(params)
    rate = max(abs(info.lambda_plus), params.gamma, abs(params.omega0), params.epsilon, 1e-12)
    return 0.002 / rate


def _check_one_time(t) -> None:
    """_check_time for the oracles, which evolve to one time: an array of
    times raises DomainError too."""
    if np.ndim(t) != 0:
        raise DomainError(f"the oracles take one time, got an array of shape {np.shape(t)}")
    _check_time(t)


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
) -> DerivativePair:
    """Integrate dv/dt = A v, dSigma/dt = A Sigma + Sigma A^T + D with RK4,
    together with the shift tangent dv' = A dv + J v, dSigma' = A dSigma +
    dSigma A^T + J Sigma + Sigma J^T (J = dA/d omega): the state at t and its
    exact derivative in omega, for a start that does not depend on the shift.

    With verify_step the run is repeated at half the step; a disagreement of
    the state or of the tangent above 1e-6 (relative) raises AccuracyError.
    The finer result is returned.
    """
    require_one_state(state0, "lyapunov_rk4")
    _check_one_time(t)
    if dt is None:
        dt = default_step(params)
    if not 0 < dt < math.inf:
        raise DomainError(f"dt must be positive and finite, got {dt!r}")
    A, D = drift_and_diffusion(params)
    # z = (v, vec Sigma, dv, vec dSigma, 1) obeys z' = G z; vec is row-major,
    # where S -> a S + S a^T is kron(a, I) + kron(I, a), written out.
    G = np.zeros((13, 13))
    for (row, col), a in (((0, 0), A), ((6, 6), A), ((6, 0), _J)):
        G[row:row + 2, col:col + 2] = a
    for (row, col), a in (((2, 2), A), ((8, 8), A), ((8, 2), _J)):
        (p, q), (r, s) = a.tolist()
        G[row:row + 4, col:col + 4] = [[2.0 * p, q, q, 0.0], [r, p + s, 0.0, q], [r, 0.0, s + p, q], [0.0, r, r, 2.0 * s]]
    G[2:6, 12] = D.ravel()
    z0 = np.concatenate((state0.v, state0.sigma.ravel(), np.zeros(6), [1.0]))

    def moments(steps: int) -> list[np.ndarray]:
        E = _rk4_increment(lambda y: G @ y, np.eye(13), t / steps)
        z = _power(E, steps) @ z0
        return [z[:2], z[2:6].reshape(2, 2), z[6:8], z[8:12].reshape(2, 2)]

    n = max(1, math.ceil(t / dt))
    coarse = moments(n)
    if not verify_step:
        return DerivativePair(GaussianState(*coarse[:2]), *coarse[2:])
    fine = moments(2 * n)
    # The state relative to max(|Sigma|, 1), the tangent to max(|dv|, |dSigma|, 1).
    gaps = [float(np.linalg.norm(a - b)) for a, b in zip(coarse, fine)]
    sizes = [float(np.linalg.norm(b)) for b in fine]
    diff = max(max(gaps[:2]) / max(sizes[1], 1.0), max(gaps[2:]) / max(*sizes[2:], 1.0))
    if diff > 1e-6:
        raise AccuracyError(
            f"RK4 step too large: halving changed the result by {diff:.2e} (relative)"
        )
    return DerivativePair(GaussianState(*fine[:2]), *fine[2:])


def gaussian_qfi(pair: DerivativePair) -> float:
    """QFI of one pair from the general mixed-state Gaussian formula
    1/2 vec(dSigma)^T (Sigma kron Sigma - W kron W)^-1 vec(dSigma)
    + 2 dv^T Sigma^-1 dv, W = [[0, 1], [-1, 0]] (Monras, arXiv:1303.3682;
    Safranek, J. Phys. A 52, 035304 (2019), whose vacuum = I is ours): two
    linear solves, sharing no code with metrology.qfi_terms.

    The matrix has det (det Sigma - 1)^2 (det Sigma + 1)^2, so a pure state
    (gaussian.is_pure) raises PureStateError; a solve singular to working
    precision, or a QFI beyond the double range, raises AccuracyError.

    Known accuracy limits: the solve loses digits as
    eps ((s11 s22 + s12^2) / det Sigma)^2, the conditioning of Sigma kron
    Sigma, so for a strongly squeezed state with a derivative not shaped by
    the dynamics it can be percent-level off (r = 5 squeezing: 3.7e-2) where
    metrology.qfi is not. Near a pure state it loses them as the square of
    the conditioning of det Sigma - 1, and there metrology.qfi is the
    sharper side of the cross-check.
    """
    state = pair.state
    require_one_state(state, "gaussian_qfi")
    sigma = state.sigma
    if is_pure(state):
        raise PureStateError(f"pure state (det sigma = {state.det_sigma!r}): the general formula is singular")
    dsigma = pair.dsigma.ravel()
    try:
        with np.errstate(all="ignore"):
            info = 0.5 * dsigma @ np.linalg.solve(np.kron(sigma, sigma) - np.kron(_J, _J), dsigma)
            info += 2.0 * pair.dv @ np.linalg.solve(sigma, pair.dv)
    except np.linalg.LinAlgError:
        raise AccuracyError("general-formula QFI: the matrix is singular to working precision") from None
    if not math.isfinite(info):
        raise AccuracyError(f"general-formula QFI is not finite ({info!r})")
    return float(info)


# --- truncated Fock-space master equation -----------------------------------


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix on the lowest `dim` Fock levels with trace bookkeeping."""

    dim: int
    matrix: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        _check_dim(self.dim)
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DomainError(f"matrix shape {m.shape} does not match dim {self.dim}")
        if not np.isfinite(m).all():
            raise DomainError("density matrix has non-finite entries")
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > 1e-10:
            raise DomainError(f"density matrix not Hermitian (deviation {herm:.2e})")
        object.__setattr__(self, "matrix", 0.5 * (m + m.conj().T))


def _check_dim(dim: int) -> None:
    """DomainError for a truncation that is not an integer of at least two
    levels: fock_evolve's leakage reads the two top levels."""
    if not (isinstance(dim, (int, np.integer)) and dim >= 2):
        raise DomainError(f"a truncation needs an integer of at least 2 levels, got dim = {dim!r}")


def ladder(dim: int) -> np.ndarray:
    """Annihilation operator on a dim-level truncation."""
    _check_dim(dim)
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def fock_vacuum(dim: int) -> FockDensityMatrix:
    _check_dim(dim)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return FockDensityMatrix(dim, rho)


def fock_thermal(n_bath: float, dim: int) -> FockDensityMatrix:
    _check_occupation(n_bath)
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


def _tail_dim(x: float) -> int:
    """Levels for a photon distribution P(n) falling as x^n, 0 <= x < 1: the
    tail beyond ln(LEAK_BUDGET)/ln(x) levels holds about LEAK_BUDGET, and
    four levels of margin are added."""
    if x == 0.0:  # the vacuum: no tail
        return 4
    return math.ceil(math.log(LEAK_BUDGET) / math.log(x)) + 4


def suggested_dim(max_photons: float) -> int:
    """Truncation rule for a state of N = max_photons photons: 12 N levels,
    at least 30, or fewer where the heaviest tail N allows fits in fewer.

    Of the zero-mean Gaussian states with N photons the pure squeezed
    vacuum has the heaviest tail, x = sqrt(N/(N + 1)) in _tail_dim. Its
    levels are taken where they fall below 30, for N below about 0.297
    (0.29 -> 29, 0.3 -> 30); no truncation is larger than max(30, 12 N).

    Known limit: from thermal starts (vacuum included) the rule undersizes
    at N of about 0.7-1, where the squeezed state's photon tail outlasts 30
    levels; five of the eight benchmark Fock design nodes then take one
    TruncationError retry, at dim 38-48. A rule sized from the state's
    covariance, as _retry_dim is, would change this signature.
    """
    if not 0 <= max_photons < math.inf:
        raise DomainError(f"photon number must be >= 0 and finite, got {max_photons!r}")
    if 12.0 * max_photons > 30.0:  # where the squeezed vacuum's tail is longer still
        return math.ceil(12.0 * max_photons)
    return min(30, _tail_dim(math.sqrt(max_photons / (max_photons + 1.0))))


def _read_only(*arrays):
    """Freeze arrays that a cache shares."""
    for array in arrays:
        array.setflags(write=False)


@functools.lru_cache(maxsize=8)
def _superoperators(dim: int, parities: tuple[int, ...]):
    """The real Hermitian coordinates of the entries |m><n| of rho whose
    m + n has one of the given parities, and the parameter-free pieces of
    the Lindblad superoperator in them.

    The coordinates are Re rho_mn for m <= n, then Im rho_mn for m < n: as
    many reals as the sectors hold complex entries, laid out as `layout` =
    (m, n, reals): the index arrays of their entries and the count of Re
    coordinates, by which _to_coordinates gathers them from rho and
    _from_coordinates rebuilds rho. The pieces are the
    number term -i[n, .] as its halves -i n rho and i rho n, the squeezing
    term -i[(a^2 + a^dagger^2)/2, .], emission D[a] and absorption
    D[a^dagger], with D[L] rho = 2 L rho L^dagger - {L^dagger L, rho}. Their
    sum maps Hermitian to Hermitian, so it is the same linear system as the
    complex one. Kept as two halves, the number term rounds to
    omega m - omega n, as a direct assembly of L does.

    Each piece is a few terms c X rho Y^T, c one of -1, 2, +-i and +-i/2,
    whose X and Y are single diagonals of the ladder operators: 1, n, a,
    a^dagger, a^2, a^dagger^2 or a a^dagger, whose last level is 0. Such a
    term adds c u rho_pq to rho_mn, u = X[m, p] Y[n, q], p = m + dx and
    q = n + dy, and is written in the coordinates directly: rho_pq =
    x_re + i s x_im in the coordinates of (p, q), s = 1, or for p > q in
    those of its mirror (q, p), s = -1. A real c adds c u x_re to Re rho_mn
    and s c u x_im to Im rho_mn; an imaginary c = i b adds -s b u x_im to
    Re rho_mn and b u x_re to Im rho_mn. Each u rounds once and c, b and s
    are exact factors, so the values are those of the piece's complex
    superoperator taken to the coordinates, to the bit: no entry gets more
    than two terms, and two terms add the same in either order.

    The pieces are stored as `pattern` = (indptr, indices, rows): the CSR
    pattern (sorted columns) of the union of their nonzero entries, from one
    sort of the terms' (row, column) keys, and one row of values per piece
    aligned to it, 0 where the piece has no entry. Returns (layout,
    pattern), cached: the arrays are shared and read-only."""
    m, n = np.triu_indices(dim)
    filled = np.isin((m + n) % 2, parities)
    m, n = m[filled], n[filled]
    reals, off = len(m), m < n
    m, n = np.concatenate((m, m[off])), np.concatenate((n, n[off]))
    # slot[0 or 1, p, q]: the coordinate of Re or Im rho_pq, that of rho_qp for p > q.
    size, k = len(m), np.arange(len(m))
    imag = (k >= reals).astype(int)
    slot = np.zeros((2, dim, dim), dtype=int)
    slot[imag, m, n] = slot[imag, n, m] = k
    # An operator is (offset d, values x): X[i, i + d] = x[i], 0 off the grid.
    root = np.sqrt(np.arange(1, dim, dtype=float))
    up, down = np.append(root, 0.0), np.insert(root, 0, 0.0)  # a[i, i + 1], a^dagger[i, i - 1]
    eye, a, ad = (0, np.ones(dim)), (1, up), (-1, down)
    n_op, a_ad, a2, ad2 = (0, down * down), (0, up * up), (2, up * np.roll(up, -1)), (-2, down * np.roll(down, 1))
    pieces = (
        ((-1j, n_op, eye),),
        ((1j, eye, n_op),),
        ((-0.5j, a2, eye), (-0.5j, ad2, eye), (0.5j, eye, a2), (0.5j, eye, ad2)),
        ((2.0, a, a), (-1.0, n_op, eye), (-1.0, eye, n_op)),
        ((2.0, ad, ad), (-1.0, a_ad, eye), (-1.0, eye, a_ad)),
    )
    # Every term writes one value per coordinate. Where the source lies off
    # the grid, p and q wrap and the value is 0; an Im source on the
    # diagonal has sign 0. Such values add nothing to a stored entry and
    # leave an entry of their own at 0, which is then dropped.
    keys, values, owners = [], [], []
    for owner, terms in enumerate(pieces):
        for c, (dx, x), (dy, y) in terms:
            p, q = (m + dx) % dim, (n + dy) % dim
            to_im = imag ^ bool(c.imag)  # a real c keeps Re and Im apart, an imaginary one swaps them
            sign = np.where(to_im, np.sign(q - p) * (-1.0 if c.imag else 1.0), 1.0)
            keys.append(k * size + slot[to_im, p, q])
            values.append((c.imag or c.real) * (x[m] * y[n]) * sign)
            owners.append(owner)
    keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    rows = np.bincount(
        np.repeat(owners, size) * len(keys) + inverse, np.concatenate(values), minlength=len(pieces) * len(keys)
    ).reshape(len(pieces), -1)
    stored = rows.any(axis=0)
    keys, rows = keys[stored], rows[:, stored]
    indptr = np.searchsorted(keys // size, np.arange(size + 1)).astype(np.int32)
    indices = (keys % size).astype(np.int32)
    _read_only(m, n, indptr, indices, rows)
    return (m, n, reals), (indptr, indices, rows)


def _to_coordinates(matrix: np.ndarray, layout) -> np.ndarray:
    """The real coordinates of a Hermitian matrix, layout = (m, n, reals):
    Re matrix[m, n] for the first `reals`, Im for the rest, none of them -0."""
    m, n, reals = layout
    entries = matrix[m, n]
    return np.concatenate((entries.real[:reals], entries.imag[reals:])) + 0.0


def _from_coordinates(x: np.ndarray, dim: int, layout) -> np.ndarray:
    """The Hermitian dim x dim matrix of real coordinates x, 0 outside them.
    Each Im coordinate is off the diagonal, and its mirror gets 0 - x, so a
    zero stays +0."""
    m, n, reals = layout
    rho = np.zeros((dim, dim), dtype=complex)
    re, im = rho.real, rho.imag
    re[m[:reals], n[:reals]] = re[n[:reals], m[:reals]] = x[:reals]
    im[m[reals:], n[reals:]] = x[reals:]
    im[n[reals:], m[reals:]] = 0.0 - x[reals:]
    return rho


def _liouvillian(params: SystemParams | tuple[SystemParams, ...], dim: int, parities: tuple[int, ...]):
    """The Lindblad superoperator -i[omega n + epsilon (a^2 + a^dagger^2)/2, .]
    + gamma (1 + n_B) D[a] + gamma n_B D[a^dagger] in the real Hermitian
    coordinates of the parity sectors `parities`, as real CSR; for a tuple
    of parameter sets, the block diagonal of their superoperators.

    Each member's values are its rates times the rows of _superoperators'
    cached pattern, summed left to right; the entries that come out 0 (where
    every piece present has rate 0) are then dropped, so no stored zeros
    remain. The result is the same to the bit as summing the pieces with a
    nonzero rate as sparse matrices and taking sp.block_diag of the members."""
    import scipy.sparse as sp

    members = params if isinstance(params, tuple) else (params,)
    indptr, indices, rows = _superoperators(dim, parities)[1]
    size, stored = len(indptr) - 1, len(indices)
    data = np.empty((len(members), stored))
    for values, p in zip(data, members):
        rates = (p.omega0, p.omega0, p.epsilon, p.gamma * (1.0 + p.n_bath), p.gamma * p.n_bath)
        np.multiply(rates[0], rows[0], out=values)
        for rate, row in zip(rates[1:], rows[1:]):
            values += rate * row
    block = np.arange(len(members))[:, None]
    starts = np.append((indptr[:-1] + stored * block).ravel(), stored * len(members))
    columns = (indices + size * block).ravel()
    generator = sp.csr_matrix((data.ravel(), columns, starts), shape=(size * len(members),) * 2)
    generator.eliminate_zeros()
    return generator


def _retry_dim(rho: np.ndarray, dim: int) -> int:
    """A truncation for a retry after rho, evolved on `dim` levels, leaked.

    A zero-mean Gaussian state whose covariance has largest eigenvalue s
    (vacuum = 1) has P(n) falling as x^n, x = (s - 1)/(s + 1): x =
    n/(n + 1) for a thermal state, sqrt(N/(N + 1)) for a squeezed vacuum.
    Taking s from rho's non-central second moments Sigma + 2 v v^T covers a
    displaced state too. The retry takes _tail_dim(x) levels, and always
    grows the truncation.
    """
    v, sigma = fock_moments(FockDensityMatrix(dim, rho))
    s = float(np.linalg.eigvalsh(sigma + 2.0 * np.outer(v, v))[-1])
    need = _tail_dim((s - 1.0) / (s + 1.0)) if s > 1.0 else dim + 4
    return max(need, dim + 2)


# Al-Mohy & Higham's theta_55 (Table 3.1): a Taylor step of degree 55 has a
# backward error below unit roundoff while ||h A||_1 <= 9.9.
_THETA_55 = 9.9


def _expm_apply(generator, x: np.ndarray, t: float) -> np.ndarray:
    """exp(t L) x for a sparse L by truncated Taylor steps (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33, 488 (2011), Alg. 3.2), as scipy takes them for
    the action of a sparse exponential, with the step count read off the
    exact 1-norm.

    s = ceil(t ||L||_1 / theta_55) steps of degree <= 55 keep the backward
    error below unit roundoff: ||L||_1 bounds every ||L^p||_1^(1/p), the
    norms the bound is stated in, so nothing is estimated. Each step's
    series stops, as scipy's does, once two consecutive terms sum to at most
    2^-53 of the partial sum (inf-norm).

    L is not shifted by mu = tr L / n, as scipy shifts it: the bound holds
    for any shift. A Lindblad generator annihilates its steady state, and
    thermal starts lie in its slow modes, which the shift would make fast,
    so unshifted they take fewer products.

    The step h = t / s is folded into a copy of L's values once per call.
    Each term is the power (h L)^k x, one call of scipy's CSR kernel,
    csr_matvec, into a reused zeroed buffer (the product `(h L) @ power`
    gives, to the bit), added to the partial sum by one BLAS daxpy with
    1/k! as its scale. The kernel checks no lengths or types, so an x that
    is not one float64 per row of L raises DomainError here. Neither the
    caller's x nor L is changed.

    The loop is written out rather than calling scipy.sparse.linalg's
    expm_multiply: on the benchmark's shift-pair generators at 18, 26 and
    30 levels that took 10.8, 18.1 and 20.9 ms against 1.1, 2.9 and 4.6 ms
    here (best of 120, one 2-vCPU machine), to within 7.1e-15 of each
    other; it also estimates 1-norms from random draws and shifts L.
    """
    from scipy.linalg.blas import daxpy, idamax
    from scipy.sparse import _sparsetools

    n = generator.shape[0]
    if x.shape != (n,) or x.dtype != np.float64:
        raise DomainError(f"the Taylor loop needs {n} float64 reals, got shape {x.shape}, dtype {x.dtype}")
    norm = np.bincount(generator.indices, np.abs(generator.data), minlength=n).max()
    steps = max(1, math.ceil(t * float(norm) / _THETA_55))
    data = (t / steps) * generator.data
    product = functools.partial(_sparsetools.csr_matvec, n, n, generator.indptr, generator.indices, data)
    x = x.copy()
    buffers = (np.empty(n), np.empty(n))
    for _ in range(steps):
        power, c, last = x, 1.0, abs(x.item(idamax(x)))
        for k in range(1, 56):
            out = buffers[k % 2]
            out.fill(0.0)
            product(power, out)
            power, c = out, c / k
            size = c * abs(power.item(idamax(power)))
            x = daxpy(power, x, a=c)
            if last + size <= 2.0 ** -53 * abs(x.item(idamax(x))):
                break
            last = size
    return x


def fock_evolve(
    params: SystemParams | tuple[SystemParams, ...], rho0: FockDensityMatrix, t: float
) -> FockDensityMatrix | tuple[FockDensityMatrix, ...]:
    """exp(t L) rho0 for the full Lindblad master equation on a truncation.

    L conserves the parity of m + n in |m><n|, so only the parity sectors
    rho0 fills are evolved, and the other entries of the result are exactly
    0; the result is exactly Hermitian. The evolution is _expm_apply's
    Taylor loop, deterministic. Given a tuple of parameter sets that share
    rho0, one loop on the block diagonal of their generators evolves them
    all, and a tuple of states comes back.

    Trace leakage above LEAK_BUDGET in any of them raises TruncationError;
    results at that leakage level are untrustworthy. Its suggested_dim is
    sized from the leaked state's covariance (_retry_dim): the smallest
    truncation whose Gaussian photon tail holds LEAK_BUDGET, plus four
    levels, and at least dim + 2. Every retry is tested for leakage again.
    """
    _check_one_time(t)
    shared = isinstance(params, tuple)
    members = params if shared else (params,)
    if not members:
        raise DomainError("no parameter sets to evolve")
    if t == 0.0:
        return (rho0,) * len(members) if shared else rho0
    dim = rho0.dim
    start = rho0.matrix.ravel()
    if not start.any():
        raise DomainError("rho0 is the zero matrix")
    parity = np.add.outer(np.arange(dim), np.arange(dim)).ravel() % 2
    parities = tuple(np.unique(parity[start != 0]).tolist())
    layout = _superoperators(dim, parities)[0]
    x0 = _to_coordinates(rho0.matrix, layout)
    evolved = _expm_apply(_liouvillian(members, dim, parities), np.tile(x0, len(members)), t)
    states = []
    for x in evolved.reshape(len(members), -1):
        rho = _from_coordinates(x, dim, layout)
        # The truncated generator conserves the trace exactly, so the trace that
        # would have left the space shows up as boundary-level population instead.
        leakage = abs(1.0 - float(np.real(np.trace(rho)))) + float(
            np.real(rho[dim - 1, dim - 1] + rho[dim - 2, dim - 2])
        )
        if leakage > LEAK_BUDGET:
            retry = _retry_dim(rho, dim)
            raise TruncationError(
                f"truncation leakage {leakage:.2e} exceeds budget {LEAK_BUDGET:.0e}; "
                f"increase the truncation (try dim >= {retry})",
                suggested_dim=retry,
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
    """Amplitude fidelity Tr sqrt(sqrt(rho) tau sqrt(rho)), taken as the
    nuclear norm of sqrt(rho) sqrt(tau), the sum of its singular values:
    square roots of the kernel's eigenvalues would turn eigenvalue dust of
    1e-16 into 1e-8. An indefinite rho or tau (an eigenvalue below -1e-9)
    raises AccuracyError; rho and tau on different truncations, DomainError."""
    if rho.dim != tau.dim:
        raise DomainError(f"rho and tau must share one truncation, got {rho.dim} and {tau.dim} levels")
    product = _psd_sqrt(rho.matrix) @ _psd_sqrt(tau.matrix)
    return float(np.linalg.svd(product, compute_uv=False).sum())


def fock_qfi_fidelity(params: SystemParams, t: float, dtheta: float, dim: int) -> float:
    """QFI estimate 8 (1 - sqrt(fidelity)) / dtheta^2 from the Fock oracle.

    Compares the states evolved at params and with omega0 shifted by
    -dtheta, from equilibrium with the bath on `dim` levels.
    """
    if not (1e-4 <= dtheta <= 1e-2):
        raise DomainError(f"dtheta must lie in [1e-4, 1e-2], got {dtheta!r}")
    shifted = replace(params, omega0=params.omega0 - dtheta)
    rho_a, rho_b = fock_evolve((params, shifted), fock_thermal(params.n_bath, dim), t)
    f_amp = min(uhlmann_fidelity(rho_a, rho_b), 1.0)
    return 8.0 * (1.0 - f_amp) / dtheta ** 2
