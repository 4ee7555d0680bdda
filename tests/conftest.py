import importlib.util
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from critsense.dynamics import SystemParams, drift_and_diffusion, evolve_critical, evolve_passive, spectral_info
from critsense.gaussian import DisplacementAmplitude, GaussianState, SqueezeParam, thermal_state
from critsense.metrology import differentiate_at_zero_shift
from critsense.oracle import lyapunov_rk4
from critsense.protocols import pqs_input_state

# Deterministic property tests that write nothing into the working tree: no
# example database, and the cache of source literals that Hypothesis keeps
# whatever the database setting goes to the system's temporary directory.
settings.register_profile("critsense", derandomize=True, deadline=None, database=None)
settings.load_profile("critsense")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "critsense-hypothesis")

# Hypothesis adds the numeric literals of every local non-test module in
# sys.modules to its draws. Every source file of the tree is registered here,
# before the first draw and without being executed (Hypothesis reads only
# __file__), so the pool, and with it each property's examples, is the same
# whichever tests run.
ROOT = Path(__file__).resolve().parent.parent
for folder in ("src/critsense", "tools", "perfbench"):
    for path in sorted((ROOT / folder).rglob("*.py")):
        name = ".".join(("_local_pool", *path.relative_to(ROOT).with_suffix("").parts))
        sys.modules[name] = importlib.util.module_from_spec(importlib.util.spec_from_file_location(name, path))


def driven_pair(params: SystemParams, t):
    """The driven protocol's derivative pair at t (a float or an array of
    times) from the bath's thermal state, ProtocolSpec's CQS start."""
    return differentiate_at_zero_shift(evolve_critical, params, thermal_state(params.n_bath), t)


def passive_pair(alpha: DisplacementAmplitude, squeeze: SqueezeParam, params: SystemParams, t):
    """The passive protocol's derivative pair at t from pqs_input_state on
    the bath, ProtocolSpec's PQS start; stacked as pqs_input_state is."""
    return differentiate_at_zero_shift(evolve_passive, params, pqs_input_state(alpha, squeeze, params.n_bath), t)


def cqs_state_family(params: SystemParams, t: float):
    """shift -> evolved state of the driven protocol (thermal start) at
    omega0 shifted by it."""
    start = thermal_state(params.n_bath)

    def family(delta: float):
        return evolve_critical(replace(params, omega0=params.omega0 + delta), start, t)

    return family


def pqs_state_family(alpha: float, r: float, params: SystemParams, t: float):
    """shift -> freely evolved displaced squeezed thermal state, detuned by
    the shift: evolve_critical at epsilon = 0 with omega0 = shift, the lab
    frame of rk4_pqs_pair."""
    start = pqs_input_state(DisplacementAmplitude(alpha), SqueezeParam(r), params.n_bath)

    def family(delta: float):
        return evolve_critical(replace(params, omega0=delta), start, t)

    return family


def rk4_pqs_pair(alpha: float, r: float, params: SystemParams, t: float):
    """The passive protocol's derivative pair from the RK4 oracle. With
    omega0 = 0 and epsilon = 0 the lab-frame flow is evolve_passive's frame
    rotating at omega0, and d/d omega is the derivative by the shift."""
    start = pqs_input_state(DisplacementAmplitude(alpha), SqueezeParam(r), params.n_bath)
    return lyapunov_rk4(replace(params, omega0=0.0), start, t)


def pqs_qfi_closed_form(alpha: float, r: float, gamma: float, t: float) -> float:
    """Zero-temperature passive QFI closed form (displaced squeezed input)."""
    first = 4.0 * alpha ** 2 / (math.exp(-2.0 * r) + math.exp(2.0 * gamma * t) - 1.0)
    num = math.exp(-2.0 * r) * (math.exp(4.0 * r) - 1.0) ** 2
    den = 2.0 * math.exp(2.0 * r + 4.0 * gamma * t) + (math.exp(2.0 * r) - 1.0) ** 2 * (
        math.exp(2.0 * gamma * t) - 1.0
    )
    return (first + num / den) * t * t


def gaussian_fidelity(a: GaussianState, b: GaussianState) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho) tau sqrt(rho))]^2 of two
    single-mode Gaussian states in closed form: a test-only reference for
    oracle.uhlmann_fidelity. For pure states it is |<psi|phi>|^2."""
    total = a.sigma + b.sigma
    delta = a.v - b.v
    big_delta = float(np.linalg.det(total))
    small_delta = max((a.det_sigma - 1.0) * (b.det_sigma - 1.0), 0.0)
    # 2/(sqrt(D+d) - sqrt(d)) rewritten to avoid cancellation for mixed states
    prefactor = 2.0 * (math.sqrt(big_delta + small_delta) + math.sqrt(small_delta)) / big_delta
    return min(prefactor * math.exp(-float(delta @ np.linalg.solve(total, delta))), 1.0)


def van_loan_moments(params: SystemParams, v0, sigma0, t: float, dps: int = 50):
    """(v, Sigma, dv, dSigma) at time t, to `dps` digits, from one exponential
    of the augmented Van Loan generator (Van Loan, IEEE TAC 23, 395, 1978).

    The state z = (v, vec Sigma, dv, vec dSigma, 1) obeys z' = G z with
    dv' = A dv + J v and dSigma' = A dSigma + dSigma A^T + J Sigma + Sigma J^T,
    J = dA/d omega; vec is row-major and the float inputs are taken as exact.
    Returns mpmath matrices; shares no code with critsense.
    """
    mp = mpmath.mp
    with mpmath.workdps(dps):
        w = mpmath.mpf(params.omega0)
        e, g = mpmath.mpf(params.epsilon), mpmath.mpf(params.gamma)
        d = 2 * g * (1 + 2 * mpmath.mpf(params.n_bath))
        A = mp.matrix([[-g, w - e], [-(w + e), -g]])
        J = mp.matrix([[0, 1], [-1, 0]])

        def lyap(a):  # S -> a S + S a^T on row-major vec S
            out = mp.zeros(4, 4)
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        out[2 * i + j, 2 * k + j] += a[i, k]
                        out[2 * i + j, 2 * i + k] += a[j, k]
            return out

        G = mp.zeros(13, 13)
        for (r, c, block) in ((0, 0, A), (2, 2, lyap(A)), (6, 6, A), (8, 8, lyap(A)), (6, 0, J), (8, 2, lyap(J))):
            for i in range(block.rows):
                for j in range(block.cols):
                    G[r + i, c + j] = block[i, j]
        G[2, 12] = G[5, 12] = d
        z0 = mp.matrix([*map(mpmath.mpf, v0), *map(mpmath.mpf, np.ravel(sigma0)), 0, 0, 0, 0, 0, 0, 1])
        z = mp.expm(G * mpmath.mpf(t)) * z0
        return (
            mp.matrix(z[0:2]),
            mp.matrix([[z[2], z[3]], [z[4], z[5]]]),
            mp.matrix(z[6:8]),
            mp.matrix([[z[8], z[9]], [z[10], z[11]]]),
        )


def van_loan_qfi(params: SystemParams, v0, sigma0, t: float, dps: int = 50) -> float:
    """Single-mode Gaussian QFI (Safranek, J. Phys. A 52, 035304, 2019) of the
    moments of van_loan_moments, in the same precision; the purity term is
    dropped for a pure state, whose purity a unitary family keeps."""
    with mpmath.workdps(dps):
        v, sigma, dv, dsigma = van_loan_moments(params, v0, sigma0, t, dps)
        inv = sigma ** -1
        mu = 1 / mpmath.sqrt(mpmath.det(sigma))
        x = inv * dsigma
        term1 = ((x * x)[0, 0] + (x * x)[1, 1]) / (2 * (1 + mu * mu))
        gap = 1 - mu ** 4
        dmu = -mu * (x[0, 0] + x[1, 1]) / 2
        term2 = 0 if abs(gap) < mpmath.mpf(10) ** (10 - dps) else 2 * dmu * dmu / gap
        term3 = 2 * (dv.T * inv * dv)[0, 0]
        return float(term1 + term2 + term3)


def general_qfi(sigma, dsigma, dv, dps: int = 60) -> float:
    """The general mixed-state Gaussian QFI 1/2 vec(dSigma)^T (Sigma kron
    Sigma - W kron W)^-1 vec(dSigma) + 2 dv^T Sigma^-1 dv, W = [[0, 1], [-1,
    0]] (Monras, arXiv:1303.3682; Safranek, J. Phys. A 52, 035304, 2019), to
    `dps` digits, with the float inputs taken as exact: a reference for a
    mixed state, however near pure. Shares no code with critsense."""
    mp = mpmath.mp
    with mpmath.workdps(dps):
        s, d = mp.matrix(np.asarray(sigma).tolist()), mp.matrix(np.asarray(dsigma).tolist())
        w = mp.matrix([[0, 1], [-1, 0]])
        kron = mp.matrix(4, 4)
        for i, j, k, m in np.ndindex(2, 2, 2, 2):
            kron[2 * i + k, 2 * j + m] = s[i, j] * s[k, m] - w[i, j] * w[k, m]
        vec_d = mp.matrix([d[0, 0], d[0, 1], d[1, 0], d[1, 1]])
        mean = mp.matrix(np.asarray(dv).tolist())
        return float((vec_d.T * kron ** -1 * vec_d)[0, 0] / 2 + 2 * (mean.T * s ** -1 * mean)[0, 0])


def steady_time(params: SystemParams) -> float:
    """A horizon by which the driven protocol has reached its steady state:
    12 decay times 1/lambda_- of the slow mode, for a drive below threshold."""
    return 12.0 / spectral_info(params).lambda_minus.real


def kron_superoperators(dim: int, parities: tuple[int, ...]):
    """oracle._superoperators' coordinate maps and pieces built the generic
    way: each piece as a complex superoperator P, a sum of sp.kron terms on
    the row-major vec of rho (vec(A rho B) = (A kron B^T) vec rho), taken to
    the real coordinates as Re(coords P back), and the pattern as the union
    of the pieces' nonzero entries. The reference for the index-arithmetic
    build: returns coords, back and (indptr, indices, rows) alike."""
    import scipy.sparse as sp

    a = sp.diags(np.sqrt(np.arange(1, dim, dtype=float)), 1, format="csr")
    ad = a.T.tocsr()
    n_op = ad @ a
    eye = sp.identity(dim, format="csr")
    pieces = (
        -1j * sp.kron(n_op, eye),
        1j * sp.kron(eye, n_op),
        -0.5j * (sp.kron(a @ a + ad @ ad, eye) - sp.kron(eye, a @ a + ad @ ad)),
        2.0 * sp.kron(a, a) - sp.kron(n_op, eye) - sp.kron(eye, n_op),
        2.0 * sp.kron(ad, ad) - sp.kron(a @ ad, eye) - sp.kron(eye, a @ ad),
    )
    m, n = np.triu_indices(dim)
    filled = np.isin((m + n) % 2, parities)
    m, n = m[filled], n[filled]
    off = m < n
    m, n = np.concatenate((m, m[off])), np.concatenate((n, n[off]))
    w = np.concatenate((np.ones(len(off)), np.full(off.sum(), -1j)))
    k = np.arange(len(w))
    coords = sp.csr_matrix((w, (k, m * dim + n)), shape=(len(w), dim * dim))
    mirror = m < n
    back = sp.csr_matrix(
        (np.concatenate((w.conj(), w[mirror])),
         (np.concatenate((m * dim + n, n[mirror] * dim + m[mirror])), np.concatenate((k, k[mirror])))),
        shape=(dim * dim, len(w)),
    )
    real = []
    for piece in pieces:
        piece = (coords @ piece @ back).real
        piece.eliminate_zeros()
        real.append(piece)
    # Summed as |piece|, so that no entry cancels out of the union; each
    # piece's entries go to the union's by the key row * size + column.
    union = sum((abs(piece) for piece in real[1:]), abs(real[0]))
    union.sort_indices()
    size, row = len(w), np.arange(len(w), dtype=np.int64)
    keys = [np.repeat(row, np.diff(matrix.indptr)) * size + matrix.indices for matrix in (union, *real)]
    rows = np.zeros((len(real), union.nnz))
    for values, key, piece in zip(rows, keys[1:], real):
        values[np.searchsorted(keys[0], key)] = piece.data
    return coords, back, (union.indptr, union.indices, rows)


def kron_rk4_generator(params: SystemParams) -> np.ndarray:
    """oracle.lyapunov_rk4's 13 x 13 generator on (v, vec Sigma, dv,
    vec dSigma, 1), with each block S -> a S + S a^T formed as
    np.kron(a, I) + np.kron(I, a): the reference for the written-out blocks."""
    A, D = drift_and_diffusion(params)
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    G = np.zeros((13, 13))
    for (row, col), a in (((0, 0), A), ((6, 6), A), ((6, 0), J)):
        G[row:row + 2, col:col + 2] = a
    for (row, col), a in (((2, 2), A), ((8, 8), A), ((8, 2), J)):
        G[row:row + 4, col:col + 4] = np.kron(a, np.eye(2)) + np.kron(np.eye(2), a)
    G[2:6, 12] = D.ravel()
    return G
