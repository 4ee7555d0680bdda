"""Independent references for the benchmark's output checks.

Shares no code with critsense. Moments and their frequency derivatives come
from one matrix exponential of a block generator (Van Loan, IEEE TAC 23, 395,
1978): the state x = (v, vec Sigma, dv, vec dSigma) obeys dx/dt = M x + b with

    dv/dt      = A v
    dSigma/dt  = A Sigma + Sigma A^T + D
    d(dv)/dt   = A dv + dA v
    d(dSigma)/dt = A dSigma + dSigma A^T + dA Sigma + Sigma dA^T

so x(t) follows from expm(M t) (see _affine_flow). The QFI follows from the
single-mode Gaussian formula (Safranek, J. Phys. A 52, 035304, 2019) in the
convention where the vacuum covariance is the identity.

Both protocols share one drift: A = [[-g, w - e], [-(w + e), -g]] with
dA/dw = [[0, 1], [-1, 0]]. The passive protocol is the case e = 0 in the frame
rotating at omega0, i.e. w = 0 at zero shift.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

DA = np.array([[0.0, 1.0], [-1.0, 0.0]])
_I2 = np.eye(2)


def drift(omega: float, epsilon: float, gamma: float) -> np.ndarray:
    return np.array([[-gamma, omega - epsilon], [-(omega + epsilon), -gamma]])


def _lyapunov_operator(a: np.ndarray) -> np.ndarray:
    """Matrix of S -> a S + S a^T acting on row-major vec(S)."""
    return np.kron(a, _I2) + np.kron(_I2, a)


class Moments:
    """State moments and their derivatives with respect to the frequency shift."""

    __slots__ = ("v", "sigma", "dv", "dsigma")

    def __init__(self, v, sigma, dv, dsigma):
        self.v = v
        self.sigma = 0.5 * (sigma + sigma.T)
        self.dv = dv
        self.dsigma = 0.5 * (dsigma + dsigma.T)


def _affine_flow(m: np.ndarray, b: np.ndarray, x0: np.ndarray, t: float, stable: bool) -> np.ndarray:
    """x(t) for dx/dt = m x + b.

    Stable m: x_inf + expm(m t) (x0 - x_inf) with x_inf = -m^{-1} b, which
    stays accurate at late times and close to threshold. Otherwise (lossless)
    the augmented generator [[m, b], [0, 0]] in one exponential.
    """
    if stable:
        x_inf = -np.linalg.solve(m, b)
        return x_inf + expm(m * t) @ (x0 - x_inf)
    n = len(b)
    g = np.zeros((n + 1, n + 1))
    g[:n, :n] = m
    g[:n, n] = b
    return (expm(g * t) @ np.append(x0, 1.0))[:n]


def _moment_generator(a: np.ndarray, gamma: float, n_bath: float) -> tuple[np.ndarray, np.ndarray]:
    """(m, b) of d(v, vec Sigma)/dt = m (v, vec Sigma) + b."""
    m = np.zeros((6, 6))
    m[0:2, 0:2] = a
    m[2:6, 2:6] = _lyapunov_operator(a)
    b = np.zeros(6)
    b[2:6] = 2.0 * gamma * (1.0 + 2.0 * n_bath) * _I2.ravel()
    return m, b


def _start(v0, sigma0) -> np.ndarray:
    return np.concatenate([v0, np.asarray(sigma0, dtype=float).ravel()])


def evolve(omega, epsilon, gamma, n_bath, v0, sigma0, t) -> Moments:
    """Moments and shift derivatives at time t from a shift-independent start.

    The derivative block (dv, vec dSigma) obeys the same generator as
    (v, vec Sigma), driven by dA acting on (v, vec Sigma) instead of by D.
    Assumes a drive below threshold, so that gamma > 0 makes the flow stable.
    """
    m6, b6 = _moment_generator(drift(omega, epsilon, gamma), gamma, n_bath)
    m = np.zeros((12, 12))
    m[0:6, 0:6] = m6
    m[6:12, 6:12] = m6
    m[6:8, 0:2] = DA
    m[8:12, 2:6] = _lyapunov_operator(DA)
    b = np.append(b6, np.zeros(6))
    x0 = np.append(_start(v0, sigma0), np.zeros(6))
    x = _affine_flow(m, b, x0, t, gamma > 0)
    return Moments(x[0:2], x[2:6].reshape(2, 2), x[6:8], x[8:12].reshape(2, 2))


def photons_and_purity(omega, epsilon, gamma, n_bath, v0, sigma0, t) -> tuple[float, float]:
    """Mean photon number and purity at time t (the (v, Sigma) block of evolve)."""
    m, b = _moment_generator(drift(omega, epsilon, gamma), gamma, n_bath)
    x = _affine_flow(m, b, _start(v0, sigma0), t, gamma > 0)
    v, s = x[0:2], x[2:6].reshape(2, 2)
    n = 0.25 * (s[0, 0] + s[1, 1]) - 0.5 + 0.5 * float(v @ v)
    det = s[0, 0] * s[1, 1] - 0.25 * (s[0, 1] + s[1, 0]) ** 2
    return n, 1.0 / math.sqrt(det)


def gaussian_qfi(m: Moments) -> float:
    """Single-mode Gaussian QFI; the purity term is dropped for pure states,
    where only unitary families (constant purity) occur in the workloads."""
    inv = np.linalg.inv(m.sigma)
    det = float(np.linalg.det(m.sigma))
    mu = 1.0 / math.sqrt(det)
    x = inv @ m.dsigma
    term1 = 0.5 * float(np.trace(x @ x)) / (1.0 + mu * mu)
    gap = 1.0 - mu ** 4
    dmu = -0.5 * mu * float(np.trace(x))
    term2 = 0.0 if gap < 1e-10 else 2.0 * dmu * dmu / gap
    term3 = 2.0 * float(m.dv @ inv @ m.dv)
    return term1 + term2 + term3


def homodyne_fi(m: Moments, psi: float) -> float:
    """Classical FI of measuring the quadrature x cos(psi) - p sin(psi).

    The sign of the p component follows critsense's variance convention.
    """
    u = np.array([math.cos(psi), -math.sin(psi)])
    var = float(u @ m.sigma @ u)
    dvar = float(u @ m.dsigma @ u)
    dmean = float(u @ m.dv)
    return (4.0 * var * dmean * dmean + dvar * dvar) / (2.0 * var * var)


def best_homodyne_fi(m: Moments, n_grid: int = 720) -> float:
    """Maximum of homodyne_fi over the angle: dense grid, then bounded polish."""
    from scipy.optimize import minimize_scalar

    psis = np.linspace(0.0, math.pi, n_grid, endpoint=False)
    vals = [homodyne_fi(m, float(p)) for p in psis]
    i = int(np.argmax(vals))
    step = math.pi / n_grid
    res = minimize_scalar(
        lambda p: -homodyne_fi(m, p),
        bounds=(psis[i] - step, psis[i] + step),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return max(vals[i], -float(res.fun))


# --- protocol set-ups ---------------------------------------------------------


def cqs_epsilon(n_max: float, omega0: float, gamma: float, n_bath: float) -> float:
    """Drive whose stationary photon number equals n_max.

    From N_ss = (e^2 + 2 n_B e_c^2) / (2 (e_c^2 - e^2)) with e_c^2 = w^2 + g^2.
    """
    ec2 = omega0 * omega0 + gamma * gamma
    return math.sqrt(2.0 * (n_max - n_bath) / (1.0 + 2.0 * n_max) * ec2)


def thermal_sigma(n_bath: float) -> np.ndarray:
    return (1.0 + 2.0 * n_bath) * _I2


def squeezed_input(n_max: float, n_bath: float) -> tuple[np.ndarray, np.ndarray]:
    """Squeezed thermal state holding n_max photons: (1 + 2 n_B) cosh 2r = 1 + 2 n_max."""
    r = 0.5 * math.acosh((1.0 + 2.0 * n_max) / (1.0 + 2.0 * n_bath))
    return displaced_squeezed(0.0, r, n_bath)


def displaced_squeezed(alpha: float, r: float, n_bath: float) -> tuple[np.ndarray, np.ndarray]:
    """Real displacement alpha on a squeezed thermal state stretched along x."""
    v0 = np.array([math.sqrt(2.0) * alpha, 0.0])
    sigma0 = (1.0 + 2.0 * n_bath) * np.diag([math.exp(2.0 * r), math.exp(-2.0 * r)])
    return v0, sigma0


def cqs(omega0, epsilon, gamma, n_bath, t) -> Moments:
    """Driven protocol from bath equilibrium."""
    return evolve(omega0, epsilon, gamma, n_bath, np.zeros(2), thermal_sigma(n_bath), t)


def pqs(v0, sigma0, gamma, n_bath, t) -> Moments:
    """Passive protocol in the frame rotating at omega0 (zero shift: w = 0)."""
    return evolve(0.0, 0.0, gamma, n_bath, v0, sigma0, t)


def bound_integral(photons, total_time: float, gamma: float, n_bath: float) -> float:
    """Integral over [0, T] of 2 N(t) / (gamma (1 + 2 n_B - n_B / (N(t) + 1)))."""

    def integrand(t: float) -> float:
        n = photons(t)
        return 2.0 * n / (gamma * (1.0 + 2.0 * n_bath - n_bath / (n + 1.0)))

    value, _ = quad(integrand, 0.0, total_time, epsabs=0.0, epsrel=1e-11, limit=400)
    return value


def steady_state_lyapunov(omega0, epsilon, gamma, n_bath) -> Moments:
    """Stationary moments and derivatives from two continuous Lyapunov solves."""
    from scipy.linalg import solve_continuous_lyapunov

    a = drift(omega0, epsilon, gamma)
    d = 2.0 * gamma * (1.0 + 2.0 * n_bath) * _I2
    sigma = solve_continuous_lyapunov(a, -d)
    source = DA @ sigma + sigma @ DA.T
    dsigma = solve_continuous_lyapunov(a, -source)
    return Moments(np.zeros(2), sigma, np.zeros(2), dsigma)
