"""Closed-form moment dynamics of a parametrically driven, thermally damped mode.

The model is H = omega a†a + (epsilon/2)(a^2 + a†^2) with omega = omega0 +
delta_omega, coupled to a thermal bath at rate gamma and occupation n_bath.
In the quadrature basis the first and second moments obey

    dv/dt = A v,      dSigma/dt = A Sigma + Sigma A^T + D,
    A = [[-gamma, omega - epsilon], [-(omega + epsilon), -gamma]],
    D = 2 gamma (1 + 2 n_bath) I.

Both equations are integrated in closed form through the eigenstructure of A.
All formulas are written in terms of s = epsilon^2 - omega^2 and switch to a
power series near s = 0, where A becomes non-diagonalizable, so every regime
(below/above the eigenvalue splitting, at the exceptional point, near and
above the critical point) is handled by one well-conditioned code path.
Inputs may use any consistent unit system; thresholds are scale-relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.special import gammainc

from .errors import DomainError, NoSteadyStateError, PreconditionError
from .gaussian import GaussianState, mean_photons, purity, rotation_matrix, thermal_state

# Relative half-width of the eigenvalue-degeneracy window used for regime labels.
DEGENERACY_ETA = 1e-9


class Regime(str, Enum):
    BELOW = "below_eigenvalue_split"
    EXCEPTIONAL = "exceptional"
    TRANSIENT = "transient_split"
    CRITICAL = "critical"
    ABOVE = "above_threshold"


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters (omega0, epsilon, gamma, n_bath, delta_omega)."""

    omega0: float
    epsilon: float
    gamma: float
    n_bath: float = 0.0
    delta_omega: float = 0.0

    def __post_init__(self):
        vals = (self.omega0, self.epsilon, self.gamma, self.n_bath, self.delta_omega)
        if not all(math.isfinite(x) for x in vals):
            raise DomainError("system parameters must be finite")
        if self.gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma!r}")
        if self.n_bath < 0:
            raise DomainError(f"n_bath must be >= 0, got {self.n_bath!r}")
        if self.epsilon < 0:
            raise DomainError(f"epsilon must be >= 0, got {self.epsilon!r}")

    @property
    def omega(self) -> float:
        return self.omega0 + self.delta_omega

    @property
    def epsilon_c(self) -> float:
        """Critical drive strength sqrt(omega^2 + gamma^2)."""
        return math.hypot(self.omega, self.gamma)

    def with_shift(self, delta_omega: float) -> "SystemParams":
        return replace(self, delta_omega=delta_omega)


@dataclass(frozen=True)
class SpectralInfo:
    """Liouvillian decay rates lambda± = gamma ± sqrt(epsilon^2 - omega^2)."""

    lambda_minus: complex
    lambda_plus: complex
    epsilon_c: float
    regime: Regime


def spectral_info(params: SystemParams) -> SpectralInfo:
    w, eps, gamma = params.omega, params.epsilon, params.gamma
    s = eps * eps - w * w
    root = complex(math.sqrt(s)) if s >= 0 else 1j * math.sqrt(-s)
    lam_minus = gamma - root
    lam_plus = gamma + root
    eps_c = params.epsilon_c
    window = DEGENERACY_ETA * max(w * w, gamma * gamma, eps * eps)
    if abs(s) <= window:
        regime = Regime.EXCEPTIONAL
    elif abs(eps * eps - eps_c * eps_c) <= window:
        regime = Regime.CRITICAL
    elif eps < abs(w):
        regime = Regime.BELOW
    elif eps < eps_c:
        regime = Regime.TRANSIENT
    else:
        regime = Regime.ABOVE
    return SpectralInfo(lam_minus, lam_plus, eps_c, regime)


def drift_and_diffusion(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature-basis drift A and diffusion D of the Lyapunov equation."""
    w, eps, gamma = params.omega, params.epsilon, params.gamma
    A = np.array([[-gamma, w - eps], [-(w + eps), -gamma]])
    D = 2.0 * gamma * (1.0 + 2.0 * params.n_bath) * np.eye(2)
    return A, D


# --- closed-form propagation helpers ---------------------------------------

_SERIES_Z = 1e-6  # |s t^2| below this: Taylor series of cosh/sinh in s


def _decayed_cosh_sinhc(gamma: float, s: float, tau: float) -> tuple[float, float]:
    """Return (e^{-gamma tau} cosh(u tau), e^{-gamma tau} sinh(u tau)/u), u = sqrt(s).

    Analytic in s (trigonometric for s < 0); the combined exponential form
    avoids overflow of cosh for large u tau.
    """
    z = s * tau * tau
    if abs(z) < _SERIES_Z:
        decay = math.exp(-gamma * tau)
        c = 1.0 + z / 2.0 + z * z / 24.0 + z ** 3 / 720.0
        sc = tau * (1.0 + z / 6.0 + z * z / 120.0 + z ** 3 / 5040.0)
        return decay * c, decay * sc
    if s > 0:
        u = math.sqrt(s)
        slow = math.exp(-(gamma - u) * tau)  # e^{-lambda_- tau}; may exceed 1 above threshold
        c = 0.5 * slow * (1.0 + math.exp(-2.0 * u * tau))
        sc = -slow * math.expm1(-2.0 * u * tau) / (2.0 * u)
        return c, sc
    w = math.sqrt(-s)
    decay = math.exp(-gamma * tau)
    return decay * math.cos(w * tau), decay * math.sin(w * tau) / w


def _drive_matrix(params: SystemParams) -> np.ndarray:
    """Traceless part B of the drift, A = -gamma I + B, with B^2 = s I."""
    w = params.omega
    eps = params.epsilon
    return np.array([[0.0, w - eps], [-(w + eps), 0.0]])


def propagator(params: SystemParams, t: float) -> np.ndarray:
    """exp(A t) evaluated in closed form."""
    s = params.epsilon ** 2 - params.omega ** 2
    c, sc = _decayed_cosh_sinhc(params.gamma, s, t)
    return c * np.eye(2) + sc * _drive_matrix(params)


def _int_exp(lam: float, t: float) -> float:
    """Integral of e^{-2 lam tau} over [0, t]."""
    if lam == 0.0:
        return t
    return -math.expm1(-2.0 * lam * t) / (2.0 * lam)


def _noise_integrals(gamma: float, s: float, t: float) -> tuple[float, float, float, float]:
    """Stable evaluation of the four scalar integrals over [0, t]:

    I0 = ∫ e^{-2 g τ},            Ic = ∫ e^{-2 g τ} cosh(2 u τ),
    Is = ∫ e^{-2 g τ} sinh(2 u τ)/u,   Iq = ∫ e^{-2 g τ} sinh^2(u τ)/u^2,
    with u = sqrt(s) continued analytically through s <= 0.
    """
    i0 = _int_exp(gamma, t)
    # The exponential weight cuts the integrals off at ~1/gamma, so the series
    # convergence parameter is |s| times the square of the effective horizon.
    t_eff = min(t, 2.5 / gamma) if gamma > 0 else t
    if abs(s) * t_eff * t_eff <= 2.5e-3:
        # Series in s; moment integrals via the regularized incomplete gamma.
        x = 2.0 * gamma * t
        moments = []
        for j in range(11):
            if gamma > 0:
                mj = gammainc(j + 1, x) * math.factorial(j) / (2.0 * gamma) ** (j + 1)
            else:
                mj = t ** (j + 1) / (j + 1)
            moments.append(mj)
        ic = sum((4.0 * s) ** k * moments[2 * k] / math.factorial(2 * k) for k in range(5))
        i_s = sum(
            (4.0 * s) ** k * 2.0 * moments[2 * k + 1] / math.factorial(2 * k + 1)
            for k in range(5)
        )
        iq = sum(
            4.0 ** k * s ** (k - 1) * moments[2 * k] / (2.0 * math.factorial(2 * k))
            for k in range(1, 6)
        )
        return i0, ic, i_s, iq
    if s > 0.25 * gamma * gamma:
        # Well split from the exceptional point: exact exponential integrals.
        u = math.sqrt(s)
        em = _int_exp(gamma - u, t)
        ep = _int_exp(gamma + u, t)
        ic = 0.5 * (em + ep)
        i_s = (em - ep) / (2.0 * u)
    else:
        # Analytic-in-s form; K = gamma^2 - s = eps_c^2 - eps^2 is far from 0 here.
        dc2, ds2 = _decayed_cosh_sinhc(gamma, s, 2.0 * t)
        k = gamma * gamma - s
        ic = (gamma - (gamma * dc2 + s * ds2)) / (2.0 * k)
        i_s = (1.0 - (dc2 + gamma * ds2)) / (2.0 * k)
    iq = (ic - i0) / (2.0 * s)
    return i0, ic, i_s, iq


def _noise_matrix(params: SystemParams, t: float) -> np.ndarray:
    """Accumulated noise covariance ∫_0^t e^{A tau} D e^{A^T tau} d tau."""
    gamma = params.gamma
    if gamma == 0.0 or t == 0.0:
        return np.zeros((2, 2))
    w, eps = params.omega, params.epsilon
    s = eps * eps - w * w
    i0, ic, i_s, iq = _noise_integrals(gamma, s, t)
    d = 2.0 * gamma * (1.0 + 2.0 * params.n_bath)
    ia = 0.5 * (i0 + ic)
    g11 = d * (ia + iq * (w - eps) ** 2)
    g22 = d * (ia + iq * (w + eps) ** 2)
    g12 = -d * eps * i_s
    return np.array([[g11, g12], [g12, g22]])


def evolve_critical(params: SystemParams, state0: GaussianState, t: float) -> GaussianState:
    """Propagate a Gaussian state for time t under drive and thermal damping."""
    if not math.isfinite(t) or t < 0:
        raise DomainError(f"time must be >= 0, got {t!r}")
    M = propagator(params, t)
    v = M @ state0.v
    sigma = M @ state0.sigma @ M.T + _noise_matrix(params, t)
    sigma = 0.5 * (sigma + sigma.T)
    return GaussianState(v, sigma)


def steady_state(params: SystemParams) -> GaussianState:
    """Stationary Gaussian state for epsilon strictly below the critical point."""
    eps_c, eps = params.epsilon_c, params.epsilon
    if eps_c - eps <= 1e-12 * eps_c:
        raise NoSteadyStateError(
            f"no steady state: epsilon = {eps!r} at or above epsilon_c = {eps_c!r}"
        )
    w, gamma = params.omega, params.gamma
    denom = eps_c * eps_c - eps * eps
    pref = (1.0 + 2.0 * params.n_bath) / denom
    sigma = pref * np.array(
        [
            [eps_c * eps_c - w * eps, -gamma * eps],
            [-gamma * eps, eps_c * eps_c + w * eps],
        ]
    )
    return GaussianState(np.zeros(2), sigma)


def steady_state_photons(params: SystemParams) -> float:
    """N(∞) = (eps^2 + 2 n_bath eps_c^2) / (2 (eps_c^2 - eps^2))."""
    eps_c, eps = params.epsilon_c, params.epsilon
    if eps_c - eps <= 1e-12 * eps_c:
        raise NoSteadyStateError("photon number diverges at or above epsilon_c")
    return (eps * eps + 2.0 * params.n_bath * eps_c * eps_c) / (
        2.0 * (eps_c * eps_c - eps * eps)
    )


def mean_photons_vs_time(params: SystemParams, t: float) -> float:
    """Photon number at time t starting from equilibrium with the bath."""
    return mean_photons(evolve_critical(params, thermal_state(params.n_bath), t))


def purity_vs_time(params: SystemParams, t: float) -> float:
    """Purity at time t starting from equilibrium with the bath."""
    return purity(evolve_critical(params, thermal_state(params.n_bath), t))


def evolve_passive(params: SystemParams, state0: GaussianState, t: float) -> GaussianState:
    """Free decaying evolution (epsilon = 0) in the frame rotating at omega0.

    Moments follow a(t) = e^{-gamma t - i delta_omega t} a(0) + thermal input,
    i.e. a phase-space rotation by -delta_omega*t with amplitude decay e^{-gamma t}
    and covariance relaxation toward (1 + 2 n_bath) I.
    """
    if params.epsilon != 0.0:
        raise PreconditionError("evolve_passive requires epsilon = 0")
    if not math.isfinite(t) or t < 0:
        raise DomainError(f"time must be >= 0, got {t!r}")
    gamma, n_bath = params.gamma, params.n_bath
    R = rotation_matrix(-params.delta_omega * t)
    decay = math.exp(-gamma * t)
    v = decay * (R @ state0.v)
    relax = -math.expm1(-2.0 * gamma * t)  # 1 - e^{-2 gamma t}
    sigma = decay * decay * (R @ state0.sigma @ R.T) + relax * (1.0 + 2.0 * n_bath) * np.eye(2)
    sigma = 0.5 * (sigma + sigma.T)
    return GaussianState(v, sigma)
