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

import contextlib
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.special import gammainc

from .errors import DomainError, InvalidStateError, NoSteadyStateError, PreconditionError
from ._elementwise import lib, matrix, per_t, reject, select
from .gaussian import IDENTITY, GaussianState, mean_photons, rotation_matrix, thermal_state

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
    s, k = _s_and_gap(params)
    root = complex(math.sqrt(s)) if s >= 0 else 1j * math.sqrt(-s)
    # Near the critical point gamma - sqrt(s) is the small K / (gamma + sqrt(s)),
    # K = eps_c^2 - eps^2; where s or gamma is 0 the difference is exact.
    lam_minus = complex(k / (gamma + root.real)) if s > 0 and gamma > 0 else gamma - root
    lam_plus = gamma + root
    eps_c = params.epsilon_c
    window = DEGENERACY_ETA * max(w * w, gamma * gamma, eps * eps)
    if abs(s) <= window:
        regime = Regime.EXCEPTIONAL
    elif abs(k) <= window:
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
# Each helper takes t (or tau) as a float or as a 1-D array of times, and is
# written once for both (see _elementwise). Branches on s are plain `if`s, as
# the parameters are scalars; branches on t go through `select`.

_SERIES_Z = 1e-6  # |s t^2| below this: Taylor series of cosh/sinh in s
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for doubles


def _square(a: float) -> tuple[float, float]:
    """a^2 as the exact sum hi + lo of two doubles (Dekker's product)."""
    hi = a * a
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    return hi, ((a_hi * a_hi - hi) + 2.0 * a_hi * a_lo) + a_lo * a_lo


def _s_and_gap(params: SystemParams) -> tuple[float, float]:
    """s = eps^2 - omega^2 and K = gamma^2 - s = eps_c^2 - eps^2, each rounded
    once from the exact squares. Near the critical point K is a small
    difference of large squares, and the slow rate gamma - sqrt(s) = K /
    (gamma + sqrt(s)) and the steady state scale as K: formed as differences
    of rounded squares they would lose digits in proportion to 1/K."""
    w2, e2, g2 = _square(params.omega), _square(params.epsilon), _square(params.gamma)
    return math.fsum((*e2, -w2[0], -w2[1])), math.fsum((*w2, *g2, -e2[0], -e2[1]))


def _decayed_cosh_sinhc(gamma: float, s: float, k: float, tau):
    """Return (e^{-gamma tau} cosh(u tau), e^{-gamma tau} sinh(u tau)/u), u = sqrt(s),
    with k = gamma^2 - s.

    Analytic in s (trigonometric for s < 0); the combined exponential form
    avoids overflow of cosh for large u tau.
    """
    f = lib(tau)

    def series(tau, z):
        decay = f.exp(-gamma * tau)
        c = 1.0 + z / 2.0 + z * z / 24.0 + z ** 3 / 720.0
        sc = tau * (1.0 + z / 6.0 + z * z / 120.0 + z ** 3 / 5040.0)
        return decay * c, decay * sc

    def exact(tau, z):
        if s > 0:
            u = math.sqrt(s)
            slow = f.exp(-k / (gamma + u) * tau)  # e^{-lambda_- tau}; may exceed 1 above threshold
            c = 0.5 * slow * (1.0 + f.exp(-2.0 * u * tau))
            sc = -slow * f.expm1(-2.0 * u * tau) / (2.0 * u)
            return c, sc
        w = math.sqrt(-s)
        decay = f.exp(-gamma * tau)
        return decay * f.cos(w * tau), decay * f.sin(w * tau) / w

    z = s * tau * tau
    return select(abs(z) < _SERIES_Z, series, exact, tau, z)


def _sinhc_slope(gamma: float, s: float, tau, c, sc):
    """d/ds of e^{-gamma tau} sinh(u tau)/u, given (c, sc) = _decayed_cosh_sinhc.

    Equal to (tau c - sc) / (2 s), whose two terms cancel for small |s tau^2|;
    there the Taylor series tau^3 sum_k k z^(k-1) / (2k+1)! in z = s tau^2.
    """

    def series(tau, z, c, sc):
        term, total = 1.0 / 6.0, 0.0
        for k in range(1, 12):
            total += term
            term *= z * (k + 1) / (k * (2 * k + 2) * (2 * k + 3))
        return lib(tau).exp(-gamma * tau) * tau ** 3 * total

    def closed(tau, z, c, sc):
        return (tau * c - sc) / (2.0 * s)

    z = s * tau * tau
    return select(abs(z) < 1.0, series, closed, tau, z, c, sc)


def _exp_drift(params: SystemParams, c, sc) -> np.ndarray:
    """exp(A t) = c I + sc B, with A = -gamma I + B and B = [[0, omega - eps],
    [-(omega + eps), 0]] (B^2 = s I), from (c, sc) = _decayed_cosh_sinhc at
    t. Entry by entry in the floating-point operations of that matrix sum,
    so that signed zeros and NaNs come out as the sum gives them."""
    w, eps = params.omega, params.epsilon
    diagonal = c + sc * 0.0
    return matrix(diagonal, c * 0.0 + sc * (w - eps), c * 0.0 + sc * -(w + eps), diagonal)


def _int_exp(lam: float, t):
    """Integral of e^{-2 lam tau} over [0, t]."""
    if lam == 0.0:
        return t
    return -lib(t).expm1(-2.0 * lam * t) / (2.0 * lam)


def _int_texp(lam: float, t):
    """Integral of tau e^{-2 lam tau} over [0, t], i.e. -(d/d lam) _int_exp / 2.

    Equal to t^2 (1 - e^{-x}(1 + x)) / x^2 with x = 2 lam t, whose terms
    cancel for small |x|; there the series t^2 sum_n (n+1) (-x)^n / (n+2)!.
    """

    def series(t, x):
        term, total, minus_x = 0.5, 0.0, -x
        for n in range(18):
            total += term
            term *= minus_x * (n + 2) / ((n + 1) * (n + 3))
        return t * t * total

    def closed(t, x):
        f = lib(x)
        return (-f.expm1(-x) - x * f.exp(-x)) / (4.0 * lam * lam)

    x = 2.0 * lam * t
    return select(abs(x) < 1.0, series, closed, t, x)


# The series branch of the noise integrals: |s| times the square of the
# effective horizon at most this. The exponential weight cuts the integrals
# off at ~1/gamma, so the horizon is min(t, 2.5 / gamma).
_SERIES_ST2 = 2.5e-3


def _is_series(gamma: float, s: float, t):
    t_eff = lib(t).min(t, 2.5 / gamma) if gamma > 0 else t
    return abs(s) * t_eff * t_eff <= _SERIES_ST2


def _series_coefficients(gamma: float, t) -> tuple[list, ...]:
    """Coefficients of Ic, Is and Iq as power series in s, from the moment
    integrals m_j = ∫ τ^j e^{-2 g τ}, j = 0..10, which the regularized
    incomplete gamma function gives."""
    if gamma == 0:
        m = [t ** (j + 1) / (j + 1) for j in range(11)]
    else:
        x = 2.0 * gamma * t
        m = [gammainc(j + 1, x) * math.factorial(j) / (2.0 * gamma) ** (j + 1) for j in range(11)]
    return (
        [4.0 ** k * m[2 * k] / math.factorial(2 * k) for k in range(5)],
        [4.0 ** k * 2.0 * m[2 * k + 1] / math.factorial(2 * k + 1) for k in range(5)],
        [4.0 ** (k + 1) * m[2 * k + 2] / (2.0 * math.factorial(2 * k + 2)) for k in range(5)],
    )


def _noise_integrals(gamma: float, s: float, k: float, t, slopes: bool = False) -> tuple:
    """Stable evaluation of the four scalar integrals over [0, t], k = gamma^2 - s:

    I0 = ∫ e^{-2 g τ},            Ic = ∫ e^{-2 g τ} cosh(2 u τ),
    Is = ∫ e^{-2 g τ} sinh(2 u τ)/u,   Iq = ∫ e^{-2 g τ} sinh^2(u τ)/u^2,
    with u = sqrt(s) continued analytically through s <= 0. With `slopes`,
    also d/ds of (Ic, Is, Iq) on the same branch; I0 does not depend on s.
    """

    def series(t, i0):
        coefficients = _series_coefficients(gamma, t)
        out = tuple(sum(c * s ** j for j, c in enumerate(cs)) for cs in coefficients)
        if not slopes:
            return out
        return out + tuple(sum(j * c * s ** (j - 1) for j, c in enumerate(cs) if j) for cs in coefficients)

    def closed(t, i0):
        split = s > 0.25 * gamma * gamma
        if split:
            # Well split from the exceptional point: exact exponential integrals.
            u = math.sqrt(s)
            em = _int_exp(k / (gamma + u), t)
            ep = _int_exp(gamma + u, t)
            ic = 0.5 * (em + ep)
            i_s = (em - ep) / (2.0 * u)
        else:
            # Analytic-in-s form; K = gamma^2 - s = eps_c^2 - eps^2 is far from 0 here.
            dc2, ds2 = _decayed_cosh_sinhc(gamma, s, k, 2.0 * t)
            ic = (gamma - (gamma * dc2 + s * ds2)) / (2.0 * k)
            i_s = (1.0 - (dc2 + gamma * ds2)) / (2.0 * k)
        iq = (ic - i0) / (2.0 * s)
        if not slopes:
            return ic, i_s, iq
        if split:
            # d(e_-+)/ds = +-J_-+/u with J = _int_texp at the rates gamma -+ u.
            jm = _int_texp(k / (gamma + u), t)
            jp = _int_texp(gamma + u, t)
            dic = (jm - jp) / (2.0 * u)
            dis = (jm + jp - i_s) / (2.0 * s)
        else:
            # d(dc2)/ds = t ds2 and d(ds2)/ds = _sinhc_slope at tau = 2 t; dK/ds = -1.
            q2 = _sinhc_slope(gamma, s, 2.0 * t, dc2, ds2)
            dic = (2.0 * ic - (gamma * t * ds2 + ds2 + s * q2)) / (2.0 * k)
            dis = (2.0 * i_s - (t * ds2 + gamma * q2)) / (2.0 * k)
        diq = (dic - 2.0 * iq) / (2.0 * s)
        return ic, i_s, iq, dic, dis, diq

    i0 = _int_exp(gamma, t)
    return (i0, *select(_is_series(gamma, s, t), series, closed, t, i0))


def _no_noise(t) -> np.ndarray:
    return np.zeros(t.shape + (2, 2) if isinstance(t, np.ndarray) else (2, 2))


def _noise_matrix(params: SystemParams, t, noise) -> np.ndarray:
    """Accumulated noise covariance ∫_0^t e^{A tau} D e^{A^T tau} d tau, from
    noise = _noise_integrals(...) at t (None for gamma = 0: no noise)."""
    if noise is None:
        return _no_noise(t)
    w, eps = params.omega, params.epsilon
    i0, ic, i_s, iq = noise[:4]
    d = 2.0 * params.gamma * (1.0 + 2.0 * params.n_bath)
    ia = 0.5 * (i0 + ic)
    g11 = d * (ia + iq * (w - eps) ** 2)
    g22 = d * (ia + iq * (w + eps) ** 2)
    g12 = -d * eps * i_s
    return matrix(g11, g12, g12, g22)


def _check_time(t) -> None:
    f = lib(t)
    reject(f.not_(f.isfinite(t)) | (t < 0), DomainError, "time must be >= 0, got {!r}", t)


def _critical_flow(params: SystemParams, state0: GaussianState, t, tangent: bool = True) -> tuple:
    """(v, Sigma, dv, dSigma): the moments evolve_critical returns at t and
    their exact shift derivative, from one evaluation of s, K, (c, sc) and the
    noise integrals; (v, Sigma) alone without `tangent`. For a 1-D array of t,
    stacks over t.

    The derivative is that of a start that does not depend on the shift: with
    M = c I + sc B, dc/ds = t sc / 2 and d sc/ds = _sinhc_slope, dM = -omega
    t sc I - 2 omega (d sc/ds) B + sc J, and dSigma = dM Sigma0 M^T + M
    Sigma0 dM^T + dG, where dG (_noise_tangent) takes the integrals' s-slopes.
    """
    _check_time(t)
    w, eps, gamma = params.omega, params.epsilon, params.gamma
    # Below threshold |exp(A t)| <= 1 + |B| t. At and above it exp(A t) grows
    # without bound, and it or its product with sigma can leave the double
    # range: that raises the typed error GaussianState gives for non-finite
    # moments. The numpy error state is set only there, as it slows each matmul.
    growing = eps >= params.epsilon_c
    try:
        with np.errstate(over="raise", invalid="raise") if growing else contextlib.nullcontext():
            s, k = _s_and_gap(params)
            c, sc = _decayed_cosh_sinhc(gamma, s, k, t)
            noise = _noise_integrals(gamma, s, k, t, slopes=tangent) if gamma > 0 else None
            M = _exp_drift(params, c, sc)
            M_T = M.swapaxes(-1, -2)
            v = M @ state0.v
            sigma = M @ state0.sigma @ M_T + _noise_matrix(params, t, noise)
    except (OverflowError, FloatingPointError):
        raise InvalidStateError("non-finite moments") from None
    if not tangent:
        return v, sigma
    q = _sinhc_slope(gamma, s, t, c, sc)
    dM = matrix(-w * t * sc, sc - 2.0 * w * q * (w - eps), 2.0 * w * q * (w + eps) - sc, -w * t * sc)
    X = dM @ state0.sigma @ M_T
    return v, sigma, dM @ state0.v, X + X.swapaxes(-1, -2) + _noise_tangent(params, t, noise)


def evolve_critical(params: SystemParams, state0: GaussianState, t: float) -> GaussianState:
    """Propagate a Gaussian state for time t under drive and thermal damping."""
    return GaussianState(*_critical_flow(params, state0, t, tangent=False))


# --- exact shift tangents ----------------------------------------------------
# d/d omega of the moments that evolve_critical, steady_state and
# evolve_passive return, for a start that does not depend on the shift. The
# drift's derivative is dA/d omega = J; the closed forms above depend on omega
# through s = eps^2 - omega^2 (ds/d omega = -2 omega) and through B (dB/d omega = J).

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _noise_tangent(params: SystemParams, t, noise) -> np.ndarray:
    """d/d omega of _noise_matrix: the integrals' s-slopes times -2 omega,
    plus the explicit omega in (omega -+ eps)^2."""
    if noise is None:
        return _no_noise(t)
    w, eps = params.omega, params.epsilon
    _, ic, i_s, iq, dic, dis, diq = noise
    d = 2.0 * params.gamma * (1.0 + 2.0 * params.n_bath)
    g11 = d * (2.0 * iq * (w - eps) - w * (dic + 2.0 * diq * (w - eps) ** 2))
    g22 = d * (2.0 * iq * (w + eps) - w * (dic + 2.0 * diq * (w + eps) ** 2))
    g12 = 2.0 * d * w * eps * dis
    return matrix(g11, g12, g12, g22)


def _steady_sigma(params: SystemParams) -> tuple[np.ndarray, float]:
    """The stationary covariance (1 + 2 n_bath)/K [[eps_c^2 - omega eps,
    -gamma eps], [-gamma eps, eps_c^2 + omega eps]] and K = eps_c^2 - eps^2."""
    eps_c, eps, w, gamma = params.epsilon_c, params.epsilon, params.omega, params.gamma
    k = _s_and_gap(params)[1]
    pref = (1.0 + 2.0 * params.n_bath) / k
    sigma = pref * np.array(
        [
            [eps_c * eps_c - w * eps, -gamma * eps],
            [-gamma * eps, eps_c * eps_c + w * eps],
        ]
    )
    return sigma, k


def _steady_flow(params: SystemParams, tangent: bool = True) -> tuple:
    """(v, Sigma, dv, dSigma) of steady_state and its shift derivative, or
    (v, Sigma) without `tangent`. With d(eps_c^2)/d omega = 2 omega and
    dK/d omega = 2 omega, dSigma = (1 + 2 n_bath)/K diag(2 omega - eps,
    2 omega + eps) - (2 omega/K) Sigma."""
    eps_c, eps = params.epsilon_c, params.epsilon
    if eps_c - eps <= 1e-12 * eps_c:
        raise NoSteadyStateError(
            f"no steady state: epsilon = {eps!r} at or above epsilon_c = {eps_c!r}"
        )
    sigma, k = _steady_sigma(params)
    if not tangent:
        return np.zeros(2), sigma
    w = params.omega
    dsigma = (1.0 + 2.0 * params.n_bath) / k * np.diag([2.0 * w - eps, 2.0 * w + eps]) - (2.0 * w / k) * sigma
    return np.zeros(2), sigma, np.zeros(2), dsigma


def steady_state(params: SystemParams) -> GaussianState:
    """Stationary Gaussian state for epsilon strictly below the critical point."""
    return GaussianState(*_steady_flow(params, tangent=False))


def steady_state_photons(params: SystemParams) -> float:
    """N(∞) = (eps^2 + 2 n_bath eps_c^2) / (2 (eps_c^2 - eps^2))."""
    eps_c, eps = params.epsilon_c, params.epsilon
    if eps_c - eps <= 1e-12 * eps_c:
        raise NoSteadyStateError("photon number diverges at or above epsilon_c")
    return (eps * eps + 2.0 * params.n_bath * eps_c * eps_c) / (2.0 * _s_and_gap(params)[1])


def mean_photons_vs_time(params: SystemParams, t: float) -> float:
    """Photon number at time t starting from equilibrium with the bath."""
    return mean_photons(evolve_critical(params, thermal_state(params.n_bath), t))


def _passive_flow(params: SystemParams, state0: GaussianState, t, tangent: bool = True) -> tuple:
    """(v, Sigma, dv, dSigma) of evolve_passive at t and its shift derivative,
    or (v, Sigma) without `tangent`; for a 1-D array of t, stacks over t.

    dR(-delta t)/d delta = t J R, so dv = t J v and dSigma = e^{-2 gamma t}
    t (J Sigma0_R + Sigma0_R J^T) with Sigma0_R = R Sigma0 R^T. The thermal
    input is rotation-invariant and adds nothing; taken from Sigma(t)
    instead, this would round to 0 once that input dominates.
    """
    if params.epsilon != 0.0:
        raise PreconditionError("evolve_passive requires epsilon = 0")
    _check_time(t)
    gamma, n_bath = params.gamma, params.n_bath
    R = rotation_matrix(-params.delta_omega * t)
    decay = lib(t).exp(-gamma * t)
    v = per_t(decay, 1) * (R @ state0.v)
    relax = -lib(t).expm1(-2.0 * gamma * t)  # 1 - e^{-2 gamma t}
    sigma0_r = R @ state0.sigma @ R.swapaxes(-1, -2)
    sigma = per_t(decay * decay, 2) * sigma0_r + per_t(relax * (1.0 + 2.0 * n_bath), 2) * IDENTITY
    if not tangent:
        return v, sigma
    X = per_t(decay * decay * t, 2) * (_J @ sigma0_r)
    return v, sigma, per_t(t, 1) * (v @ _J.T), X + X.swapaxes(-1, -2)


def evolve_passive(params: SystemParams, state0: GaussianState, t: float) -> GaussianState:
    """Free decaying evolution (epsilon = 0) in the frame rotating at omega0.

    Moments follow a(t) = e^{-gamma t - i delta_omega t} a(0) + thermal input,
    i.e. a phase-space rotation by -delta_omega*t with amplitude decay e^{-gamma t}
    and covariance relaxation toward (1 + 2 n_bath) I.
    """
    return GaussianState(*_passive_flow(params, state0, t, tangent=False))
