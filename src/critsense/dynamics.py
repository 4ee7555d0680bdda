"""Closed-form moment dynamics of a parametrically driven, thermally damped mode.

The model is H = omega a†a + (epsilon/2)(a^2 + a†^2) with omega = omega0,
coupled to a thermal bath at rate gamma and occupation n_bath; the frequency
shift is a change of omega0, taken at zero. In the quadrature basis the
first and second moments obey

    dv/dt = A v,      dSigma/dt = A Sigma + Sigma A^T + D,
    A = [[-gamma, omega - epsilon], [-(omega + epsilon), -gamma]],
    D = 2 gamma (1 + 2 n_bath) I.

Both equations are integrated in closed form through the eigenstructure of A.
All formulas are written in terms of s = epsilon^2 - omega^2 and are analytic
through s = 0, where A becomes non-diagonalizable, so every regime
(below/above the eigenvalue splitting, at the exceptional point, near and
above the critical point) is handled by one well-conditioned code path. The
propagator needs no series at s = 0; _sinhc_slope, _int_texp and the noise
integrals (at |s| t_eff^2 <= 0.3) switch to a power series where their closed
forms would cancel digits. Each series is one `polyval` over a module-level
table, which for the noise integrals is scaled by moments from one `gammainc`.
Inputs may use any unit system with rates from about 2^-195 to 2^195, where
a change of units by a power of two changes no bit; beyond, intermediates of
size rate^-5 leave the normal double range. Thresholds are scale-relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .errors import DomainError, NoSteadyStateError
from ._elementwise import finite_moments, lib, matrix, over_t, per_t, quiet, reject, select
from .gaussian import IDENTITY, GaussianState, _check_grid, mean_photons, thermal_state

@dataclass(frozen=True)
class SystemParams:
    """Physical parameters (omega0, epsilon, gamma, n_bath)."""

    omega0: float
    epsilon: float
    gamma: float
    n_bath: float = 0.0

    def __post_init__(self):
        vals = (self.omega0, self.epsilon, self.gamma, self.n_bath)
        if not all(math.isfinite(x) for x in vals):
            raise DomainError("system parameters must be finite")
        if self.gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma!r}")
        if self.n_bath < 0:
            raise DomainError(f"n_bath must be >= 0, got {self.n_bath!r}")
        if self.epsilon < 0:
            raise DomainError(f"epsilon must be >= 0, got {self.epsilon!r}")

    @property
    def epsilon_c(self) -> float:
        """Critical drive strength sqrt(omega0^2 + gamma^2)."""
        return math.hypot(self.omega0, self.gamma)


@dataclass(frozen=True)
class SpectralInfo:
    """Liouvillian decay rates lambda± = gamma ± sqrt(epsilon^2 - omega^2)."""

    lambda_minus: complex
    lambda_plus: complex


def spectral_info(params: SystemParams) -> SpectralInfo:
    gamma = params.gamma
    s, k = _s_and_gap(params)
    root = complex(math.sqrt(s)) if s >= 0 else 1j * math.sqrt(-s)
    # Near the critical point gamma - sqrt(s) is the small K / (gamma + sqrt(s)),
    # K = eps_c^2 - eps^2; where s or gamma is 0 the difference is exact.
    lam_minus = complex(k / (gamma + root.real)) if s > 0 and gamma > 0 else gamma - root
    return SpectralInfo(lam_minus, gamma + root)


def drift_and_diffusion(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature-basis drift A and diffusion D of the Lyapunov equation."""
    w, eps, gamma = params.omega0, params.epsilon, params.gamma
    A = np.array([[-gamma, w - eps], [-(w + eps), -gamma]])
    D = 2.0 * gamma * (1.0 + 2.0 * params.n_bath) * np.eye(2)
    return A, D


# --- closed-form propagation helpers ---------------------------------------
# Each helper takes t (or tau) as a float or as a 1-D array of times, and is
# written once for both (see _elementwise). Branches on s are plain `if`s, as
# the parameters are scalars; branches on t go through `select`.

_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for doubles
# The series of _sinhc_slope and _int_texp, lowest order first, for polyval.
_SINHC_SLOPE = np.array([k / math.factorial(2 * k + 1) for k in range(1, 12)])
_INT_TEXP = np.array([(n + 1) / math.factorial(n + 2) for n in range(18)])


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
    of rounded squares they would lose digits in proportion to 1/K.
    DomainError where a square or either sum leaves the double range."""
    w2, e2, g2 = _square(params.omega0), _square(params.epsilon), _square(params.gamma)
    try:
        s, k = math.fsum((*e2, -w2[0], -w2[1])), math.fsum((*w2, *g2, -e2[0], -e2[1]))
    except (OverflowError, ValueError):  # a partial sum overflows, or a square's parts are inf and -inf
        s = k = math.nan
    if not (math.isfinite(s) and math.isfinite(k)):  # or nan
        raise DomainError(f"squared rates leave the double range: {params!r}")
    return s, k


def _decayed_cosh_sinhc(gamma: float, s: float, k: float, tau):
    """Return (e^{-gamma tau} cosh(u tau), e^{-gamma tau} sinh(u tau)/u), u = sqrt(s),
    with k = gamma^2 - s.

    Exponential for s > 0 (the combined form avoids overflow of cosh for
    large u tau), trigonometric for s < 0, the limit at s = 0: as s tau^2 ->
    0 neither cancels (expm1(x)/x, sin(x)/x), so no series is needed.
    """
    f = lib(tau)
    if s > 0:
        u = math.sqrt(s)
        slow = f.exp(-k / (gamma + u) * tau)  # e^{-lambda_- tau}; may exceed 1 above threshold
        c = 0.5 * slow * (1.0 + f.exp(-2.0 * u * tau))
        sc = -slow * f.expm1(-2.0 * u * tau) / (2.0 * u)
        return c, sc
    decay = f.exp(-gamma * tau)
    if s == 0.0:
        return decay, tau * decay
    w = math.sqrt(-s)
    return decay * f.cos(w * tau), decay * f.sin(w * tau) / w


def _sinhc_slope(gamma: float, s: float, tau, c, sc):
    """d/ds of e^{-gamma tau} sinh(u tau)/u, given (c, sc) = _decayed_cosh_sinhc.

    Equal to (tau c - sc) / (2 s), whose two terms cancel for small |s tau^2|;
    there the Taylor series tau^3 sum_k k z^(k-1) / (2k+1)! in z = s tau^2.
    """

    def series(tau, z, c, sc):
        decay = lib(tau).exp(-gamma * tau)
        return select(decay == 0.0, underflowed, terms, decay, tau, z)

    def underflowed(decay, tau, z):  # the slope is 0 too, though tau^3 may overflow
        return decay

    def terms(decay, tau, z):
        return decay * tau ** 3 * polyval(z, _SINHC_SLOPE)

    def closed(tau, z, c, sc):
        return (tau * c - sc) / (2.0 * s)

    z = s * tau * tau
    return select(abs(z) < 1.0, series, closed, tau, z, c, sc)


def _exp_drift(params: SystemParams, c, sc) -> np.ndarray:
    """exp(A t) = c I + sc B, with A = -gamma I + B and B = [[0, omega - eps],
    [-(omega + eps), 0]] (B^2 = s I), from (c, sc) = _decayed_cosh_sinhc at t."""
    w, eps = params.omega0, params.epsilon
    return matrix(c, sc * (w - eps), -sc * (w + eps), c)


def _int_exp(lam: float, t):
    """Integral of e^{-2 lam tau} over [0, t]."""
    return t if lam == 0.0 else -lib(t).expm1(-2.0 * lam * t) / (2.0 * lam)


def _int_texp(lam: float, t):
    """Integral of tau e^{-2 lam tau} over [0, t], i.e. -(d/d lam) _int_exp / 2.

    Equal to t^2 (1 - e^{-x}(1 + x)) / x^2 with x = 2 lam t, whose terms
    cancel for small |x|; there the series t^2 sum_n (n+1) (-x)^n / (n+2)!.
    """

    def series(t, x):
        return t * t * polyval(-x, _INT_TEXP)

    def closed(t, x):
        f = lib(x)
        return (-f.expm1(-x) - x * f.exp(-x)) / (4.0 * lam * lam)

    x = 2.0 * lam * t
    return select(abs(x) < 1.0, series, closed, t, x)


# The series branch of the noise integrals: |s| times the square of the
# effective horizon at most this. The exponential weight cuts the integrals
# off at ~1/gamma, so the horizon is min(t, 2.5 / gamma). Within it the 14th term
# is under 1e-17 of each integral and 3e-15 of each s-slope; past it the closed
# branch loses digits as 1 / (|s| t_eff^2)^2 (QFI up to 8e-14; 1.3e-10 at 2.5e-3).
_SERIES_ST2 = 0.3

# Ic, Is and Iq are sums over k < 14 of (4 s)^k (1, 2, 2) r_j at j = 2k + (0,
# 1, 2), r_j = ∫_0^t τ^j / j! e^{-2 g τ}; the s-slopes take polyder's weights.
_ORDERS = 2 * np.arange(14)[:, None] + np.arange(3)
_WEIGHTS = 4.0 ** np.arange(14)[:, None] * np.array([1.0, 2.0, 2.0])
_NOISE_ORDERS = np.hstack([_ORDERS, np.roll(_ORDERS, -1, axis=0)])
_NOISE_WEIGHTS = np.hstack([_WEIGHTS, np.vstack([polyder(_WEIGHTS), np.zeros((1, 3))])])
_NOISE_POWERS = np.array([1.0, 2.0, 3.0, 3.0, 4.0, 5.0])
_MOMENT_ORDERS = np.arange(1.0, 30.0)  # j + 1, j = 0..28
_MOMENT_LIMITS = 1.0 / np.cumprod(_MOMENT_ORDERS)  # 1 / (j + 1)!


def _is_series(gamma: float, s: float, t):
    t_eff = lib(t).min(t, 2.5 / gamma)
    return abs(s) * t_eff * t_eff <= _SERIES_ST2


def _series_coefficients(gamma: float, t) -> tuple:
    """(C, h): Ic, Is, Iq and their s-slopes at t are h^_NOISE_POWERS
    polyval(s h^2, C), with h = min(t, 1 / (2 gamma)), so that C and s h^2
    are of order 1 in any units.

    With x = 2 gamma t and y = min(x, 1), r_j = h^(j+1) P(j+1, x) / y^(j+1),
    from one call of the regularized incomplete gamma function P. Where
    P(j+1, x) <= x^(j+1) / (j+1)! is not a normal double (x < 3e-10 at
    j = 28), P / x^(j+1) is its x -> 0 limit 1 / (j+1)!, within a relative x.
    """
    from scipy.special import gammainc  # slow to import, and only this branch needs it

    x = 2.0 * gamma * t
    y = lib(x).min(x, 1.0)
    p = gammainc(_MOMENT_ORDERS, per_t(x, 1))
    scaled = np.broadcast_to(_MOMENT_LIMITS, p.shape).copy()
    np.divide(p, per_t(y, 1) ** _MOMENT_ORDERS, out=scaled, where=p >= np.finfo(float).tiny)
    return np.moveaxis(scaled[..., _NOISE_ORDERS] * _NOISE_WEIGHTS, -2, 0), y / (2.0 * gamma)


def _noise_integrals(gamma: float, s: float, k: float, t, slopes: bool = False) -> tuple:
    """Stable evaluation of the four scalar integrals over [0, t] for gamma > 0
    (a lossless flow has no noise), k = gamma^2 - s:

    I0 = ∫ e^{-2 g τ},            Ic = ∫ e^{-2 g τ} cosh(2 u τ),
    Is = ∫ e^{-2 g τ} sinh(2 u τ)/u,   Iq = ∫ e^{-2 g τ} sinh^2(u τ)/u^2,
    with u = sqrt(s) continued analytically through s <= 0. With `slopes`,
    also d/ds of (Ic, Is, Iq) on the same branch; I0 does not depend on s.
    """

    def series(t, i0):
        coefficients, h = _series_coefficients(gamma, t)
        out = polyval(per_t(s * h * h, 1), coefficients, tensor=False) * per_t(h, 1) ** _NOISE_POWERS
        return tuple(out.T) if slopes else tuple(out.T[:3])

    def closed(t, i0):
        split = s > 0.25 * gamma * gamma
        if split:
            # Well split from the exceptional point: exact exponential integrals.
            u = math.sqrt(s)
            em, ep = _int_exp(k / (gamma + u), t), _int_exp(gamma + u, t)
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
            jm, jp = _int_texp(k / (gamma + u), t), _int_texp(gamma + u, t)
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


def _noise_covariance(params: SystemParams, t, noise) -> tuple:
    """(G, dG): the accumulated noise covariance G = ∫_0^t e^{A tau} D
    e^{A^T tau} d tau and its d/d omega, from noise = _noise_integrals(...)
    at t (None for gamma = 0: no noise, G = dG = 0). dG takes the integrals'
    s-slopes times -2 omega, plus the explicit omega in (omega -+ eps)^2; it
    is None when noise comes without its s-slopes."""
    if noise is None:
        zero = np.zeros(np.shape(t) + (2, 2))
        return zero, zero
    w, eps = params.omega0, params.epsilon
    i0, ic, i_s, iq = noise[:4]
    d = 2.0 * params.gamma * (1.0 + 2.0 * params.n_bath)
    ia = 0.5 * (i0 + ic)
    g12 = -d * eps * i_s
    G = matrix(d * (ia + iq * (w - eps) ** 2), g12, g12, d * (ia + iq * (w + eps) ** 2))
    if len(noise) == 4:
        return G, None
    dic, dis, diq = noise[4:]
    g11 = d * (2.0 * iq * (w - eps) - w * (dic + 2.0 * diq * (w - eps) ** 2))
    g22 = d * (2.0 * iq * (w + eps) - w * (dic + 2.0 * diq * (w + eps) ** 2))
    g12 = 2.0 * d * w * eps * dis
    return G, matrix(g11, g12, g12, g22)


def _check_time_shape(t) -> None:
    """DomainError for an array of times that is not 1-D."""
    if isinstance(t, np.ndarray) and t.ndim != 1:
        raise DomainError(f"an array of times must be 1-D, got shape {t.shape}")


def _check_time(t) -> None:
    _check_time_shape(t)
    f = lib(t)
    reject(f.not_(f.isfinite(t)) | (t < 0), DomainError, "time must be >= 0, got {!r}", t)


def _lossless_det(params: SystemParams, state0: GaussianState, t) -> tuple:
    """(det, rounding) of Sigma(t) for a lossless flow (gamma = 0), one per
    t, or (None, None) for a lossy one. Without loss the drift is traceless,
    so det exp(A t) = 1 and det Sigma(t) = det Sigma0 exactly: the start's
    det_sigma, with its det_rounding. Formed from Sigma(t)'s entries it
    would lose every digit once Sigma(t) is strongly squeezed off the axes."""
    if params.gamma > 0:
        return None, None
    # + 0 t: one per t of an array of t.
    return state0.det_sigma + 0.0 * t, state0.det_rounding + 0.0 * t


def _critical_flow(params: SystemParams, state0: GaussianState, t, tangent: bool = True):
    """(state, dv, dSigma): the state evolve_critical returns at t and the
    exact shift derivative of its moments, from one evaluation of s, K,
    (c, sc) and the noise integrals; the state alone without `tangent`. A
    lossless flow gives the state its det (_lossless_det). For a 1-D array
    of t, stacks over t. state0 is one start or a stack of starts: at a float t
    each start evolves for t, and at an array of t, which must be as long as
    the stack, the k-th start evolves for the k-th t.

    The derivative is that of a start that does not depend on the shift: with
    M = c I + sc B, dc/ds = t sc / 2 and d sc/ds = _sinhc_slope, dM = -omega
    t sc I - 2 omega (d sc/ds) B + sc J, and dSigma = dM Sigma0 M^T + M
    Sigma0 dM^T + dG, with dG from _noise_covariance.
    """
    _check_time(t)
    _check_grid(state0, t)
    w, eps, gamma = params.omega0, params.epsilon, params.gamma
    # Below threshold |exp(A t)| <= 1 + |B| t. At and above it exp(A t) grows
    # without bound, and it or its product with sigma can leave the double
    # range: finite_moments makes that the typed error GaussianState gives
    # for non-finite moments. numpy is asked to raise only there, as it
    # slows each matmul. Without loss |exp(A t)| grows as t, and the tangent
    # as t^3: at t near the double range they overflow too, and are guarded
    # alike.
    growing = eps >= params.epsilon_c or gamma == 0
    with quiet(t):
        with finite_moments(strict=growing):
            s, k = _s_and_gap(params)
            c, sc = _decayed_cosh_sinhc(gamma, s, k, t)
            noise = _noise_integrals(gamma, s, k, t, slopes=tangent) if gamma > 0 else None
            G, dG = _noise_covariance(params, t, noise)
            M = _exp_drift(params, c, sc)
            M_T = M.swapaxes(-1, -2)
            v = np.matvec(M, state0.v)
            sigma = M @ state0.sigma @ M_T + G
            if tangent:
                q = _sinhc_slope(gamma, s, t, c, sc)
                dM = matrix(-w * t * sc, sc - 2.0 * w * q * (w - eps), 2.0 * w * q * (w + eps) - sc, -w * t * sc)
                X = dM @ state0.sigma @ M_T
                dv, dsigma = np.matvec(dM, state0.v), X + X.swapaxes(-1, -2) + dG
        state = GaussianState(v, sigma, *_lossless_det(params, state0, t))
    return (state, dv, dsigma) if tangent else state


def evolve_critical(params: SystemParams, state0: GaussianState, t) -> GaussianState:
    """Propagate a Gaussian state for time t under drive and thermal damping.
    A 1-D array of times gives a GaussianState stacked over t. A stacked
    state0 gives a stack too: each start evolved for a float t, or the k-th
    start for the k-th of an array of t as long as the stack."""
    return _critical_flow(params, state0, t, tangent=False)


# --- exact shift tangents ----------------------------------------------------
# d/d omega of the moments that evolve_critical, steady_state and
# evolve_passive return, for a start that does not depend on the shift. The
# drift's derivative is dA/d omega = J; the closed forms above depend on omega
# through s = eps^2 - omega^2 (ds/d omega = -2 omega) and through B (dB/d omega = J).

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _require_steady_state(params: SystemParams) -> None:
    """NoSteadyStateError unless epsilon is below the critical point by more
    than 1e-12 of epsilon_c: at and above it the moments grow without bound."""
    eps_c, eps = params.epsilon_c, params.epsilon
    if eps_c - eps <= 1e-12 * eps_c:
        raise NoSteadyStateError(f"no steady state: epsilon = {eps!r} at or above epsilon_c = {eps_c!r}")


def _steady_flow(params: SystemParams, tangent: bool = True):
    """(state, dv, dSigma): steady_state, whose covariance is Sigma =
    (1 + 2 n_bath)/K [[eps_c^2 - omega eps, -gamma eps], [-gamma eps,
    eps_c^2 + omega eps]] with K = eps_c^2 - eps^2, and the shift derivative
    of its moments, or the state alone without `tangent`. With d(eps_c^2)/d
    omega = 2 omega and dK/d omega = 2 omega, dSigma = (1 + 2 n_bath)/K
    diag(2 omega - eps, 2 omega + eps) - (2 omega/K) Sigma."""
    _require_steady_state(params)
    eps_c, eps, w, gamma = params.epsilon_c, params.epsilon, params.omega0, params.gamma
    k = _s_and_gap(params)[1]
    pref = (1.0 + 2.0 * params.n_bath) / k
    sigma = pref * np.array([[eps_c * eps_c - w * eps, -gamma * eps], [-gamma * eps, eps_c * eps_c + w * eps]])
    state = GaussianState(np.zeros(2), sigma)
    if not tangent:
        return state
    return state, np.zeros(2), pref * np.diag([2.0 * w - eps, 2.0 * w + eps]) - (2.0 * w / k) * sigma


def steady_state(params: SystemParams) -> GaussianState:
    """Stationary Gaussian state for epsilon strictly below the critical point."""
    return _steady_flow(params, tangent=False)


def steady_state_photons(params: SystemParams) -> float:
    """N(∞) = (eps^2 + 2 n_bath eps_c^2) / (2 (eps_c^2 - eps^2))."""
    _require_steady_state(params)
    eps_c, eps = params.epsilon_c, params.epsilon
    return (eps * eps + 2.0 * params.n_bath * eps_c * eps_c) / (2.0 * _s_and_gap(params)[1])


def mean_photons_vs_time(params: SystemParams, t):
    """Photon number at time t starting from equilibrium with the bath.

    t is a float, or a 1-D ndarray of times: then one array evaluation
    returns an array of the same shape, equal to the float calls to
    rounding, and raises as the float call at the first failing t does.
    """
    start = thermal_state(params.n_bath)
    return over_t(lambda t: mean_photons(evolve_critical(params, start, t)), t)


def _passive_flow(params: SystemParams, state0: GaussianState, t, tangent: bool = True):
    """(state, dv, dSigma): evolve_passive's state at t and the shift
    derivative of its moments, or the state alone without `tangent`; for a
    1-D array of t, stacks over t. state0 is one start or a stack of starts,
    paired with t, and a lossless flow gives its det, as in _critical_flow.

    A shift delta rotates the decayed start by -delta t, whose derivative at
    delta = 0 is t J, so dv = t J v and dSigma = e^{-2 gamma t} t (J Sigma0 +
    Sigma0 J^T). The thermal input is rotation-invariant and adds nothing;
    taken from Sigma(t) instead, this would round to 0 once that input
    dominates.
    """
    if params.epsilon != 0.0:
        raise DomainError("evolve_passive requires epsilon = 0")
    _check_time(t)
    _check_grid(state0, t)
    gamma, n_bath = params.gamma, params.n_bath
    with quiet(t):
        decay = lib(t).exp(-gamma * t)
        v = per_t(decay, 1) * state0.v
        relax = -lib(t).expm1(-2.0 * gamma * t)  # 1 - e^{-2 gamma t}
        sigma = per_t(decay * decay, 2) * state0.sigma + per_t(relax * (1.0 + 2.0 * n_bath), 2) * IDENTITY
        state = GaussianState(v, sigma, *_lossless_det(params, state0, t))
        if not tangent:
            return state
        # Without loss the tangent grows as t, and can leave the double range.
        with finite_moments():
            X = per_t(decay * decay * t, 2) * (_J @ state0.sigma)
            return state, per_t(t, 1) * (v @ _J.T), X + X.swapaxes(-1, -2)


def evolve_passive(params: SystemParams, state0: GaussianState, t) -> GaussianState:
    """Free decaying evolution (epsilon = 0) in the frame rotating at omega0.

    Moments follow a(t) = e^{-gamma t} a(0) + thermal input: amplitude decay
    e^{-gamma t} and covariance relaxation toward (1 + 2 n_bath) I, with no
    rotation at zero shift. A detuned run is evolve_critical at epsilon = 0
    with omega0 set to the detuning, in the lab frame. Arrays of times and
    stacks of starts give stacks, as in evolve_critical.
    """
    return _passive_flow(params, state0, t, tangent=False)


# Each evolution's flow: its moments with their exact shift derivative, from
# one evaluation. Keyed by the evolution itself, which
# metrology.differentiate_at_zero_shift finds by identity.
_FLOWS = {evolve_critical: _critical_flow, evolve_passive: _passive_flow, steady_state: _steady_flow}
