"""End-to-end protocol evaluation under a photon budget.

Two strategies for estimating the frequency shift of a damped cavity:

* CQS: drive the mode toward the critical point from equilibrium with the
  bath, let the transient build up squeezing, measure late.
* PQS: prepare a displaced squeezed (thermal) state saturating the photon
  budget, evolve freely, measure.

The module evaluates single-shot quantum and homodyne Fisher information for
both, optimizes evaluation times under preparation/measurement overhead, and
gates every report against the dissipative precision bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from . import dynamics
from .dynamics import SystemParams, evolve_critical, evolve_passive, spectral_info, steady_state
from .errors import ConstraintError, CritsenseError, DomainError, SearchError, UnsupportedRegimeError
from .gaussian import (
    DisplacementAmplitude,
    GaussianState,
    SqueezeParam,
    apply_displace,
    apply_squeeze,
    mean_photons,
    thermal_state,
)
from .metrology import (
    DerivativePair,
    differentiate_at_zero_shift,
    fi_homodyne,
    qfi,
)


# A drive set to its cap by epsilon_opt rounds epsilon, and the photon count's
# condition number in epsilon is ~4 n_max, so the budget checks allow 1e-9 plus
# 8 n_max eps (relative): the excess of epsilon_opt(n_max)'s own drive reached
# 4.06 n_max eps over 4e4 random draws with n_max up to 2e9.
def _budget_limit(n_max: float) -> float:
    """The most photons a budget of n_max admits."""
    return n_max * (1.0 + 1e-9 + 8.0 * n_max * sys.float_info.epsilon)


class ProtocolKind(str, Enum):
    CQS = "CQS"
    PQS = "PQS"


@dataclass(frozen=True)
class ResourceBudget:
    """Photon cap, total protocol time, and per-repetition overhead."""

    n_max: float
    total_time: float
    t_pm: float = 0.0

    def __post_init__(self):
        if not (self.n_max > 0 and math.isfinite(self.n_max)):
            raise DomainError(f"n_max must be positive, got {self.n_max!r}")
        if not (self.total_time > 0 and math.isfinite(self.total_time)):
            raise DomainError(f"total_time must be positive, got {self.total_time!r}")
        if not (self.t_pm >= 0 and math.isfinite(self.t_pm)):
            raise DomainError(f"t_pm must be >= 0, got {self.t_pm!r}")


def default_pqs_input(n_max: float, n_bath: float = 0.0) -> tuple[DisplacementAmplitude, SqueezeParam]:
    """Budget-saturating squeezed vacuum on top of the bath occupation."""
    if n_max <= n_bath:
        raise ConstraintError(
            f"photon cap {n_max!r} does not exceed the bath occupation {n_bath!r}"
        )
    r = math.asinh(math.sqrt((n_max - n_bath) / (1.0 + 2.0 * n_bath)))
    return DisplacementAmplitude(0.0), SqueezeParam(r)


def pqs_input_state(
    alpha: DisplacementAmplitude, squeeze: SqueezeParam, n_bath: float = 0.0
) -> GaussianState:
    """Displaced squeezed thermal state D(alpha) S(r) rho_bath S† D†."""
    return apply_displace(apply_squeeze(thermal_state(n_bath), squeeze), alpha)


@dataclass(frozen=True)
class ProtocolSpec:
    """A strategy, its physical parameters, and the resource budget."""

    kind: ProtocolKind
    params: SystemParams
    budget: ResourceBudget
    pqs_input: tuple[DisplacementAmplitude, SqueezeParam] | None = None

    def __post_init__(self):
        kind = ProtocolKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is ProtocolKind.PQS:
            if self.params.epsilon != 0.0:
                raise DomainError("PQS requires epsilon = 0")
            pqs_input = self.pqs_input
            if pqs_input is None:
                pqs_input = default_pqs_input(self.budget.n_max, self.params.n_bath)
                object.__setattr__(self, "pqs_input", pqs_input)
            photons = mean_photons(
                pqs_input_state(pqs_input[0], pqs_input[1], self.params.n_bath)
            )
            if photons > _budget_limit(self.budget.n_max):
                raise ConstraintError(
                    f"input state holds {photons!r} photons, budget allows {self.budget.n_max!r}"
                )
        else:
            eps, eps_c = self.params.epsilon, self.params.epsilon_c
            if eps < eps_c * (1.0 - 1e-12):
                photons = dynamics.steady_state_photons(self.params)
                if photons > _budget_limit(self.budget.n_max):
                    raise ConstraintError(
                        f"steady state holds {photons!r} photons, budget allows {self.budget.n_max!r}"
                    )
            elif self.params.gamma > 0:
                raise UnsupportedRegimeError(
                    "lossy drive at or above the critical point heats without bound"
                )

    def input_state(self) -> GaussianState:
        if self.kind is ProtocolKind.PQS:
            alpha, squeeze = self.pqs_input
            return pqs_input_state(alpha, squeeze, self.params.n_bath)
        return thermal_state(self.params.n_bath)

    def pair(self, t: float) -> DerivativePair:
        """State and shift-derivative of one repetition measured at time t."""
        if self.kind is ProtocolKind.CQS:
            return cqs_pair(self.params, t)
        alpha, squeeze = self.pqs_input
        return pqs_pair(alpha, squeeze, self.params, t)

    def qfi(self, t):
        """Single-shot QFI of one repetition measured at t, qfi(pair(t)).

        t is a float, or a 1-D ndarray of times: then one array evaluation
        returns an array of the same shape, equal to the float calls to
        rounding, and raises as the float call at the first failing t does.
        """
        return _qfi(self.pair, t)


@dataclass(frozen=True)
class MetrologyReport:
    """Single-run summary: information quantities, resources, bound check."""

    qfi_single_shot: float
    fi_homodyne_best: float
    best_psi: float
    photons_at_t: float
    repetitions: float
    total_qfi: float
    bound_value: float
    t_opt: float


# --- derivative pairs ----------------------------------------------------------


def _qfi(pair_at: Callable, t):
    """qfi(pair_at(t)) for a float t; for a 1-D array of t, one array
    evaluation of the same closed forms. Its non-finite intermediates are
    caught by the rules, so numpy is not asked to warn of them. An array that
    raises is evaluated again one float at a time: the error raised is then
    the float path's own at the first failing t."""
    if not isinstance(t, np.ndarray):
        return qfi(pair_at(t))
    try:
        with np.errstate(all="ignore"):
            return qfi(pair_at(t))
    except CritsenseError:
        for t_k in t.tolist():
            qfi(pair_at(t_k))
        raise


def cqs_pair(params: SystemParams, t: float) -> DerivativePair:
    """State and shift-derivative of the driven protocol at time t."""
    return differentiate_at_zero_shift(evolve_critical, params, thermal_state(params.n_bath), t)


def cqs_qfi(params: SystemParams, t):
    """Single-shot QFI of the driven protocol started from bath equilibrium.

    t is a float, or a 1-D ndarray of times: then one array evaluation
    returns an array of the same shape, equal to the float calls to
    rounding, and raises as the float call at the first failing t does.
    """
    return _qfi(lambda t: cqs_pair(params, t), t)


def cqs_steady_pair(params: SystemParams) -> DerivativePair:
    return differentiate_at_zero_shift(steady_state, params)


def cqs_qfi_steady(params: SystemParams) -> float:
    """QFI of the stationary state family (the long-time limit of cqs_qfi)."""
    return qfi(cqs_steady_pair(params))


def pqs_pair(
    alpha: DisplacementAmplitude,
    squeeze: SqueezeParam,
    params: SystemParams,
    t: float,
) -> DerivativePair:
    """State and shift-derivative of the passive protocol at time t."""
    if params.epsilon != 0.0:
        raise DomainError("the passive protocol requires epsilon = 0")
    start = pqs_input_state(alpha, squeeze, params.n_bath)
    return differentiate_at_zero_shift(evolve_passive, params, start, t)


def pqs_qfi(
    alpha: DisplacementAmplitude,
    squeeze: SqueezeParam,
    params: SystemParams,
    t,
):
    """Single-shot QFI of the passive protocol.

    t is a float, or a 1-D ndarray of times: then one array evaluation
    returns an array of the same shape, equal to the float calls to
    rounding, and raises as the float call at the first failing t does.
    """
    return _qfi(lambda t: pqs_pair(alpha, squeeze, params, t), t)


def best_homodyne(pair: DerivativePair) -> tuple[float, float]:
    """Maximize the homodyne Fisher information over the quadrature angle.

    Returns (psi, fi) with 0 <= psi < pi. With sigma = L L^T, a = L^-1 dv,
    B = L^-1 dsigma L^-T and w = (cos theta, sin theta) proportional to L^T u
    for the quadrature u = (cos psi, -sin psi), FI = 2 (w.a)^2 + (w^T B w)^2 / 2,
    a degree-2 trigonometric polynomial in x = 2 theta. Its stationary points
    are the roots of one quartic in z = e^{ix}; the best of them and psi = 0
    is returned, so a flat FI gives psi = 0.
    """
    white = pair.whitened
    # FI is quadratic in (a, B): scaling both to unit size moves no stationary
    # point and leaves max FI >= 1/2, so harmonics below 1e-15 can be dropped,
    # which keeps np.roots' division by the leading coefficient finite.
    coeffs = (white.a1, white.a2, white.b11, white.b12, white.b22)
    scale = max(map(abs, coeffs)) or 1.0
    a1, a2, b11, b12, b22 = (x / scale for x in coeffs)
    # (w.a)^2 = |a|^2/2 + p1 cos x + p2 sin x,  w^T B w = q0 + q1 cos x + q2 sin x.
    p1, p2 = 0.5 * (a1 * a1 - a2 * a2), a1 * a2
    q0, q1, q2 = 0.5 * (b11 + b22), 0.5 * (b11 - b22), b12
    # dFI/dx = c1 cos x + s1 sin x + c2 cos 2x + s2 sin 2x, times 2 z^2.
    c1, s1 = 2.0 * p2 + q0 * q2, -2.0 * p1 - q0 * q1
    c2, s2 = q1 * q2, 0.5 * (q2 * q2 - q1 * q1)
    quartic = np.array([c2 - 1j * s2, c1 - 1j * s1, 0.0, c1 + 1j * s1, c2 + 1j * s2])
    theta = 0.5 * np.angle(np.roots(np.where(abs(quartic) > 1e-15, quartic, 0.0)))
    # u = L^-T (cos theta, sin theta) by back-substitution.
    u2 = np.sin(theta) / white.l22
    u1 = (np.cos(theta) - white.l21 * u2) / white.l11
    # psi mod pi; a psi just below 0 can round up to pi itself.
    psis = (np.arctan2(-u2, u1) % math.pi).tolist()
    candidates = [0.0] + [psi if psi < math.pi else 0.0 for psi in psis]
    return max(((psi, fi_homodyne(pair, psi)) for psi in candidates), key=lambda result: result[1])


# --- optimizers ---------------------------------------------------------------


_SCAN_POINTS = 128


def _scan_then_polish(f: Callable, t_lo: float, t_hi: float) -> tuple[float, float]:
    grid = np.geomspace(t_lo, t_hi, _SCAN_POINTS)
    # One call scans the whole grid; a scalar result stands for every t.
    values = np.broadcast_to(np.asarray(f(grid), dtype=float), grid.shape)
    finite = np.isfinite(values)
    if not finite.all():
        raise SearchError(f"objective is not finite at t = {grid[int(np.argmin(finite))]!r}")
    i = int(np.argmax(values))
    # The float path decides from here on: the best grid point's value is
    # taken from it, like every value of the polish.
    best = f(float(grid[i]))
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, _SCAN_POINTS - 1)])
    # Imported here: scipy.optimize adds ~0.35 s to the package's import time.
    from scipy.optimize import minimize_scalar

    polish = minimize_scalar(
        lambda t: -f(float(t)), bounds=(lo, hi), method="bounded", options={"xatol": 1e-6 * hi}
    )
    # A grid point stands unless the polish strictly improves on it.
    if -polish.fun <= best:
        return float(grid[i]), float(best)
    return float(polish.x), float(-polish.fun)


def maximize_single_shot(rate_fn: Callable, bracket: tuple[float, float]) -> tuple[float, float]:
    """Maximize rate_fn(t) itself over a positive bracket.

    rate_fn takes a float or an ndarray of t and returns the same shape (a
    scalar for an array is taken at every t). The search is that of
    optimize_time.
    """
    t_lo, t_hi = bracket
    if not (0 < t_lo < t_hi):
        raise DomainError("bracket must satisfy 0 < t_lo < t_hi")
    return _scan_then_polish(rate_fn, t_lo, t_hi)


def optimize_time(
    rate_fn: Callable,
    budget: ResourceBudget,
    bracket: tuple[float, float],
) -> tuple[float, float]:
    """Maximize the repetition-rate objective rate_fn(t) / (t + t_pm).

    rate_fn is the single-shot information of one repetition measured at t,
    e.g. `spec.qfi`. It takes a float or an ndarray of t and returns the same
    shape. One call with the whole _SCAN_POINTS (128) log-grid of the bracket
    scans it; the best grid point is evaluated again as a float, and scipy's
    bounded scalar minimizer polishes between its two neighbours, calling
    rate_fn with floats, to 1e-6 of the upper neighbour in t. The grid point
    stands unless that polish strictly improves on it. A non-finite grid
    value raises SearchError naming the first such t. A maximum at a bracket
    edge is returned as that edge, with no flag. Returns (t_opt, best
    objective value).
    """
    t_lo, t_hi = bracket
    if not (0 < t_lo < t_hi):
        raise DomainError("bracket must satisfy 0 < t_lo < t_hi")
    t_pm = budget.t_pm

    def objective(t):
        return rate_fn(t) / (t + t_pm)

    return _scan_then_polish(objective, t_lo, t_hi)


# --- closed-form protocol optima ---------------------------------------------


def epsilon_opt(n_max: float, params: SystemParams) -> float:
    """Drive strength whose steady state holds exactly n_max photons.

    Solves N(inf) = n_max: epsilon^2 = 2 (n_max - n_bath)/(1 + 2 n_max) eps_c^2;
    at zero temperature this is the familiar sqrt(2N/(1+2N)) eps_c.
    """
    if n_max <= params.n_bath:
        raise ConstraintError(
            f"photon cap {n_max!r} does not exceed the bath occupation {params.n_bath!r}"
        )
    eps_c = params.epsilon_c
    return math.sqrt(2.0 * (n_max - params.n_bath) / (1.0 + 2.0 * n_max)) * eps_c


def optimal_squeezing_homodyne(n_max: float, gamma: float, t: float) -> SqueezeParam:
    """Squeezing maximizing the p-quadrature homodyne FI at zero temperature.

    The optimum of 4 alpha^2 t^2 / (e^{-2r} + e^{2 gamma t} - 1) under
    alpha^2 = n_max - sinh^2 r is e^{2r} = (sqrt(e^{4gt} + 4 n_max (e^{2gt}-1)) - 1)
    / (e^{2gt} - 1).
    """
    if not (gamma > 0 and t > 0):
        raise DomainError("optimal squeezing needs gamma * t > 0")
    if n_max <= 0:
        raise DomainError("n_max must be positive")
    # e^{2r} = (sqrt(e^{4gt} + 4N(e^{2gt}-1)) - 1)/(e^{2gt}-1), rescaled by
    # e^{-2gt} to stay finite for large gamma t.
    q = math.exp(-2.0 * gamma * t)
    den = -math.expm1(-2.0 * gamma * t)
    y = (math.sqrt(1.0 + 4.0 * n_max * q * den) - q) / den
    r = 0.5 * math.log(y)
    if math.sinh(r) ** 2 > n_max:
        raise ConstraintError(
            f"optimal squeezing sinh^2(r) = {math.sinh(r)**2!r} exceeds the budget {n_max!r}"
        )
    return SqueezeParam(max(r, 0.0))


def beyond_threshold_epsilon(n_max: float, total_time: float, omega0: float) -> float:
    """Above-threshold drive reaching n_max photons after total_time (lossless).

    From N(T) ~ e^{2 u T}/4: epsilon^2 = omega0^2 + ln^2(4 n_max)/(4 T^2).
    """
    if n_max <= 0 or total_time <= 0:
        raise DomainError("n_max and total_time must be positive")
    u = math.log(4.0 * n_max) / (2.0 * total_time)
    return math.hypot(omega0, u)


def beyond_threshold_qfi(params: SystemParams, t: float) -> float:
    """QFI of the lossless quench above the critical point."""
    if params.gamma > 0:
        raise UnsupportedRegimeError(
            "above-threshold drive with losses heats without bound; no validity claim"
        )
    if params.n_bath != 0:
        raise DomainError("the quench analysis assumes a zero-temperature start")
    if params.epsilon <= params.epsilon_c:
        raise DomainError(
            f"epsilon = {params.epsilon!r} is not above the critical point {params.epsilon_c!r}"
        )
    return cqs_qfi(params, t)


# --- resource accounting and bounds -------------------------------------------


class BoundResult(NamedTuple):
    integral: float
    cap: float


def _bound_rate(n: float, total_time: float, gamma: float, n_bath: float) -> float:
    """2 N T / (gamma (1 + 2 n_bath - n_bath/(N+1))): the bound for N photons
    held over a time T (T = 1.0 gives the integrand)."""
    return 2.0 * n * total_time / (gamma * (1.0 + 2.0 * n_bath - n_bath / (n + 1.0)))


def fundamental_bound(
    photon_traj: Callable[[float], float],
    total_time: float,
    gamma: float,
    n_bath: float = 0.0,
) -> BoundResult:
    """Dissipative precision bound on the total QFI over a time budget.

    integral: ∫_0^T 2 N(t) / (gamma (1 + 2 n_bath - n_bath/(N(t)+1))) dt,
    cap: the same expression with N frozen at its supremum over the window.
    Both are infinite in the lossless limit gamma = 0.
    """
    if total_time <= 0:
        raise DomainError("total_time must be positive")
    if gamma < 0 or n_bath < 0:
        raise DomainError("gamma and n_bath must be >= 0")
    if gamma == 0:
        return BoundResult(math.inf, math.inf)

    sup_n = 0.0

    def integrand(t: float) -> float:
        nonlocal sup_n
        n = photon_traj(t)
        if not math.isfinite(n) or n < 0:
            raise DomainError(f"photon trajectory must be >= 0, got {n!r} at t = {t!r}")
        sup_n = max(sup_n, n)
        return _bound_rate(n, 1.0, gamma, n_bath)

    # Imported here: scipy.integrate adds ~40% to the package's import time.
    from scipy.integrate import quad

    # quad samples only interior points; the endpoints complete sup_n.
    integrand(0.0)
    integrand(total_time)
    integral, _ = quad(integrand, 0.0, total_time, epsabs=0.0, epsrel=1e-10, limit=200)
    return BoundResult(integral, _bound_rate(sup_n, total_time, gamma, n_bath))


def budget_cap(budget: ResourceBudget, gamma: float, n_bath: float = 0.0) -> float:
    """Bound cap evaluated at the photon budget: 2 N_max T / (gamma (1+2n_B - ...))."""
    if gamma == 0:
        return math.inf
    return _bound_rate(budget.n_max, budget.total_time, gamma, n_bath)


def total_qfi(spec: ProtocolSpec, t_single: float) -> MetrologyReport:
    """Repetition-budget report: M = T/(t + t_pm) repetitions of duration
    t_single, each measured at t_single (the report's t_opt)."""
    return _report_and_pair(spec, t_single)[0]


def _report_and_pair(spec: ProtocolSpec, t_single: float) -> tuple[MetrologyReport, DerivativePair]:
    """total_qfi's report and the derivative pair it was read from, for a
    caller that reads more off that pair (the FI at a homodyne angle of its
    own) without evaluating it again."""
    if not (t_single > 0 and math.isfinite(t_single)):
        raise DomainError(f"t_single must be positive, got {t_single!r}")
    pair = spec.pair(t_single)
    photons = mean_photons(pair.state)
    if photons > _budget_limit(spec.budget.n_max):
        raise ConstraintError(
            f"protocol holds {photons!r} photons at t = {t_single!r}, "
            f"budget allows {spec.budget.n_max!r}"
        )
    info = qfi(pair)
    psi, fi_best = best_homodyne(pair)
    reps = spec.budget.total_time / (t_single + spec.budget.t_pm)
    total = reps * info
    bound = budget_cap(spec.budget, spec.params.gamma, spec.params.n_bath)
    if not total <= bound * (1.0 + 1e-6):  # a NaN total fails too
        raise ConstraintError(
            f"total QFI {total!r} violates the dissipative bound {bound!r}"
        )
    report = MetrologyReport(
        qfi_single_shot=info,
        fi_homodyne_best=fi_best,
        best_psi=psi,
        photons_at_t=photons,
        repetitions=reps,
        total_qfi=total,
        bound_value=bound,
        t_opt=t_single,
    )
    return report, pair


def steady_time(params: SystemParams) -> float:
    """Operational steady-state horizon: 12 decay times of the slow mode."""
    lam = spectral_info(params).lambda_minus.real
    if lam <= 0:
        raise DomainError("no finite steady-state time at or above the critical point")
    return 12.0 / lam
