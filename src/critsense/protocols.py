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
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from . import dynamics
from ._elementwise import lib, over_t, per_t, reject
from .dynamics import SystemParams, evolve_critical, evolve_passive, steady_state
from .errors import AccuracyError, ConstraintError, DomainError, NoSteadyStateError, SearchError
from .gaussian import (DisplacementAmplitude, GaussianState, SqueezeParam, _check_occupation, apply_displace,
                       apply_squeeze, mean_photons, thermal_state)
from .metrology import DerivativePair, differentiate_at_zero_shift, fi_homodyne, qfi


# A drive set to its cap by epsilon_opt rounds epsilon, and the photon count's
# condition number in epsilon is ~4 n_max, so the budget check allows 1e-9 plus
# 8 n_max eps (relative): the excess of epsilon_opt(n_max)'s own drive reached
# 4.06 n_max eps over 4e4 random draws with n_max up to 2e9.
def _check_budget(photons, n_max: float, message: str, *where) -> None:
    """ConstraintError where photons (a float, or an array over t) exceed
    what a budget of n_max admits. message formats photons as {0}, n_max as
    {1} and the values of `where` after them, at the first such t."""
    limit = n_max * (1.0 + 1e-9 + 8.0 * n_max * sys.float_info.epsilon)
    reject(photons > limit, ConstraintError, message, photons, n_max, *where)


def _require_cap_above_bath(n_max: float, n_bath: float) -> None:
    """ConstraintError unless the photon cap exceeds the bath occupation."""
    if n_max <= n_bath:
        raise ConstraintError(f"photon cap {n_max!r} does not exceed the bath occupation {n_bath!r}")


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
    """Budget-saturating squeezed vacuum on top of the bath occupation;
    DomainError for an n_bath that thermal_state refuses."""
    _check_occupation(n_bath)
    _require_cap_above_bath(n_max, n_bath)
    r = math.asinh(math.sqrt((n_max - n_bath) / (1.0 + 2.0 * n_bath)))
    return DisplacementAmplitude(0.0), SqueezeParam(r)


def pqs_input_state(
    alpha: DisplacementAmplitude, squeeze: SqueezeParam, n_bath: float = 0.0
) -> GaussianState:
    """Displaced squeezed thermal state D(alpha) S(r) rho_bath S† D†; a
    GaussianState stacked over t, one state per t, where alpha's magnitude
    or r is an array over t (both of one length)."""
    return apply_displace(apply_squeeze(thermal_state(n_bath), squeeze), alpha)


@dataclass(frozen=True)
class ProtocolSpec:
    """A strategy, its physical parameters, and the resource budget. The kind
    sets `start` (the bath's thermal state for CQS, the PQS input state) and
    `evolution` (evolve_critical or evolve_passive) once, at construction;
    neither takes part in repr or equality.

    `photons` and `total_qfi` check the photons at each t they evaluate,
    for every kind and drive; construction also checks a PQS input, and the
    steady state of a CQS drive below the critical point.

    A PQS input whose displacement magnitude and r are arrays over a time
    grid gives one start per t of that grid (a stacked GaussianState), each
    within the budget, and the spec is evaluated at that grid: photons(grid),
    pair(grid). Such a spec compares equal to one with equal arrays, and is
    not hashable.
    """

    kind: ProtocolKind
    params: SystemParams
    budget: ResourceBudget
    pqs_input: tuple[DisplacementAmplitude, SqueezeParam] | None = None
    start: GaussianState = field(init=False, repr=False, compare=False)
    evolution: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            kind = ProtocolKind(self.kind)
        except ValueError:
            raise DomainError(f"kind must be one of {[k.value for k in ProtocolKind]}, got {self.kind!r}") from None
        object.__setattr__(self, "kind", kind)
        if kind is ProtocolKind.PQS:
            if self.params.epsilon != 0.0:
                raise DomainError("PQS requires epsilon = 0")
            pqs_input = self.pqs_input
            if pqs_input is None:
                pqs_input = default_pqs_input(self.budget.n_max, self.params.n_bath)
                object.__setattr__(self, "pqs_input", pqs_input)
            start = pqs_input_state(pqs_input[0], pqs_input[1], self.params.n_bath)
            photons = mean_photons(start)
            _check_budget(photons, self.budget.n_max, "input state holds {0!r} photons, budget allows {1!r}")
            evolution = evolve_passive
        else:
            try:
                photons = dynamics.steady_state_photons(self.params)
            except NoSteadyStateError:
                pass
            else:
                _check_budget(photons, self.budget.n_max, "steady state holds {0!r} photons, budget allows {1!r}")
            start, evolution = thermal_state(self.params.n_bath), evolve_critical
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "evolution", evolution)

    def photons(self, t, state: GaussianState | None = None):
        """Mean photons of the state at t (a float, or an array over t), of
        `state` when the caller has evolved it already; ConstraintError at
        the first t where they exceed the budget."""
        photons = mean_photons(self.evolution(self.params, self.start, t) if state is None else state)
        _check_budget(photons, self.budget.n_max, "protocol holds {0!r} photons at t = {2!r}, budget allows {1!r}", t)
        return photons

    def pair(self, t) -> DerivativePair:
        """State and shift-derivative of one repetition measured at time t;
        stacked over t for a 1-D array of times."""
        return differentiate_at_zero_shift(self.evolution, self.params, self.start, t)

    def qfi(self, t):
        """Single-shot QFI of one repetition measured at t, qfi(pair(t)).

        t is a float, or a 1-D ndarray of times: then one array evaluation
        returns an array of the same shape, equal to the float calls to
        rounding, and raises as the float call at the first failing t does.
        """
        return over_t(lambda t, spec: qfi(spec.pair(t)), t, self)


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


# --- single-shot QFI ----------------------------------------------------------


def cqs_qfi(params: SystemParams, t):
    """Single-shot QFI of the driven protocol started from bath equilibrium.

    t is a float, or a 1-D ndarray of times: then one array evaluation
    returns an array of the same shape, equal to the float calls to
    rounding, and raises as the float call at the first failing t does.
    """
    start = thermal_state(params.n_bath)
    return over_t(lambda t: qfi(differentiate_at_zero_shift(evolve_critical, params, start, t)), t)


def cqs_qfi_steady(params: SystemParams) -> float:
    """QFI of the stationary state family (the long-time limit of cqs_qfi)."""
    return qfi(differentiate_at_zero_shift(steady_state, params))


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

    def evaluate(t, alpha, squeeze):
        start = pqs_input_state(alpha, squeeze, params.n_bath)
        return qfi(differentiate_at_zero_shift(evolve_passive, params, start, t))

    return over_t(evaluate, t, alpha, squeeze)


def _eigvals(companion: np.ndarray, poly) -> np.ndarray:
    """The real parts of the eigenvalues of each of a stack of companion
    matrices: one call of np.linalg.eigvals' own LAPACK gufunc, without
    eigvals' input checks and error state, which cost more than the call
    for a 4 x 4 matrix. best_homodyne's companions are finite
    (coefficients of at most 6 over a leading one above 1e-15); an
    eigenvalue that does not converge comes back nan, and raises
    AccuracyError naming the first row of poly it belongs to."""
    eigenvalues = _umath_linalg.eigvals(companion, signature="d->D").real
    if not np.isfinite(eigenvalues).all():
        row = poly[np.argmin(np.isfinite(eigenvalues).all(axis=1))]
        raise AccuracyError(f"the homodyne angles' quartic {row.tolist()!r} has roots that did not converge")
    return eigenvalues


def _roots(poly: np.ndarray) -> np.ndarray:
    """For a stack of real quartics of shape (n, 5), the real parts of each
    row's roots, (n, 4): one _eigvals call per shape of the companion
    matrices np.roots builds, so a row's are np.roots' own, its exact zeros
    for trailing zero coefficients included, then +inf for each root a
    leading 0 drops (a root of the quartic at infinity); an all-zero row is
    0 throughout. A row's roots do not depend on the other rows: one
    quartic's are those of a stack of one."""
    nonzero = poly != 0
    lead, stop = nonzero.argmax(axis=1), 5 - nonzero[:, ::-1].argmax(axis=1)
    roots = np.where(np.arange(4) >= 4 - lead[:, None], math.inf, 0.0)
    for first, end in set(zip(lead.tolist(), stop.tolist())):
        # nonzero[:, first] leaves out the zero rows, whose first and end are 0 and 5.
        rows = (lead == first) & (stop == end) & nonzero[:, first]
        coeffs, degree = poly[rows, first:end], end - first - 1
        if degree > 0:
            companion = np.zeros((len(coeffs), degree, degree))
            companion[:, 1:, :-1] = np.eye(degree - 1)
            companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
            roots[rows, :degree] = _eigvals(companion, coeffs)
    return roots


# Candidates whose FI is within this relative distance of the best tie: far
# above fi_homodyne's rounding at a peak (~1e-15), far below a real difference.
_TIE = 1e-12


def best_homodyne(pair: DerivativePair):
    """Maximize the homodyne Fisher information over the quadrature angle.

    Returns (psi, fi) with 0 <= psi < pi: floats for one pair, arrays over
    t for a stack. With sigma = L L^T, a = L^-1 dv,
    B = L^-1 dsigma L^-T and w = (cos theta, sin theta) proportional to L^T u
    for the quadrature u = (cos psi, -sin psi), FI = 2 (w.a)^2 + (w^T B w)^2 / 2,
    a degree-2 trigonometric polynomial in x = 2 theta. Its stationary points
    are the roots of one real quartic in tan theta, and theta = pi/2 where
    its leading coefficient vanishes (_roots gives that dropped root as
    +inf). Of them and psi = 0, those whose FI is within a relative _TIE of
    the best tie, and the smallest psi of them is returned with its FI: a
    flat FI gives psi = 0, and a last-bit change cannot swap the two equal
    peaks of a pure state.
    """
    white = pair.whitened
    # FI is quadratic in (a, B): scaling both to unit size moves no stationary
    # point and leaves max FI >= 1/2, so harmonics below 1e-15 can be dropped,
    # which keeps _roots' division by the leading coefficient finite.
    coeffs = (white.a1, white.a2, white.b11, white.b12, white.b22)
    f = lib(white.mu)
    scale = f.max(*map(abs, coeffs))
    scale = f.where(scale == 0.0, 1.0, scale)
    a1, a2, b11, b12, b22 = (x / scale for x in coeffs)
    # (w.a)^2 = |a|^2/2 + p1 cos x + p2 sin x,  w^T B w = q0 + q1 cos x + q2 sin x.
    p1, p2 = 0.5 * (a1 * a1 - a2 * a2), a1 * a2
    q0, q1, q2 = 0.5 * (b11 + b22), 0.5 * (b11 - b22), b12
    # dFI/dx = c1 cos x + s1 sin x + c2 cos 2x + s2 sin 2x, times (1 + u^2)^2 for u = tan theta.
    c1, s1 = 2.0 * p2 + q0 * q2, -2.0 * p1 - q0 * q1
    c2, s2 = q1 * q2, 0.5 * (q2 * q2 - q1 * q1)
    quartic = (c2 - c1, 2.0 * s1 - 4.0 * s2, -6.0 * c2, 2.0 * s1 + 4.0 * s2, c1 + c2)
    quartic = [f.where(abs(x) > 1e-15, x, 0.0) for x in quartic]
    # tan theta of 0 (psi = 0) and of the stationary points, one row per t;
    # one pair's quartic is a stack of one.
    roots = _roots(np.reshape(quartic, (5, -1)).T)
    candidates = np.concatenate([np.zeros((len(roots), 1)), roots], axis=1)
    # theta = arctan of each, pi/2 for the root at infinity that c2 = c1
    # drops; u = L^-T (cos theta, sin theta) by back-substitution.
    theta = np.arctan(candidates)
    u2 = np.sin(theta) / per_t(white.l22, 1)
    u1 = (np.cos(theta) - per_t(white.l21, 1) * u2) / per_t(white.l11, 1)
    # psi mod pi; a psi just below 0 can round up to pi itself.
    psis = np.arctan2(-u2, u1) % math.pi
    psis = np.where(psis < math.pi, psis, 0.0)
    if not isinstance(white.mu, np.ndarray):
        results = [(psi, fi_homodyne(pair, psi)) for psi in psis[0].tolist()]
        top = max(fi for _, fi in results)
        return min(result for result in results if result[1] >= top * (1.0 - _TIE))
    values = np.array([fi_homodyne(pair, psi) for psi in psis.T])
    best = np.where(values >= values.max(axis=0) * (1.0 - _TIE), psis.T, math.inf).argmin(axis=0)
    columns = np.arange(len(best))
    return psis[columns, best], values[best, columns]


# --- optimizers ---------------------------------------------------------------


_SCAN_POINTS = 128


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
    if not (0 < t_lo < t_hi < math.inf):
        raise DomainError("bracket must satisfy 0 < t_lo < t_hi < inf")
    t_pm = budget.t_pm

    def objective(t):
        return rate_fn(t) / (t + t_pm)

    grid = np.geomspace(t_lo, t_hi, _SCAN_POINTS)
    # One call scans the whole grid.
    values = objective(grid)
    finite = np.isfinite(values)
    if not finite.all():
        raise SearchError(f"objective is not finite at t = {grid[int(np.argmin(finite))]!r}")
    i = int(np.argmax(values))
    # The float path decides from here on: the best grid point's value is
    # taken from it, like every value of the polish.
    best = objective(float(grid[i]))
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, _SCAN_POINTS - 1)])
    # Imported here: scipy.optimize adds ~0.35 s to the package's import time.
    from scipy.optimize import minimize_scalar

    polish = minimize_scalar(
        lambda t: -objective(float(t)), bounds=(lo, hi), method="bounded", options={"xatol": 1e-6 * hi}
    )
    # A grid point stands unless the polish strictly improves on it.
    if -polish.fun <= best:
        return float(grid[i]), float(best)
    return float(polish.x), float(-polish.fun)


# --- closed-form protocol optima ---------------------------------------------


def epsilon_opt(n_max: float, params: SystemParams) -> float:
    """Drive strength whose steady state holds exactly n_max photons.

    Solves N(inf) = n_max: epsilon^2 = 2 (n_max - n_bath)/(1 + 2 n_max) eps_c^2;
    at zero temperature this is the familiar sqrt(2N/(1+2N)) eps_c.
    """
    if not math.isfinite(n_max):
        raise DomainError(f"n_max must be finite, got {n_max!r}")
    _require_cap_above_bath(n_max, params.n_bath)
    # The factor 2 taken out of both sides is exact, so this is the quotient
    # above bit for bit, and finite up to the largest n_max.
    return math.sqrt((n_max - params.n_bath) / (0.5 + n_max)) * params.epsilon_c


def optimal_homodyne_input(n_max: float, gamma: float, t) -> tuple[DisplacementAmplitude, SqueezeParam]:
    """The PQS input maximizing the p-quadrature homodyne FI at t at zero
    temperature: the optimal squeezing, displaced to fill the rest of the
    photon budget.

    The optimum of 4 alpha^2 t^2 / (e^{-2r} + e^{2 gamma t} - 1) under
    alpha^2 = n_max - sinh^2 r is e^{2r} = (sqrt(e^{4gt} + 4 n_max (e^{2gt}-1)) - 1)
    / (e^{2gt} - 1). t is a float, or a 1-D array of times (another array
    raises DomainError): then the displacement magnitude and r are arrays
    over t, and the error raised is that of the first failing t.
    """
    dynamics._check_time_shape(t)
    f = lib(t)
    reject(f.not_((gamma > 0) & (t > 0)), DomainError, "optimal squeezing needs gamma * t > 0")
    if n_max <= 0:
        raise DomainError("n_max must be positive")
    # With q = e^{-2gt}, e^{2r} - 1 = 4Nq / (1 + sqrt(1 + 4Nq (1 - q))): the
    # quotient above, rescaled by e^{-2gt} to stay finite for large gamma t,
    # with its difference of nearly equal terms at small gamma t cancelled
    # out; 1 - q is taken by expm1.
    q = f.exp(-2.0 * gamma * t)
    x = 4.0 * n_max * q
    r = 0.5 * f.log1p(x / (1.0 + f.sqrt(1.0 + x * -f.expm1(-2.0 * gamma * t))))
    photons = f.sinh(r) ** 2
    reject(
        photons > n_max,
        ConstraintError, "optimal squeezing sinh^2(r) = {!r} exceeds the budget {!r}", photons, n_max,
    )
    return DisplacementAmplitude(f.sqrt(n_max - photons)), SqueezeParam(f.max(r, 0.0))


# --- resource accounting and bounds -------------------------------------------


class BoundResult(NamedTuple):
    integral: float
    cap: float
    error: float


def _bound_rate(n, total_time: float, gamma: float, n_bath: float):
    """2 N T / (gamma (1 + 2 n_bath - n_bath/(N+1))): the bound for N photons
    held over a time T (T = 1.0 gives the integrand); elementwise for an
    array of N."""
    return 2.0 * n * total_time / (gamma * (1.0 + 2.0 * n_bath - n_bath / (n + 1.0)))


def _check_rates(gamma: float, n_bath: float) -> None:
    """The rates fundamental_bound and budget_cap take: DomainError for a
    gamma or n_bath that is negative or not finite."""
    if not (0 <= gamma < math.inf and 0 <= n_bath < math.inf):
        raise DomainError("gamma and n_bath must be >= 0 and finite")


def fundamental_bound(
    photon_traj: Callable[[np.ndarray], np.ndarray | float],
    total_time: float,
    gamma: float,
    n_bath: float = 0.0,
) -> BoundResult:
    """Dissipative precision bound on the total QFI over a time budget.

    integral: ∫_0^T 2 N(t) / (gamma (1 + 2 n_bath - n_bath/(N(t)+1))) dt, by
    tanh-sinh quadrature (scipy.integrate.tanhsinh, relative tolerance
    1e-12, absolute tolerance 1e-12 of the bound for one photon held over
    T); error: its own estimate of the integral's absolute error.
    cap: the same expression with N frozen at its supremum over the nodes
    the quadrature sampled and the two endpoints 0 and T.

    photon_traj takes a 1-D ndarray of times and returns N at each, an
    array of the same shape; a scalar stands for every t. It is called on a
    handful of arrays in all: the two endpoints, tanhsinh's first probe,
    and one array of nodes per refinement level.

    In the lossless limit gamma = 0, integral and cap are infinite and
    error is 0. Raises DomainError for a total_time that is not positive
    and finite, a gamma or n_bath that is negative or not finite, and an N
    that is negative or not finite, naming a t where it is; AccuracyError
    if the quadrature does not converge, or if its scale, the bound for one
    photon held over T, overflows.
    """
    if not 0 < total_time < math.inf:
        raise DomainError("total_time must be positive and finite")
    _check_rates(gamma, n_bath)
    if gamma == 0:
        return BoundResult(math.inf, math.inf, 0.0)

    sup_n = 0.0

    def integrand(t: np.ndarray) -> np.ndarray:
        nonlocal sup_n
        flat = np.ravel(t)  # tanhsinh passes arrays of several shapes
        n = np.broadcast_to(np.asarray(photon_traj(flat), dtype=float), flat.shape)
        reject(
            ~(np.isfinite(n) & (n >= 0)),
            DomainError, "photon trajectory must be >= 0, got {!r} at t = {!r}", n, flat,
        )
        sup_n = max(sup_n, float(n.max(initial=0.0)))
        return np.reshape(_bound_rate(n, 1.0, gamma, n_bath), np.shape(t))

    # Imported here: scipy.integrate adds ~40% to the package's import time.
    from scipy.integrate import tanhsinh

    # An integrand that overflows makes the integral non-finite, which
    # raises below, so numpy is not asked to warn of it.
    with np.errstate(all="ignore"):
        # The quadrature samples only interior nodes; the endpoints complete sup_n.
        integrand(np.array([0.0, total_time]))
        # The absolute floor, 1e-12 of one photon held over T, lets an N
        # that is 0 (or 0 up to roundoff) converge; there the relative
        # error is 0/0 and never falls below rtol.
        atol = 1e-12 * _bound_rate(1.0, total_time, gamma, n_bath)
        if not math.isfinite(atol):
            raise AccuracyError(
                f"bound integral out of range: the bound for one photon held over "
                f"T = {total_time!r} at gamma = {gamma!r} overflows"
            )
        result = tanhsinh(integrand, 0.0, total_time, rtol=1e-12, atol=atol, minlevel=4)
    if result.status != 0:
        raise AccuracyError(
            f"bound integral did not converge (tanhsinh status {int(result.status)}): "
            f"{float(result.integral)!r} with error estimate {float(result.error)!r}"
        )
    return BoundResult(float(result.integral), _bound_rate(sup_n, total_time, gamma, n_bath), float(result.error))


def budget_cap(budget: ResourceBudget, gamma: float, n_bath: float = 0.0) -> float:
    """Bound cap evaluated at the photon budget: 2 N_max T / (gamma (1+2n_B - ...)).
    Raises DomainError for a gamma or n_bath that is negative or not finite."""
    _check_rates(gamma, n_bath)
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
    photons = spec.photons(t_single, pair.state)
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
