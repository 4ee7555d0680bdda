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
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from . import dynamics
from .dynamics import SystemParams, evolve_critical, evolve_passive, spectral_info, steady_state
from .errors import ConstraintError, DomainError, SearchError, UnsupportedRegimeError
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

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
            if photons > self.budget.n_max * (1.0 + 1e-9):
                raise ConstraintError(
                    f"input state holds {photons!r} photons, budget allows {self.budget.n_max!r}"
                )
        else:
            eps, eps_c = self.params.epsilon, self.params.epsilon_c
            if eps < eps_c * (1.0 - 1e-12):
                photons = dynamics.steady_state_photons(self.params)
                if photons > self.budget.n_max * (1.0 + 1e-9):
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


# --- derivative families -----------------------------------------------------


def _fd_step(params: SystemParams) -> float:
    scale = max(params.gamma, abs(params.omega0), params.epsilon, 1.0e-30)
    return 1e-5 * scale


def cqs_pair(params: SystemParams, t: float) -> DerivativePair:
    """State and shift-derivative of the driven protocol at time t."""
    start = thermal_state(params.n_bath)

    def family(delta: float) -> GaussianState:
        return evolve_critical(params.with_shift(delta), start, t)

    return differentiate_at_zero_shift(family, h=_fd_step(params))


def cqs_qfi(params: SystemParams, t: float) -> float:
    """Single-shot QFI of the driven protocol started from bath equilibrium."""
    return qfi(cqs_pair(params, t))


def cqs_steady_pair(params: SystemParams) -> DerivativePair:
    def family(delta: float) -> GaussianState:
        return steady_state(params.with_shift(delta))

    return differentiate_at_zero_shift(family, h=_fd_step(params))


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

    def family(delta: float) -> GaussianState:
        return evolve_passive(params.with_shift(delta), start, t)

    return differentiate_at_zero_shift(family, h=_fd_step(params))


def pqs_qfi(
    alpha: DisplacementAmplitude,
    squeeze: SqueezeParam,
    params: SystemParams,
    t: float,
) -> float:
    """Single-shot QFI of the passive protocol."""
    return qfi(pqs_pair(alpha, squeeze, params, t))


_HOMODYNE_GRID = 192


def best_homodyne(pair: DerivativePair) -> tuple[float, float]:
    """Maximize the homodyne Fisher information over the quadrature angle.

    Returns (psi, fi). Scans a half-period grid, then polishes with a local
    golden-section search around each of the grid's two highest local maxima
    and keeps the better. Two suffice: in coordinates where sigma = I, FI is a
    degree-2 trigonometric polynomial in 2 psi, with at most two maxima.
    """
    n = _HOMODYNE_GRID
    psis = np.linspace(0.0, math.pi, n, endpoint=False)
    values = [fi_homodyne(pair, p) for p in psis]
    # FI has period pi in psi, so the grid's neighbours wrap around.
    peaks = [i for i in range(n) if values[i - 1] < values[i] >= values[(i + 1) % n]]
    peaks = sorted(peaks, key=values.__getitem__, reverse=True)[:2] or [int(np.argmax(values))]
    span = math.pi / n

    def polish(i: int) -> tuple[float, float]:
        psi_opt, fi_opt = _golden_max(
            lambda psi: fi_homodyne(pair, psi), psis[i] - span, psis[i] + span, rel_tol=1e-9, abs_tol=1e-12
        )
        if fi_opt < values[i]:
            return float(psis[i]), float(values[i])
        return psi_opt, fi_opt

    return max(map(polish, peaks), key=lambda result: result[1])


# --- optimizers ---------------------------------------------------------------


def _golden_max(
    f: Callable[[float], float], lo: float, hi: float, rel_tol: float, abs_tol: float = 0.0
) -> tuple[float, float]:
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > rel_tol * max(abs(lo), abs(hi)) + abs_tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = f(x1)
    x = 0.5 * (lo + hi)
    return x, f(x)


def _scan_then_golden(
    f: Callable[[float], float], t_lo: float, t_hi: float, points: int = 128
) -> tuple[float, float]:
    grid = np.geomspace(t_lo, t_hi, points)
    values = []
    for t in grid:
        val = f(float(t))
        if not math.isfinite(val):
            raise SearchError(f"objective is not finite at t = {t!r}")
        values.append(val)
    i = int(np.argmax(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, points - 1)]
    t_opt, best = _golden_max(f, float(lo), float(hi), rel_tol=1e-6)
    if best < values[i]:
        return float(grid[i]), float(values[i])
    return t_opt, best


def maximize_single_shot(
    rate_fn: Callable[[float], float], bracket: tuple[float, float]
) -> tuple[float, float]:
    """Maximize rate_fn(t) itself over a positive bracket."""
    t_lo, t_hi = bracket
    if not (0 < t_lo < t_hi):
        raise DomainError("bracket must satisfy 0 < t_lo < t_hi")
    return _scan_then_golden(rate_fn, t_lo, t_hi)


def optimize_time(
    rate_fn: Callable[[float], float],
    budget: ResourceBudget,
    bracket: tuple[float, float],
) -> tuple[float, float]:
    """Maximize the repetition-rate objective rate_fn(t) / (t + t_pm).

    128-point log-grid scan followed by golden-section refinement to a
    relative tolerance of 1e-6 in t. Returns (t_opt, best objective value).
    """
    t_lo, t_hi = bracket
    if not (0 < t_lo < t_hi):
        raise DomainError("bracket must satisfy 0 < t_lo < t_hi")
    t_pm = budget.t_pm

    def objective(t: float) -> float:
        return rate_fn(t) / (t + t_pm)

    return _scan_then_golden(objective, t_lo, t_hi)


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
        return 2.0 * n / (gamma * (1.0 + 2.0 * n_bath - n_bath / (n + 1.0)))

    # Imported here: scipy.integrate adds ~40% to the package's import time.
    from scipy.integrate import quad

    # quad samples only interior points; the endpoints complete sup_n.
    integrand(0.0)
    integrand(total_time)
    integral, _ = quad(integrand, 0.0, total_time, epsabs=0.0, epsrel=1e-10, limit=200)
    cap = (
        2.0
        * sup_n
        * total_time
        / (gamma * (1.0 + 2.0 * n_bath - n_bath / (sup_n + 1.0)))
    )
    return BoundResult(integral, cap)


def budget_cap(budget: ResourceBudget, gamma: float, n_bath: float = 0.0) -> float:
    """Bound cap evaluated at the photon budget: 2 N_max T / (gamma (1+2n_B - ...))."""
    n = budget.n_max
    if gamma == 0:
        return math.inf
    return 2.0 * n * budget.total_time / (
        gamma * (1.0 + 2.0 * n_bath - n_bath / (n + 1.0))
    )


def single_shot_quantities(spec: ProtocolSpec, t_single: float) -> tuple[DerivativePair, float]:
    """Derivative pair and photons at the measurement time for one repetition."""
    if spec.kind is ProtocolKind.CQS:
        pair = cqs_pair(spec.params, t_single)
    else:
        alpha, squeeze = spec.pqs_input
        pair = pqs_pair(alpha, squeeze, spec.params, t_single)
    return pair, mean_photons(pair.state)


def total_qfi(spec: ProtocolSpec, t_single: float, t_opt: float | None = None) -> MetrologyReport:
    """Repetition-budget report: M = T/(t + t_pm) repetitions of duration t_single."""
    if not (t_single > 0 and math.isfinite(t_single)):
        raise DomainError(f"t_single must be positive, got {t_single!r}")
    pair, photons = single_shot_quantities(spec, t_single)
    if photons > spec.budget.n_max * (1.0 + 1e-9):
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
    return MetrologyReport(
        qfi_single_shot=info,
        fi_homodyne_best=fi_best,
        best_psi=psi,
        photons_at_t=photons,
        repetitions=reps,
        total_qfi=total,
        bound_value=bound,
        t_opt=t_single if t_opt is None else t_opt,
    )


def steady_time(params: SystemParams, multiple: float = 12.0) -> float:
    """Operational steady-state horizon: `multiple` decay times of the slow mode."""
    lam = spectral_info(params).lambda_minus.real
    if lam <= 0:
        raise DomainError("no finite steady-state time at or above the critical point")
    return multiple / lam
