"""Self-contained oracle-agreement and invariant checks.

The same battery backs the `validate` CLI command and the test suite. Each
check returns a CheckResult; the suite passes only if every check does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import dynamics, protocols
from .dynamics import SystemParams, evolve_critical, evolve_passive, mean_photons_vs_time, spectral_info, steady_state
from .errors import CritsenseError, NoSteadyStateError
from .gaussian import DisplacementAmplitude, GaussianState, SqueezeParam, rotation_matrix, squeeze_matrix, thermal_state
from .metrology import DerivativePair, differentiate_at_zero_shift, fi_homodyne, qfi, snr_photon_counting
from .oracle import gaussian_qfi, lyapunov_rk4
from .protocols import ResourceBudget


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    tolerance: str
    detail: str


# What a check body returns: (passed, tolerance, detail).
Outcome = tuple[bool, str, str]

# Each check _named wraps, in the order they are defined.
_CHECKS: list[Callable[[], CheckResult]] = []


def _named(name: str):
    """Give a check its one name, printed with its result and matched by
    `run_checks`, and record it in _CHECKS; the decorated check returns a
    CheckResult, a failed one naming the error if its body raises a
    CritsenseError."""

    def wrap(body: Callable[[], Outcome]) -> Callable[[], CheckResult]:
        @functools.wraps(body)
        def check() -> CheckResult:
            try:
                return CheckResult(name, *body())
            except CritsenseError as exc:
                return CheckResult(name, False, "raises no error", f"{type(exc).__name__}: {exc}")

        check.check_name = name
        _CHECKS.append(check)
        return check

    return wrap


# Parameter battery (omega0, epsilon, gamma, n_bath) spanning every dynamical
# regime: below the eigenvalue split, at the exceptional point, in the
# transient window, near/at criticality, and above threshold.
BATTERY: tuple[SystemParams, ...] = (
    SystemParams(1.0, 0.0, 1.0, 0.0),
    SystemParams(1.0, 0.5, 1.0, 0.0),
    SystemParams(1.0, 0.9, 1.0, 0.5),
    SystemParams(1.0, 0.99, 1.0, 0.0),
    SystemParams(1.0, 1.0, 1.0, 0.0),
    SystemParams(1.0, 1.0, 1.0, 1.0),
    SystemParams(1.0, 1.0000001, 1.0, 0.0),
    SystemParams(1.0, 1.05, 1.0, 0.0),
    SystemParams(1.0, 1.2, 1.0, 0.0),
    SystemParams(1.0, 1.2, 1.0, 1.0),
    SystemParams(1.0, 1.2, 0.8, 0.3),
    SystemParams(0.5, 1.0, 2.0, 1.5),
    SystemParams(1.0, 0.2, 3.0, 0.0),
    SystemParams(3.0, 3.1, 1.0, 0.5),
    SystemParams(1.0, 1.4, 1.0, 0.0),
    SystemParams(1.0, 0.9975 * math.sqrt(2.0), 1.0, 0.0),
    SystemParams(1.0, math.sqrt(2.0), 1.0, 1.0),
    SystemParams(1.0, 1.6, 1.0, 0.0),
    SystemParams(1.0, 1.6, 1.0, 2.0),
    SystemParams(1.0, 2.0, 0.0, 0.0),
    SystemParams(1.0, 0.5, 0.0, 0.0),
    SystemParams(2.0, 1.0, 0.5, 0.0),
)


# The undriven unit system omega0 = gamma = 1 at zero temperature, and the
# drive whose steady state holds a budget of 100 photons there.
UNIT = SystemParams(1.0, 0.0, 1.0)
UNIT_DRIVEN = replace(UNIT, epsilon=protocols.epsilon_opt(100.0, UNIT))


def _horizon(params: SystemParams, cap: float = 40.0) -> float:
    """Comparison horizon min(10 / Re(lambda_-), cap / slowest-rate-unit)."""
    lam = spectral_info(params).lambda_minus.real
    scale = max(params.gamma, abs(params.omega0), params.epsilon)
    if lam > 1e-9 * scale:
        return min(10.0 / lam, cap / scale)
    return min(8.0 / scale, cap / scale)


def _rel_state_diff(a: GaussianState, b: GaussianState) -> float:
    scale = max(float(np.linalg.norm(b.sigma)), 1.0)
    return max(
        float(np.linalg.norm(a.sigma - b.sigma)), float(np.linalg.norm(a.v - b.v))
    ) / scale


def _rel_tangent_diff(a: DerivativePair, b: DerivativePair) -> float:
    """The gap between two shift derivatives, relative to max(|dv|, |dSigma|, 1) of b."""
    scale = max(float(np.linalg.norm(b.dsigma)), float(np.linalg.norm(b.dv)), 1.0)
    return max(
        float(np.linalg.norm(a.dsigma - b.dsigma)), float(np.linalg.norm(a.dv - b.dv))
    ) / scale


# Near the exceptional point, on both sides of the noise integrals' series
# cutoff: s = eps^2 - omega^2 = +-1e-3 at omega0 = gamma = 1.
NEAR_EP = tuple((SystemParams(1.0, math.sqrt(1.0 + s), 1.0), t) for s in (1e-3, -1e-3) for t in (5.0, 20.0))
# Through it, eps = omega (1 - 1e-7), omega and omega (1 + 1e-7), where
# BATTERY does not hold them: (gamma, n_bath) = (1, 0) below, (0.5, 0.5) at all three.
AT_EP = tuple(
    (SystemParams(1.0, eps, gamma, n_bath=n_bath), t)
    for gamma, n_bath, eps in ((1.0, 0.0, 1 - 1e-7), (0.5, 0.5, 1 - 1e-7), (0.5, 0.5, 1.0), (0.5, 0.5, 1 + 1e-7))
    for t in (0.5, 8.0)
)


@_named("dynamics.rk4_agreement")
def check_rk4_agreement() -> Outcome:
    """The moments and their exact shift derivative (differentiate_at_zero_shift
    of evolve_critical) vs the RK4 Lyapunov-and-tangent oracle over all
    regimes, near the exceptional point and on both sides of it."""
    points = [(params, frac * _horizon(params)) for params in BATTERY for frac in (0.02, 0.2, 1.0)]
    worst_state = worst_tangent = (0.0, "")
    for params, t in points + list(NEAR_EP + AT_EP):
        start = thermal_state(params.n_bath)
        numeric = lyapunov_rk4(params, start, t)
        analytic = differentiate_at_zero_shift(evolve_critical, params, start, t)
        at = f"eps={params.epsilon:.9g} gamma={params.gamma:g} t={t:.3g}"
        worst_state = max(worst_state, (_rel_state_diff(analytic.state, numeric.state), at))
        worst_tangent = max(worst_tangent, (_rel_tangent_diff(analytic, numeric), at))
    return (
        max(worst_state[0], worst_tangent[0]) <= 1e-11,
        "<= 1e-11 relative (state and derivative)",
        "state worst {:.2e} at {}; derivative worst {:.2e} at {}".format(*worst_state, *worst_tangent),
    )


@_named("dynamics.semigroup")
def check_semigroup() -> Outcome:
    """evolve(t1 + t2) equals evolve(t2) after evolve(t1), at fractions of
    the horizon and at t1 = 1.2, t2 = 1.8."""
    worst = 0.0
    entrywise = True
    for params in BATTERY:
        t_max = _horizon(params, cap=10.0)
        state0 = thermal_state(params.n_bath)
        splits = [(f1 * t_max, f2 * t_max) for (f1, f2) in ((0.3, 0.5), (0.05, 0.9), (0.45, 0.45))]
        for (t1, t2) in splits + [(1.2, 1.8)]:
            direct = evolve_critical(params, state0, t1 + t2)
            stepped = evolve_critical(params, evolve_critical(params, state0, t1), t2)
            worst = max(worst, _rel_state_diff(stepped, direct))
            entrywise &= np.allclose(stepped.sigma, direct.sigma, rtol=1e-13, atol=1e-14)
    return (
        worst <= 1e-13 and entrywise,
        "<= 1e-13 relative; sigma entrywise rtol 1e-13, atol 1e-14",
        f"worst {worst:.2e}",
    )


@_named("dynamics.steady_state_residual")
def check_steady_state_residual() -> Outcome:
    """A Sigma_ss + Sigma_ss A^T + D vanishes."""
    worst = 0.0
    for params in BATTERY:
        try:
            sig = steady_state(params).sigma
        except NoSteadyStateError:
            continue
        A, D = dynamics.drift_and_diffusion(params)
        res = A @ sig + sig @ A.T + D
        worst = max(worst, float(np.max(np.abs(res))) / max(float(np.max(np.abs(sig))), 1.0))
    return (
        worst <= 5e-14,
        "<= 5e-14 relative",
        f"worst {worst:.2e}",
    )


@_named("dynamics.photon_monotonicity")
def check_photon_monotonicity() -> Outcome:
    """N(t) grows monotonically over [0, 10 / Re(lambda_-)] (n_bath = 0)."""
    ok = True
    detail = []
    for eps in (1.2, 1.4, 0.9975 * math.sqrt(2.0)):
        params = SystemParams(1.0, eps, 1.0)
        grid = np.linspace(0.0, 10.0 / spectral_info(params).lambda_minus.real, 1000)
        values = mean_photons_vs_time(params, grid)
        before, after = values[:-1], values[1:]
        drops = int(np.count_nonzero(after < before - 1e-12 * np.maximum(before, 1.0)))
        if drops:
            ok = False
            detail.append(f"eps={eps:g}: {drops} drops")
    return (
        ok,
        "non-decreasing on 1000-point grid",
        "; ".join(detail) or "monotone for all transient drives",
    )


@_named("dynamics.physicality")
def check_physicality() -> Outcome:
    """Evolved covariances satisfy the uncertainty relation, at fractions of
    the horizon and at t = 0.1, 1 and 6: the det formed from sigma's
    entries, not the det a lossless flow gives the state."""
    worst = 0.0
    for params in BATTERY:
        state0 = thermal_state(params.n_bath)
        t_max = _horizon(params, cap=20.0)
        for t in [frac * t_max for frac in (0.01, 0.1, 0.5, 1.0)] + [0.1, 1.0, 6.0]:
            (s11, s12), (_, s22) = evolve_critical(params, state0, t).sigma.tolist()
            scale = max(1.0, max(abs(s11), abs(s12), abs(s22)) ** 2)
            worst = max(worst, (1.0 - (s11 * s22 - s12 * s12)) / scale)
    return (
        worst <= 2e-14,
        "det(sigma) >= 1 - 2e-14 (scale-relative)",
        f"worst violation {worst:.2e}",
    )


def _pair_battery():
    """Derivative pairs used by the measurement-bound checks."""
    pairs = []
    for (params, t) in (
        (SystemParams(1.0, 1.2, 1.0), 2.0),
        (SystemParams(1.0, 1.2, 1.0, n_bath=1.0), 1.5),
        (SystemParams(1.0, 1.4, 1.0), 8.0),
        (SystemParams(1.0, 0.9, 1.0), 3.0),
    ):
        pairs.append(("cqs", differentiate_at_zero_shift(evolve_critical, params, thermal_state(params.n_bath), t)))
        pairs.append(("cqs_steady", differentiate_at_zero_shift(steady_state, params)))
    for (a, r, t) in ((2.0, 1.0, 0.5), (0.0, 2.0, 0.8), (1.0, 0.5, 1.5)):
        start = protocols.pqs_input_state(DisplacementAmplitude(a), SqueezeParam(r))
        pairs.append(("pqs", differentiate_at_zero_shift(evolve_passive, UNIT, start, t)))
    return pairs


@_named("metrology.measurement_bounds")
def check_measurement_bounds() -> Outcome:
    """Homodyne FI and photon-counting SNR never exceed the QFI."""
    worst = 0.0
    for label, pair in _pair_battery():
        info = qfi(pair)
        for psi in np.linspace(0.0, math.pi, 64, endpoint=False):
            ratio = fi_homodyne(pair, float(psi)) / info
            worst = max(worst, ratio)
        if float(np.linalg.norm(pair.state.v)) < 1e-12:
            worst = max(worst, snr_photon_counting(pair) / info)
    return (
        worst <= 1.0 + 1e-6,
        "FI, SNR <= QFI (1 + 1e-6)",
        f"max ratio {worst:.9f}",
    )


@_named("metrology.qfi_general_formula")
def check_qfi_general_formula() -> Outcome:
    """QFI of every pair of the pair battery vs the general mixed-state
    Gaussian formula (oracle.gaussian_qfi)."""
    pairs = [pair for _, pair in _pair_battery()]
    worst = max(abs(gaussian_qfi(pair) - qfi(pair)) / qfi(pair) for pair in pairs)
    return (
        worst <= 5e-14,
        "<= 5e-14 relative",
        f"worst {worst:.2e} over {len(pairs)} pairs",
    )


@_named("metrology.symplectic_invariance")
def check_qfi_symplectic_invariance() -> Outcome:
    """QFI is unchanged by a fixed symplectic congruence of state and derivative."""
    rng_angles = (0.3, 1.1)
    worst = 0.0
    for _, pair in _pair_battery()[:6]:
        base = qfi(pair)
        for th in rng_angles:
            S = rotation_matrix(th) @ squeeze_matrix(SqueezeParam(0.6)) @ rotation_matrix(-0.2)
            moved = DerivativePair(
                GaussianState(S @ pair.state.v, S @ pair.state.sigma @ S.T),
                S @ pair.dv,
                S @ pair.dsigma @ S.T,
            )
            worst = max(worst, abs(qfi(moved) - base) / base)
    return (
        worst <= 5e-14,
        "<= 5e-14 relative",
        f"worst {worst:.2e}",
    )


@_named("protocols.bound_gate")
def check_bound_gate() -> Outcome:
    """The total QFI, repetitions times QFI, of a CQS and a PQS protocol at
    three times each is within the dissipative precision bound. The ratio
    to the cap is computed here: total_qfi's own gate would raise first."""
    budget = ResourceBudget(n_max=100.0, total_time=10.0, t_pm=0.0)
    cqs = protocols.ProtocolSpec(protocols.ProtocolKind.CQS, UNIT_DRIVEN, budget)
    pqs = protocols.ProtocolSpec(protocols.ProtocolKind.PQS, UNIT, budget)
    ratios = [
        budget.total_time / (ts + budget.t_pm) * spec.qfi(ts)
        / protocols.budget_cap(budget, spec.params.gamma, spec.params.n_bath)
        for spec, ts in ((cqs, np.array([1.0, 50.0, 400.0])), (pqs, np.array([0.1, 0.8, 2.0])))
    ]
    worst = float(np.max(ratios))  # a NaN ratio fails too
    return (
        worst <= 1.0 + 1e-6,
        "total QFI <= bound (1 + 1e-6)",
        f"max ratio {worst:.6f}",
    )


@_named("protocols.cqs_qfi_monotone")
def check_cqs_qfi_monotone() -> Outcome:
    """Transient CQS QFI grows toward the steady state."""
    params = SystemParams(1.0, 1.4, 1.0)
    t_end = 10.0 / spectral_info(params).lambda_minus.real
    grid = np.union1d(np.linspace(0.5, t_end, 30), np.linspace(0.5, t_end, 40))
    values = protocols.cqs_qfi(params, grid).tolist()
    drops = sum(1 for a, b in zip(values, values[1:]) if b < a * (1.0 - 1e-9))
    return (
        drops == 0,
        "non-decreasing over the transient",
        f"{drops} drops over {len(grid)} samples",
    )


@_named("protocols.omega0_optimality")
def check_omega0_optimality() -> Outcome:
    """The steady-state QFI rate coefficient I(inf) / N(inf)^2 peaks at
    omega0 = gamma, and is 2.01005 at omega0 = gamma = 1."""
    z = 0.995  # fixed (epsilon/epsilon_c)^2

    def coeff(w0: float, gamma: float) -> float:
        params = SystemParams(w0, math.sqrt(z) * math.hypot(w0, gamma), gamma)
        return protocols.cqs_qfi_steady(params) / dynamics.steady_state_photons(params) ** 2

    pinned = coeff(1.0, 1.0)
    ok = abs(pinned - 2.01005) <= 1e-6 * 2.01005
    argmax = []
    for gamma in (0.5, 1.0, 2.0):
        grid = gamma * np.geomspace(0.25, 4.0, 41)
        values = [coeff(float(w), gamma) for w in grid]
        best = float(grid[int(np.argmax(values))])
        ok = ok and abs(best - gamma) <= 1e-12 * max(gamma, 1.0)
        ok = ok and coeff(gamma, gamma) >= max(values) * (1.0 - 1e-12)
        argmax.append(f"{best / gamma:.3f}")
    return (
        ok,
        "argmax omega0 = gamma (1e-12), gamma in {0.5, 1, 2}; I/N^2 = 2.01005 (1e-6)",
        f"grid argmax omega0/gamma = {', '.join(argmax)}; I/N^2 at omega0 = gamma = 1: {pinned:.6f}",
    )


@_named("protocols.homodyne_near_optimality")
def check_homodyne_near_optimality() -> Outcome:
    """Optimized homodyne nearly saturates the steady-state CQS QFI."""
    pair = differentiate_at_zero_shift(steady_state, UNIT_DRIVEN)
    _, best = protocols.best_homodyne(pair)
    ratio = best / qfi(pair)
    return (
        ratio >= 0.95,
        "max_psi FI / QFI >= 0.95",
        f"max_psi FI / QFI = {ratio:.4f} at the epsilon_opt(100) steady state",
    )


@_named("protocols.temperature_invariance")
def check_temperature_invariance() -> Outcome:
    """Steady-state QFI is temperature-invariant while photons scale by 1+2n_B."""
    cold, hot = UNIT_DRIVEN, replace(UNIT_DRIVEN, n_bath=1.0)
    qfi_ratio = protocols.cqs_qfi_steady(hot) / protocols.cqs_qfi_steady(cold)
    n_ratio = dynamics.steady_state_photons(hot) / dynamics.steady_state_photons(cold)
    ok = 0.9 <= qfi_ratio <= 1.1 and abs(n_ratio / 3.0 - 1.0) <= 0.05
    return (
        ok,
        "QFI ratio in [0.9, 1.1]; photon ratio ~ 3 within 5%",
        f"QFI ratio {qfi_ratio:.4f}, photon ratio {n_ratio:.4f}",
    )


@_named("protocols.beyond_threshold_suboptimal")
def check_beyond_threshold() -> Outcome:
    """Below threshold beats driving beyond it. Lossless: against the
    quench, at equal photons and equal total time. Lossy (budget 100): the
    epsilon_opt steady state against drives at 1.05, 1.5 and 3 eps_c, each
    at a t where N(t) ~ 90, so at equal photons but not equal time (the
    steady state is the t -> inf limit; its relaxation time is ~200)."""
    n_max, total = 1000.0, 1.0
    w0 = math.sqrt(n_max) / total
    below = SystemParams(w0, w0 * (1.0 - 1e-6), 0.0)
    i_below = protocols.cqs_qfi(below, total)
    # From vacuum the quench holds N(T) ~ e^{2uT}/4 = n_max, u = sqrt(eps^2 - w0^2),
    # to a factor eps^2/u^2 = 1.0025 at w0 = 0.05 u.
    u = math.log(4.0 * n_max) / (2.0 * total)
    w0_above = 0.05 * u
    above = SystemParams(w0_above, math.hypot(w0_above, u), 0.0)
    ratio = i_below / protocols.cqs_qfi(above, total)

    budget = ResourceBudget(100.0, 1.0)
    steady = protocols.cqs_qfi_steady(UNIT_DRIVEN)
    beyond = [
        protocols.total_qfi(protocols.ProtocolSpec("CQS", replace(UNIT, epsilon=x * UNIT.epsilon_c), budget), t)
        for x, t in ((1.05, 14.9), (1.5, 2.8), (3.0, 0.89))
    ]
    lossy_ratio = min(steady / r.qfi_single_shot for r in beyond)
    return (
        ratio > 1.0 and lossy_ratio > 1.0,
        "below-threshold QFI exceeds the beyond-threshold QFI, lossless and lossy",
        f"below/beyond QFI ratio {ratio:.2f} lossless at equal budget (log^2(4N)/9 = "
        f"{math.log(4*n_max)**2/9:.2f}); smallest steady/beyond ratio {lossy_ratio:.1f} lossy at equal photons",
    )


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = tuple(_CHECKS)


def run_checks(pattern: str | None = None) -> list[CheckResult]:
    """Run all checks whose name (e.g. `dynamics.semigroup`) or function name
    (`check_semigroup`) contains `pattern`; all if None."""
    return [
        check()
        for check in ALL_CHECKS
        if not pattern or pattern in check.check_name or pattern in check.__name__
    ]
