"""Self-contained oracle-agreement and invariant checks.

The same battery backs the `validate` CLI command and the test suite. Each
check returns a CheckResult; the suite passes only if every check does.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dynamics, protocols
from .dynamics import SystemParams, evolve_critical, spectral_info, steady_state
from .gaussian import (
    DisplacementAmplitude,
    GaussianState,
    SqueezeParam,
    rotation_matrix,
    squeeze_matrix,
    thermal_state,
)
from .metrology import (
    DerivativePair,
    fi_homodyne,
    qfi,
    qfi_fidelity_oracle,
    snr_photon_counting,
)
from .oracle import lyapunov_rk4
from .protocols import ResourceBudget


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    tolerance: str
    detail: str


# What a check body returns: (passed, tolerance, detail).
Outcome = tuple[bool, str, str]


def _named(name: str):
    """Give a check its one name, printed with its result and matched by
    `run_checks`; the decorated check returns a CheckResult."""

    def wrap(body: Callable[[], Outcome]) -> Callable[[], CheckResult]:
        @functools.wraps(body)
        def check() -> CheckResult:
            return CheckResult(name, *body())

        check.check_name = name
        return check

    return wrap


# Parameter battery (omega0, epsilon, gamma, n_bath) spanning every dynamical
# regime: below the eigenvalue split, at the exceptional point, in the
# transient window, near/at criticality, and above threshold.
BATTERY: tuple[tuple[float, float, float, float], ...] = (
    (1.0, 0.0, 1.0, 0.0),
    (1.0, 0.5, 1.0, 0.0),
    (1.0, 0.9, 1.0, 0.5),
    (1.0, 0.99, 1.0, 0.0),
    (1.0, 1.0, 1.0, 0.0),
    (1.0, 1.0, 1.0, 1.0),
    (1.0, 1.0000001, 1.0, 0.0),
    (1.0, 1.05, 1.0, 0.0),
    (1.0, 1.2, 1.0, 0.0),
    (1.0, 1.2, 1.0, 1.0),
    (1.0, 1.2, 0.8, 0.3),
    (0.5, 1.0, 2.0, 1.5),
    (1.0, 0.2, 3.0, 0.0),
    (3.0, 3.1, 1.0, 0.5),
    (1.0, 1.4, 1.0, 0.0),
    (1.0, 0.9975 * math.sqrt(2.0), 1.0, 0.0),
    (1.0, math.sqrt(2.0), 1.0, 1.0),
    (1.0, 1.6, 1.0, 0.0),
    (1.0, 1.6, 1.0, 2.0),
    (1.0, 2.0, 0.0, 0.0),
    (1.0, 0.5, 0.0, 0.0),
    (2.0, 1.0, 0.5, 0.0),
)


def battery_params() -> list[SystemParams]:
    return [SystemParams(w, e, g, n_bath=n) for (w, e, g, n) in BATTERY]


def _horizon(params: SystemParams, cap: float = 40.0) -> float:
    """Comparison horizon min(10 / Re(lambda_-), cap / slowest-rate-unit)."""
    lam = spectral_info(params).lambda_minus.real
    scale = max(params.gamma, abs(params.omega), params.epsilon)
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


@_named("dynamics.rk4_agreement")
def check_rk4_agreement() -> Outcome:
    """Analytic propagator and its exact shift derivative (cqs_pair) vs the
    RK4 Lyapunov-and-tangent oracle over all regimes."""
    worst_state = worst_tangent = (0.0, "")
    for params in battery_params():
        t_max = _horizon(params)
        state0 = thermal_state(params.n_bath)
        for frac in (0.02, 0.2, 1.0):
            t = frac * t_max
            numeric = lyapunov_rk4(params, state0, t)
            at = f"eps={params.epsilon:g} t={t:.3g}"
            analytic = evolve_critical(params, state0, t)
            worst_state = max(worst_state, (_rel_state_diff(analytic, numeric.state), at))
            worst_tangent = max(worst_tangent, (_rel_tangent_diff(protocols.cqs_pair(params, t), numeric), at))
    return (
        max(worst_state[0], worst_tangent[0]) <= 1e-8,
        "<= 1e-8 relative (state and derivative)",
        "state worst {:.2e} at {}; derivative worst {:.2e} at {}".format(*worst_state, *worst_tangent),
    )


@_named("dynamics.semigroup")
def check_semigroup() -> Outcome:
    """evolve(t1 + t2) equals evolve(t2) after evolve(t1), at fractions of
    the horizon and at t1 = 1.2, t2 = 1.8."""
    worst = 0.0
    entrywise = True
    for params in battery_params():
        t_max = _horizon(params, cap=10.0)
        state0 = thermal_state(params.n_bath)
        splits = [(f1 * t_max, f2 * t_max) for (f1, f2) in ((0.3, 0.5), (0.05, 0.9), (0.45, 0.45))]
        for (t1, t2) in splits + [(1.2, 1.8)]:
            direct = evolve_critical(params, state0, t1 + t2)
            stepped = evolve_critical(params, evolve_critical(params, state0, t1), t2)
            worst = max(worst, _rel_state_diff(stepped, direct))
            entrywise &= np.allclose(stepped.sigma, direct.sigma, rtol=1e-9, atol=1e-12)
    return (
        worst <= 1e-9 and entrywise,
        "<= 1e-9 relative; sigma entrywise rtol 1e-9, atol 1e-12",
        f"worst {worst:.2e}",
    )


@_named("dynamics.exceptional_continuity")
def check_exceptional_continuity() -> Outcome:
    """Propagation is continuous through the exceptional point."""
    worst = 0.0
    for gamma, n_bath in itertools.product((1.0, 0.5), (0.0, 0.5)):
        base = SystemParams(1.0, 1.0, gamma, n_bath=n_bath)
        state0 = thermal_state(n_bath)
        for t in (0.5, 2.0, 8.0):
            mid = evolve_critical(base, state0, t)
            for sign in (-1.0, 1.0):
                near = SystemParams(1.0, 1.0 + sign * 1e-7, gamma, n_bath=n_bath)
                worst = max(worst, _rel_state_diff(evolve_critical(near, state0, t), mid))
    return (
        worst <= 1e-5,
        "<= 1e-5 relative",
        f"worst {worst:.2e}",
    )


@_named("dynamics.steady_state_residual")
def check_steady_state_residual() -> Outcome:
    """A Sigma_ss + Sigma_ss A^T + D vanishes."""
    worst = 0.0
    for params in battery_params():
        if params.epsilon >= params.epsilon_c * (1.0 - 1e-9):
            continue
        A, D = dynamics.drift_and_diffusion(params)
        sig = steady_state(params).sigma
        res = A @ sig + sig @ A.T + D
        worst = max(worst, float(np.max(np.abs(res))) / max(float(np.max(np.abs(sig))), 1.0))
    return (
        worst <= 1e-10,
        "<= 1e-10 relative",
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
        values = [dynamics.mean_photons_vs_time(params, float(t)) for t in grid]
        drops = sum(1 for a, b in zip(values, values[1:]) if b < a - 1e-12 * max(a, 1.0))
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
    the horizon and at t = 0.1, 1 and 6."""
    worst = 0.0
    for params in battery_params():
        state0 = thermal_state(params.n_bath)
        t_max = _horizon(params, cap=20.0)
        for t in [frac * t_max for frac in (0.01, 0.1, 0.5, 1.0)] + [0.1, 1.0, 6.0]:
            st = evolve_critical(params, state0, t)
            scale = max(1.0, float(np.max(np.abs(st.sigma))) ** 2)
            worst = max(worst, (1.0 - st.det_sigma) / scale)
    return (
        worst <= 1e-10,
        "det(sigma) >= 1 - 1e-10 (scale-relative)",
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
        pairs.append(("cqs", protocols.cqs_pair(params, t)))
        pairs.append(("cqs_steady", protocols.cqs_steady_pair(params)))
    pqs = SystemParams(1.0, 0.0, 1.0)
    for (a, r, t) in ((2.0, 1.0, 0.5), (0.0, 2.0, 0.8), (1.0, 0.5, 1.5)):
        pairs.append(
            ("pqs", protocols.pqs_pair(DisplacementAmplitude(a), SqueezeParam(r), pqs, t))
        )
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


@_named("metrology.qfi_fidelity_agreement")
def check_qfi_fidelity_agreement() -> Outcome:
    """QFI of the exact shift derivative (cqs_pair, pqs_pair) vs the
    closed-form fidelity quotient of the same state family."""
    worst = 0.0
    cases: list[tuple[DerivativePair, Callable[[float], GaussianState]]] = []
    for (params, t) in ((SystemParams(1.0, 1.2, 1.0), 2.0), (SystemParams(1.0, 1.4, 1.0), 6.0)):
        start = thermal_state(params.n_bath)
        cases.append(
            (
                protocols.cqs_pair(params, t),
                lambda d, p=params, s=start, tt=t: evolve_critical(p.with_shift(d), s, tt),
            )
        )
    pqs = SystemParams(1.0, 0.0, 1.0)
    alpha, squeeze = DisplacementAmplitude(2.0), SqueezeParam(1.0)
    start = protocols.pqs_input_state(alpha, squeeze)
    cases.append(
        (
            protocols.pqs_pair(alpha, squeeze, pqs, 0.7),
            lambda d: dynamics.evolve_passive(pqs.with_shift(d), start, 0.7),
        )
    )
    for pair, family in cases:
        reference = qfi(pair)
        estimate = qfi_fidelity_oracle(family, 1e-4)
        worst = max(worst, abs(estimate - reference) / reference)
    return (
        worst <= 1e-4,
        "<= 1e-4 relative",
        f"worst {worst:.2e}",
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
        worst <= 1e-9,
        "<= 1e-9 relative",
        f"worst {worst:.2e}",
    )


@_named("protocols.bound_gate")
def check_bound_gate() -> Outcome:
    """Every protocol report respects the dissipative precision bound."""
    reports = []
    p0 = SystemParams(1.0, 0.0, 1.0)
    eps = protocols.epsilon_opt(100.0, p0)
    cqs = protocols.ProtocolSpec(
        protocols.ProtocolKind.CQS,
        SystemParams(1.0, eps, 1.0),
        ResourceBudget(n_max=100.0, total_time=10.0, t_pm=0.0),
    )
    for t in (1.0, 50.0, 400.0):
        reports.append(protocols.total_qfi(cqs, t))
    pqs = protocols.ProtocolSpec(
        protocols.ProtocolKind.PQS, p0, ResourceBudget(n_max=100.0, total_time=10.0, t_pm=0.0)
    )
    for t in (0.1, 0.8, 2.0):
        reports.append(protocols.total_qfi(pqs, t))
    worst = max(r.total_qfi / r.bound_value for r in reports)
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
    values = [protocols.cqs_qfi(params, float(t)) for t in grid]
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
    p0 = SystemParams(1.0, 0.0, 1.0)
    eps = protocols.epsilon_opt(100.0, p0)
    pair = protocols.cqs_steady_pair(SystemParams(1.0, eps, 1.0))
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
    p0 = SystemParams(1.0, 0.0, 1.0)
    eps = protocols.epsilon_opt(100.0, p0)
    cold = SystemParams(1.0, eps, 1.0)
    hot = SystemParams(1.0, eps, 1.0, n_bath=1.0)
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
    """Equal-budget lossless comparison: below threshold beats the quench."""
    n_max, total = 1000.0, 1.0
    w0 = math.sqrt(n_max) / total
    below = SystemParams(w0, w0 * (1.0 - 1e-6), 0.0)
    i_below = protocols.cqs_qfi(below, total)
    u = math.log(4.0 * n_max) / (2.0 * total)
    w0_above = 0.05 * u
    above = SystemParams(w0_above, protocols.beyond_threshold_epsilon(n_max, total, w0_above), 0.0)
    i_above = protocols.beyond_threshold_qfi(above, total)
    ratio = i_below / i_above
    return (
        ratio > 1.0,
        "below-threshold QFI exceeds the quench QFI",
        f"below/beyond QFI ratio {ratio:.2f} at equal budget (log^2(4N)/9 = {math.log(4*n_max)**2/9:.2f})",
    )


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_rk4_agreement,
    check_semigroup,
    check_exceptional_continuity,
    check_steady_state_residual,
    check_photon_monotonicity,
    check_physicality,
    check_measurement_bounds,
    check_qfi_fidelity_agreement,
    check_qfi_symplectic_invariance,
    check_bound_gate,
    check_cqs_qfi_monotone,
    check_omega0_optimality,
    check_homodyne_near_optimality,
    check_temperature_invariance,
    check_beyond_threshold,
)


def run_checks(pattern: str | None = None) -> list[CheckResult]:
    """Run all checks whose name (e.g. `dynamics.semigroup`) or function name
    (`check_semigroup`) contains `pattern`; all if None."""
    return [
        check()
        for check in ALL_CHECKS
        if not pattern or pattern in check.check_name or pattern in check.__name__
    ]
