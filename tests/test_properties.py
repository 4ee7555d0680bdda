"""Properties of the closed-form dynamics on random parameters.

Each draw places epsilon in one of five places: below the eigenvalue split,
within 1e-6 of the exceptional point |omega|, between the split and the
critical point, within 1e-6 of epsilon_c, or above threshold. gamma = 0 and
n_bath = 0 are drawn as values of their own, and times run up to the
comparison horizon of the `dynamics.rk4_agreement` check.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, find, given
from hypothesis import strategies as st

from conftest import cqs_state_family
from critsense.dynamics import Regime, SystemParams, _noise_integrals, evolve_critical, spectral_info
from critsense.gaussian import thermal_state
from critsense.metrology import fi_homodyne, qfi
from critsense.oracle import fd_shift_derivative, lyapunov_rk4
from critsense.protocols import best_homodyne, cqs_pair
from critsense.validate import _horizon, _rel_state_diff

NEAR = 1e-6
LOG_RATE = st.floats(-2.0, 2.0).map(lambda x: 10.0 ** x)
LOG_TIME = st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x)


@st.composite
def system_params(draw) -> SystemParams:
    omega0 = draw(st.floats(0.1, 10.0))
    gamma = draw(st.just(0.0) | st.floats(0.1, 10.0))
    n_bath = draw(st.just(0.0) | st.floats(0.0, 3.0))
    eps_c = math.hypot(omega0, gamma)
    place = draw(st.sampled_from(("below", "exceptional", "transient", "critical", "above")))
    if place == "below":
        eps = omega0 * draw(st.floats(0.0, 1.0))
    elif place == "exceptional":
        eps = omega0 * (1.0 + draw(st.floats(-NEAR, NEAR)))
    elif place == "transient":
        eps = omega0 + (eps_c - omega0) * draw(st.floats(0.0, 1.0))
    elif place == "critical":
        eps = eps_c * (1.0 + draw(st.floats(-NEAR, NEAR)))
    else:
        eps = eps_c * draw(st.floats(1.0, 2.0))
    return SystemParams(omega0, eps, gamma, n_bath=n_bath)


@st.composite
def params_and_time(draw) -> tuple[SystemParams, float]:
    params = draw(system_params())
    return params, draw(st.floats(0.0, 1.0)) * _horizon(params)


@pytest.mark.parametrize("regime", list(Regime))
def test_draws_cover_every_regime(regime):
    find(system_params(), lambda params: spectral_info(params).regime is regime)


@given(params_and_time())
def test_closed_form_matches_rk4(case):
    params, t = case
    state0 = thermal_state(params.n_bath)
    diff = _rel_state_diff(evolve_critical(params, state0, t), lyapunov_rk4(params, state0, t))
    assert diff <= 1e-8


@given(params_and_time(), st.floats(0.0, 1.0))
def test_semigroup(case, split):
    params, t = case
    t1 = split * t
    state0 = thermal_state(params.n_bath)
    stepped = evolve_critical(params, evolve_critical(params, state0, t1), t - t1)
    assert _rel_state_diff(stepped, evolve_critical(params, state0, t)) <= 1e-9


@given(params_and_time())
def test_homodyne_never_beats_qfi(case):
    """FI <= QFI over the angle, to rounding: the derivative is exact. The
    angle lies in [0, pi) and no point of a 721-point grid beats it."""
    params, t = case
    pair = cqs_pair(params, t)
    psi, best = best_homodyne(pair)
    assert best <= qfi(pair) * (1.0 + 1e-12)
    assert 0.0 <= psi < math.pi
    grid = max(fi_homodyne(pair, p) for p in np.linspace(0.0, math.pi, 721, endpoint=False))
    assert best >= (1.0 - 1e-12) * grid


@given(params_and_time())
def test_exact_derivative_matches_finite_differences(case):
    """Wherever the finite-difference oracle is accurate to 1e-10 of the
    derivative's size, counting its step-halving estimate and its rounding
    eps |Sigma| / h, the exact derivative is within 1e-8 of it."""
    params, t = case
    pair = cqs_pair(params, t)
    step = 1e-5 * max(params.gamma, params.omega0, params.epsilon)
    fd, err = fd_shift_derivative(cqs_state_family(params, t), h=step)
    rounding = np.finfo(float).eps * float(np.abs(pair.state.sigma).max()) / step
    scale = max(float(np.abs(pair.dsigma).max()), float(np.abs(pair.dv).max()))
    assume(err + rounding < 1e-10 * scale)
    assert max(float(np.abs(pair.dsigma - fd.dsigma).max()), float(np.abs(pair.dv - fd.dv).max())) <= 1e-8 * scale


@given(params_and_time(), st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x))
def test_rate_rescaling_invariance(case, lam):
    params, t = case
    scaled = SystemParams(lam * params.omega0, lam * params.epsilon, lam * params.gamma, n_bath=params.n_bath)
    state0 = thermal_state(params.n_bath)
    diff = _rel_state_diff(evolve_critical(scaled, state0, t / lam), evolve_critical(params, state0, t))
    assert diff <= 1e-9


def _jump(gamma: float, s: float, t: float) -> float:
    """Largest relative change of the four noise integrals from s (1 - 1e-12)
    to s (1 + 1e-12), across a branch boundary at s."""
    below = _noise_integrals(gamma, s * (1.0 - 1e-12), gamma * gamma - s * (1.0 - 1e-12), t)
    above = _noise_integrals(gamma, s * (1.0 + 1e-12), gamma * gamma - s * (1.0 + 1e-12), t)
    return max(abs(a - b) / abs(b) for a, b in zip(below, above))


@given(st.just(0.0) | LOG_RATE, LOG_TIME, st.sampled_from((-1.0, 1.0)))
def test_noise_integrals_continuous_at_series_boundary(gamma, t, sign):
    """|s| t_eff^2 = 2.5e-3 separates the series in s from the closed forms."""
    t_eff = min(t, 2.5 / gamma) if gamma > 0 else t
    assert _jump(gamma, sign * 2.5e-3 / (t_eff * t_eff), t) <= 1e-9


@given(LOG_RATE, LOG_TIME)
def test_noise_integrals_continuous_at_quarter_gamma_squared(gamma, t):
    """s = gamma^2 / 4 separates the exact exponentials from the analytic-in-s form."""
    assert _jump(gamma, 0.25 * gamma * gamma, t) <= 1e-9
