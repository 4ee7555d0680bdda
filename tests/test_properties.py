"""Properties of the closed-form dynamics on random parameters.

Each draw places epsilon in one of five places: below the eigenvalue split,
within 1e-6 of the exceptional point |omega|, between the split and the
critical point, within 1e-6 of epsilon_c, or above threshold. gamma = 0 and
n_bath = 0 are drawn as values of their own, and times run up to the
comparison horizon of the `dynamics.rk4_agreement` check.
"""

import math
import re
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, find, given
from hypothesis import strategies as st

from conftest import ROOT, cqs_state_family, driven_pair, general_qfi, passive_pair, rk4_pqs_pair, van_loan_qfi
from critsense import dynamics, protocols
from critsense._elementwise import over_t
from critsense.dynamics import (
    SystemParams,
    _noise_integrals,
    evolve_critical,
    mean_photons_vs_time,
)
from critsense.errors import AccuracyError, ConstraintError, CritsenseError, DomainError, InvalidStateError
from critsense.gaussian import (
    DET_ROUNDING,
    DisplacementAmplitude,
    GaussianState,
    SqueezeParam,
    apply_squeeze,
    is_pure,
    mean_photons,
    purity,
    thermal_state,
)
from critsense.metrology import DerivativePair, Whitened, fi_homodyne, qfi
from critsense.oracle import gaussian_qfi, lyapunov_rk4
from critsense.protocols import (
    ProtocolKind,
    ProtocolSpec,
    ResourceBudget,
    _roots,
    best_homodyne,
    cqs_qfi,
    default_pqs_input,
    fundamental_bound,
    optimal_homodyne_input,
    pqs_input_state,
    pqs_qfi,
)
from critsense.validate import _horizon, _rel_state_diff, _rel_tangent_diff

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


def _regime(params: SystemParams) -> str:
    """Where a drive sits: at the exceptional or the critical point where s =
    eps^2 - omega^2 or K = eps_c^2 - eps^2 is within 1e-9 of the largest
    squared rate, else below |omega|, below eps_c or above it."""
    s, k = dynamics._s_and_gap(params)
    window = 1e-9 * max(params.omega0 ** 2, params.gamma ** 2, params.epsilon ** 2)
    if abs(s) <= window:
        return "exceptional"
    if abs(k) <= window:
        return "critical"
    if params.epsilon < abs(params.omega0):
        return "below_eigenvalue_split"
    return "transient_split" if params.epsilon < params.epsilon_c else "above_threshold"


@pytest.mark.parametrize(
    "regime", ["below_eigenvalue_split", "exceptional", "transient_split", "critical", "above_threshold"]
)
def test_draws_cover_every_regime(regime):
    find(system_params(), lambda params: _regime(params) == regime)


def test_every_source_file_is_in_sys_modules():
    """conftest registers every source file, whose literals Hypothesis draws
    from: each property draws the same examples in any subset of the tests."""
    files = {p.resolve() for folder in ("src/critsense", "tools", "perfbench") for p in (ROOT / folder).rglob("*.py")}
    loaded = {Path(f).resolve() for m in list(sys.modules.values()) if (f := getattr(m, "__file__", None))}
    assert files and not files - loaded


@given(params_and_time())
def test_closed_form_matches_rk4(case):
    """The closed-form state and its exact shift derivative against the RK4
    Lyapunov-and-tangent oracle."""
    params, t = case
    numeric = lyapunov_rk4(params, thermal_state(params.n_bath), t)
    pair = driven_pair(params, t)
    assert _rel_state_diff(pair.state, numeric.state) <= 1e-8
    assert _rel_tangent_diff(pair, numeric) <= 1e-8


@given(
    st.floats(0.0, 3.0), st.floats(0.0, 2.0), st.just(0.0) | LOG_RATE, st.just(0.0) | st.floats(0.0, 3.0),
    st.floats(0.0, 1.0),
)
def test_passive_pair_matches_rk4(alpha, r, gamma, n_bath, frac):
    """passive_pair against the RK4 oracle at omega0 = 0, where the lab frame is
    evolve_passive's rotating frame, up to ten damping times (lossless: t <= 10)."""
    params = SystemParams(1.0, 0.0, gamma, n_bath=n_bath)
    t = frac * 10.0 / max(gamma, 1.0)
    pair = passive_pair(DisplacementAmplitude(alpha), SqueezeParam(r), params, t)
    numeric = rk4_pqs_pair(alpha, r, params, t)
    assert _rel_state_diff(pair.state, numeric.state) <= 1e-8
    assert _rel_tangent_diff(pair, numeric) <= 1e-8


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
    pair = driven_pair(params, t)
    psi, best = best_homodyne(pair)
    assert best <= qfi(pair) * (1.0 + 1e-12)
    assert 0.0 <= psi < math.pi
    grid = max(fi_homodyne(pair, p) for p in np.linspace(0.0, math.pi, 721, endpoint=False))
    assert best >= (1.0 - 1e-12) * grid


@given(params_and_time())
def test_qfi_matches_general_formula(case):
    """qfi against oracle.gaussian_qfi, the general mixed-state formula, to
    1e3 eps (s11 s22 + s12^2)/det of the QFI: the scale at which det(sigma)
    and a solve with sigma round. Draws that either raises on are skipped,
    as are states of purity above 0.999 and subnormal QFIs."""
    params, t = case
    pair = driven_pair(params, t)
    try:
        info, general = qfi(pair), gaussian_qfi(pair)
    except CritsenseError:
        assume(False)
    assume(purity(pair.state) <= 0.999 and info > 1e-200)
    (s11, s12), (_, s22) = pair.state.sigma.tolist()
    rounding = np.finfo(float).eps * (s11 * s22 + s12 * s12) / pair.state.det_sigma
    assert abs(general - info) <= 1e3 * rounding * info


@st.composite
def near_pure_pairs(draw) -> DerivativePair:
    """A squeezed thermal state with n_B from 1e-13 to 1e-7, and a random
    derivative of its moments."""
    n_bath = 10.0 ** draw(st.floats(-13.0, -7.0))
    state = apply_squeeze(thermal_state(n_bath), SqueezeParam(draw(st.floats(0.0, 1.5)), draw(st.floats(0.0, math.pi))))
    d11, d12, d22, v1, v2 = (draw(st.floats(-1.0, 1.0)) for _ in range(5))
    return DerivativePair(state, [v1, v2], [[d11, d12], [d12, d22]])


@given(near_pure_pairs())
def test_qfi_near_pure_mixed_states(pair):
    """qfi on mixed states however near pure, against the 60-digit general
    formula, to 1e2 eps (s11 s22 + s12^2)/(det - 1) of the QFI: the scale at
    which det - 1, and so the purity term's weight, rounds. Over 1117
    random draws the error reached 1.69 of that scale. Draws whose det is 1
    within its rounding are pure, and skipped."""
    (s11, s12), (_, s22) = pair.state.sigma.tolist()
    det = pair.state.det_sigma
    assume(not is_pure(pair.state))
    want = general_qfi(pair.state.sigma, pair.dsigma, pair.dv)
    rounding = np.finfo(float).eps * (s11 * s22 + s12 * s12) / (det - 1.0)
    assert abs(qfi(pair) - want) <= 1e2 * rounding * want


def _richardson_shift_derivative(family, h: float):
    """Central differences of a state family at steps h and h/2, combined by
    Richardson extrapolation; returns (dv, dSigma, error estimate), the
    estimate being |D(h/2) - D(h)|/3 (the larger of the dv and dSigma norms)."""

    def central(step: float):
        plus, minus = family(step), family(-step)
        return (plus.v - minus.v) / (2.0 * step), (plus.sigma - minus.sigma) / (2.0 * step)

    dv1, ds1 = central(h)
    dv2, ds2 = central(h / 2.0)
    err = max(float(np.linalg.norm(dv2 - dv1)), float(np.linalg.norm(ds2 - ds1))) / 3.0
    return (4.0 * dv2 - dv1) / 3.0, (4.0 * ds2 - ds1) / 3.0, err


@st.composite
def params_and_difference_time(draw) -> tuple[SystemParams, float]:
    """system_params at t from 1 to 3 over its fastest rate, where a
    shift step of 1e-5 that rate resolves the derivative: earlier, the
    state barely moves with the shift and the difference is rounding;
    later, the step-halving estimate, of order (step t)^2, passes 1e-10."""
    params = draw(system_params())
    return params, draw(st.floats(1.0, 3.0)) / max(params.gamma, params.omega0, params.epsilon)


@given(params_and_difference_time())
def test_exact_derivative_matches_finite_differences(case):
    """Wherever the finite difference is accurate to 1e-10 of the derivative's
    size, counting its step-halving estimate and its rounding eps |Sigma| / h,
    the exact derivative is within 1e-8 of it."""
    params, t = case
    pair = driven_pair(params, t)
    step = 1e-5 * max(params.gamma, params.omega0, params.epsilon)
    with np.errstate(over="ignore", invalid="ignore"):
        fd_dv, fd_dsigma, err = _richardson_shift_derivative(cqs_state_family(params, t), step)
    rounding = np.finfo(float).eps * float(np.abs(pair.state.sigma).max()) / step
    scale = max(float(np.abs(pair.dsigma).max()), float(np.abs(pair.dv).max()))
    assume(err + rounding < 1e-10 * scale)
    assert max(float(np.abs(pair.dsigma - fd_dsigma).max()), float(np.abs(pair.dv - fd_dv).max())) <= 1e-8 * scale


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


@given(LOG_RATE, LOG_TIME, st.sampled_from((-1.0, 1.0)))
def test_noise_integrals_continuous_at_series_boundary(gamma, t, sign):
    """|s| t_eff^2 = 2.5e-3 separates the series in s from the closed forms."""
    t_eff = min(t, 2.5 / gamma)
    assert _jump(gamma, sign * 2.5e-3 / (t_eff * t_eff), t) <= 1e-9


@given(LOG_RATE, LOG_TIME)
def test_noise_integrals_continuous_at_quarter_gamma_squared(gamma, t):
    """s = gamma^2 / 4 separates the exact exponentials from the analytic-in-s form."""
    assert _jump(gamma, 0.25 * gamma * gamma, t) <= 1e-9


# --- one array call against the float calls -----------------------------------


def _branch_switches(params: SystemParams) -> list[float]:
    """The times at which a t-branch of the closed forms switches: |s t^2| = 1
    of _sinhc_slope (at t and at 2 t), |2 lambda t| = 1 at each rate of the
    exact integrals, and |s| t^2 = _SERIES_ST2 of the series integrals."""
    s, k = dynamics._s_and_gap(params)
    if s == 0.0:
        return []
    gamma = params.gamma
    switches = []
    for level in (1.0, dynamics._SERIES_ST2):
        t = math.sqrt(level / abs(s))
        switches += [t, 0.5 * t]
    if s > 0.25 * gamma * gamma and gamma > 0:
        u = math.sqrt(s)
        switches += [0.5 / abs(rate) for rate in (gamma + u, k / (gamma + u)) if rate != 0.0]
    return switches


def _grid(params: SystemParams, draw_fraction: float) -> np.ndarray:
    """t = 0, a log grid to the comparison horizon and every branch switch
    before it, straddled at 1 -+ 1e-9."""
    end = _horizon(params)
    points = [0.0, *np.geomspace(1e-4 * end, end, 25).tolist(), draw_fraction * end]
    points += [t * (1.0 + d) for t in _branch_switches(params) if t < end for d in (-1e-9, 0.0, 1e-9)]
    return np.array(sorted(points))


def _assert_array_call_matches(array_call, float_pair, ts: np.ndarray, read=qfi, scale=None, floor=None) -> None:
    """array_call(ts) equals read(float_pair(t)) at each t within 1e-10 of
    scale(pair) (default: of that value itself), or within the relative
    rounding that det(sigma) carries (DET_ROUNDING of (s11 s22 + s12^2) /
    det) where that is larger. A value at or below floor(t, pair), where
    given, is rounding alone, and is held to 8 floor(t, pair). Where a float
    call raises, the array call raises the same error: that of the first
    failing t."""
    expected, tolerance = [], []
    for t in ts.tolist():
        try:
            pair = float_pair(t)
            value = read(pair)
        except Exception as exc:
            with pytest.raises(type(exc)) as raised:
                array_call(ts)
            assert raised.type is type(exc) and str(raised.value) == str(exc)
            return
        expected.append(value)
        (s11, s12), (_, s22) = pair.state.sigma.tolist()
        rounding = max(1e-10, DET_ROUNDING * (s11 * s22 + s12 * s12) / pair.state.det_sigma)
        tolerance.append(rounding * abs(value if scale is None else scale(pair)))
        if floor is not None and abs(value) <= (limit := floor(t, pair)):
            tolerance[-1] = 8.0 * limit
    got = array_call(ts)
    assert got.shape == ts.shape
    assert np.all(np.abs(got - expected) <= np.array(tolerance))


def _qfi_rounding_floor(params: SystemParams, t: float, pair: DerivativePair) -> float:
    """The QFI of pair = driven_pair(params, t) that the rounding of its dSigma
    alone can give. From the thermal start Sigma0 = (1 + 2 n_bath) I, dv = 0
    and dSigma = X + X^T + dG, X = dM Sigma0 M^T; a rotation-invariant start
    cancels X + X^T, and no drive cancels dG, to rounding. That rounding is
    taken as 8 eps times the magnitudes of the terms each entry sums: |dM|
    Sigma0 |M|^T and its transpose, and dG's terms. The QFI of an error E in
    dSigma is at most |Sigma^-1|^2 |E|_F^2 (1/2 + mu^2 / (1 - mu^4)), the
    purity term dropped for a pure state (qfi_terms)."""
    # M and dM column by column, from unit first moments at a float t.
    units = dynamics._critical_flow(params, GaussianState(np.eye(2), np.stack([np.eye(2)] * 2)), t)
    M, dM = units[0].v.T, units[1].T
    terms = (1.0 + 2.0 * params.n_bath) * np.abs(dM) @ np.abs(M).T
    terms = terms + terms.T
    if params.gamma > 0:
        w, eps = params.omega0, params.epsilon
        _, _, _, iq, dic, dis, diq = _noise_integrals(params.gamma, *dynamics._s_and_gap(params), t, slopes=True)
        d = 2.0 * params.gamma * (1.0 + 2.0 * params.n_bath)
        g11, g22 = (d * (2.0 * abs(iq * x) + abs(w) * (abs(dic) + 2.0 * abs(diq) * x * x)) for x in (w - eps, w + eps))
        g12 = 2.0 * d * abs(w) * eps * abs(dis)
        terms = terms + np.array([[g11, g12], [g12, g22]])
    error = 8.0 * np.finfo(float).eps * np.linalg.norm(terms)
    det = pair.state.det_sigma
    purity_term = 0.0 if is_pure(pair.state) else 1.0 / (det * (1.0 - 1.0 / (det * det)))
    return (np.linalg.norm(pair.state.sigma, 2) / det * error) ** 2 * (0.5 + purity_term)


@st.composite
def protocol_flows(draw) -> tuple:
    """(flow, params, start): the driven protocol from the bath's thermal
    state, or the passive one from a displaced squeezed thermal input, whose
    displacement gives the homodyne FI its mean term."""
    params = draw(system_params())
    if not draw(st.booleans()):
        return dynamics._critical_flow, params, thermal_state(params.n_bath)
    params = SystemParams(params.omega0, 0.0, params.gamma, n_bath=params.n_bath)
    alpha = DisplacementAmplitude(draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 2.0 * math.pi)))
    squeeze = SqueezeParam(draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 2.0 * math.pi)))
    return dynamics._passive_flow, params, pqs_input_state(alpha, squeeze, params.n_bath)


def _pairs_of_one_flow(flow, params: SystemParams, start, fraction: float):
    """(ts, pair_at) on the grid ts = _grid(params, fraction). pair_at(t):
    for the array ts, the DerivativePair stacked over ts of one array
    evaluation of flow's moments; for a float t of ts, the DerivativePair
    of that evaluation's moments at t.

    The closed-form shift derivative can carry more than 1e-10 of rounding
    (1.8e-6 relative on a small off-diagonal entry of dSigma at omega0 =
    0.125, epsilon = 0.002, gamma = 7, t = 3e-4), and the array and float
    flows round it differently. Read off the same moments, the estimators
    on a stacked pair are held to 1e-10 of their float calls; the flows' own
    agreement is the QFI rows' part."""
    ts = _grid(params, fraction)
    state, dv, dsigma = flow(params, start, ts)
    rows = {t: k for k, t in enumerate(ts.tolist())}

    def pair_at(t):
        if isinstance(t, np.ndarray):
            return DerivativePair(state, dv, dsigma)
        k = rows[t]
        row = GaussianState(state.v[k], state.sigma[k], state.det_sigma[k].item(), state.det_rounding[k].item())
        return DerivativePair(row, dv[k], dsigma[k])

    return ts, pair_at


def _cqs_qfi_calls(draw):
    """Grids straddle every t-branch switch and include t = 0; gamma = 0
    with n_bath = 0 keeps the state pure. With no drive the thermal start
    does not depend on the shift: its QFI is 0, and both calls give rounding.
    So does a drive too weak for its QFI to be a double, such as epsilon =
    3.3e-306 (2.8e-37 against 7.9e-38 at t = 0.55): a value at or below
    _qfi_rounding_floor is held to that floor, one above it to 1e-10."""
    lossless = system_params().map(lambda p: SystemParams(p.omega0, p.epsilon, 0.0))
    params = draw((system_params() | lossless).filter(lambda p: p.epsilon > 0.0))
    ts = _grid(params, draw(st.floats(0.0, 1.0)))
    floor = partial(_qfi_rounding_floor, params)
    _assert_array_call_matches(partial(cqs_qfi, params), partial(driven_pair, params), ts, floor=floor)


def _cqs_qfi_raise_calls(draw):
    """Above threshold the moments grow as e^{2 (u - gamma) t}, u = sqrt(s),
    and leave the double range by t = 400 / (u - gamma): the array call
    raises the float call's error, at the first t that fails. The grid
    skips the times between, where the squeezing leaves the QFI to rounding."""
    params = draw(system_params().filter(lambda p: p.epsilon > p.epsilon_c))
    params = SystemParams(params.omega0, params.epsilon, 0.0) if draw(st.booleans()) else params  # lossless
    s, _ = dynamics._s_and_gap(params)
    growth = math.sqrt(s) - params.gamma
    assume(growth > 0.0)
    horizon = _horizon(params)
    ts = np.array([0.0, 0.5 * horizon, horizon, 400.0 / growth, 800.0 / growth])
    with pytest.raises(InvalidStateError):
        driven_pair(params, float(ts[-1]))
    _assert_array_call_matches(partial(cqs_qfi, params), partial(driven_pair, params), ts)


def _fi_homodyne_calls(draw):
    """fi_homodyne on a stacked pair, to 1e-10 of the QFI where the FI at psi
    cancels to far below it."""
    ts, pair_at = _pairs_of_one_flow(*draw(protocol_flows()), draw(st.floats(0.0, 1.0)))
    psi = draw(st.floats(0.0, math.pi))
    fi = lambda pair: fi_homodyne(pair, psi)
    scale = lambda pair: max(fi(pair), qfi(pair))
    _assert_array_call_matches(lambda ts: over_t(lambda t: fi(pair_at(t)), ts), pair_at, ts, read=fi, scale=scale)


def _best_homodyne_calls(draw):
    """Both outputs of best_homodyne on a stacked pair: the FI, and the angle
    through the float FI at it, which must be the float optimum. Two peaks
    can tie to rounding (at a pure state B is traceless and the FI's two
    peaks are equal), so the angle itself may be either."""
    ts, pair_at = _pairs_of_one_flow(*draw(protocol_flows()), draw(st.floats(0.0, 1.0)))

    def fi_at_best_psi(ts):
        psis = over_t(lambda t: best_homodyne(pair_at(t))[0], ts)
        assert np.all((0.0 <= psis) & (psis < math.pi))
        return np.array([fi_homodyne(pair_at(t), psi) for t, psi in zip(ts.tolist(), psis.tolist())])

    best_fi = lambda pair: best_homodyne(pair)[1]
    for array_call in (lambda ts: over_t(lambda t: best_fi(pair_at(t)), ts), fi_at_best_psi):
        _assert_array_call_matches(array_call, pair_at, ts, read=best_fi, scale=qfi)


def _photons_and_purity_calls(draw):
    """mean_photons and purity of a stacked pair's states, and
    mean_photons_vs_time on an array. N = tr(sigma)/4 - 1/2 + |v|^2/2 is
    a difference of terms of size N + 1, and is held to 1e-10 of that."""
    params = draw(system_params())
    ts, pair_at = _grid(params, draw(st.floats(0.0, 1.0))), partial(driven_pair, params)
    photons, pure = lambda pair: mean_photons(pair.state), lambda pair: purity(pair.state)
    _assert_array_call_matches(lambda ts: over_t(lambda t: pure(pair_at(t)), ts), pair_at, ts, read=pure)
    for array_call in (lambda ts: over_t(lambda t: photons(pair_at(t)), ts), partial(mean_photons_vs_time, params)):
        _assert_array_call_matches(array_call, pair_at, ts, read=photons, scale=lambda pair: photons(pair) + 1.0)


def _pqs_qfi_calls(draw):
    params, n_max = draw(system_params()), draw(st.floats(0.0, 6.0).map(lambda x: 10.0 ** x))
    alpha, fraction = DisplacementAmplitude(draw(st.floats(0.0, 10.0))), draw(st.floats(0.0, 1.0))
    params = SystemParams(params.omega0, 0.0, params.gamma, n_bath=params.n_bath)
    assume(n_max > params.n_bath)
    _, r = default_pqs_input(n_max, params.n_bath)
    ts = _grid(params, fraction)
    _assert_array_call_matches(partial(pqs_qfi, alpha, r, params), partial(passive_pair, alpha, r, params), ts)


def _optimal_input_calls(draw):
    """The optimal homodyne input of each t, with alpha and r arrays over t:
    optimal_homodyne_input's squeezing and displacement, then
    pqs_input_state (its moments to 1e-10 of N + 1), then passive_pair's QFI
    and fi_homodyne at psi = pi/2 (to 1e-10 of max(FI, QFI)) on a bath of
    n_bath, each against its float call at each t. Optimal squeezing needs t > 0."""
    omega0, gamma = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    n_bath, n_max = draw(st.just(0.0) | st.floats(0.0, 3.0)), draw(st.floats(-3.0, 9.0).map(lambda x: 10.0 ** x))
    fraction = draw(st.floats(0.0, 1.0))
    params = SystemParams(omega0, 0.0, gamma, n_bath=n_bath)
    ts = _grid(params, fraction)[1:]

    def start_at(t):
        alpha, squeeze = optimal_homodyne_input(n_max, gamma, t)
        return SimpleNamespace(alpha=alpha, squeeze=squeeze, state=pqs_input_state(alpha, squeeze, n_bath))

    size = lambda start: mean_photons(start.state) + 1.0
    reads = [(lambda start: start.squeeze.r, None), (lambda start: start.alpha.magnitude, None),
             (lambda start: mean_photons(start.state), size)]
    reads += [(lambda start, i=i: start.state.v[..., i], size) for i in range(2)]
    reads += [(lambda start, ij=ij: start.state.sigma[(..., *ij)], size) for ij in ((0, 0), (0, 1), (1, 1))]
    for read, scale in reads:
        _assert_array_call_matches(lambda ts: read(start_at(ts)), start_at, ts, read=read, scale=scale)

    pair_at = lambda t: passive_pair(*optimal_homodyne_input(n_max, gamma, t), params, t)
    homodyne = lambda pair: fi_homodyne(pair, math.pi / 2.0)
    _assert_array_call_matches(lambda ts: qfi(pair_at(ts)), pair_at, ts)
    scale = lambda pair: max(homodyne(pair), qfi(pair))
    _assert_array_call_matches(lambda ts: homodyne(pair_at(ts)), pair_at, ts, read=homodyne, scale=scale)


@pytest.mark.parametrize("row", [_cqs_qfi_calls, _cqs_qfi_raise_calls, _fi_homodyne_calls, _best_homodyne_calls,
                                 _photons_and_purity_calls, _pqs_qfi_calls, _optimal_input_calls],
                         ids=lambda row: row.__name__)
@given(st.data())
def test_array_call_matches_float_calls(row, data):
    """One row of the table of array-versus-float contracts, as a test case
    of its own that keeps its own examples: it draws its inputs through
    `draw`, as a composite strategy's body does, and makes its
    _assert_array_call_matches calls."""
    row(data.draw)


def test_qfi_of_an_underflowing_drive_is_held_to_its_floor():
    """_cqs_qfi_calls at epsilon = 3.3e-306 without loss, whose QFI at the
    grid's t = sqrt(0.3) is rounding alone, on every run."""
    draws = iter((SystemParams(1.0, 3.3070474385904325e-306, 0.0), 0.5))
    _cqs_qfi_calls(lambda strategy: next(draws))


@st.composite
def real_quartics(draw) -> np.ndarray:
    """Real quartics as best_homodyne forms them, after its 1e-15 threshold:
    each coefficient 0 or not, so leading and trailing zeros both occur."""
    quartic = np.array([draw(st.floats(-1.0, 1.0)) * draw(st.sampled_from((0.0, 1.0))) for _ in range(5)])
    return np.where(abs(quartic) > 1e-15, quartic, 0.0)


@given(st.lists(real_quartics(), min_size=1, max_size=8))
@example([np.zeros(5), np.array([0.0, 0.0, 0.5, -0.25, 0.0]), np.array([0.0, 0.75, 0.0, 0.0, 0.0])])
def test_stacked_roots_are_np_roots(polys):
    """Each row's roots are the real parts of np.roots' own, bit for bit
    (the exact zeros it returns for trailing zero coefficients included),
    then +inf for each root a leading 0 drops, and 0 throughout an all-zero
    row; each row's roots are bit for bit those of _roots on that row
    alone, a stack of one, as best_homodyne takes one pair's quartic."""
    got = _roots(np.array(polys))
    for row, poly in zip(got, polys):
        want = np.roots(poly).real
        assert row[: len(want)].tobytes() == want.tobytes()
        assert np.all(row[len(want):] == (math.inf if np.any(poly) else 0.0))
        assert _roots(poly[None]).tobytes() == row.tobytes()


def test_unconverged_roots_raise(monkeypatch):
    """LAPACK gives nan for an eigenvalue that does not converge; _roots
    raises AccuracyError naming the first such quartic of a stack, and
    best_homodyne raises it for one pair and for a stack rather than fold
    that candidate into psi = 0."""
    nan_eigvals = lambda a, signature: np.full(a.shape[:-1], complex(math.nan))
    monkeypatch.setattr(protocols, "_umath_linalg", SimpleNamespace(eigvals=nan_eigvals))
    quartic = [0.3, -0.2, 0.5, 0.1, -0.7]
    with pytest.raises(AccuracyError, match=re.escape("quartic [0.3, -0.2, 0.5, 0.1, -0.7] has roots that did not")):
        _roots(np.array([quartic, [0.1, 0.2, -0.3, 0.4, 0.5]]))
    rows = [(1.0, 0.3, 2.0, 0.4, -0.2, 0.7, 0.1, -0.3), (2.0, -1.0, 0.5, 0.1, 0.6, -0.2, 0.3, 0.5)]
    for pair in (_frame(rows[0]), _frames(rows)):
        with pytest.raises(AccuracyError, match="did not converge"):
            best_homodyne(pair)


def _frames(rows) -> SimpleNamespace:
    """A stand-in pair whose whitened frame holds the rows (l11, l21, l22,
    a1, a2, b11, b12, b22) as arrays over t, with a state of as many rows of
    v for fi_homodyne's check of the angles' grid; best_homodyne reads
    nothing else."""
    l11, l21, l22, a1, a2, b11, b12, b22 = np.array(rows, dtype=float).T
    state = SimpleNamespace(v=np.zeros((len(l11), 2)))
    return SimpleNamespace(whitened=Whitened(l11, l21, l22, np.ones_like(l11), a1, a2, b11, b12, b22), state=state)


def _frame(row) -> SimpleNamespace:
    l11, l21, l22, a1, a2, b11, b12, b22 = row
    return SimpleNamespace(whitened=Whitened(l11, l21, l22, 1.0, a1, a2, b11, b12, b22))


def test_flat_fi_keeps_psi_zero():
    """Where the FI does not depend on the angle (a = 0 and B proportional
    to I, B = 0 included) the quartic vanishes and psi = 0, in a stack with
    rows that do have a best angle."""
    rows = [(1.0, 0.3, 2.0, 0.0, 0.0, 0.7, 0.0, 0.7), (2.0, -1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0),
            (1.0, 0.3, 2.0, 0.4, -0.2, 0.7, 0.1, -0.3)]
    psis, fis = best_homodyne(_frames(rows))
    assert psis[:2].tolist() == [0.0, 0.0]
    assert fis[:2].tolist() == [0.5 * 0.7 ** 2, 0.0]
    assert psis[2] > 0.0
    for row, psi, fi in zip(rows, psis.tolist(), fis.tolist()):
        assert best_homodyne(_frame(row)) == pytest.approx((psi, fi), rel=1e-12, abs=0.0)


def _rotated(l_row, a, b, angle) -> tuple:
    """A frame row with L from l_row and the whitened a and B turned by
    angle, which moves the FI's every stationary theta by angle."""
    c, s = math.cos(angle), math.sin(angle)
    turn = np.array([[c, -s], [s, c]])
    a, b = turn @ np.array(a), turn @ np.array(b) @ turn.T
    return (*l_row, *a.tolist(), b[0, 0], b[0, 1], b[1, 1])


def test_dropped_leading_coefficient():
    """Frames whose quartic in u = tan theta loses coefficients or has a
    double root. B within 1e-9 of a multiple of I puts the second harmonic's
    c2 = q1 q2 and s2 = (q2^2 - q1^2)/2 below 1e-15, so the u^2 coefficient
    -6 c2 is dropped. c1 = c2 = -0.12 drops the u^4 coefficient, and the best
    quadrature is theta = pi/2 (u = inf) exactly, found only as the fixed
    candidate. a = (1, -1)/sqrt 2 and B = [[1, 1], [1, -1]] turned by 0.4 have
    a double stationary point at theta = 0.4. The stack takes the float
    calls' angle and FI, and no point of a 721-point grid beats any of them."""
    at_infinity = (1.0, 0.3, 2.0, -0.1875, 0.8, 0.2, 0.3, 1.0)
    rows = [(1.0, 0.3, 2.0, 0.4, -0.2, 0.7 + 1e-9, 2e-9, 0.7 - 1e-9), (1.5, 0.0, 1.0, 0.1, 0.3, 0.2, 0.0, 0.2),
            (1.0, 0.3, 2.0, 0.4, -0.2, 0.7, 0.1, -0.3), at_infinity,
            _rotated((1.0, 0.3, 2.0), (math.sqrt(0.5), -math.sqrt(0.5)), [[1.0, 1.0], [1.0, -1.0]], 0.4)]
    psis, fis = best_homodyne(_frames(rows))
    for row, psi, fi in zip(rows, psis.tolist(), fis.tolist()):
        assert best_homodyne(_frame(row)) == pytest.approx((psi, fi), rel=1e-12, abs=0.0)
        grid = max(fi_homodyne(_frame(row), p) for p in np.linspace(0.0, math.pi, 721, endpoint=False))
        assert fi >= (1.0 - 1e-12) * grid
    # theta = pi/2 is u = L^-T (0, 1), a positive multiple of (-l21, l11).
    l11, l21 = at_infinity[:2]
    assert psis[3] == pytest.approx(math.atan2(-l11, -l21) % math.pi, rel=1e-12)
    assert fis[3] == pytest.approx(2.0 * 0.8**2 + 0.5 * 1.0**2, rel=1e-12)


def _assert_same_budget_error(got: ConstraintError, want: ConstraintError) -> None:
    """The same input-budget error: the photon counts within the 1e-10
    array-to-float contract (numpy's exp is not math's to the last bit),
    the rest of the message exactly."""
    pattern = r"input state holds (\S+) photons, (budget allows \S+)"
    (got_n, got_rest), (want_n, want_rest) = (re.fullmatch(pattern, str(e)).groups() for e in (got, want))
    assert got_rest == want_rest
    assert float(got_n) == pytest.approx(float(want_n), rel=1e-10, abs=0.0)


@given(
    st.lists(st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 3.0)), min_size=1, max_size=12),
    st.floats(1.0, 300.0),
    st.just(0.0) | st.floats(0.0, 3.0),
)
def test_stacked_input_budget_check_matches_float_calls(inputs, n_max, n_bath):
    """A PQS spec whose input holds one (alpha, r) per t checks the budget at
    every t: it raises the float call's ConstraintError at the first input
    over the budget, and otherwise starts from the float calls' states."""
    params, budget = SystemParams(1.0, 0.0, 1.0, n_bath=n_bath), ResourceBudget(n_max, 1.0)

    def spec(alpha, r):
        return ProtocolSpec(ProtocolKind.PQS, params, budget, (DisplacementAmplitude(alpha), SqueezeParam(r)))

    alphas, rs = map(np.array, zip(*inputs))
    photons = []
    for alpha, r in inputs:
        try:
            photons.append(mean_photons(spec(alpha, r).start))
        except ConstraintError as exc:
            with pytest.raises(ConstraintError) as raised:
                spec(alphas, rs)
            _assert_same_budget_error(raised.value, exc)
            return
    np.testing.assert_allclose(mean_photons(spec(alphas, rs).start), photons, rtol=1e-10, atol=0.0)


def test_cold_optimum_over_budget_on_hot_bath():
    """fignoisy's cold optimal input on its hot bath (n_B = 1) holds more
    than n_max = 300 photons: a spec for it on the figure's grid raises at
    the first t, as the float call does."""
    ts = np.geomspace(0.05, 10.0, 120)
    hot, budget = SystemParams(1.0, 0.0, 1.0, n_bath=1.0), ResourceBudget(300.0, 1.0)
    with pytest.raises(ConstraintError) as first:
        ProtocolSpec(ProtocolKind.PQS, hot, budget, optimal_homodyne_input(300.0, 1.0, float(ts[0])))
    with pytest.raises(ConstraintError) as stacked:
        ProtocolSpec(ProtocolKind.PQS, hot, budget, optimal_homodyne_input(300.0, 1.0, ts))
    _assert_same_budget_error(stacked.value, first.value)


def test_near_exceptional_point_matches_van_loan():
    """Float and array calls of cqs_qfi against the 50-digit value.

    A node just past the noise integrals' former series cutoff |s| t^2 =
    2.5e-3, where the float path was 7.5e-13 from the 50-digit value (2e-16
    on the series branch that takes it now): float and array calls stay
    within 1e-11, alone and inside a grid.

    Near the exceptional point, with |s t^2| from 1e-12 to 1e-6, where
    _decayed_cosh_sinhc takes its exact forms with no series: float and
    array calls stay within 1e-13, for s = +-1e-8 and s = 0 exactly,
    lossless and damped, from the vacuum and from a thermal start, and for
    s of order 1 at times as small.

    Near the exceptional point, where the noise integrals' s-slopes cancel
    digits past their series cutoff |s| t_eff^2 = _SERIES_ST2, t_eff =
    min(t, 2.5 / gamma): cqs_qfi is within 1e-13 of the 50-digit value at
    |s| t_eff^2 from 1e-4 to 1 (both sides of the cutoff), for both signs
    of s, from the vacuum and from a thermal start, as floats and as one
    array call. At omega0 = gamma = 1, s = 1e-3, t = 20 and s = -1e-3, t = 5
    it was 1.3e-10 and 1.1e-10 off with 5 terms and a cutoff of 2.5e-3.
    Also at gamma = 1e-12 and 1e-40, where the series' moments, powers of
    gamma t up to the 29th, leave the double range (1e-40 raised
    InvalidStateError)."""
    params = SystemParams(3.1466177539813374, 3.1716800393782556, 1.0, n_bath=2.0)
    t = 0.1352982853704671
    exact = van_loan_qfi(params, np.zeros(2), 5.0 * np.eye(2), t)
    grid = np.array([0.5 * t, t, 2.0 * t])
    for value in (cqs_qfi(params, t), cqs_qfi(params, np.array([t]))[0], cqs_qfi(params, grid)[1]):
        assert abs(value / exact - 1.0) <= 1e-11
    levels = np.array([1e-4, 5e-3, 0.05, 0.29, 0.31, 1.0])
    cases = [(1.0, gamma, n_bath, s, np.array([1e-2, 1.0, 10.0]))
             for s in (1e-8, -1e-8, 0.0) for gamma in (0.0, 1.0) for n_bath in (0.0, 0.5)]
    cases += [(1.0, 1.0, 0.5, s, np.array([1e-6, 4e-4])) for s in (3.0, -0.75)]  # epsilon = 2 and 0.5
    cases += [(1.0, 1.0, 0.0, s, np.array([5.0, 20.0])) for s in (1e-3, -1e-3)]
    cases += [(1.0, gamma, 0.5, -1e-4, np.array([1.0])) for gamma in (1e-12, 1e-40)]
    cases += [(omega0, gamma, n_bath, s, np.sqrt(levels / abs(s))) for omega0, gamma, n_bath, s in
              ((1.0, 1.0, 0.0, 0.16), (1.0, 1.0, 0.5, -0.16), (2.0, 0.5, 0.5, 0.04), (1.0, 2.0, 0.0, -0.64))]
    for omega0, gamma, n_bath, s, ts in cases:
        params = SystemParams(omega0, math.sqrt(omega0 * omega0 + s), gamma, n_bath=n_bath)
        exact = np.array([van_loan_qfi(params, np.zeros(2), (1.0 + 2.0 * n_bath) * np.eye(2), t) for t in ts.tolist()])
        floats = np.array([cqs_qfi(params, t) for t in ts.tolist()])
        for values in (floats, cqs_qfi(params, ts)):
            assert np.all(np.abs(values / exact - 1.0) <= 1e-13)


@given(
    st.floats(0.0, 8.0).map(lambda x: 10.0 ** x),
    st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x),
    st.floats(-6.0, 3.0).map(lambda x: 10.0 ** x),
)
def test_squeezed_vacuum_bound_closed_form(n_max, gamma, gamma_t):
    """PQS squeezed vacuum at n_B = 0 holds N(t) = N e^{-2 gamma t}, so its
    bound integral is N (1 - e^{-2 gamma T}) / gamma^2. The trajectory is
    called on 1-D arrays of t: once for the endpoints, once for tanhsinh's
    first probe, and once per refinement level."""
    spec = ProtocolSpec(ProtocolKind.PQS, SystemParams(1.0, 0.0, gamma), ResourceBudget(n_max, gamma_t / gamma))
    calls = []

    def traj(t):
        calls.append(t.shape)
        return spec.photons(t)

    result = fundamental_bound(traj, spec.budget.total_time, gamma)
    assert result.integral == pytest.approx(n_max * -math.expm1(-2.0 * gamma_t) / gamma**2, rel=1e-10)
    assert 0.0 <= result.error <= 1e-12 * result.integral
    assert len(calls) <= 5 and all(len(shape) == 1 for shape in calls)
