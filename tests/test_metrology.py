import functools
import math

import numpy as np
import pytest

from conftest import (
    cqs_state_family,
    driven_pair,
    general_qfi,
    passive_pair,
    pqs_qfi_closed_form,
    pqs_state_family,
    rk4_pqs_pair,
    steady_time,
    van_loan_qfi,
)
from critsense import dynamics
from critsense.dynamics import SystemParams, evolve_critical, evolve_passive, steady_state
from critsense.errors import AccuracyError, DomainError, PreconditionError, PureStateError
from critsense.gaussian import (
    DisplacementAmplitude,
    GaussianState,
    SqueezeParam,
    apply_squeeze,
    photon_variance,
    rotation_matrix,
    squeeze_matrix,
    thermal_state,
    vacuum_state,
)
from critsense.metrology import (
    DerivativePair,
    differentiate_at_zero_shift,
    fi_homodyne,
    qfi,
    qfi_terms,
    snr_photon_counting,
)
from critsense.oracle import gaussian_qfi, lyapunov_rk4
from critsense.protocols import (
    best_homodyne,
    cqs_qfi,
    default_pqs_input,
    epsilon_opt,
    pqs_input_state,
    pqs_qfi,
)
from critsense.validate import _rel_state_diff


UNIT = SystemParams(1.0, 0.0, 1.0)


class TestExactDerivative:
    """metrology.differentiate_at_zero_shift against the mpmath Van Loan
    oracle, the RK4 oracle and closed forms."""

    @pytest.mark.parametrize("n_max", [1e5, 1e6, 1e8])
    def test_large_budget_at_steady_time(self, n_max):
        """The finite-difference QFI read 2.7e45 at N = 1e5, raised
        AccuracyError at 1e6 and let a bare OverflowError escape at 1e8."""
        params = SystemParams(1.0, epsilon_opt(n_max, UNIT), 1.0)
        t = steady_time(params)
        want = van_loan_qfi(params, [0.0, 0.0], np.eye(2), t)
        assert cqs_qfi(params, t) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(2.0 * n_max * (n_max + 1.0), rel=1e-4)

    @pytest.mark.parametrize("n_max", [10.0, 100.0, 1e3, 1e4])
    @pytest.mark.parametrize("t", [1.0, 100.0])
    def test_cqs_matches_van_loan(self, n_max, t):
        params = SystemParams(1.0, epsilon_opt(n_max, UNIT), 1.0)
        want = van_loan_qfi(params, [0.0, 0.0], np.eye(2), t)
        assert cqs_qfi(params, t) == pytest.approx(want, rel=1e-12)

    def test_late_time_budget_sweep_config(self):
        """Design config 437 of perfbench/workloads.py (N = 6.6e5 at
        t = 1.1e7), whose finite-difference QFI was nan."""
        params = SystemParams(1.49865, epsilon_opt(657678.35, SystemParams(1.49865, 0.0, 1.0)), 1.0)
        want = van_loan_qfi(params, [0.0, 0.0], np.eye(2), 1.1065e7)
        assert cqs_qfi(params, 1.1065e7) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n_max,frac", [(1e5, 1.0), (1e6, 0.3)])
    def test_lossless_cqs_from_vacuum_is_unitary(self, n_max, frac):
        """A unitary family keeps the purity constant; the finite-difference
        derivative gave |d mu| ~ 1e5 and qfi raised PureStateError."""
        lossless = SystemParams(1.0, 0.0, 0.0)
        params = SystemParams(1.0, epsilon_opt(n_max, lossless), 0.0)
        t = frac * math.pi / (4.0 * math.sqrt(1.0 - params.epsilon ** 2))
        pair = differentiate_at_zero_shift(evolve_critical, params, vacuum_state(), t)
        _, purity_term, _ = qfi_terms(pair)
        assert purity_term == 0.0
        want = van_loan_qfi(params, [0.0, 0.0], np.eye(2), t)
        assert qfi(pair) == pytest.approx(want, rel=1e-12)
        # Pure with zero mean: the best homodyne angle reaches the QFI.
        assert best_homodyne(pair)[1] == pytest.approx(want, rel=1e-12)

    def test_homodyne_below_qfi_at_lossless_quench(self):
        """omega0 = 6.71, eps = 12.75, gamma = 0, t = 0.607: the
        finite-difference pair gave FI 5.4730e8 above its QFI 5.4724e8, and
        0.8% above it for the lossless drive at epsilon_opt(30944.9),
        omega0 = 0.384, at the end of its optimize grid, t = 508.7."""
        w0, n_max = 0.38407669086241203, 30944.926052587714
        budget_drive = SystemParams(w0, epsilon_opt(n_max, SystemParams(w0, 0.0, 0.0)), 0.0)
        for params, t in ((SystemParams(6.71, 12.75, 0.0), 0.607), (budget_drive, 508.72743737077684)):
            pair = driven_pair(params, t)
            _, best = best_homodyne(pair)
            info = qfi(pair)
            assert best <= info * (1.0 + 1e-12)
            assert info == pytest.approx(van_loan_qfi(params, [0.0, 0.0], np.eye(2), t), rel=1e-12)

    @pytest.mark.parametrize("alpha,r", [(0.0, None), (2.0, 1.0)])
    def test_pqs_thermalised(self, alpha, r):
        """At gamma t = 100 the input survives as e^{-200}: the derivative is
        taken from the decayed input, not from the thermalised sigma."""
        if r is None:
            r = default_pqs_input(100.0)[1].r
        got = pqs_qfi(DisplacementAmplitude(alpha), SqueezeParam(r), UNIT, 100.0)
        assert got > 0.0
        assert got == pytest.approx(pqs_qfi_closed_form(alpha, r, 1.0, 100.0), rel=1e-12)

    @pytest.mark.parametrize(
        "exact,oracle,family,reference",
        [
            (lambda: driven_pair(SystemParams(1.0, 1.2, 1.0), 2.0),
             lambda: lyapunov_rk4(SystemParams(1.0, 1.2, 1.0), vacuum_state(), 2.0),
             lambda: cqs_state_family(SystemParams(1.0, 1.2, 1.0), 2.0),
             gaussian_qfi),
            (lambda: driven_pair(SystemParams(1.0, 1.0, 1.0, n_bath=0.5), 3.0),
             lambda: lyapunov_rk4(SystemParams(1.0, 1.0, 1.0, n_bath=0.5), thermal_state(0.5), 3.0),
             lambda: cqs_state_family(SystemParams(1.0, 1.0, 1.0, n_bath=0.5), 3.0),
             gaussian_qfi),
            # Lossless from the vacuum: a pure state, where the general formula is singular.
            (lambda: driven_pair(SystemParams(1.0, 0.5, 0.0), 2.0),
             lambda: lyapunov_rk4(SystemParams(1.0, 0.5, 0.0), vacuum_state(), 2.0),
             lambda: cqs_state_family(SystemParams(1.0, 0.5, 0.0), 2.0),
             lambda pair: van_loan_qfi(SystemParams(1.0, 0.5, 0.0), [0.0, 0.0], np.eye(2), 2.0)),
            (lambda: driven_pair(SystemParams(0.5, 1.0, 2.0, n_bath=1.5), 0.7),
             lambda: lyapunov_rk4(SystemParams(0.5, 1.0, 2.0, n_bath=1.5), thermal_state(1.5), 0.7),
             lambda: cqs_state_family(SystemParams(0.5, 1.0, 2.0, n_bath=1.5), 0.7),
             gaussian_qfi),
            # The transient of this exceptional-point drive has decayed as t^3 e^{-2t}.
            (lambda: differentiate_at_zero_shift(steady_state, SystemParams(1.0, 1.0, 1.0, n_bath=1.0)),
             lambda: lyapunov_rk4(SystemParams(1.0, 1.0, 1.0, n_bath=1.0), thermal_state(1.0), 60.0),
             lambda: lambda d: steady_state(SystemParams(1.0 + d, 1.0, 1.0, n_bath=1.0)),
             gaussian_qfi),
            (lambda: passive_pair(DisplacementAmplitude(2.0), SqueezeParam(0.8),
                                  SystemParams(1.0, 0.0, 1.0, n_bath=0.5), 0.6),
             lambda: rk4_pqs_pair(2.0, 0.8, SystemParams(1.0, 0.0, 1.0, n_bath=0.5), 0.6),
             lambda: pqs_state_family(2.0, 0.8, SystemParams(1.0, 0.0, 1.0, n_bath=0.5), 0.6),
             gaussian_qfi),
        ],
    )
    def test_agrees_with_rk4_and_general_formula(self, exact, oracle, family, reference):
        """The exact pair's state is the public evolution's bit for bit and
        within 1e-8 of the RK4 oracle's; its derivative is within 1e-8 of the
        oracle's, relative to the derivative's size; its QFI is within 1e-12
        of the reference's: the general mixed-state formula on the same pair,
        or for a pure state the 50-digit Van Loan oracle."""
        pair, rk4, fam = exact(), oracle(), family()
        base = fam(0.0)
        assert np.array_equal(pair.state.sigma, base.sigma)
        assert np.array_equal(pair.state.v, base.v)
        assert _rel_state_diff(pair.state, rk4.state) <= 1e-8
        scale = max(float(np.abs(pair.dsigma).max()), float(np.abs(pair.dv).max()))
        assert np.abs(pair.dsigma - rk4.dsigma).max() <= 1e-8 * scale
        assert np.abs(pair.dv - rk4.dv).max() <= 1e-8 * scale
        assert qfi(pair) == pytest.approx(qfi(rk4), rel=1e-8)
        assert qfi(pair) == pytest.approx(reference(pair), rel=1e-12)

    def test_one_evolution_per_derivative(self, monkeypatch):
        """The state and its derivative share one evaluation of the closed
        form: s and K, (c, sc), the series test and the noise integrals once
        each. The decorated evolution leads to that closed form through
        `__wrapped__` and is never called."""
        calls = []

        @functools.wraps(evolve_critical)
        def counted(*args):
            calls.append(args)
            return evolve_critical(*args)

        pieces = ("_s_and_gap", "_decayed_cosh_sinhc", "_is_series", "_noise_integrals")
        evaluations = dict.fromkeys(pieces, 0)
        for name in evaluations:

            def spy(*args, _name=name, _original=getattr(dynamics, name), **kwargs):
                evaluations[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(dynamics, name, spy)
        pair = differentiate_at_zero_shift(counted, SystemParams(1.0, 1.2, 1.0), thermal_state(0.0), 2.0)
        monkeypatch.undo()
        assert calls == []
        assert evaluations == dict.fromkeys(evaluations, 1)
        assert qfi(pair) == pytest.approx(cqs_qfi(SystemParams(1.0, 1.2, 1.0), 2.0), rel=0.0)

    def test_passive_rotation_generator(self):
        """dv = t J v for free precession, J = [[0, 1], [-1, 0]]."""
        t = 0.9
        start = apply_squeeze(thermal_state(0.0), SqueezeParam(0.4))
        start = GaussianState(np.array([1.3, -0.2]), start.sigma)
        pair = differentiate_at_zero_shift(evolve_passive, SystemParams(1.0, 0.0, 0.0), start, t)
        v = pair.state.v
        assert np.allclose(pair.dv, [t * v[1], -t * v[0]], rtol=1e-15, atol=0.0)
        assert pair.warn is False

    @pytest.mark.parametrize("gamma,n_bath", [(1.0, 0.5), (0.0, 0.0)], ids=["lossy", "lossless"])
    def test_passive_pair_is_the_lab_frame_pair(self, gamma, n_bath):
        """evolve_passive's frame rotates at omega0, so its pair at any
        omega0 is the lab-frame free flow's (evolve_critical at epsilon = 0
        and omega0 = 0), whose derivative by omega0 is a second closed form:
        the same states, and tangents within 1e-14 of their size, for an
        input off the phase-space axes over a stack of t."""
        start = pqs_input_state(DisplacementAmplitude(1.5, 2.0), SqueezeParam(0.5, 0.4), n_bath)
        t = np.array([0.0, 0.6, 3.0])
        passive = differentiate_at_zero_shift(evolve_passive, SystemParams(1.3, 0.0, gamma, n_bath=n_bath), start, t)
        lab = differentiate_at_zero_shift(evolve_critical, SystemParams(0.0, 0.0, gamma, n_bath=n_bath), start, t)
        assert np.array_equal(passive.state.v, lab.state.v)
        assert np.allclose(passive.state.sigma, lab.state.sigma, rtol=1e-15, atol=0.0)
        scale = max(float(np.abs(passive.dsigma).max()), float(np.abs(passive.dv).max()))
        assert np.abs(passive.dv - lab.dv).max() <= 1e-14 * scale
        assert np.abs(passive.dsigma - lab.dsigma).max() <= 1e-14 * scale
        assert np.allclose(qfi(passive), qfi(lab), rtol=1e-12, atol=0.0)


class TestStackedPair:
    """A DerivativePair over a 1-D array of t against the pairs of its rows."""

    TIMES = np.array([0.0, 0.3, 2.0, 40.0])

    def _moments(self, params: SystemParams):
        return dynamics._critical_flow(params, thermal_state(params.n_bath), self.TIMES)

    @pytest.mark.parametrize(
        "params", [SystemParams(1.0, 1.2, 1.0, n_bath=0.5), SystemParams(1.0, 0.5, 0.0)], ids=["lossy", "pure"]
    )
    def test_stack_is_its_rows(self, params):
        """dv, the symmetrised dsigma and every field of `whitened`, bit for
        bit; the lossless flow keeps its states pure, where `whitened`
        removes the trace of B."""
        state, dv, dsigma = self._moments(params)
        dsigma = dsigma + np.array([[0.0, 1e-3], [-1e-3, 0.0]])
        stack = DerivativePair(state, dv, dsigma)
        assert np.array_equal(stack.dsigma, stack.dsigma.swapaxes(1, 2))
        for k in range(len(self.TIMES)):
            row = DerivativePair(GaussianState(state.v[k], state.sigma[k]), dv[k], dsigma[k])
            assert stack.dv[k].tobytes() == row.dv.tobytes()
            assert stack.dsigma[k].tobytes() == row.dsigma.tobytes()
            for name, value in row.whitened._asdict().items():
                assert getattr(stack.whitened, name)[k].item() == value, name

    def test_derivative_shapes_must_be_the_states(self):
        state, dv, dsigma = self._moments(UNIT)
        for pair_state, d_v, d_sigma in ((state, dv[:3], dsigma), (state, dv, dsigma[:3]), (state, dv[0], dsigma[0]),
                                         (thermal_state(0.0), dv, dsigma), (state, dv, dsigma[:, 0])):
            with pytest.raises(DomainError, match="derivative shapes"):
                DerivativePair(pair_state, d_v, d_sigma)

    def test_non_finite_derivative_rejected(self):
        state, dv, dsigma = self._moments(UNIT)
        dv[2, 1] = math.nan
        with pytest.raises(DomainError, match="non-finite derivatives"):
            DerivativePair(state, dv, dsigma)


def test_pairs_compare_as_one_bool():
    """DerivativePair compares its state and derivatives entry by entry, as
    one bool, for one pair and for a stack of them."""
    pair_at = functools.partial(driven_pair, SystemParams(1.0, 1.2, 1.0, n_bath=0.5))
    assert (pair_at(1.0) == pair_at(1.0)) is True
    assert (pair_at(1.0) != pair_at(2.0)) is True
    assert pair_at(1.0) != pair_at(1.0).state
    times = np.array([0.5, 1.0, 2.0])
    stack = pair_at(times)
    assert (stack == pair_at(times.copy())) is True
    for other in (pair_at(times[:2]), pair_at(1.0), pair_at(times + 0.1)):
        assert (stack == other) is False and (stack != other) is True


@pytest.mark.parametrize(
    "call",
    [
        lambda stack, pair: photon_variance(stack),
        lambda stack, pair: snr_photon_counting(pair),
        lambda stack, pair: gaussian_qfi(pair),
        lambda stack, pair: lyapunov_rk4(UNIT, stack, 1.0),
    ],
    ids=["photon_variance", "snr_photon_counting", "gaussian_qfi", "lyapunov_rk4"],
)
def test_float_only_consumers_reject_a_stack(call):
    stack = apply_squeeze(vacuum_state(), SqueezeParam(np.array([0.2, 0.6])))
    pair = DerivativePair(stack, np.zeros((2, 2)), np.ones((2, 2, 2)))
    with pytest.raises(PreconditionError, match="takes one state, not a stack of 2"):
        call(stack, pair)


class TestQfi:
    @pytest.mark.parametrize("n_photons,t", [(5.0, 0.7), (50.0, 0.25)])
    def test_noiseless_squeezed_vacuum(self, n_photons, t):
        r = math.asinh(math.sqrt(n_photons))
        pair = passive_pair(DisplacementAmplitude(0.0), SqueezeParam(r), SystemParams(1.0, 0.0, 0.0), t)
        expected = 8.0 * n_photons * (1.0 + n_photons) * t * t
        assert qfi(pair) == pytest.approx(expected, rel=1e-8)

    def test_noiseless_coherent(self):
        alpha, t = 1.5, 0.7
        pair = passive_pair(DisplacementAmplitude(alpha), SqueezeParam(0.0), SystemParams(1.0, 0.0, 0.0), t)
        assert qfi(pair) == pytest.approx(4 * alpha ** 2 * t ** 2, rel=1e-9)

    def test_rotation_invariant_state_carries_nothing(self):
        t = 1.1
        st = thermal_state(1.0)
        gen = np.array([[0.0, t], [-t, 0.0]])
        dsigma = gen @ st.sigma + st.sigma @ gen.T  # zero for a thermal state
        pair = DerivativePair(st, np.zeros(2), dsigma)
        assert qfi(pair) == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_with_changing_purity_rejected(self):
        pair = DerivativePair(vacuum_state(), np.zeros(2), np.eye(2))
        with pytest.raises(PureStateError):
            qfi(pair)

    @pytest.mark.parametrize("size", [1e-8, 1e-6])
    def test_near_pure_mixed_state_keeps_purity_term(self, size):
        """n_B = 2.5e-11 puts det - 1 = 1e-10, 1e4 times its rounding: the
        state is mixed, and the purity term carries its QFI. A purity gap
        wider than det's rounding read 6.8e-49 at size 1e-8 and raised
        PureStateError at 1e-6."""
        pair = DerivativePair(thermal_state(2.5e-11), np.zeros(2), size * np.eye(2))
        assert qfi(pair) == pytest.approx(general_qfi(pair.state.sigma, pair.dsigma, pair.dv), rel=1e-9, abs=0.0)

    def test_overflow_raises_instead_of_nan(self):
        pair = DerivativePair(thermal_state(1.0), np.zeros(2), np.diag([1e200, -1e200]))
        with np.errstate(over="ignore"):
            for info in (qfi, qfi_terms, lambda p: fi_homodyne(p, 0.0)):
                with pytest.raises(AccuracyError):
                    info(pair)

    def test_dissipative_closed_form(self):
        for (alpha, r, g, t) in [(2.0, 1.0, 1.0, 0.3), (0.5, 2.0, 1.0, 1.2), (0.0, 3.0, 1.0, 0.8)]:
            pair = passive_pair(DisplacementAmplitude(alpha), SqueezeParam(r), SystemParams(1.0, 0.0, g), t)
            expected = pqs_qfi_closed_form(alpha, r, g, t)
            assert qfi(pair) == pytest.approx(expected, rel=1e-8)

    def test_displacement_term_quadratic(self):
        pair = passive_pair(DisplacementAmplitude(2.0), SqueezeParam(1.0), UNIT, 0.5)
        _, _, t3 = qfi_terms(pair)
        doubled = DerivativePair(pair.state, 2.0 * pair.dv, pair.dsigma)
        _, _, t3_doubled = qfi_terms(doubled)
        assert t3_doubled == 4.0 * t3

    def test_symplectic_invariance(self):
        pair = lyapunov_rk4(SystemParams(1.0, 1.2, 1.0), vacuum_state(), 2.0)
        base = qfi(pair)
        S = rotation_matrix(0.7) @ squeeze_matrix(SqueezeParam(0.9)) @ rotation_matrix(-1.2)
        moved = DerivativePair(
            GaussianState(S @ pair.state.v, S @ pair.state.sigma @ S.T),
            S @ pair.dv,
            S @ pair.dsigma @ S.T,
        )
        assert qfi(moved) == pytest.approx(base, rel=1e-9)


class TestGeneralFormula:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: rk4_pqs_pair(2.0, 1.0, SystemParams(1.0, 0.0, 1.0), 0.6),
            lambda: rk4_pqs_pair(0.0, 3.0, SystemParams(1.0, 0.0, 1.0, n_bath=1.0), 1.5),
            lambda: lyapunov_rk4(SystemParams(1.0, 1.2, 1.0), vacuum_state(), 2.0),
            lambda: lyapunov_rk4(SystemParams(1.0, 1.4, 1.0, n_bath=1.0), thermal_state(1.0), 4.0),
        ],
    )
    def test_agrees_with_formula(self, build):
        """The general mixed-state formula against the QFI formula on the RK4 oracle's pair."""
        pair = build()
        assert gaussian_qfi(pair) == pytest.approx(qfi(pair), rel=1e-12)


class TestFiHomodyne:
    @pytest.mark.parametrize("alpha,r,g,n_bath,t", [(2.0, 1.0, 1.0, 0.0, 0.5), (1.5, 0.8, 1.0, 1.0, 0.7)])
    def test_p_quadrature_closed_form(self, alpha, r, g, n_bath, t):
        params = SystemParams(1.0, 0.0, g, n_bath=n_bath)
        pair = passive_pair(DisplacementAmplitude(alpha), SqueezeParam(r), params, t)
        expected = 4.0 * alpha ** 2 * t * t / (
            (1.0 + 2.0 * n_bath) * (math.exp(-2.0 * r) + math.exp(2.0 * g * t) - 1.0)
        )
        assert fi_homodyne(pair, math.pi / 2) == pytest.approx(expected, rel=1e-8)

    def test_near_pure_mixed_state(self):
        """dS^2 / (2 S^2) = 5.0e-17 for S = 1 + 5e-11, dS = 1e-8; it read
        1.4e-48 where B's trace was removed as if the state were pure."""
        pair = DerivativePair(thermal_state(2.5e-11), np.zeros(2), 1e-8 * np.eye(2))
        assert fi_homodyne(pair, 0.0) == pytest.approx(5.0e-17, rel=1e-9, abs=0.0)

    def test_no_signal_gives_zero(self):
        pair = DerivativePair(thermal_state(0.5), np.zeros(2), np.zeros((2, 2)))
        assert fi_homodyne(pair, 0.7) == 0.0

    def test_noiseless_optimal_split(self):
        """alpha/r split with e^{2r} = 2N+1 reaches 4N(1+N)t^2 at psi = pi/2."""
        n_photons, t = 25.0, 0.6
        r = 0.5 * math.log(2.0 * n_photons + 1.0)
        alpha = math.sqrt(n_photons - math.sinh(r) ** 2)
        pair = passive_pair(DisplacementAmplitude(alpha), SqueezeParam(r), SystemParams(1.0, 0.0, 0.0), t)
        expected = 4.0 * n_photons * (1.0 + n_photons) * t * t
        assert fi_homodyne(pair, math.pi / 2) == pytest.approx(expected, rel=1e-8)

    def test_steady_state_closed_form(self):
        """Stationary-state homodyne FI at arbitrary angle matches the closed form."""
        w0 = gamma = 1.0
        eps = 1.2
        pair = differentiate_at_zero_shift(steady_state, SystemParams(w0, eps, gamma))
        ec2 = w0 * w0 + gamma * gamma
        for psi in (0.0, 0.3, 0.9, math.pi / 2, 2.0):
            num = eps ** 2 * (
                (gamma ** 2 - w0 ** 2 - eps ** 2) * math.cos(2 * psi)
                + 2 * w0 * eps
                + 2 * w0 * gamma * math.sin(2 * psi)
            ) ** 2
            den = 2.0 * (ec2 - eps ** 2) ** 2 * (
                ec2 - eps * (w0 * math.cos(2 * psi) - gamma * math.sin(2 * psi))
            ) ** 2
            assert fi_homodyne(pair, psi) == pytest.approx(num / den, rel=1e-7)

    def test_mean_uses_the_measured_quadrature(self):
        """The mean signal is taken along x cos(psi) - p sin(psi), the same
        quadrature as the variance: FI at psi equals FI at 0 after rotating
        the family by R(psi), whose first row is (cos psi, -sin psi)."""
        pair = passive_pair(DisplacementAmplitude(2.0, 0.3), SqueezeParam(0.8, 1.1), UNIT, 0.6)
        psi = 0.4
        R = rotation_matrix(psi)
        moved = DerivativePair(
            GaussianState(R @ pair.state.v, R @ pair.state.sigma @ R.T),
            R @ pair.dv,
            R @ pair.dsigma @ R.T,
        )
        got = fi_homodyne(pair, psi)
        assert got == pytest.approx(fi_homodyne(moved, 0.0), rel=1e-12)
        assert got == pytest.approx(0.7922, abs=5e-5)


class TestSnrPhotonCounting:
    def test_steady_state_closed_form(self):
        """SNR at the stationary state: 4 eps^2 w0^2 / ((3ec^2 - e^2)(ec^2 - e^2)^2)."""
        params = SystemParams(1.0, 1.2, 1.0)
        pair = differentiate_at_zero_shift(steady_state, params)
        ec2 = params.epsilon_c ** 2
        expected = 4.0 * 1.2 ** 2 / ((3.0 * ec2 - 1.2 ** 2) * (ec2 - 1.2 ** 2) ** 2)
        assert snr_photon_counting(pair) == pytest.approx(expected, rel=1e-8)

    def test_near_critical_asymptote(self):
        eps = 0.9975 * math.sqrt(2.0)
        params = SystemParams(1.0, eps, 1.0)
        pair = differentiate_at_zero_shift(steady_state, params)
        n_inf = 0.5 * eps ** 2 / (params.epsilon_c ** 2 - eps ** 2)
        asym = 8.0 / params.epsilon_c ** 4 * n_inf ** 2
        assert snr_photon_counting(pair) == pytest.approx(asym, rel=0.05)

    def test_constant_photon_family(self):
        t = 1.1
        st = thermal_state(1.0)
        gen = np.array([[0.0, t], [-t, 0.0]])
        pair = DerivativePair(st, np.zeros(2), gen @ st.sigma + st.sigma @ gen.T)
        assert snr_photon_counting(pair) == 0.0

    def test_requires_zero_mean(self):
        st = GaussianState(np.array([1.0, 0.0]), 2.0 * np.eye(2))
        with pytest.raises(PreconditionError):
            snr_photon_counting(DerivativePair(st, np.zeros(2), np.eye(2)))


_CRITICAL = (SystemParams(1.0, 1.2, 1.0), thermal_state(0.0), 2.0)
_PASSIVE = (SystemParams(1.0, 0.0, 0.5), thermal_state(0.3), 1.0)
_STEADY = (SystemParams(1.0, 1.2, 1.0),)


def _impostor(name: str):
    """A plain function that only shares an evolution's name: it returns its
    start unchanged, and raises where it has none."""

    def impostor(params, *args):
        if not args:
            raise AssertionError("impostor called")
        return args[0]

    impostor.__name__ = impostor.__qualname__ = name
    return impostor


def _wrapped(evolve):
    """A functools.wraps decoration of evolve that raises if called."""

    @functools.wraps(evolve)
    def wrapper(*args):
        raise AssertionError("wrapper called")

    return wrapper


def _cycle():
    """A function whose __wrapped__ chain never ends."""

    def loop(params):
        return vacuum_state()

    loop.__wrapped__ = loop
    return loop


@pytest.mark.parametrize("evolve, args, resolves_to", [
    pytest.param(_impostor("evolve_critical"), _CRITICAL, None, id="named-evolve_critical"),
    pytest.param(_impostor("evolve_passive"), _PASSIVE, None, id="named-evolve_passive"),
    pytest.param(_impostor("steady_state"), _STEADY, None, id="named-steady_state"),
    pytest.param(functools.partial(evolve_critical), _CRITICAL, None, id="partial"),
    pytest.param(lambda params: vacuum_state(), (UNIT,), None, id="lambda"),
    pytest.param(None, _STEADY, None, id="None"),
    pytest.param([1], _STEADY, None, id="unhashable"),
    pytest.param(_cycle(), _STEADY, None, id="wrapped-cycle"),
    pytest.param(_wrapped(evolve_critical), _CRITICAL, evolve_critical, id="wraps-evolve_critical"),
    pytest.param(_wrapped(evolve_passive), _PASSIVE, evolve_passive, id="wraps-evolve_passive"),
    pytest.param(_wrapped(steady_state), _STEADY, steady_state, id="wraps-steady_state"),
    pytest.param(functools.lru_cache(evolve_critical), _CRITICAL, evolve_critical, id="lru_cache-evolve_critical"),
    pytest.param(_wrapped(functools.lru_cache(steady_state)), _STEADY, steady_state, id="wraps-lru_cache-steady"),
])
def test_evolution_found_by_identity(evolve, args, resolves_to):
    """differentiate_at_zero_shift finds an evolution's flow by identity,
    through a __wrapped__ chain and never by name: a wrapped evolution gives
    the undecorated pair bit for bit, without being called, and any other
    object, an impostor with an evolution's name included, raises
    DomainError."""
    if resolves_to is None:
        with pytest.raises(DomainError, match="no exact shift derivative"):
            differentiate_at_zero_shift(evolve, *args)
        return
    got, want = differentiate_at_zero_shift(evolve, *args), differentiate_at_zero_shift(resolves_to, *args)
    for a, b in ((got.state.v, want.state.v), (got.state.sigma, want.state.sigma),
                 (got.dv, want.dv), (got.dsigma, want.dsigma)):
        assert a.tobytes() == b.tobytes()


def test_homodyne_angles_over_another_grid_rejected():
    """psi with one angle for each of two times, on a stack of three,
    raises PreconditionError as every input per t does, not numpy's bare
    broadcast error."""
    pair = driven_pair(SystemParams(1.0, 1.2, 1.0), np.array([0.5, 1.0, 2.0]))
    with pytest.raises(PreconditionError, match="input per t of 2 times on a stack of 3 states"):
        fi_homodyne(pair, np.array([0.1, 0.2]))


@pytest.mark.parametrize("estimates, pairs", [
    (lambda pair: [fi_homodyne(pair, psi) for psi in np.linspace(0.0, math.pi, 64, endpoint=False).tolist()],
     lambda: [lyapunov_rk4(SystemParams(1.0, 1.2, 1.0), vacuum_state(), 2.0),
              lyapunov_rk4(SystemParams(1.0, 1.4, 1.0, n_bath=1.0), thermal_state(1.0), 5.0),
              rk4_pqs_pair(2.0, 1.0, SystemParams(1.0, 0.0, 1.0), 0.5),
              differentiate_at_zero_shift(steady_state, SystemParams(1.0, 1.35, 1.0))]),
    (lambda pair: [snr_photon_counting(pair)],
     lambda: [differentiate_at_zero_shift(steady_state, SystemParams(1.0, 1.2, 1.0)),
              differentiate_at_zero_shift(steady_state, SystemParams(1.0, 1.38, 1.0, n_bath=0.5))]),
], ids=["fi_homodyne", "snr_photon_counting"])
def test_estimator_never_exceeds_qfi(estimates, pairs):
    for pair in pairs():
        assert max(estimates(pair)) <= qfi(pair) * (1.0 + 1e-6)
