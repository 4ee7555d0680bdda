"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criterion 10a checks the lossless beyond-threshold quench against the model's
asymptote I -> 2 N(t)^2/(eps^2 - eps_c^2), in the QFI convention of criterion
1's 8N(1+N)t^2. That value follows from the squeezed-vacuum picture (see the
test's docstring), is reproduced by a plain matrix exponential of the drift
fed to the pure-Gaussian QFI, and is checked here against the 60-digit Van
Loan oracle as well as the closed form.

Criteria 8, 9 and 10b are `validate` checks: each runs its check and prints
the check's detail.
"""

import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import van_loan_qfi
from critsense.cli import main, run_compute
from critsense.dynamics import (
    SystemParams,
    evolve_critical,
    mean_photons_vs_time,
    spectral_info,
    steady_state,
    steady_state_photons,
)
from critsense.gaussian import thermal_state, vacuum_state
from critsense.metrology import qfi
from critsense.oracle import fock_evolve, fock_moments, fock_qfi_fidelity, fock_vacuum, gaussian_qfi, lyapunov_rk4
from critsense.protocols import (
    ProtocolKind,
    ProtocolSpec,
    ResourceBudget,
    cqs_qfi,
    cqs_qfi_steady,
    default_pqs_input,
    epsilon_opt,
    optimize_time,
    pqs_qfi,
    total_qfi,
)
from critsense.validate import check_beyond_threshold, check_homodyne_near_optimality, check_temperature_invariance

UNIT = SystemParams(1.0, 0.0, 1.0)


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def run_check(criterion: str, check) -> None:
    """A criterion that a `validate` check states: run it, print its detail."""
    result = check()
    assert result.passed, result.detail
    report(criterion, result.detail)


def test_criterion_01_noiseless_pqs_exact_law():
    worst = 0.0
    for n in (1.0, 10.0, 100.0):
        alpha, squeeze = default_pqs_input(n)
        for t in (0.1, 1.0):
            got = pqs_qfi(alpha, squeeze, SystemParams(1.0, 0.0, 0.0), t)
            target = 8.0 * n * (1.0 + n) * t * t
            worst = max(worst, abs(got - target) / target)
            assert got == pytest.approx(target, rel=1e-8)
    report("1", f"8N(1+N)t^2 law, worst rel err {worst:.2e}")


def test_criterion_02_steady_state_convergence():
    checked = 0
    worst = 0.0
    for (w0, gamma) in ((1.0, 1.0), (2.0, 1.0)):
        base = SystemParams(w0, 0.0, gamma)
        for ratio in (0.3, 0.45, 0.6, 0.75, 0.9, 0.95, 0.99, 0.9975):
            for n_bath in (0.0, 1.0):
                if (w0, gamma) != (1.0, 1.0) and ratio not in (0.6, 0.9975):
                    continue
                eps = ratio * base.epsilon_c
                params = SystemParams(w0, eps, gamma, n_bath=n_bath)
                lam = spectral_info(params).lambda_minus.real
                evolved = evolve_critical(params, thermal_state(n_bath), 20.0 / lam)
                target = steady_state(params).sigma
                rel = float(np.max(np.abs(evolved.sigma - target) / np.abs(target)))
                worst = max(worst, rel)
                checked += 1
                assert rel <= 1e-6
    assert checked >= 10
    report("2", f"{checked} parameter sets, worst entrywise rel err {worst:.2e}")


def test_criterion_03_epsilon_opt_consistency():
    worst = 0.0
    for n_max in (1.0, 100.0, 1e4):
        eps = epsilon_opt(n_max, UNIT)
        got = steady_state_photons(SystemParams(1.0, eps, 1.0))
        worst = max(worst, abs(got - n_max) / n_max)
        assert got == pytest.approx(n_max, rel=1e-9)
    report("3", f"steady photons equal the budget, worst rel err {worst:.2e}")


def test_criterion_04_cqs_steady_rate():
    params = SystemParams(1.0, epsilon_opt(100.0, UNIT), 1.0)
    n_inf = steady_state_photons(params)
    ratio = cqs_qfi_steady(params) / (2.0 * n_inf ** 2)
    assert 0.9 <= ratio <= 1.1
    report("4", f"I_cr Gamma^2 / (2 N(inf)^2) = {ratio:.4f}")


def test_criterion_05_pqs_single_shot_optimum():
    n = 1e4
    alpha, squeeze = default_pqs_input(n)
    found = minimize_scalar(lambda t: -pqs_qfi(alpha, squeeze, UNIT, t), bounds=(0.05, 5.0), method="bounded")
    t_opt, best = found.x, -found.fun
    assert 0.7 <= t_opt <= 0.9
    assert 0.58 <= best / n <= 0.72
    report("5", f"t_opt = {t_opt:.3f}/Gamma, I_max Gamma^2/N_max = {best / n:.3f}")


def test_criterion_06_bound_gate_and_saturation(tmp_path):
    # every figure configuration respects the bound
    main(["figure", "fig2", "--out", str(tmp_path)])
    main(["figure", "fig3", "--out", str(tmp_path)])
    n_max, gamma, total_time = 100.0, 1.0, 1.0
    cap_rate = 2.0 * n_max / gamma  # bound per unit total time
    with open(tmp_path / "fig2.csv", encoding="utf-8") as fh:
        fh.readline()
        data = np.loadtxt(fh, delimiter=",")
    t = data[:, 0]
    for col in (1, 2):
        total = data[:, col] * total_time / t
        assert np.all(total <= cap_rate * total_time * (1.0 + 1e-6))
    with open(tmp_path / "fig3.csv", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",")
    for name in header[1:9]:
        col = header.index(name)
        assert np.all(data[:, col] * n_max <= cap_rate * (1.0 + 1e-6))
    # optimized passive strategy comes within 80% of the bound at N = 1e4
    n = 1e4
    spec = ProtocolSpec(ProtocolKind.PQS, UNIT, ResourceBudget(n_max=n, total_time=10.0))
    alpha, squeeze = spec.pqs_input
    rate = lambda tt: pqs_qfi(alpha, squeeze, UNIT, tt)
    t_opt, _ = optimize_time(rate, spec.budget, (1e-4, 5.0))
    rep = total_qfi(spec, t_opt)
    saturation = rep.total_qfi / (2.0 * n * 10.0)
    assert saturation >= 0.8
    assert rep.total_qfi <= rep.bound_value * (1.0 + 1e-6)
    report("6", f"figure rows gated; PQS saturation {saturation:.3f} of 2 N T/Gamma")


def test_criterion_07_oracle_equivalence():
    # analytic propagator vs RK4 moments
    params = SystemParams(1.0, 1.2, 1.0)
    worst_rk4 = 0.0
    for (eps, n_bath, t) in ((1.2, 0.0, 5.0), (0.9, 1.0, 3.0), (1.4, 0.0, 8.0), (1.0, 0.5, 4.0)):
        p = SystemParams(1.0, eps, 1.0, n_bath=n_bath)
        analytic = evolve_critical(p, thermal_state(n_bath), t)
        numeric = lyapunov_rk4(p, thermal_state(n_bath), t).state
        rel = float(
            np.linalg.norm(analytic.sigma - numeric.sigma) / np.linalg.norm(numeric.sigma)
        )
        worst_rk4 = max(worst_rk4, rel)
        assert rel <= 1e-8
    # QFI formula vs the general mixed-state formula on the same pair
    pair = lyapunov_rk4(params, vacuum_state(), 2.0)
    reference = qfi(pair)
    general = gaussian_qfi(pair)
    assert general == pytest.approx(reference, rel=1e-10)
    # moments and QFI vs the Fock master equation (N(t) <= 5, dim = 60)
    assert mean_photons_vs_time(params, 2.0) <= 5.0
    rho = fock_evolve(params, fock_vacuum(60), 2.0)
    assert rho.leakage <= 1e-8
    _, sigma_fock = fock_moments(rho)
    sigma_gauss = evolve_critical(params, vacuum_state(), 2.0).sigma
    moment_err = float(np.max(np.abs(sigma_fock - sigma_gauss)))
    assert moment_err <= 1e-4
    fock_estimate = fock_qfi_fidelity(params, 2.0, 5e-3, dim=60)
    assert fock_estimate == pytest.approx(reference, rel=0.02)
    report(
        "7",
        f"RK4 {worst_rk4:.1e}; general formula {abs(general - reference) / reference:.1e}; "
        f"Fock moments {moment_err:.1e}, QFI {abs(fock_estimate - reference) / reference:.1%}",
    )


def test_criterion_08_homodyne_optimality():
    run_check("8", check_homodyne_near_optimality)


def test_criterion_09_temperature_invariance():
    run_check("9", check_temperature_invariance)


def test_criterion_10a_beyond_threshold_asymptote():
    """Lossless quench at eps = 2 eps_c: I -> 2 N(t)^2/(eps^2 - eps_c^2).

    Far beyond threshold the state is a squeezed vacuum whose long axis lies
    along the growing eigenvector of the drift x' = (w - eps) p,
    p' = -(w + eps) x. A frequency shift rotates that axis by
    d(phi)/d(w) = 1/(2u), u^2 = eps^2 - w^2, and a rotation of a squeezed
    vacuum carries QFI 4 Var(a^dag a) = 8 N (N + 1). Hence
    I -> 8 N^2/(4 u^2) = 2 N^2/(eps^2 - eps_c^2) for every eps > eps_c.
    A plain expm of that drift fed to the pure-Gaussian QFI
    1/4 tr[(Sigma^-1 dSigma)^2] gives I u^2/N^2 = 1.9992 at this point.

    The exact QFI of cqs_qfi is checked against the closed form and,
    independently, against the 60-digit Van Loan oracle (the state is pure,
    where the general mixed-state formula is singular). The quench analysis
    holds for a lossless drive above the critical point from vacuum, which
    the test asserts of its parameters first.
    """
    params = SystemParams(1.0, 2.0, 0.0)
    assert params.gamma == 0 and params.n_bath == 0 and params.epsilon > params.epsilon_c
    u2 = params.epsilon ** 2 - params.epsilon_c ** 2
    t = 5.0 / math.sqrt(u2)
    n = mean_photons_vs_time(params, t)
    got = cqs_qfi(params, t)
    target = 2.0 * n * n / u2
    assert got == pytest.approx(target, rel=1e-2), (
        f"exact QFI {got:.6g} is {got / target:.4f} of the quench asymptote "
        f"2 N^2/(eps^2-eps_c^2) = {target:.6g}"
    )
    oracle = van_loan_qfi(params, [0.0, 0.0], np.eye(2), t, dps=60)
    assert oracle == pytest.approx(got, rel=1e-10), (
        f"Van Loan oracle {oracle:.6g} disagrees with exact QFI {got:.6g}"
    )
    report(
        "10a",
        f"I u^2/N^2 = {got * u2 / (n * n):.4f} (asymptote 2); "
        f"Van Loan oracle rel diff {abs(oracle - got) / got:.1e}",
    )


def test_criterion_10b_below_threshold_wins():
    run_check("10b", check_beyond_threshold)


def test_criterion_11_overhead_gap():
    n = 100.0
    alpha, squeeze = default_pqs_input(n)
    rate_pqs = lambda t: pqs_qfi(alpha, squeeze, UNIT, t)
    b0 = ResourceBudget(n_max=n, total_time=1.0, t_pm=0.0)
    b2 = ResourceBudget(n_max=n, total_time=1.0, t_pm=2.0)
    _, p0 = optimize_time(rate_pqs, b0, (1e-3, 20.0))
    _, p2 = optimize_time(rate_pqs, b2, (1e-3, 20.0))
    driven = SystemParams(1.0, epsilon_opt(n, UNIT), 1.0)
    rate_cqs = lambda t: cqs_qfi(driven, t)
    _, c0 = optimize_time(rate_cqs, b0, (1.0, 4000.0))
    _, c2 = optimize_time(rate_cqs, b2, (1.0, 4000.0))
    pqs_drop = 1.0 - p2 / p0
    cqs_change = abs(1.0 - c2 / c0)
    assert pqs_drop > 0.40
    assert cqs_change < 0.10
    report("11", f"PQS rate drops {pqs_drop:.1%}, CQS rate changes {cqs_change:.2%}")


def test_criterion_12_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["figure", "fig4", "--out", str(a)])
    main(["figure", "fig4", "--out", str(b)])
    assert (a / "fig4.csv").read_bytes() == (b / "fig4.csv").read_bytes()
    cfg = {
        "mode": "qfi",
        "params": {"omega0": 1.0, "epsilon": 0.0, "gamma": 1.0},
        "protocol": {"kind": "PQS", "n_max": 50.0, "total_time": 5.0},
        "t": 0.7,
    }
    text1 = json.dumps(run_compute(cfg), sort_keys=True)
    text2 = json.dumps(run_compute(cfg), sort_keys=True)
    assert text1 == text2
    report("12", "figure and compute outputs are byte-identical across runs")
