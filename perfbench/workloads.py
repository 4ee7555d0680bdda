"""The benchmark workloads: seeded inputs, timed operations, output checks.

Each operation is a callable timed by the runner plus a check run outside the
timed region. A check returns None when the output is right, or a short
failure category followed by a detail. The program is driven only through
`cli.main([...])` and the public `oracle` and `dynamics` functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

# Relative tolerance against the expm reference. Today's finite-difference
# engine meets it up to N = 1e3 (ROADMAP item 3).
REL_TOL = 1e-6
# Values below this share of their own scale sit at roundoff level.
FLOOR = 1e-12
# Fock-oracle agreement with the Gaussian QFI, as in tests/test_oracle.py.
FOCK_REL_TOL = 0.02
# Per-op deadlines, each inside the measured gap between normal and
# pathological ops. Figure and Fock ops take <= 5 s, the pathological ones
# >= 20 s. `compute` ops take <= 0.12 s; the PQS bound cliff jumps from
# 0.07 s to >= 20 s. One `validate` check (RK4 agreement) takes 10-17 s.
DEADLINE_S = 10.0
COMPUTE_DEADLINE_S = 1.5
VALIDATE_DEADLINE_S = 60.0


class Op:
    """One closed-loop operation: `call()` is timed and stopped after
    `deadline_s`; `check(value)` is not timed. `tags` describe the input, so
    that a failure can be matched against the recorded findings."""

    __slots__ = ("label", "call", "check", "deadline_s", "tags")

    def __init__(self, label, call, check, deadline_s=DEADLINE_S, tags=None):
        self.label = label
        self.call = call
        self.check = check
        self.deadline_s = deadline_s
        self.tags = tags or {}


def _miss(got: float, want: float, scale: float, rel: float = REL_TOL) -> bool:
    return not abs(got - want) <= rel * abs(want) + FLOOR * abs(scale)


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity, which RFC 8259 forbids."""

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _strat_uniform(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws, one per equal-width stratum of [lo, hi], in random order."""
    u = (np.arange(n) + rng.random(n)) / n
    return lo + (hi - lo) * rng.permutation(u)


# --- paper_figures -------------------------------------------------------------

# name -> (time grid, header) exactly as the paper's fixed grid.
FIGURE_SPECS = {
    "fig2": (np.geomspace(0.01, 2000.0, 160),
             ["t", "qfi_pqs", "qfi_cqs", "log1p_qfi_pqs", "log1p_qfi_cqs", "photons_pqs", "photons_cqs"]),
    "fig3": (np.geomspace(0.02, 3000.0, 140),
             ["t", "rate_pqs_tpm0", "rate_pqs_tpm2", "rate_cqs_tpm0", "rate_cqs_tpm2",
              "rate_hom_optr_tpm0", "rate_hom_optr_tpm2", "rate_hom_sqvac_tpm0", "rate_hom_sqvac_tpm2",
              "photons_pqs", "photons_cqs"]),
    "fig4": (np.geomspace(0.01, 1000.0, 180),
             ["t", "purity_below", "photons_below", "purity_above", "photons_above"]),
    "fig7": (np.geomspace(0.05, 3000.0, 120),
             ["t", "ratio_psi_0", "ratio_psi_pi8", "ratio_psi_pi4", "ratio_psi_3pi8", "ratio_psi_pi2", "ratio_best"]),
    "fignoisy": (np.geomspace(0.05, 10.0, 120),
                 ["t", "ratio_pqs_qfi", "ratio_pqs_fi_hom", "ratio_cqs_qfi"]),
}
ROWS_CHECKED = 4


def _opt_homodyne_input(n_max: float, gamma: float, t: float) -> tuple[float, float]:
    """(alpha, r) maximizing zero-temperature p-homodyne FI under the budget,
    found numerically: alpha^2 = n_max - sinh^2 r, r in [0, asinh sqrt(n_max)]."""
    from scipy.optimize import minimize_scalar

    def alpha(r):
        return math.sqrt(max(n_max - math.sinh(r) ** 2, 0.0))

    def neg_fi(r):
        v0, s0 = ref.displaced_squeezed(alpha(r), r, 0.0)
        return -ref.homodyne_fi(ref.pqs(v0, s0, gamma, 0.0, t), math.pi / 2.0)

    r_max = math.asinh(math.sqrt(n_max))
    res = minimize_scalar(neg_fi, bounds=(0.0, r_max), method="bounded", options={"xatol": 1e-12})
    return alpha(float(res.x)), float(res.x)


def figure_reference_row(name: str, t: float) -> list[float]:
    """Reference values of one figure row (without the t column)."""
    n_max = 100.0
    eps = ref.cqs_epsilon(n_max, 1.0, 1.0, 0.0)
    v_sq, s_sq = ref.squeezed_input(n_max, 0.0)
    zero = np.zeros(2)
    if name in ("fig2", "fig3"):
        m_pqs = ref.pqs(v_sq, s_sq, 1.0, 0.0, t)
        m_cqs = ref.cqs(1.0, eps, 1.0, 0.0, t)
        i_pqs, i_cqs = ref.gaussian_qfi(m_pqs), ref.gaussian_qfi(m_cqs)
        n_pqs, _ = ref.photons_and_purity(0.0, 0.0, 1.0, 0.0, v_sq, s_sq, t)
        n_cqs, _ = ref.photons_and_purity(1.0, eps, 1.0, 0.0, zero, ref.thermal_sigma(0.0), t)
        if name == "fig2":
            return [i_pqs, i_cqs, math.log1p(i_pqs), math.log1p(i_cqs), n_pqs, n_cqs]
        v_o, s_o = ref.displaced_squeezed(*_opt_homodyne_input(n_max, 1.0, t), 0.0)
        f_optr = ref.homodyne_fi(ref.pqs(v_o, s_o, 1.0, 0.0, t), math.pi / 2.0)
        f_sqvac = ref.best_homodyne_fi(m_pqs)
        row = []
        for value in (i_pqs, i_cqs, f_optr, f_sqvac):
            row += [value / (n_max * t), value / (n_max * (t + 2.0))]
        return row + [n_pqs, n_cqs]
    if name == "fig4":
        row = []
        for e in (0.99, 0.9975 * math.sqrt(2.0)):
            n, mu = ref.photons_and_purity(1.0, e, 1.0, 0.0, zero, ref.thermal_sigma(0.0), t)
            row += [min(mu, 1.0), n]
        return row
    if name == "fig7":
        m = ref.cqs(1.0, eps, 1.0, 0.0, t)
        info = ref.gaussian_qfi(m)
        psis = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]
        return [ref.homodyne_fi(m, p) / info for p in psis] + [ref.best_homodyne_fi(m) / info]
    if name == "fignoisy":
        n_max, n_bath = 300.0, 1.0
        r = 0.5 * math.acosh((1.0 + 2.0 * n_max) / (1.0 + 2.0 * n_bath))
        v_c, s_c = ref.displaced_squeezed(0.0, r, 0.0)
        v_h, s_h = ref.displaced_squeezed(0.0, r, n_bath)
        qfi_ratio = ref.gaussian_qfi(ref.pqs(v_h, s_h, 1.0, n_bath, t)) / ref.gaussian_qfi(
            ref.pqs(v_c, s_c, 1.0, 0.0, t))
        alpha, r_opt = _opt_homodyne_input(n_max, 1.0, t)
        v_oc, s_oc = ref.displaced_squeezed(alpha, r_opt, 0.0)
        v_oh, s_oh = ref.displaced_squeezed(alpha, r_opt, n_bath)
        fi_ratio = ref.homodyne_fi(ref.pqs(v_oh, s_oh, 1.0, n_bath, t), math.pi / 2.0) / ref.homodyne_fi(
            ref.pqs(v_oc, s_oc, 1.0, 0.0, t), math.pi / 2.0)
        e = 0.9975 * math.sqrt(2.0)
        cqs_ratio = ref.gaussian_qfi(ref.cqs(1.0, e, 1.0, n_bath, t)) / ref.gaussian_qfi(
            ref.cqs(1.0, e, 1.0, 0.0, t))
        return [qfi_ratio, fi_ratio, cqs_ratio]
    raise KeyError(name)


def check_figure_csv(path: Path, name: str, rows_to_check) -> str | None:
    grid, header = FIGURE_SPECS[name]
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return f"missing_output {exc}"
    if not lines or lines[0].split(",") != header:
        return "shape header differs"
    try:
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return f"parse {exc}"
    if data.shape != (len(grid), len(header)):
        return f"shape {data.shape} != {(len(grid), len(header))}"
    if not np.all(np.isfinite(data)):
        return "non_finite value in CSV"
    if np.max(np.abs(data[:, 0] / grid - 1.0)) > 1e-12:
        return "shape time grid differs"
    if name == "fig7" and np.max(data[:, -1]) > 1.0 + 1e-6:
        return f"bound ratio_best {np.max(data[:, -1])!r} > 1 + 1e-6"
    scales = np.max(np.abs(data), axis=0)
    for i in rows_to_check:
        want = figure_reference_row(name, float(data[i, 0]))
        for j, (got, w) in enumerate(zip(data[i, 1:], want), start=1):
            if _miss(float(got), w, scales[j]):
                return f"reference_miss {name} row {i} {header[j]}: {got!r} vs {w!r}"
    return None


class PaperFigures:
    name = "paper_figures"
    min_passes = 3
    pass_s = 1.2

    def __init__(self, seed: int, work_dir: Path):
        from critsense import cli

        self.cli = cli
        self.out_dir = work_dir / "figures"
        self.rng = np.random.default_rng(seed)

    def _op(self, name: str) -> Op:
        rows = sorted(self.rng.choice(len(FIGURE_SPECS[name][0]), ROWS_CHECKED, replace=False))
        out = self.out_dir

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(["figure", name, "--out", str(out)])

        def check(code):
            if code != 0:
                return f"exit_code {code}"
            return check_figure_csv(out / f"{name}.csv", name, rows)

        return Op(name, call, check, tags={"kind": "figure"})

    def warmup(self) -> Op:
        return self._op("fig4")

    def next_pass(self) -> list[Op]:
        return [self._op(name) for name in self.cli.FIGURES]


# --- budget_sweep -------------------------------------------------------------

MODES = ("optimize", "qfi", "fi", "bound")
KINDS = ("CQS", "PQS")
N_BATHS = (0.0, 0.5, 2.0)
# Draws per (mode, kind, n_B) cell. qfi and fi (~3 ms) make up two thirds of
# a pass, so op_p50_ms sits inside their distribution, not on the edge
# between them and the slower bound (~5-40 ms) and optimize (~70 ms) ops.
PER_CELL = {"optimize": 2, "qfi": 4, "fi": 4, "bound": 2}
# The config design, the same for every run (see BudgetSweep): its seed and
# its number of blocks of one pass each.
DESIGN_SEED = 20240224
DESIGN_BLOCKS = 16


def _slow_clock(kind: str, omega0: float, eps: float, gamma: float) -> float:
    """Each protocol's own time scale.

    Lossy: 12 decay times of the slow mode (CQS: gamma - sqrt(eps^2 - w^2);
    PQS: gamma). Lossless CQS: the time pi/(4 W), W = sqrt(w^2 - eps^2), at
    which the photon number first reaches the budget. Lossless PQS: 12 / w.
    """
    if gamma > 0:
        s = eps * eps - omega0 * omega0
        lam = gamma - math.sqrt(s) if s > 0 else gamma
        return 12.0 / lam
    if kind == "CQS":
        return 0.25 * math.pi / math.sqrt(omega0 * omega0 - eps * eps)
    return 12.0 / omega0


class ComputeCase:
    """One `critsense compute` configuration and what its reference needs."""

    def __init__(self, mode, kind, n_max, n_bath, omega0, gamma, t_pm, t, psi):
        self.mode, self.kind = mode, kind
        self.n_max, self.n_bath, self.omega0, self.gamma = n_max, n_bath, omega0, gamma
        self.t_pm, self.t, self.psi = t_pm, t, psi
        self.eps = ref.cqs_epsilon(n_max, omega0, gamma, n_bath) if kind == "CQS" else 0.0
        self.clock = _slow_clock(kind, omega0, self.eps, gamma)

    def config(self) -> dict:
        cfg = {
            "mode": self.mode,
            "params": {"omega0": self.omega0, "gamma": self.gamma, "n_bath": self.n_bath},
            "protocol": {"kind": self.kind, "n_max": self.n_max, "t_pm": self.t_pm},
        }
        if self.mode in ("qfi", "fi"):
            cfg["t"] = self.t
        if self.mode == "fi":
            cfg["protocol"]["psi"] = self.psi
        if self.mode == "optimize":
            cfg["grid"] = {"t_min": 1e-3 * self.clock, "t_max": self.t_max_factor() * self.clock}
        if self.mode == "bound":
            cfg["protocol"]["total_time"] = self.t
        return cfg

    def t_max_factor(self) -> float:
        """Latest time as a multiple of the clock; lossless CQS exceeds the
        budget after one clock."""
        return 1.0 if self.gamma == 0.0 and self.kind == "CQS" else 2.0

    def _start(self):
        if self.kind == "CQS":
            return np.zeros(2), ref.thermal_sigma(self.n_bath)
        return ref.squeezed_input(self.n_max, self.n_bath)

    def moments(self, t: float) -> ref.Moments:
        if self.kind == "CQS":
            return ref.cqs(self.omega0, self.eps, self.gamma, self.n_bath, t)
        v0, s0 = self._start()
        return ref.pqs(v0, s0, self.gamma, self.n_bath, t)

    def photons(self, t: float) -> float:
        v0, s0 = self._start()
        w = self.omega0 if self.kind == "CQS" else 0.0
        return ref.photons_and_purity(w, self.eps, self.gamma, self.n_bath, v0, s0, t)[0]

    def qfi_scale(self) -> float:
        """8 N (N + 1) / rate^2: the noiseless QFI of the budget over one
        damping time (lossless: one period unit 1 / omega0)."""
        rate = self.gamma if self.gamma > 0 else self.omega0
        return 8.0 * self.n_max * (self.n_max + 1.0) / (rate * rate)


def check_compute_output(case: ComputeCase, text: str) -> str | None:
    try:
        out = strict_json(text)
    except ValueError as exc:
        return f"non_strict_json {exc}"
    if case.mode == "bound":
        integral, cap = out.get("bound_integral"), out.get("bound_cap")
        if not isinstance(integral, float) or not isinstance(cap, float):
            return "shape bound fields missing"
        want = ref.bound_integral(case.photons, case.t, case.gamma, case.n_bath)
        if _miss(integral, want, want):
            return f"reference_miss bound_integral {integral!r} vs {want!r}"
        if integral > cap * (1.0 + 1e-12) or out.get("bound_value") != cap:
            return f"bound integral {integral!r} exceeds cap {cap!r}"
        return None
    report = out.get("report")
    if not isinstance(report, dict):
        return "shape report missing"
    fields = ("qfi_single_shot", "fi_homodyne_best", "photons_at_t", "t_opt")
    if not all(isinstance(report.get(k), float) for k in fields):
        return "shape report fields missing"
    info, fi_best = report["qfi_single_shot"], report["fi_homodyne_best"]
    t = report["t_opt"] if case.mode == "optimize" else case.t
    if fi_best > info * (1.0 + REL_TOL):
        return f"bound fi_homodyne_best {fi_best!r} > qfi {info!r}"
    m = case.moments(t)
    want = ref.gaussian_qfi(m)
    scale = case.qfi_scale()
    if _miss(info, want, scale):
        return f"reference_miss qfi_single_shot {info!r} vs {want!r}"
    photons = case.photons(t)
    if _miss(report["photons_at_t"], photons, case.n_max):
        return f"reference_miss photons_at_t {report['photons_at_t']!r} vs {photons!r}"
    if case.mode == "fi":
        got = out.get("fi_at_psi")
        want_fi = ref.homodyne_fi(m, case.psi)
        if not isinstance(got, float) or _miss(got, want_fi, scale):
            return f"reference_miss fi_at_psi {got!r} vs {want_fi!r}"
    if case.mode == "optimize":
        rate = out.get("best_rate")
        want_rate = want / (t + case.t_pm)
        if not isinstance(rate, float) or _miss(rate, want_rate, scale / (t + case.t_pm)):
            return f"reference_miss best_rate {rate!r} vs {want_rate!r}"
        grid = np.geomspace(1e-3 * case.clock, case.t_max_factor() * case.clock, 24)
        best_grid = max(ref.gaussian_qfi(case.moments(float(g))) / (g + case.t_pm) for g in grid)
        if want_rate < best_grid * (1.0 - REL_TOL):
            return f"reference_miss t_opt {t!r} is not optimal ({want_rate!r} < {best_grid!r})"
    return None


def design() -> list[list[ComputeCase]]:
    """DESIGN_BLOCKS blocks, each with PER_CELL[mode] configs per
    (mode, kind, n_B) cell and one lossless (gamma = 0) config per
    (mode, kind).

    log10 N, log10 omega0 and log10 f (t = f * clock) are stratified over the
    whole design within each cell and within each (mode, kind) of the
    lossless share, and the strata are dealt to the blocks at random. So each
    cell covers its domain evenly, and a region such as the PQS bound cliff
    (f >= 1.25) holds its share of the design, not a chance count.
    """
    rng = np.random.default_rng(DESIGN_SEED)
    block = [(m, k, nb, 1.0) for m in MODES for k in KINDS for nb in N_BATHS for _ in range(PER_CELL[m])]
    block += [(m, k, 0.0, 0.0) for m in MODES for k in KINDS]
    specs = block * DESIGN_BLOCKS
    n = len(specs)
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec, []).append(i)
    log_n, log_w, log_f = np.empty(n), np.empty(n), np.empty(n)
    for idx in groups.values():
        log_n[idx] = _strat_uniform(rng, len(idx), 1.0, 6.0)
        log_w[idx] = _strat_uniform(rng, len(idx), math.log10(0.25), math.log10(4.0))
        log_f[idx] = _strat_uniform(rng, len(idx), -3.0, math.log10(2.0))
    cases = []
    for i, (mode, kind, nb, gamma) in enumerate(specs):
        case = ComputeCase(
            mode, kind, n_max=float(10.0 ** log_n[i]), n_bath=nb,
            omega0=float(10.0 ** log_w[i]), gamma=gamma,
            t_pm=float(rng.choice((0.0, 2.0))), t=0.0, psi=float(rng.uniform(0.0, math.pi)),
        )
        case.t = float(min(10.0 ** log_f[i], case.t_max_factor()) * case.clock)
        cases.append(case)
    return [cases[b * len(block):(b + 1) * len(block)] for b in range(DESIGN_BLOCKS)]


class BudgetSweep:
    """A fixed design of `compute` configs, run in a seeded order.

    The configs come from DESIGN_SEED, not from the run's seed: which configs
    fail is a property of the program, so with a fixed design a run's failed
    count is the same for every seed, and two sets of runs of the same code
    agree on it. Pass k runs block k mod DESIGN_BLOCKS; the run's seed orders
    the ops within each pass.
    """

    name = "budget_sweep"
    min_passes = 5
    pass_s = 1.25

    def __init__(self, seed: int, work_dir: Path):
        from critsense import cli

        self.cli = cli
        self.dir = work_dir / "compute"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.blocks = design()
        self.passes = 0
        self.rng = np.random.default_rng(seed)

    def _op(self, case: ComputeCase, index: int) -> Op:
        cfg_path = self.dir / f"config-{index}.json"
        out_path = self.dir / f"out-{index}.json"
        cfg_path.write_text(json.dumps(case.config()), encoding="utf-8")
        label = f"{case.mode}/{case.kind}/N={case.n_max:.3g}/nB={case.n_bath:g}/g={case.gamma:g}"

        def call():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = self.cli.main(["compute", "--config", str(cfg_path), "--out", str(out_path)])
            return code, err.getvalue()

        def check(value):
            code, err = value
            if code != 0:
                # The program's own message, not the warnings printed before it.
                lines = err.strip().splitlines() or [""]
                message = next((line for line in reversed(lines) if line.startswith("error:")), lines[-1])
                return f"exit_code {code}: {message[:200]}"
            return check_compute_output(case, out_path.read_text(encoding="utf-8"))

        tags = {"mode": case.mode, "kind": case.kind, "n_max": case.n_max,
                "n_bath": case.n_bath, "gamma": case.gamma}
        return Op(label, call, check, COMPUTE_DEADLINE_S, tags)

    def warmup(self) -> Op:
        return self._op(ComputeCase("qfi", "CQS", 100.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0), 0)

    def next_pass(self) -> list[Op]:
        block = self.blocks[self.passes % len(self.blocks)]
        self.passes += 1
        return [self._op(block[i], i) for i in self.rng.permutation(len(block))]


# --- oracle_battery -------------------------------------------------------------

# A fixed design of (n_B, eps/eps_c, t Gamma, copies per pass) over
# eps/eps_c in [0.3, 0.9], t in [0.5, 3] / Gamma and n_B in {0, 0.5}. Op cost
# spans 0.1-2 s and jumps with the retry count, so random points would make
# the 25 Fock ops of one pass spread far wider than any useful bound. Every
# node sits clear of the photon numbers where suggested_dim's first or second
# guess stops sufficing, so the seed's jitter (FOCK_JITTER) never changes an
# op's retry count. With the 16 checks (fourteen take < 30 ms, one 0.27 s) a
# pass holds 41 ops; its median and its tail percentile (10 ops beyond) both
# fall inside the block of twenty ~0.36 s ops (three nodes of near-equal
# cost), not on the edge between two groups of ops of different cost. Ops
# this long are timed more steadily than the ~0.1 s ones at smaller t. Nodes that retry twice
# (dim 120, 20-50 s, e.g. (0.85, 1.9) at n_B = 0.5) would only time the
# deadline; the finding suggested_dim_undersizing records them.
FOCK_DESIGN = (
    # No retry, ~0.36 s.
    (0.0, 0.35, 2.3, 7), (0.0, 0.55, 2.7, 6), (0.5, 0.35, 1.5, 7),
    # One retry at dim 60, 0.9-1.8 s.
    (0.0, 0.85, 1.5, 1), (0.5, 0.55, 0.7, 1), (0.5, 0.62, 1.0, 1), (0.5, 0.70, 0.8, 1), (0.5, 0.80, 0.6, 1),
)
FOCK_JITTER = (0.012, 0.05)
FOCK_DTHETA = 5e-3


class OracleBattery:
    """Both oracles: the fixed 16-check `validate` battery, one
    `critsense validate --filter <check>` per check, and small-photon CQS
    points through the truncated-Fock fidelity QFI.

    One pass runs every check and every FOCK_DESIGN node, in a seeded order. The RK4 agreement check (10-17 s) gets its own deadline.
    """

    name = "oracle_battery"
    min_passes = 1
    pass_s = 22.0

    def __init__(self, seed: int, work_dir: Path):
        from critsense import cli, dynamics, oracle, validate
        from critsense.errors import TruncationError

        self.cli, self.dynamics, self.oracle = cli, dynamics, oracle
        self.truncation_error = TruncationError
        self.checks = [fn.__name__ for fn in validate.ALL_CHECKS]
        self.rng = np.random.default_rng(seed)
        self.retries = 0  # TruncationError retries so far

    def _check_op(self, check_name: str) -> Op:
        def call():
            with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(["validate", "--filter", check_name])
            return code, out.getvalue()

        def check(value):
            code, text = value
            lines = text.splitlines()
            if code != 0 or not lines or lines[-1] != "1/1 checks passed":
                return f"check_failed {check_name}: {text.strip()[:200]}"
            return None

        return Op(check_name, call, check, VALIDATE_DEADLINE_S, tags={"kind": "check"})

    def _fock_op(self, ratio: float, n_bath: float, t: float) -> Op:
        eps = ratio * math.sqrt(2.0)  # omega0 = gamma = 1, eps_c = sqrt(2)

        def call():
            params = self.dynamics.SystemParams(1.0, eps, 1.0, n_bath=n_bath)
            dim = self.oracle.suggested_dim(self.dynamics.mean_photons_vs_time(params, t))
            while True:
                try:
                    return self.oracle.fock_qfi_fidelity(params, t, FOCK_DTHETA, dim)
                except self.truncation_error as exc:
                    dim = exc.suggested_dim
                    self.retries += 1

        def check(estimate):
            want = ref.gaussian_qfi(ref.cqs(1.0, eps, 1.0, n_bath, t))
            if not math.isfinite(estimate) or _miss(estimate, want, want, FOCK_REL_TOL):
                return f"reference_miss fock QFI {estimate!r} vs {want!r}"
            return None

        return Op(f"fock/eps/eps_c={ratio:.3f}/nB={n_bath:g}/t={t:.3f}", call, check,
                  tags={"kind": "fock", "n_bath": n_bath})

    def warmup(self) -> Op:
        # Retries once: the first dim-60 evolution in a process runs ~2x slow.
        fock, check = self._fock_op(0.55, 0.5, 0.7), self._check_op("check_omega0_optimality")
        return Op("warm-up", lambda: (fock.call(), check.call()),
                  lambda value: fock.check(value[0]) or check.check(value[1]))

    def next_pass(self) -> list[Op]:
        d_ratio, d_t = FOCK_JITTER
        ops = [self._check_op(name) for name in self.checks] + [
            self._fock_op(ratio + self.rng.uniform(-d_ratio, d_ratio), nb, t + self.rng.uniform(-d_t, d_t))
            for nb, ratio, t, copies in FOCK_DESIGN
            for _ in range(copies)
        ]
        return [ops[i] for i in self.rng.permutation(len(ops))]


WORKLOADS = {w.name: w for w in (PaperFigures, BudgetSweep, OracleBattery)}
