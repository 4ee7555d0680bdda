"""Command-line interface: figure datasets, one-off computations, validation.

Usage:
    critsense figure {fig2,fig3,fig4,fig7,fignoisy} --out DIR
    critsense compute --config FILE [--out FILE]
    critsense validate [--filter PATTERN]

All numeric output uses shortest round-trip decimals and contains no
timestamps, so identical configurations produce byte-identical files.
Exit codes: 0 success, 1 check failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, dynamics, protocols, validate
from .dynamics import SystemParams, evolve_critical, evolve_passive
from .errors import ConfigError, CritsenseError
from .gaussian import DisplacementAmplitude, SqueezeParam, mean_photons, purity
from .metrology import fi_homodyne, qfi
from .protocols import (
    ProtocolKind,
    ProtocolSpec,
    ResourceBudget,
    best_homodyne,
    cqs_pair,
    default_pqs_input,
    epsilon_opt,
    fundamental_bound,
    optimize_time,
    pqs_pair,
    total_qfi,
)

FIGURES = ("fig2", "fig3", "fig4", "fig7", "fignoisy")


def _fmt(x: float) -> str:
    """Shortest round-trip decimal; canonical forms for ints and non-finite."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def write_csv(path: Path, header: list[str], rows: list[list[float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if len(row) != len(header):
                raise ValueError("ragged CSV row")
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_json(path: Path | None, payload: dict) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda o: o.tolist()) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


# --- figure datasets ----------------------------------------------------------


def _fig_base(n_max: float = 100.0) -> tuple[SystemParams, SystemParams, DisplacementAmplitude, SqueezeParam]:
    """Shared setup: omega0 = gamma = 1, drive at epsilon_opt, squeezed vacuum."""
    passive = SystemParams(1.0, 0.0, 1.0)
    eps = epsilon_opt(n_max, passive)
    driven = SystemParams(1.0, eps, 1.0)
    alpha, squeeze = default_pqs_input(n_max)
    return passive, driven, alpha, squeeze


def figure_fig2(out_dir: Path) -> Path:
    """Single-shot QFI of both strategies vs evolution time (N_max = 100)."""
    n_max = 100.0
    passive, driven, alpha, squeeze = _fig_base(n_max)
    times = np.geomspace(0.01, 2000.0, 160)
    rows = []
    for t in times:
        t = float(t)
        i_pqs = protocols.pqs_qfi(alpha, squeeze, passive, t)
        i_cqs = protocols.cqs_qfi(driven, t)
        n_pqs = mean_photons(
            evolve_passive(passive, protocols.pqs_input_state(alpha, squeeze), t)
        )
        n_cqs = dynamics.mean_photons_vs_time(driven, t)
        rows.append(
            [t, i_pqs, i_cqs, math.log1p(i_pqs), math.log1p(i_cqs), n_pqs, n_cqs]
        )
    path = out_dir / "fig2.csv"
    write_csv(
        path,
        ["t", "qfi_pqs", "qfi_cqs", "log1p_qfi_pqs", "log1p_qfi_cqs", "photons_pqs", "photons_cqs"],
        rows,
    )
    return path


def figure_fig3(out_dir: Path) -> Path:
    """QFI rate I/(N_max (t + t_pm)) for both strategies and homodyne variants."""
    n_max = 100.0
    passive, driven, alpha, squeeze = _fig_base(n_max)
    sq_vac_state = protocols.pqs_input_state(alpha, squeeze)
    times = np.geomspace(0.02, 3000.0, 140)
    t_pms = (0.0, 2.0)
    rows = []
    for t in times:
        t = float(t)
        i_pqs = protocols.pqs_qfi(alpha, squeeze, passive, t)
        i_cqs = protocols.cqs_qfi(driven, t)
        # optimally squeezed + displaced input, p-quadrature homodyne
        r_opt = protocols.optimal_squeezing_homodyne(n_max, passive.gamma, t)
        a_opt = DisplacementAmplitude(math.sqrt(max(n_max - math.sinh(r_opt.r) ** 2, 0.0)))
        f_optr = fi_homodyne(pqs_pair(a_opt, r_opt, passive, t), math.pi / 2.0)
        # squeezed-vacuum input, best homodyne angle
        _, f_sqvac = best_homodyne(pqs_pair(alpha, squeeze, passive, t))
        n_pqs = mean_photons(evolve_passive(passive, sq_vac_state, t))
        n_cqs = dynamics.mean_photons_vs_time(driven, t)
        row = [t]
        for t_pm in t_pms:
            row.append(i_pqs / (n_max * (t + t_pm)))
        for t_pm in t_pms:
            row.append(i_cqs / (n_max * (t + t_pm)))
        for t_pm in t_pms:
            row.append(f_optr / (n_max * (t + t_pm)))
        for t_pm in t_pms:
            row.append(f_sqvac / (n_max * (t + t_pm)))
        row.extend([n_pqs, n_cqs])
        rows.append(row)
    path = out_dir / "fig3.csv"
    write_csv(
        path,
        [
            "t",
            "rate_pqs_tpm0", "rate_pqs_tpm2",
            "rate_cqs_tpm0", "rate_cqs_tpm2",
            "rate_hom_optr_tpm0", "rate_hom_optr_tpm2",
            "rate_hom_sqvac_tpm0", "rate_hom_sqvac_tpm2",
            "photons_pqs", "photons_cqs",
        ],
        rows,
    )
    return path


def figure_fig4(out_dir: Path) -> Path:
    """Purity and photon number below (eps = 0.99) and above (eps = 0.9975 eps_c)
    the eigenvalue split, at omega0 = gamma = 1."""
    below = SystemParams(1.0, 0.99, 1.0)
    above = SystemParams(1.0, 0.9975 * math.sqrt(2.0), 1.0)
    times = np.geomspace(0.01, 1000.0, 180)
    rows = []
    for t in times:
        t = float(t)
        rows.append(
            [
                t,
                dynamics.purity_vs_time(below, t),
                dynamics.mean_photons_vs_time(below, t),
                dynamics.purity_vs_time(above, t),
                dynamics.mean_photons_vs_time(above, t),
            ]
        )
    path = out_dir / "fig4.csv"
    write_csv(
        path,
        ["t", "purity_below", "photons_below", "purity_above", "photons_above"],
        rows,
    )
    return path


def figure_fig7(out_dir: Path) -> Path:
    """Homodyne FI / QFI for the driven protocol at several quadrature angles."""
    _, driven, _, _ = _fig_base(100.0)
    psis = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]
    times = np.geomspace(0.05, 3000.0, 120)
    rows = []
    for t in times:
        t = float(t)
        pair = cqs_pair(driven, t)
        info = qfi(pair)
        row = [t]
        for psi in psis:
            row.append(fi_homodyne(pair, psi) / info)
        _, best = best_homodyne(pair)
        row.append(best / info)
        rows.append(row)
    path = out_dir / "fig7.csv"
    write_csv(
        path,
        ["t", "ratio_psi_0", "ratio_psi_pi8", "ratio_psi_pi4", "ratio_psi_3pi8", "ratio_psi_pi2", "ratio_best"],
        rows,
    )
    return path


def figure_fignoisy(out_dir: Path) -> Path:
    """Finite-temperature to zero-temperature information ratios (N_max = 300, n_B = 1)."""
    n_max, n_bath = 300.0, 1.0
    cold = SystemParams(1.0, 0.0, 1.0)
    hot = SystemParams(1.0, 0.0, 1.0, n_bath=n_bath)
    r_shared = SqueezeParam(math.asinh(math.sqrt((n_max - n_bath) / (1.0 + 2.0 * n_bath))))
    alpha0 = DisplacementAmplitude(0.0)
    eps = 0.9975 * math.sqrt(2.0)
    cqs_cold = SystemParams(1.0, eps, 1.0)
    cqs_hot = SystemParams(1.0, eps, 1.0, n_bath=n_bath)
    # Beyond ~10 damping times the passive state has fully thermalized and the
    # information ratio becomes 0/0; the interesting window is t <~ 1/lambda_+.
    times = np.geomspace(0.05, 10.0, 120)
    rows = []
    for t in times:
        t = float(t)
        qfi_ratio = protocols.pqs_qfi(alpha0, r_shared, hot, t) / protocols.pqs_qfi(
            alpha0, r_shared, cold, t
        )
        r_opt = protocols.optimal_squeezing_homodyne(n_max, cold.gamma, t)
        a_opt = DisplacementAmplitude(math.sqrt(max(n_max - math.sinh(r_opt.r) ** 2, 0.0)))
        fi_ratio = fi_homodyne(pqs_pair(a_opt, r_opt, hot, t), math.pi / 2.0) / fi_homodyne(
            pqs_pair(a_opt, r_opt, cold, t), math.pi / 2.0
        )
        cqs_ratio = protocols.cqs_qfi(cqs_hot, t) / protocols.cqs_qfi(cqs_cold, t)
        rows.append([t, qfi_ratio, fi_ratio, cqs_ratio])
    path = out_dir / "fignoisy.csv"
    write_csv(path, ["t", "ratio_pqs_qfi", "ratio_pqs_fi_hom", "ratio_cqs_qfi"], rows)
    return path


FIGURE_WRITERS = {
    "fig2": figure_fig2,
    "fig3": figure_fig3,
    "fig4": figure_fig4,
    "fig7": figure_fig7,
    "fignoisy": figure_fignoisy,
}


# --- compute ------------------------------------------------------------------

_SECTIONS = ("params", "protocol", "grid")
# Every accepted key, as a dotted path; mode is checked on its own.
_FIELDS = (
    "t",
    *(f"params.{f.name}" for f in fields(SystemParams)),
    *(f"protocol.{name}" for name in ("kind", "alpha", "alpha_phase", "r", "r_phase", "psi")),
    *(f"protocol.{f.name}" for f in fields(ResourceBudget)),
    "grid.t_min", "grid.t_max",
)
# protocol.total_time defaults to the evaluation time t (see _build_spec).
_DEFAULTS = {
    "params.omega0": 1.0, "params.epsilon": 0.0, "params.gamma": 1.0,
    "params.n_bath": 0.0, "params.delta_omega": 0.0,
    "protocol.kind": "PQS", "protocol.n_max": 1.0, "protocol.t_pm": 0.0,
    "protocol.alpha": 0.0, "protocol.alpha_phase": 0.0, "protocol.r": 0.0, "protocol.r_phase": 0.0,
}
_NON_NEGATIVE = ("params.gamma", "params.n_bath", "params.epsilon")
# Each mode and the paths it requires.
_REQUIRED = {
    "evolve": ("t",), "qfi": ("t",), "fi": ("t",),
    "optimize": ("grid.t_min", "grid.t_max"),
    "bound": ("protocol.n_max", "protocol.total_time"),
}
_MODES = tuple(_REQUIRED)
# Keys that only some modes read; optimize reads `t` as the default total_time.
_READ_IN = {"t": ("evolve", "qfi", "fi", "optimize"), "grid": ("optimize",), "protocol.psi": ("fi",)}
_PQS_INPUT = ("protocol.alpha", "protocol.alpha_phase", "protocol.r", "protocol.r_phase")


def _parse_config(cfg) -> dict:
    """The given values of a compute config by dotted path; ConfigError lists
    every problem, each starting with its path."""
    if not isinstance(cfg, dict):
        raise ConfigError(["<root>: configuration must be a JSON object"])
    given, problems = {}, []
    for key, value in cfg.items():
        if key in ("mode", "t"):
            given[key] = value
        elif key not in _SECTIONS:
            problems.append(f"{key}: unknown field")
        elif isinstance(value, dict):
            given.update((f"{key}.{sub}", v) for sub, v in value.items())
        else:
            problems.append(f"{key}: must be an object")
    mode = given.get("mode")
    if mode not in _MODES:
        problems.append(f"mode: expected one of {list(_MODES)}, got {mode!r}")
    for path, value in given.items():
        if path == "mode":
            continue
        if path not in _FIELDS:
            problems.append(f"{path}: unknown field")
        elif path == "protocol.kind":
            if value not in ("CQS", "PQS"):
                problems.append(f"protocol.kind: expected 'CQS' or 'PQS', got {value!r}")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{path}: must be a number, got {value!r}")
        elif path in _NON_NEGATIVE and value < 0:
            problems.append(f"{path}: must be >= 0, got {value!r}")
    if mode in _MODES:
        problems += [f"{path}: required for {mode} mode" for path in _REQUIRED[mode] if path not in given]
        problems += [f"{key}: not used in {mode} mode" for key, modes in _READ_IN.items()
                     if mode not in modes and (key in cfg or key in given)]
    for path in _PQS_INPUT:
        base = path.removesuffix("_phase")
        if path in given and given.get("protocol.kind") == "CQS":
            problems.append(f"{path}: not used by CQS")
        elif path in given and base not in given:
            problems.append(f"{path}: not used without {base}")
    t_min, t_max = given.get("grid.t_min"), given.get("grid.t_max")
    if isinstance(t_min, (int, float)) and isinstance(t_max, (int, float)) and not (0 < t_min < t_max):
        problems.append(f"grid: need 0 < t_min < t_max, got {t_min!r}, {t_max!r}")
    if problems:
        raise ConfigError(problems)
    return given


def _build_spec(given: dict) -> ProtocolSpec:
    conf = {**_DEFAULTS, "protocol.total_time": max(float(given.get("t", 1.0)), 1e-12), **given}

    def build(cls, section: str):
        return cls(**{f.name: float(conf[f"{section}.{f.name}"]) for f in fields(cls)})

    kind = ProtocolKind(conf["protocol.kind"])
    budget = build(ResourceBudget, "protocol")
    params = build(SystemParams, "params")
    pqs_input = None
    if kind is ProtocolKind.PQS:
        if params.epsilon != 0.0:
            raise ConfigError(["params.epsilon: must be 0 for the PQS strategy"])
        if "protocol.alpha" in given or "protocol.r" in given:
            pqs_input = (
                DisplacementAmplitude(float(conf["protocol.alpha"]), float(conf["protocol.alpha_phase"])),
                SqueezeParam(float(conf["protocol.r"]), float(conf["protocol.r_phase"])),
            )
    elif params.epsilon == 0.0:
        params = replace(params, epsilon=epsilon_opt(budget.n_max, params))
    return ProtocolSpec(kind, params, budget, pqs_input)


def _state_payload(state) -> dict:
    return {
        "v": state.v,
        "sigma": state.sigma,
        "mean_photons": mean_photons(state),
        "purity": purity(state),
    }


def run_compute(cfg: dict) -> dict:
    given = _parse_config(cfg)
    mode = given["mode"]
    payload: dict = {
        "library": {"name": "critsense", "version": __version__},
        "config": cfg,
        "mode": mode,
    }
    spec = _build_spec(given)
    if mode == "evolve":
        t = float(given["t"])
        state0 = spec.input_state()
        if spec.kind is ProtocolKind.CQS:
            state = evolve_critical(spec.params, state0, t)
        else:
            state = evolve_passive(spec.params, state0, t)
        payload["state"] = _state_payload(state)
    elif mode in ("qfi", "fi"):
        t = float(given["t"])
        report = total_qfi(spec, t)
        payload["report"] = asdict(report)
        if mode == "fi" and "protocol.psi" in given:
            psi = float(given["protocol.psi"])
            pair, _ = protocols.single_shot_quantities(spec, t)
            payload["fi_at_psi"] = fi_homodyne(pair, psi)
            payload["psi"] = psi
    elif mode == "optimize":
        bracket = (float(given["grid.t_min"]), float(given["grid.t_max"]))

        def rate(t: float) -> float:
            pair, _ = protocols.single_shot_quantities(spec, t)
            return qfi(pair)

        t_opt, best_rate = optimize_time(rate, spec.budget, bracket)
        report = total_qfi(spec, t_opt, t_opt=t_opt)
        payload["report"] = asdict(report)
        payload["best_rate"] = best_rate
    elif mode == "bound":
        if "protocol.kind" not in given:
            traj = lambda t: spec.budget.n_max
        elif spec.kind is ProtocolKind.CQS:
            traj = lambda t: dynamics.mean_photons_vs_time(spec.params, t)
        else:
            state0 = spec.input_state()
            traj = lambda t: mean_photons(evolve_passive(spec.params, state0, t))
        result = fundamental_bound(traj, spec.budget.total_time, spec.params.gamma, spec.params.n_bath)
        payload["bound_integral"] = result.integral
        payload["bound_cap"] = result.cap
        payload["bound_value"] = result.cap
    return payload


# --- entry points ---------------------------------------------------------------


def cmd_figure(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = FIGURE_WRITERS[args.name](out_dir)
    print(f"wrote {path}")
    return 0


def cmd_compute(args) -> int:
    config_path = Path(args.config)
    if not config_path.is_file():
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 2
    try:
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        payload = run_compute(cfg)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except CritsenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = write_json(Path(args.out) if args.out else None, payload)
    if not args.out:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}")
    return 0


def cmd_validate(args) -> int:
    results = validate.run_checks(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return 2
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{status}  {r.name:<{width}}  [{r.tolerance}]  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critsense",
        description="Critical and passive quantum sensing of a cavity frequency shift",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="write a figure dataset as CSV")
    p_fig.add_argument("name", choices=FIGURES)
    p_fig.add_argument("--out", required=True, help="output directory")
    p_fig.set_defaults(func=cmd_figure)

    p_comp = sub.add_parser("compute", help="run a JSON-configured computation")
    p_comp.add_argument("--config", required=True, help="JSON configuration file")
    p_comp.add_argument("--out", default=None, help="output JSON file (default stdout)")
    p_comp.set_defaults(func=cmd_compute)

    p_val = sub.add_parser("validate", help="run the oracle and invariant suite")
    p_val.add_argument(
        "--filter", default=None,
        help="only run checks whose name (dynamics.semigroup) or function (check_semigroup) contains this",
    )
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
