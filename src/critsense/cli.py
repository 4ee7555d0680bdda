"""Command-line interface: figure datasets, one-off computations, validation.

Usage:
    critsense figure {fig2,fig3,fig4,fig7,fignoisy} --out DIR
    critsense compute --config FILE [--out FILE]
    critsense validate [--filter PATTERN]

All numeric output uses shortest round-trip decimals and contains no
timestamps, so identical configurations produce byte-identical files.
Exit codes: 0 success, 1 check failure, 2 usage or configuration error,
or a config file that cannot be read or an output that cannot be written.
`main(argv)` may be called repeatedly in one process; the parser is built
once, at the first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__, protocols, validate
from ._elementwise import lib, over_t
from .dynamics import SystemParams
from .errors import ConfigError, CritsenseError, DomainError
from .gaussian import DisplacementAmplitude, SqueezeParam, purity
from .metrology import differentiate_at_zero_shift, fi_homodyne, qfi
from .protocols import (
    ProtocolKind,
    ProtocolSpec,
    ResourceBudget,
    best_homodyne,
    epsilon_opt,
    fundamental_bound,
    optimal_homodyne_input,
    optimize_time,
    total_qfi,
)

def write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    """Write the header, then one line per row of the 2-D float array rows:
    each cell is repr of its float (inf, -inf and nan for non-finite ones)."""
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise ValueError("ragged CSV row")
    text = "\n".join([",".join(header), *(",".join(map(repr, row)) for row in rows.tolist()), ""])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(path: Path | None, payload: dict) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda o: o.tolist()) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


# --- figure datasets ----------------------------------------------------------


def _fig_spec(kind: str, n_max: float, **params: float) -> ProtocolSpec:
    """The protocol, budget-checked, of the compute config {"protocol": {"kind":
    kind, "n_max": n_max}, "params": params}; a figure's docstring names its own."""
    return _build_spec({"protocol.kind": kind, "protocol.n_max": n_max,
                        **{f"params.{name}": value for name, value in params.items()}})


def _write_figure(out_dir: Path, name: str, times: np.ndarray, header: list[str], columns) -> Path:
    """Write out_dir/NAME.csv: the header, then one row per t of times, from
    columns(times), the figure's columns as arrays over t. columns is written
    for a float t or an array of them; over_t evaluates it once on the whole
    array, and again one float t at a time if that raises, so the error
    raised is that of the first failing t."""
    path = out_dir / f"{name}.csv"
    write_csv(path, header, np.column_stack(over_t(columns, times)))
    return path


def figure_fig2(out_dir: Path) -> Path:
    """Single-shot QFI of both strategies vs evolution time (PQS and CQS, n_max = 100)."""
    pqs, cqs = _fig_spec("PQS", 100.0), _fig_spec("CQS", 100.0)

    def columns(t):
        pair_pqs, pair_cqs = pqs.pair(t), cqs.pair(t)
        i_pqs, i_cqs = qfi(pair_pqs), qfi(pair_cqs)
        log1p = lib(t).log1p
        photons = pqs.photons(t, pair_pqs.state), cqs.photons(t, pair_cqs.state)
        return [t, i_pqs, i_cqs, log1p(i_pqs), log1p(i_cqs), *photons]

    return _write_figure(
        out_dir, "fig2", np.geomspace(0.01, 2000.0, 160),
        ["t", "qfi_pqs", "qfi_cqs", "log1p_qfi_pqs", "log1p_qfi_cqs", "photons_pqs", "photons_cqs"],
        columns,
    )


def figure_fig3(out_dir: Path) -> Path:
    """QFI rate I/(N_max (t + t_pm)) for both strategies and homodyne variants (PQS
    and CQS, n_max = 100; PQS with the optimally squeezed input of each t)."""
    n_max = 100.0
    pqs, cqs = _fig_spec("PQS", n_max), _fig_spec("CQS", n_max)
    t_pms = (0.0, 2.0)

    def columns(t):
        # squeezed-vacuum input: QFI, best homodyne angle and photons
        pair_pqs, pair_cqs = pqs.pair(t), cqs.pair(t)
        i_pqs, i_cqs = qfi(pair_pqs), qfi(pair_cqs)
        _, f_sqvac = best_homodyne(pair_pqs)
        # The optimally squeezed + displaced input of each t, one start per t
        # of the grid, and p-quadrature homodyne.
        optr = replace(pqs, pqs_input=optimal_homodyne_input(n_max, pqs.params.gamma, t))
        f_optr = fi_homodyne(optr.pair(t), math.pi / 2.0)
        rates = [info / (n_max * (t + t_pm)) for info in (i_pqs, i_cqs, f_optr, f_sqvac) for t_pm in t_pms]
        return [t, *rates, pqs.photons(t, pair_pqs.state), cqs.photons(t, pair_cqs.state)]

    return _write_figure(
        out_dir, "fig3", np.geomspace(0.02, 3000.0, 140),
        ["t", *(f"rate_{name}_tpm{t_pm:g}" for name in ("pqs", "cqs", "hom_optr", "hom_sqvac") for t_pm in t_pms),
         "photons_pqs", "photons_cqs"],
        columns,
    )


def figure_fig4(out_dir: Path) -> Path:
    """Purity and photon number below (eps = 0.99) and above (eps = 0.9975 eps_c)
    the eigenvalue split, at omega0 = gamma = 1 (CQS at each eps, n_max = 100)."""
    drives = [_fig_spec("CQS", 100.0, epsilon=eps) for eps in (0.99, 0.9975 * math.sqrt(2.0))]

    def columns(t):
        out = [t]
        for spec in drives:
            state = spec.evolution(spec.params, spec.start, t)
            out += [purity(state), spec.photons(t, state)]
        return out

    return _write_figure(
        out_dir, "fig4", np.geomspace(0.01, 1000.0, 180),
        ["t", "purity_below", "photons_below", "purity_above", "photons_above"],
        columns,
    )


def figure_fig7(out_dir: Path) -> Path:
    """Homodyne FI / QFI at several quadrature angles (CQS, n_max = 100)."""
    cqs = _fig_spec("CQS", 100.0)
    psis = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]

    def columns(t):
        pair = cqs.pair(t)
        info = qfi(pair)
        _, best = best_homodyne(pair)
        return [t, *(fi_homodyne(pair, psi) / info for psi in psis), best / info]

    return _write_figure(
        out_dir, "fig7", np.geomspace(0.05, 3000.0, 120),
        ["t", "ratio_psi_0", "ratio_psi_pi8", "ratio_psi_pi4", "ratio_psi_3pi8", "ratio_psi_pi2", "ratio_best"],
        columns,
    )


def figure_fignoisy(out_dir: Path) -> Path:
    """Finite-temperature (n_B = 1) to zero-temperature information ratios (PQS at
    n_B = 1 and its input at n_B = 0, CQS at eps = 0.9975 eps_c; n_max = 300).

    ratio_pqs_fi_hom runs the cold optimum's input, the optimally squeezed
    input for p-quadrature homodyne at each t on a zero-temperature start,
    on both baths. On the hot bath that input holds 301-349 photons against
    n_max = 300, so that column does not compare the baths at one photon
    budget; the other two do.
    """
    n_max, n_bath = 300.0, 1.0
    pqs_hot = _fig_spec("PQS", n_max, n_bath=n_bath)
    pqs_cold = replace(_fig_spec("PQS", n_max), pqs_input=pqs_hot.pqs_input)
    eps = 0.9975 * math.sqrt(2.0)
    cqs_hot, cqs_cold = _fig_spec("CQS", n_max, epsilon=eps, n_bath=n_bath), _fig_spec("CQS", n_max, epsilon=eps)

    def hom_ratio(t):
        # The cold optimum's input, one start per t of the grid. The one
        # figure protocol without a budget check is its run on the hot bath:
        # a spec for it raises ConstraintError (see the docstring).
        a_opt, r_opt = optimal_homodyne_input(n_max, pqs_cold.params.gamma, t)
        start = protocols.pqs_input_state(a_opt, r_opt, n_bath)
        f_hot = fi_homodyne(differentiate_at_zero_shift(pqs_hot.evolution, pqs_hot.params, start, t), math.pi / 2.0)
        f_cold = fi_homodyne(replace(pqs_cold, pqs_input=(a_opt, r_opt)).pair(t), math.pi / 2.0)
        return f_hot / f_cold

    def columns(t):
        return [t, pqs_hot.qfi(t) / pqs_cold.qfi(t), hom_ratio(t), cqs_hot.qfi(t) / cqs_cold.qfi(t)]

    # Beyond ~10 damping times the passive state has fully thermalized and the
    # information ratio becomes 0/0; the interesting window is t <~ 1/lambda_+.
    return _write_figure(
        out_dir, "fignoisy", np.geomspace(0.05, 10.0, 120),
        ["t", "ratio_pqs_qfi", "ratio_pqs_fi_hom", "ratio_cqs_qfi"],
        columns,
    )


FIGURE_WRITERS = {
    "fig2": figure_fig2,
    "fig3": figure_fig3,
    "fig4": figure_fig4,
    "fig7": figure_fig7,
    "fignoisy": figure_fignoisy,
}
FIGURES = tuple(FIGURE_WRITERS)


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
# protocol.total_time defaults to the evaluation time t (see _build).
_DEFAULTS = {
    "params.omega0": 1.0, "params.epsilon": 0.0, "params.gamma": 1.0, "params.n_bath": 0.0,
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
        elif not abs(value) <= sys.float_info.max:  # nan, inf or an int beyond the double range
            shown = value if isinstance(value, float) else math.inf if value > 0 else -math.inf
            problems.append(f"{path}: must be finite, got {shown!r}")
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
        elif path in given and mode == "bound" and "protocol.kind" not in given:
            problems.append(f"{path}: not used in bound mode without protocol.kind")
        elif path in given and base not in given:
            problems.append(f"{path}: not used without {base}")
    t_min, t_max = given.get("grid.t_min"), given.get("grid.t_max")
    if isinstance(t_min, (int, float)) and isinstance(t_max, (int, float)) and not (0 < t_min < t_max):
        problems.append(f"grid: need 0 < t_min < t_max, got {t_min!r}, {t_max!r}")
    if problems:
        raise ConfigError(problems)
    return given


def _build(given: dict, cls, section: str, *names: str):
    """cls from the section's values at names (default: all of cls's fields),
    each given or defaulted; a value cls rejects is a config error."""
    conf = {**_DEFAULTS, "protocol.total_time": max(float(given.get("t", 1.0)), 1e-12), **given}
    names = names or [f.name for f in fields(cls)]
    try:
        return cls(*(float(conf[f"{section}.{name}"]) for name in names))
    except DomainError as exc:
        raise ConfigError([f"{section}: {exc}"]) from None


def _build_spec(given: dict) -> ProtocolSpec:
    kind = ProtocolKind(given.get("protocol.kind", _DEFAULTS["protocol.kind"]))
    budget, params = _build(given, ResourceBudget, "protocol"), _build(given, SystemParams, "params")
    pqs_input = None
    if kind is ProtocolKind.PQS:
        if params.epsilon != 0.0:
            raise ConfigError(["params.epsilon: must be 0 for the PQS strategy"])
        if "protocol.alpha" in given or "protocol.r" in given:
            pqs_input = (
                _build(given, DisplacementAmplitude, "protocol", "alpha", "alpha_phase"),
                _build(given, SqueezeParam, "protocol", "r", "r_phase"),
            )
    elif params.epsilon == 0.0:
        params = replace(params, epsilon=epsilon_opt(budget.n_max, params))
    return ProtocolSpec(kind, params, budget, pqs_input)


def run_compute(cfg: dict) -> dict:
    given = _parse_config(cfg)
    mode = given["mode"]
    payload: dict = {
        "library": {"name": "critsense", "version": __version__},
        "config": cfg,
        "mode": mode,
    }
    spec = _build_spec(given) if mode != "bound" or "protocol.kind" in given else None
    if mode == "evolve":
        t = float(given["t"])
        state = spec.evolution(spec.params, spec.start, t)
        photons = spec.photons(t, state)
        payload["state"] = {"v": state.v, "sigma": state.sigma, "mean_photons": photons, "purity": purity(state)}
    elif mode in ("qfi", "fi"):
        t = float(given["t"])
        report, pair = protocols._report_and_pair(spec, t)
        payload["report"] = dict(vars(report))
        if mode == "fi" and "protocol.psi" in given:
            psi = float(given["protocol.psi"])
            payload["fi_at_psi"] = fi_homodyne(pair, psi)
            payload["psi"] = psi
    elif mode == "optimize":
        bracket = (float(given["grid.t_min"]), float(given["grid.t_max"]))
        t_opt, best_rate = optimize_time(spec.qfi, spec.budget, bracket)
        report = total_qfi(spec, t_opt)
        payload["report"] = dict(vars(report))
        payload["best_rate"] = best_rate
    elif mode == "bound":
        if spec is None:  # N(t) = n_max runs no protocol, so no strategy's rules apply
            budget, params = _build(given, ResourceBudget, "protocol"), _build(given, SystemParams, "params")
            traj = lambda t: budget.n_max
        else:
            budget, params, traj = spec.budget, spec.params, spec.photons
        result = fundamental_bound(traj, budget.total_time, params.gamma, params.n_bath)
        payload["bound_integral"] = result.integral
        payload["bound_error"] = result.error
        payload["bound_cap"] = result.cap
        payload["bound_value"] = result.cap
    return payload


# --- entry points ---------------------------------------------------------------


def _file_error(exc: OSError, action: str) -> int:
    """Report a file the command cannot read or write on one error line; exit 2."""
    print(f"error: cannot {action} {exc.filename}: {exc.strerror}", file=sys.stderr)
    return 2


def cmd_figure(args) -> int:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = FIGURE_WRITERS[args.name](out_dir)
    except OSError as exc:
        return _file_error(exc, "write")
    print(f"wrote {path}")
    return 0


def cmd_compute(args) -> int:
    config_path = Path(args.config)
    try:
        with open(config_path, encoding="utf-8") as fh:
            cfg = json.loads(fh.read())
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 2
    except OSError as exc:
        return _file_error(exc, "read")
    except UnicodeDecodeError as exc:
        print(f"error: config is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # JSONDecodeError, or an int longer than Python converts
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
    try:
        text = write_json(Path(args.out) if args.out else None, payload)
    except OSError as exc:
        return _file_error(exc, "write")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `critsense` parser, built once per process: parse_args neither
    changes it nor keeps anything between calls, and returns a new Namespace
    each time."""
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
    args = build_parser().parse_args(argv)
    return args.func(args)
