import contextlib
import dataclasses
import errno
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import driven_pair, passive_pair, van_loan_qfi
import critsense
from critsense import protocols, validate
from critsense import cli
from critsense.cli import main, run_compute
from critsense.dynamics import SystemParams, evolve_critical, evolve_passive, mean_photons_vs_time
from critsense.errors import ConfigError
from critsense.gaussian import mean_photons, purity, thermal_state
from critsense.metrology import DerivativePair, differentiate_at_zero_shift, fi_homodyne, qfi
from critsense.oracle import fock_qfi_fidelity
from critsense.protocols import (
    best_homodyne,
    cqs_qfi,
    default_pqs_input,
    epsilon_opt,
    optimal_homodyne_input,
    pqs_input_state,
    pqs_qfi,
)
from critsense.validate import ALL_CHECKS


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


_PASSIVE = SystemParams(1.0, 0.0, 1.0)
_DRIVEN = SystemParams(1.0, epsilon_opt(100.0, _PASSIVE), 1.0)
_ALPHA, _SQUEEZE = default_pqs_input(100.0)


# The figures' columns from the public functions, each called once on the
# figure's grid t as an array; the optimal input of each t is one input of
# arrays over t.


def _fig2_columns(t):
    i_pqs = pqs_qfi(_ALPHA, _SQUEEZE, _PASSIVE, t)
    i_cqs = cqs_qfi(_DRIVEN, t)
    return {
        "qfi_pqs": i_pqs,
        "qfi_cqs": i_cqs,
        "log1p_qfi_pqs": np.log1p(i_pqs),
        "log1p_qfi_cqs": np.log1p(i_cqs),
        "photons_pqs": mean_photons(evolve_passive(_PASSIVE, pqs_input_state(_ALPHA, _SQUEEZE), t)),
        "photons_cqs": mean_photons_vs_time(_DRIVEN, t),
    }


def _hom_optr(n_max, params, t):
    """p-quadrature homodyne FI of the passive protocol on params from the
    optimally squeezed input of each t at zero temperature, displaced to
    fill n_max."""
    return fi_homodyne(passive_pair(*optimal_homodyne_input(n_max, 1.0, t), params, t), math.pi / 2.0)


def _fig3_columns(t):
    info = {
        "pqs": pqs_qfi(_ALPHA, _SQUEEZE, _PASSIVE, t),
        "cqs": cqs_qfi(_DRIVEN, t),
        "hom_optr": _hom_optr(100.0, _PASSIVE, t),
        "hom_sqvac": best_homodyne(passive_pair(_ALPHA, _SQUEEZE, _PASSIVE, t))[1],
    }
    columns = {f"rate_{k}_tpm{t_pm}": v / (100.0 * (t + t_pm)) for k, v in info.items() for t_pm in (0, 2)}
    columns.update(_fig2_columns(t))
    return {k: v for k, v in columns.items() if k.startswith(("rate_", "photons_"))}


def _fig4_columns(t):
    columns = {}
    for label, params in (("below", SystemParams(1.0, 0.99, 1.0)),
                          ("above", SystemParams(1.0, 0.9975 * math.sqrt(2.0), 1.0))):
        columns[f"purity_{label}"] = purity(evolve_critical(params, thermal_state(params.n_bath), t))
        columns[f"photons_{label}"] = mean_photons_vs_time(params, t)
    return columns


def _fig7_columns(t):
    pair = driven_pair(_DRIVEN, t)
    info = qfi(pair)
    psis = {"0": 0.0, "pi8": math.pi / 8, "pi4": math.pi / 4, "3pi8": 3 * math.pi / 8, "pi2": math.pi / 2}
    columns = {f"ratio_psi_{label}": fi_homodyne(pair, psi) / info for label, psi in psis.items()}
    columns["ratio_best"] = best_homodyne(pair)[1] / info
    return columns


def _fignoisy_columns(t):
    hot, eps = SystemParams(1.0, 0.0, 1.0, n_bath=1.0), 0.9975 * math.sqrt(2.0)
    squeezed = default_pqs_input(300.0, 1.0)
    return {
        "ratio_pqs_qfi": pqs_qfi(*squeezed, hot, t) / pqs_qfi(*squeezed, _PASSIVE, t),
        "ratio_pqs_fi_hom": _hom_optr(300.0, hot, t) / _hom_optr(300.0, _PASSIVE, t),
        "ratio_cqs_qfi": cqs_qfi(replace(hot, epsilon=eps), t) / cqs_qfi(SystemParams(1.0, eps, 1.0), t),
    }


def _per_row(row):
    """Columns over t from row(t), a row's values called with each float t."""

    def columns(t):
        rows = [row(t_k) for t_k in t.tolist()]
        return {col: np.array([r[col] for r in rows]) for col in rows[0]}

    return columns


def _fig2_compute_row(t):
    row = {}
    for kind in ("pqs", "cqs"):
        cfg = {"mode": "qfi", "protocol": {"kind": kind.upper(), "n_max": 100.0}, "t": t}
        report = run_compute(cfg)["report"]
        row[f"qfi_{kind}"] = report["qfi_single_shot"]
        row[f"log1p_qfi_{kind}"] = math.log1p(report["qfi_single_shot"])
        row[f"photons_{kind}"] = report["photons_at_t"]
    return row


def _fig4_compute_row(t):
    row = {}
    for label, eps in (("below", 0.99), ("above", 0.9975 * math.sqrt(2.0))):
        cfg = {"mode": "evolve", "params": {"epsilon": eps}, "protocol": {"kind": "CQS", "n_max": 100.0}, "t": t}
        state = run_compute(cfg)["state"]
        row[f"purity_{label}"], row[f"photons_{label}"] = state["purity"], state["mean_photons"]
    return row


class TestFigureCommand:
    def test_fig2_dataset(self, tmp_path):
        assert main(["figure", "fig2", "--out", str(tmp_path)]) == 0
        header, data = read_csv(tmp_path / "fig2.csv")
        assert header[:5] == ["t", "qfi_pqs", "qfi_cqs", "log1p_qfi_pqs", "log1p_qfi_cqs"]
        assert "photons_pqs" in header and "photons_cqs" in header
        assert np.all(np.isfinite(data))
        i_pqs = header.index("qfi_pqs")
        i_log = header.index("log1p_qfi_pqs")
        assert np.allclose(data[:, i_log], np.log1p(data[:, i_pqs]), rtol=1e-12)
        for col in ("photons_pqs", "photons_cqs"):
            assert data[:, header.index(col)].max() <= 100.0 * (1.0 + 1e-6)

    def test_fig3_dataset(self, tmp_path):
        assert main(["figure", "fig3", "--out", str(tmp_path)]) == 0
        header, data = read_csv(tmp_path / "fig3.csv")
        assert header[0] == "t"
        assert {"rate_pqs_tpm0", "rate_pqs_tpm2", "rate_cqs_tpm0", "rate_cqs_tpm2",
                "rate_hom_optr_tpm0", "rate_hom_sqvac_tpm0"} <= set(header)
        assert np.all(np.isfinite(data))
        for col in ("photons_pqs", "photons_cqs"):
            assert data[:, header.index(col)].max() <= 100.0 * (1.0 + 1e-6)
        # the bound per photon: rate columns stay below 2/gamma
        for col in header[1:9]:
            assert data[:, header.index(col)].max() <= 2.0 * (1.0 + 1e-6)

    def test_fig4_dataset(self, tmp_path):
        assert main(["figure", "fig4", "--out", str(tmp_path)]) == 0
        header, data = read_csv(tmp_path / "fig4.csv")
        assert header == ["t", "purity_below", "photons_below", "purity_above", "photons_above"]
        t = data[:, 0]
        purity_above = data[:, 3]
        # the purity has dropped hard by a few 1/lambda_+ when driven above the split
        i5 = int(np.argmin(np.abs(t - 5.0)))
        assert purity_above[i5] < 0.5
        assert np.all(purity_above[:-1] >= purity_above[1:] - 1e-12)

    def test_fig7_dataset(self, tmp_path):
        assert main(["figure", "fig7", "--out", str(tmp_path)]) == 0
        header, data = read_csv(tmp_path / "fig7.csv")
        assert header[-1] == "ratio_best"
        ratios = data[:, 1:]
        assert ratios.max() <= 1.0 + 1e-6
        assert data[-1, -1] >= 0.95

    def test_fignoisy_dataset(self, tmp_path):
        assert main(["figure", "fignoisy", "--out", str(tmp_path)]) == 0
        header, data = read_csv(tmp_path / "fignoisy.csv")
        assert header == ["t", "ratio_pqs_qfi", "ratio_pqs_fi_hom", "ratio_cqs_qfi"]
        assert np.all(np.isfinite(data))
        # driven-protocol information ratio approaches 1 well past 1/lambda_+
        assert data[-1, 3] == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize(
        "name,want_columns,rtol",
        [
            pytest.param("fig2", _fig2_columns, 0.0, id="fig2"),
            pytest.param("fig3", _fig3_columns, 0.0, id="fig3"),
            pytest.param("fig4", _fig4_columns, 0.0, id="fig4"),
            pytest.param("fig7", _fig7_columns, 0.0, id="fig7"),
            pytest.param("fignoisy", _fignoisy_columns, 0.0, id="fignoisy"),
            pytest.param("fig2", _per_row(_fig2_compute_row), 1e-10, id="fig2-compute"),
            pytest.param("fig4", _per_row(_fig4_compute_row), 1e-10, id="fig4-compute"),
        ],
    )
    def test_columns_equal_public_functions(self, tmp_path, name, want_columns, rtol):
        """Every column equals the public functions called once on the
        figure's own grid as an array, exactly after the CSV's round-trip
        decimals; and `compute`, run one float t at a time on the configs the
        figure's docstring names, within the array-to-float contract of 1e-10
        relative."""
        assert main(["figure", name, "--out", str(tmp_path)]) == 0
        header, data = read_csv(tmp_path / f"{name}.csv")
        want = want_columns(data[:, 0])
        assert set(want) == set(header[1:])
        for col, values in want.items():
            np.testing.assert_allclose(data[:, header.index(col)], values, rtol=rtol, atol=0.0, err_msg=f"{name}.{col}")

    def test_fixed_input_built_once_per_figure(self, tmp_path, monkeypatch):
        """Each figure builds its PQS input states a fixed number of times,
        not once per row: fig2 its squeezed vacuum; fig3 that and the stack
        of optimal inputs over its grid; fignoisy the hot and cold squeezed
        inputs (the cold spec's default first), and the stack of optimal
        inputs on each bath."""
        build, calls = protocols.pqs_input_state, []

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(protocols, "pqs_input_state", counted)
        for name, builds in (("fig2", 1), ("fig3", 2), ("fignoisy", 5)):
            calls.clear()
            assert main(["figure", name, "--out", str(tmp_path)]) == 0
            assert len(calls) == builds, name

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        """An --out under a plain file: one error line, exit 2, no traceback."""
        (tmp_path / "plain").write_text("")
        out = tmp_path / "plain" / "x"
        assert main(["figure", "fig2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: {os.strerror(errno.ENOTDIR)}\n"
        assert captured.out == ""

    def test_figure_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["figure", "fig4", "--out", str(a)])
        main(["figure", "fig4", "--out", str(b)])
        assert (a / "fig4.csv").read_bytes() == (b / "fig4.csv").read_bytes()


# Signed zeros, infinities, nan, the smallest subnormal and normal, and floats
# at repr's switch to exponent notation (1e16, 1e-05).
_CSV_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
              1e15, 1e16, 1.2345678901234568e17, 1e-05, 1e-4, 0.1, 1.0 / 3.0, sys.float_info.max]


class TestWriteCsv:
    @staticmethod
    def _check(path, header, rows):
        """The file is the header, then per row each cell as repr of its
        float, and every finite cell parses back to the same bits."""
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == ",".join(header) and lines[-1] == "" and len(lines) == len(rows) + 2
        for line, row in zip(lines[1:-1], rows.tolist()):
            cells = line.split(",")
            assert cells == [repr(float(x)) for x in row]
            for cell, x in zip(cells, row):
                if math.isfinite(x):
                    assert np.float64(float(cell)).tobytes() == np.float64(x).tobytes()

    def test_edge_values(self, tmp_path):
        rows = np.array(_CSV_EDGES).reshape(-1, 2)
        cli.write_csv(tmp_path / "edges.csv", ["a", "b"], rows)
        self._check(tmp_path / "edges.csv", ["a", "b"], rows)
        assert (tmp_path / "edges.csv").read_text().splitlines()[1:4] == ["0.0,-0.0", "inf,-inf", "nan,5e-324"]

    @given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 4)),
                  elements=st.floats() | st.sampled_from(_CSV_EDGES)))
    def test_cells_are_repr_of_their_floats(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "drawn.csv"
        header = [f"c{k}" for k in range(rows.shape[1])]
        cli.write_csv(path, header, rows)
        self._check(path, header, rows)

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (2, 4)], ids=["1-D", "fewer_columns", "more_columns"])
    def test_shape_other_than_the_header_raises(self, tmp_path, shape):
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="ragged CSV row"):
            cli.write_csv(path, ["a", "b", "c"], np.zeros(shape))
        assert not path.exists()


class TestComputeCommand:
    def test_pqs_noiseless_qfi(self, tmp_path):
        cfg = {
            "mode": "qfi",
            "params": {"omega0": 1.0, "epsilon": 0.0, "gamma": 0.0, "n_bath": 0.0},
            "protocol": {"kind": "PQS", "n_max": 10.0, "total_time": 1.0},
            "t": 1.0,
        }
        payload = run_compute(cfg)
        assert payload["report"]["qfi_single_shot"] == pytest.approx(880.0, rel=1e-8)

    @pytest.mark.parametrize(
        "params,n_max,total_time",
        [
            pytest.param({"gamma": 1.0, "n_bath": 0.0}, 100.0, 10.0, id="cold"),
            # No protocol runs, so neither PQS's epsilon = 0 nor its input's
            # n_max > n_bath applies.
            pytest.param({"epsilon": 0.5}, 10.0, 1.0, id="driven"),
            pytest.param({"n_bath": 20.0}, 10.0, 1.0, id="bath-above-cap"),
        ],
    )
    def test_constant_bound(self, tmp_path, params, n_max, total_time):
        """A bound config without protocol.kind integrates N(t) = n_max."""
        cfg = {"mode": "bound", "params": params, "protocol": {"n_max": n_max, "total_time": total_time}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["compute", "--config", str(cfg_path), "--out", str(tmp_path / "out.json")]) == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        n_bath = params.get("n_bath", 0.0)
        want = 2.0 * n_max * total_time / (1.0 + 2.0 * n_bath - n_bath / (n_max + 1.0))
        assert payload["bound_integral"] == pytest.approx(want, rel=1e-12)
        assert payload["bound_value"] == pytest.approx(want, rel=1e-12)
        assert math.isfinite(payload["bound_error"]) and payload["bound_error"] >= 0.0

    def test_vacuum_pqs_bound(self, tmp_path):
        """A PQS without displacement at n_bath = 0 holds the vacuum, so its
        bound is 0 and compute exits 0."""
        cfg = {"mode": "bound", "protocol": {"kind": "PQS", "n_max": 10, "total_time": 1, "alpha": 0}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["compute", "--config", str(cfg_path), "--out", str(tmp_path / "out.json")]) == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["bound_integral"] == pytest.approx(0.0, abs=1e-14)
        assert 0.0 <= payload["bound_error"] <= 1e-14

    def test_evolve_zero_time_echoes_input(self):
        cfg = {
            "mode": "evolve",
            "params": {"omega0": 1.0, "epsilon": 0.0, "gamma": 1.0, "n_bath": 0.5},
            "protocol": {"kind": "PQS", "alpha": 1.0, "r": 0.5, "n_max": 5.0, "total_time": 1.0},
            "t": 0.0,
        }
        payload = run_compute(cfg)
        sigma = np.array(payload["state"]["sigma"])
        expected = 2.0 * np.diag([math.e, 1.0 / math.e])
        assert np.allclose(sigma, expected, rtol=1e-12)
        assert np.allclose(payload["state"]["v"], [math.sqrt(2.0), 0.0])

    def test_fi_mode_at_angle(self):
        cfg = {
            "mode": "fi",
            "params": {"omega0": 1.0, "epsilon": 0.0, "gamma": 1.0},
            "protocol": {"kind": "PQS", "alpha": 2.0, "r": 1.0, "n_max": 10.0,
                         "total_time": 1.0, "psi": math.pi / 2},
            "t": 0.5,
        }
        payload = run_compute(cfg)
        expected = 4.0 * 4.0 * 0.25 / (math.exp(-2.0) + math.e - 1.0)
        assert payload["fi_at_psi"] == pytest.approx(expected, rel=1e-8)
        assert payload["fi_at_psi"] <= payload["report"]["qfi_single_shot"]

    @pytest.mark.parametrize("mode", ["qfi", "fi"])
    def test_one_derivative_pair_per_point(self, monkeypatch, mode):
        """qfi and fi modes (fi at an angle of its own too) read every
        quantity off one derivative pair at t."""
        calls = []

        def counted(*args):
            calls.append(args)
            return differentiate_at_zero_shift(*args)

        monkeypatch.setattr(protocols, "differentiate_at_zero_shift", counted)
        cfg = {
            "mode": mode,
            "params": {"omega0": 1.0, "gamma": 1.0},
            "protocol": {"kind": "CQS", "n_max": 10.0, "total_time": 1.0},
            "t": 2.0,
        }
        if mode == "fi":
            cfg["protocol"]["psi"] = 0.3
        payload = run_compute(cfg)
        assert len(calls) == 1
        assert payload["report"]["qfi_single_shot"] > 0.0

    @pytest.mark.parametrize("kind", ["CQS", "PQS"])
    @pytest.mark.parametrize("mode", ["qfi", "fi", "optimize"])
    def test_report_is_asdict_of_the_report(self, monkeypatch, mode, kind):
        """The payload's report is dataclasses.asdict of the MetrologyReport
        it was read from, in each mode that writes one, for both strategies."""
        reports, original = [], protocols._report_and_pair

        def recorded(*args):
            result = original(*args)
            reports.append(result[0])
            return result

        monkeypatch.setattr(protocols, "_report_and_pair", recorded)
        cfg = {
            "mode": mode,
            "params": {"omega0": 1.0, "gamma": 1.0},
            "protocol": {"kind": kind, "n_max": 10.0, "total_time": 4.0},
            "t": 2.0,
        }
        if mode == "fi":
            cfg["protocol"]["psi"] = 0.3
        elif mode == "optimize":
            cfg["grid"] = {"t_min": 0.01, "t_max": 5.0}
        report = run_compute(cfg)["report"]
        assert len(reports) == 1
        assert report == dataclasses.asdict(reports[0])
        assert [type(value) for value in report.values()] == [float] * len(report)

    def test_lossless_thermal_quench_qfi(self):
        """A lossless quench from a thermal start at the t where it holds
        1e8 photons: the QFI is the 60-digit Van Loan oracle's to 1e-12
        (4.9999996e14, where the det formed at t made it 5x that), and no
        homodyne angle beats it."""
        t = 3.286381258504181
        cfg = {
            "mode": "qfi",
            "params": {"omega0": 1, "epsilon": 3, "gamma": 0, "n_bath": 1},
            "protocol": {"kind": "CQS", "n_max": 1e8, "total_time": t},
            "t": t,
        }
        report = run_compute(cfg)["report"]
        want = van_loan_qfi(SystemParams(1.0, 3.0, 0.0, n_bath=1.0), [0.0, 0.0], 3.0 * np.eye(2), t, dps=60)
        assert report["qfi_single_shot"] == pytest.approx(want, rel=1e-12)
        assert report["fi_homodyne_best"] <= report["qfi_single_shot"]

    def test_evolve_cqs_reaches_steady_state(self):
        cfg = {
            "mode": "evolve",
            "params": {"omega0": 1.0, "epsilon": 1.2, "gamma": 1.0},
            "protocol": {"kind": "CQS", "n_max": 2.0, "total_time": 1.0},
            "t": 80.0,
        }
        payload = run_compute(cfg)
        assert payload["state"]["mean_photons"] == pytest.approx(1.44 / 1.12, rel=1e-6)

    def test_optimize_mode(self):
        cfg = {
            "mode": "optimize",
            "params": {"omega0": 1.0, "epsilon": 0.0, "gamma": 1.0},
            "protocol": {"kind": "PQS", "n_max": 100.0, "total_time": 10.0, "t_pm": 0.0},
            "grid": {"t_min": 0.001, "t_max": 5.0},
        }
        payload = run_compute(cfg)
        assert payload["report"]["total_qfi"] <= payload["report"]["bound_value"] * (1 + 1e-6)
        assert payload["report"]["t_opt"] > 0

    def test_schema_violations_enumerated(self):
        cfg = {"mode": "nope", "params": {"gamma": -1.0}, "grid": {"points": 1, "t_min": 5, "t_max": 1}}
        with pytest.raises(ConfigError) as err:
            run_compute(cfg)
        text = "\n".join(err.value.problems)
        assert "mode" in text and "params.gamma" in text and "grid" in text

    @pytest.mark.parametrize(
        "path,extra",
        [
            ("extra", {"extra": 1}),
            ("protocol.tpm", {"protocol": {"kind": "PQS", "n_max": 10.0, "tpm": 2.0}}),
            ("grid.points", {"grid": {"t_min": 0.1, "t_max": 1.0, "points": 64}}),
            ("params.delta_omega", {"params": {"gamma": 1.0, "delta_omega": 0.3}}),
        ],
    )
    def test_unknown_field_exits_2(self, tmp_path, capsys, path, extra):
        cfg = {"mode": "qfi", "params": {"gamma": 1.0}, "t": 0.5, **extra}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["compute", "--config", str(cfg_path)]) == 2
        expected = f"config error: {path}: unknown field\n"
        if "grid" in extra:
            expected += "config error: grid: not used in qfi mode\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize(
        "problem,cfg",
        [
            ("protocol.psi: not used in qfi mode", {"mode": "qfi", "t": 0.5, "protocol": {"psi": 0.3}}),
            ("grid: not used in fi mode", {"mode": "fi", "t": 0.5, "grid": {"t_min": 0.1, "t_max": 1.0}}),
            ("t: not used in bound mode",
             {"mode": "bound", "t": 0.5, "protocol": {"n_max": 10.0, "total_time": 1.0}}),
            ("protocol.alpha_phase: not used without protocol.alpha",
             {"mode": "evolve", "t": 0.5, "protocol": {"n_max": 10.0, "r": 0.5, "alpha_phase": 1.0}}),
            ("protocol.r: not used by CQS",
             {"mode": "qfi", "t": 0.5, "protocol": {"kind": "CQS", "n_max": 10.0, "r": 0.5}}),
            ("protocol.alpha: not used in bound mode without protocol.kind",
             {"mode": "bound", "protocol": {"n_max": 10.0, "total_time": 1.0, "alpha": 1.0}}),
        ],
    )
    def test_unused_field_exits_2(self, tmp_path, capsys, problem, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["compute", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"

    @pytest.mark.parametrize(
        "text,problem",
        [
            ('{"mode": "qfi", "t": 1, "protocol": {"n_max": -1}}', "protocol: n_max must be positive, got -1.0"),
            ('{"mode": "qfi", "t": 1, "protocol": {"t_pm": -2}}', "protocol: t_pm must be >= 0, got -2.0"),
            ('{"mode": "qfi", "t": 1, "protocol": {"alpha": -1}}',
             "protocol: displacement magnitude must be >= 0"),
            ('{"mode": "qfi", "t": 1, "params": {"gamma": NaN}}', "params.gamma: must be finite, got nan"),
            ('{"mode": "qfi", "t": Infinity}', "t: must be finite, got inf"),
            ('{"mode": "optimize", "grid": {"t_min": 1, "t_max": Infinity}}',
             "grid.t_max: must be finite, got inf"),
            pytest.param('{"mode": "qfi", "t": 1' + "0" * 400 + "}", "t: must be finite, got inf",
                         id="int_beyond_double"),
            pytest.param('{"mode": "qfi", "t": 1, "protocol": {"n_max": -1' + "0" * 400 + "}}",
                         "protocol.n_max: must be finite, got -inf", id="negative_int_beyond_double"),
            pytest.param('["qfi"]', "<root>: configuration must be a JSON object", id="root_not_object"),
            pytest.param('{"mode": "qfi", "t": 1, "params": 3}', "params: must be an object", id="section_not_object"),
            pytest.param('{"mode": "qfi", "t": 1, "protocol": {"kind": "XQS"}}',
                         "protocol.kind: expected 'CQS' or 'PQS', got 'XQS'", id="bad_kind"),
            pytest.param('{"mode": "qfi", "t": "1"}', "t: must be a number, got '1'", id="not_a_number"),
            pytest.param('{"mode": "qfi", "t": 1, "params": {"epsilon": 0.5}}',
                         "params.epsilon: must be 0 for the PQS strategy", id="driven_pqs"),
        ],
    )
    def test_rejected_value_exits_2(self, tmp_path, capsys, text, problem):
        """A value the program rejects is a configuration error: exit 2, one
        line naming it, no warning. json.loads accepts NaN and Infinity, and
        ints beyond the double range."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compute", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"

    @pytest.mark.parametrize(
        "cfg,error",
        [
            pytest.param({"mode": "fi", "params": {"omega0": 1.0, "gamma": 0.0},
                          "protocol": {"kind": "CQS", "n_max": 1000.0, "psi": 1.0}, "t": 1e160},
                         r"error: QFI term is not finite \(inf\)", id="lossless_cqs_qfi_overflows"),
            pytest.param({"mode": "qfi", "params": {"omega0": 1.0, "gamma": 0.0},
                          "protocol": {"kind": "PQS", "n_max": 1000.0}, "t": 1e160},
                         r"error: QFI term is not finite \(inf\)", id="lossless_pqs_qfi_overflows"),
            pytest.param({"mode": "qfi", "params": {"omega0": 1, "epsilon": 1, "gamma": 0},
                          "protocol": {"kind": "CQS", "n_max": 1e308, "total_time": 1.02e103}, "t": 1.02e103},
                         "error: non-finite moments", id="tangent_at_exceptional_point_overflows"),
            pytest.param({"mode": "qfi", "t": 1, "protocol": {"kind": "PQS", "n_max": 1e300, "r": 1000}},
                         "error: non-finite moments", id="squeeze_exp_overflows"),
            pytest.param({"mode": "qfi", "t": 1, "protocol": {"kind": "PQS", "n_max": 1e300, "r": 400}},
                         "error: non-finite moments", id="squeezed_moments_overflow"),
            pytest.param({"mode": "qfi", "t": 1, "protocol": {"kind": "PQS", "n_max": 1e308, "alpha": 1e160}},
                         "error: non-finite photon number inf", id="displaced_photons_overflow"),
            pytest.param({"mode": "qfi", "t": 1e-155, "params": {"omega0": 1e155, "gamma": 1e155},
                          "protocol": {"kind": "CQS", "n_max": 10}},
                         "error: squared rates leave the double range", id="squared_rates_overflow"),
            pytest.param({"mode": "bound", "params": {"gamma": 1e-320},
                          "protocol": {"kind": "PQS", "n_max": 10, "total_time": 1}},
                         "error: bound integral out of range", id="bound_at_subnormal_gamma"),
            pytest.param({"mode": "bound", "protocol": {"n_max": 10, "total_time": 1e308}},
                         "error: bound integral out of range", id="bound_over_huge_time"),
            pytest.param({"mode": "evolve", "t": 1e308, "params": {"omega0": 10, "epsilon": 0.5, "gamma": 1},
                          "protocol": {"kind": "CQS", "n_max": 100}},
                         "error: non-finite moments", id="evolve_phase_overflows"),
            pytest.param({"mode": "evolve", "t": 50, "params": {"epsilon": 2, "gamma": 0},
                          "protocol": {"kind": "CQS", "n_max": 100}},
                         r"error: protocol holds .* budget allows 100\.0$", id="evolve_lossless_quench"),
            pytest.param({"mode": "evolve", "t": 1.6, "params": {"epsilon": 0.5, "gamma": 0},
                          "protocol": {"kind": "CQS", "n_max": 0.25}},
                         r"error: protocol holds .* budget allows 0\.25$", id="evolve_lossless_below_threshold"),
            pytest.param({"mode": "evolve", "t": 50, "params": {"epsilon": 2, "gamma": 1},
                          "protocol": {"kind": "CQS", "n_max": 100}},
                         r"error: protocol holds .* budget allows 100\.0$", id="evolve_lossy_beyond_threshold"),
            pytest.param({"mode": "bound", "params": {"epsilon": 2, "gamma": 1},
                          "protocol": {"kind": "CQS", "n_max": 100, "total_time": 50}},
                         r"error: protocol holds .* budget allows 100\.0$", id="bound_lossy_beyond_threshold"),
            pytest.param({"mode": "evolve", "t": 1.8, "params": {"epsilon": 0.5, "gamma": 0.01},
                          "protocol": {"kind": "CQS", "n_max": 0.2}},
                         r"error: protocol holds .* budget allows 0\.2$", id="evolve_underdamped_below_threshold"),
            pytest.param({"mode": "bound", "params": {"epsilon": 0.5, "gamma": 0.01},
                          "protocol": {"kind": "CQS", "n_max": 0.2, "total_time": 10}},
                         r"error: protocol holds .* budget allows 0\.2$", id="bound_underdamped_below_threshold"),
        ],
    )
    def test_compute_error_exits_1(self, tmp_path, capsys, cfg, error):
        """A QFI, a tangent, a squeezing, a displacement's photons, a bound, a
        phase or squared rates beyond the double range, or a state past the
        budget, exits 1 with one typed error line (its start matching
        `error`), with no traceback and no numpy warning. The lossless QFIs grow as t^2, and overflow at t = 1e160. (Design
        configs 437 and 517 of perfbench/workloads.py, which overflowed here
        through the finite-difference derivative, now compute; see
        test_metrology.py::TestExactDerivative.) Every mode checks the
        photons at the times it evaluates, below threshold too: the
        underdamped drive's 0.17 steady photons pass the 0.2 budget at
        construction, but its transient peaks at 0.33 near t = 1.8."""
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg_path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compute", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert re.match(error, captured.err, re.M), captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == "" and not out.exists()

    def test_lossy_beyond_threshold_within_budget_computes(self, tmp_path):
        """A lossy drive beyond threshold is accepted, and evaluated at a t
        where its photons are within the budget."""
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg_path.write_text(json.dumps({"mode": "qfi", "t": 2, "params": {"epsilon": 2, "gamma": 1},
                                        "protocol": {"kind": "CQS", "n_max": 100}}))
        assert main(["compute", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert 0 < report["photons_at_t"] <= 100.0
        assert 0 < report["fi_homodyne_best"] <= report["qfi_single_shot"]

    def test_compute_determinism(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "mode": "qfi",
                    "params": {"omega0": 1.0, "epsilon": 0.0, "gamma": 1.0},
                    "protocol": {"kind": "PQS", "n_max": 50.0, "total_time": 5.0},
                    "t": 0.7,
                }
            )
        )
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["compute", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["compute", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_is_the_out_file(self, tmp_path, capsys):
        """Without --out, compute writes to stdout the bytes --out writes to
        the file, and nothing else."""
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg_path.write_text(json.dumps({"mode": "qfi", "t": 0.7,
                                        "protocol": {"kind": "CQS", "n_max": 100.0}}))
        assert main(["compute", "--config", str(cfg_path)]) == 0
        captured = capsys.readouterr()
        assert main(["compute", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert captured.out.encode("utf-8") == out.read_bytes()
        assert captured.err == ""

    @pytest.mark.parametrize("name", ["nope.json", "."], ids=["missing", "directory"])
    def test_missing_config_exits_2(self, tmp_path, capsys, name):
        path = tmp_path / name
        assert main(["compute", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: config file not found: {path}\n"

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "latin1.json"
        cfg_path.write_bytes('{"mode": "qfi", "t": 1.0, "\u00e9": 1}'.encode("latin-1"))
        assert main(["compute", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config is not UTF-8 text: ")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""

    def test_int_too_long_to_convert_exits_2(self, tmp_path, capsys):
        """json.loads refuses an int of more than 4300 digits with a bare
        ValueError: one error line, exit 2, no traceback."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"mode": "qfi", "t": 1' + "0" * 5000 + "}")
        assert main(["compute", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config is not valid JSON: Exceeds the limit")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        """An --out in a missing directory: the result is computed, then one
        error line, exit 2, no traceback and no file."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mode": "qfi", "t": 1.0}))
        out = tmp_path / "missing_dir" / "o.json"
        assert main(["compute", "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: {os.strerror(errno.ENOENT)}\n"
        assert captured.out == "" and not out.parent.exists()

    def test_invalid_schema_exits_2(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"mode": "nope"}')
        assert main(["compute", "--config", str(cfg_path)]) == 2

    def test_unknown_figure_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["figure", "nosuch", "--out", str(tmp_path)])
        assert err.value.code == 2


class TestValidateCommand:
    def test_filtered_check_passes(self, capsys):
        assert main(["validate", "--filter", "semigroup"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "semigroup" in out

    def test_unknown_filter_exits_2(self):
        assert main(["validate", "--filter", "zzz-no-such-check"]) == 2

    @pytest.mark.parametrize("pattern", ["protocols.omega0", "metrology.symplectic"])
    def test_filter_by_printed_name(self, capsys, pattern):
        assert main(["validate", "--filter", pattern]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "1/1 checks passed"
        assert pattern in lines[0]

    def test_each_function_name_selects_its_check_alone(self, capsys):
        """perfbench's oracle_battery runs `validate --filter <function name>`
        once per entry of ALL_CHECKS and expects one check from each."""
        for check in ALL_CHECKS:
            assert main(["validate", "--filter", check.__name__]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[-1] == "1/1 checks passed"
            assert f" {check.check_name} " in lines[0]

    def test_injected_error_fails_validation(self, monkeypatch):
        """A state with a 1% drive error, its derivative left exact, fails
        the RK4 cross-check, which reads both from differentiate_at_zero_shift."""
        exact = validate.differentiate_at_zero_shift

        def perturbed(evolution, params, start, t):
            pair = exact(evolution, params, start, t)
            state = exact(evolution, replace(params, epsilon=0.99 * params.epsilon), start, t).state
            return DerivativePair(state, pair.dv, pair.dsigma)

        monkeypatch.setattr(validate, "differentiate_at_zero_shift", perturbed)
        assert main(["validate", "--filter", "rk4"]) == 1

    def test_injected_derivative_error_fails_validation(self, monkeypatch):
        """A 1% error in the exact shift derivative alone, the state left
        exact, fails the RK4 cross-check."""
        exact = validate.differentiate_at_zero_shift

        def perturbed(evolution, params, start, t):
            pair = exact(evolution, params, start, t)
            return DerivativePair(pair.state, pair.dv, 1.01 * pair.dsigma)

        monkeypatch.setattr(validate, "differentiate_at_zero_shift", perturbed)
        assert main(["validate", "--filter", "rk4"]) == 1

    def test_photon_drop_fails_monotonicity_check(self, monkeypatch, capsys):
        """One grid whose photon number drops once fails the monotonicity
        check, which names the drive and the number of drops."""
        exact = validate.mean_photons_vs_time

        def dropping(params, t):
            values = exact(params, t)
            if params.epsilon == 1.4:
                values[500] = 0.5 * values[499]
            return values

        monkeypatch.setattr(validate, "mean_photons_vs_time", dropping)
        assert main(["validate", "--filter", "photon_monotonicity"]) == 1
        line, summary = capsys.readouterr().out.splitlines()
        assert line.startswith("FAIL  dynamics.photon_monotonicity ") and "eps=1.4: 1 drops" in line
        assert "eps=1.2" not in line
        assert summary == "0/1 checks passed"

    def test_steady_state_losing_fails_beyond_threshold_check(self, monkeypatch, capsys):
        """A steady-state QFI of 0 makes the lossy beyond-threshold drives
        win, and the open-system comparison fails."""
        monkeypatch.setattr(protocols, "cqs_qfi_steady", lambda params: 0.0)
        assert main(["validate", "--filter", "beyond_threshold"]) == 1
        assert "smallest steady/beyond ratio 0.0 lossy" in capsys.readouterr().out

    def test_raising_check_fails_and_the_rest_run(self, monkeypatch, capsys):
        """A bound cap of 1e-9 makes total_qfi raise inside the
        beyond-threshold check, which prints a FAIL line naming the error,
        and fails the bound gate on its own comparison, which prints its
        ratio. Run in that order, the gate runs after the first has raised."""
        monkeypatch.setattr(protocols, "budget_cap", lambda *args: 1e-9)
        monkeypatch.setattr(validate, "ALL_CHECKS", (validate.check_beyond_threshold, validate.check_bound_gate))
        assert main(["validate", "--filter", "protocols.b"]) == 1
        raised, gate, summary = capsys.readouterr().out.splitlines()
        assert raised.startswith("FAIL  protocols.beyond_threshold_suboptimal ")
        assert "ConstraintError: total QFI " in raised and "violates the dissipative bound 1e-09" in raised
        assert gate.startswith("FAIL  protocols.bound_gate ") and "Error" not in gate
        assert float(gate.rsplit("max ratio ", 1)[1]) > 1e9
        assert summary == "0/2 checks passed"


def test_reused_parser_keeps_no_state(tmp_path, capsys):
    """One process builds the parser once; a compute run after a validate
    run and two usage errors gives the first run's exit code, output and
    bytes."""
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg_path.write_text(json.dumps({"mode": "fi", "protocol": {"kind": "CQS", "n_max": 50.0, "psi": 0.5}, "t": 2.0}))
    argv = ["compute", "--config", str(cfg_path), "--out", str(out)]

    def compute():
        out.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes()

    first = compute()
    assert first[0] == 0
    assert main(["validate", "--filter", "check_semigroup"]) == 0
    for bad in ([], ["compute"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    assert compute() == first
    assert cli.build_parser() is cli.build_parser()


def test_module_entry_point_runs_validate():
    """`python -m critsense` is the command line."""
    env = dict(os.environ, PYTHONPATH=str(Path(critsense.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-m", "critsense", "validate", "--filter", "check_semigroup"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == "1/1 checks passed"


def test_import_leaves_oracle_and_bound_dependencies_unloaded():
    """`import critsense.cli` runs before every command, so the Fock oracle's
    scipy.sparse, the bound's scipy.integrate, the time search's
    scipy.optimize and the noise-integral series' scipy.special (over half
    of the import time) are imported where used."""
    code = (
        "import sys, critsense.cli; "
        "print(sorted({'scipy.sparse', 'scipy.integrate', 'scipy.optimize', 'scipy.special'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(critsense.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).parent.parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_BOUND_CFG = {"mode": "bound", "params": {"gamma": 1.0}, "protocol": {"kind": "PQS", "n_max": 10.0, "total_time": 2.0}}
_EVOLVE_CFG = {"mode": "evolve", "t": 0.7, "params": {"gamma": 1.0, "n_bath": 0.3},
               "protocol": {"kind": "PQS", "n_max": 20.0, "alpha": 1.5, "alpha_phase": 2.0, "r": 0.5, "r_phase": 0.4}}
_QFI_CFG = {**_EVOLVE_CFG, "mode": "fi", "protocol": {**_EVOLVE_CFG["protocol"], "psi": 0.4}}


@pytest.fixture(scope="module")
def digest_run(tmp_path_factory):
    """One tools/output_digest.py run over fig4, a design of two configs,
    the first of which fails, one evolve config, one qfi config and one Fock
    centre, which retries once: (the tool, its OUT_DIR, its stdout)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))  # the tool prepends to it
        tool = _load_tool("output_digest")
        design = [[SimpleNamespace(config=lambda: {"mode": "nosuch"})], [SimpleNamespace(config=lambda: _BOUND_CFG)]]
        mp.setattr(tool, "design", lambda: design)
        mp.setattr(tool, "cli", SimpleNamespace(FIGURES=("fig4",), main=main))
        mp.setattr(tool, "EVOLVE", [_EVOLVE_CFG])
        mp.setattr(tool, "QFI", [_QFI_CFG])
        mp.setattr(tool, "FOCK_DESIGN", ((0.5, 0.55, 0.7, 1),))
        out = tmp_path_factory.mktemp("digest") / "out"
        out.mkdir()  # an empty OUT_DIR is taken
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert tool.main([str(out)]) == 0
    return tool, out, stdout.getvalue()


def test_output_digest_keeps_outputs_in_design_order(digest_run, tmp_path):
    """output_digest.py keeps each figure CSV, each config's output JSON,
    named by its place in design order (the failing config 0 keeps none),
    each evolve and qfi config's output JSON, named by its place in EVOLVE
    or QFI, and each Fock centre's estimate with the truncations it
    tried."""
    tool, out, stdout = digest_run
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()) == [
        "compute/0001.json", "digest.json", "evolve/0.json", "figures/fig4.csv", "fock/0.json", "qfi/0.json",
    ]
    fock = json.loads((out / "fock" / "0.json").read_text())
    params = SystemParams(1.0, 0.55 * math.sqrt(2.0), 1.0, n_bath=0.5)
    assert fock == {"estimate": fock_qfi_fidelity(params, 0.7, 5e-3, 38), "dims": [30, 38]}
    assert json.loads((out / "compute" / "0001.json").read_text())["config"] == _BOUND_CFG
    assert main(["figure", "fig4", "--out", str(tmp_path)]) == 0
    assert (out / "figures" / "fig4.csv").read_bytes() == (tmp_path / "fig4.csv").read_bytes()
    for kept, config in (("evolve", _EVOLVE_CFG), ("qfi", _QFI_CFG)):
        (tmp_path / f"{kept}.json").write_text(json.dumps(config))
        assert main(["compute", "--config", str(tmp_path / f"{kept}.json"), "--out", str(tmp_path / "out.json")]) == 0
        assert (out / kept / "0.json").read_bytes() == (tmp_path / "out.json").read_bytes()
    text = (out / "digest.json").read_text()
    digest = json.loads(text)
    assert list(digest["figures"]) == ["fig4"] and len(digest["compute"]) == 2
    assert len(digest["evolve"]) == len(digest["qfi"]) == len(digest["fock"]) == 1
    assert stdout.splitlines()[-1] == (
        f"1 figures, 2 compute configs, 1 evolve configs, 1 qfi configs, 1 Fock centres, validate, 7 errors: "
        f"{tool._sha(text)}"
    )


def test_output_digest_refuses_a_non_empty_out_dir(digest_run, tmp_path, capsys):
    """A file an earlier run left in OUT_DIR would pass for this run's, so
    output_digest.py runs nothing there; a usage error also exits 2."""
    tool = digest_run[0]
    stale = tmp_path / "compute" / "0000.json"
    stale.parent.mkdir()
    stale.write_text("{}")
    for target in (tmp_path, stale):
        assert tool.main([str(target)]) == 2
        assert capsys.readouterr().err == f"error: {target} exists and is not an empty directory\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["compute", "0000.json"]
    assert tool.main([]) == 2
    assert capsys.readouterr().err.startswith("usage:")


@pytest.fixture
def two_runs(digest_run, tmp_path):
    """tools/output_diff.py and two copies, a and b, of one digest run."""
    a, b = tmp_path / "a", tmp_path / "b"
    for copy in (a, b):
        shutil.copytree(digest_run[1], copy)
    return _load_tool("output_diff"), a, b


def _diff(tool, a, b, capsys) -> tuple[int, list[str]]:
    code = tool.main([str(a), str(b)])
    return code, capsys.readouterr().out.splitlines()


def _relative(line: str, name: str) -> float:
    key, value = line.split(": ")
    assert key == name
    return float(value)


def test_output_diff_of_identical_runs(two_runs, capsys):
    tool, a, b = two_runs
    assert _diff(tool, a, b, capsys) == (0, ["0 of 14 entries differ; largest 0"])


def test_output_diff_sizes_a_moved_figure_column(two_runs, capsys):
    """A fig4 cell scaled by 1 + 1e-9 moves its column by 1e-9; the columns
    that did not move are not listed."""
    tool, a, b = two_runs
    lines = (b / "figures" / "fig4.csv").read_text().splitlines()
    row = lines[5].split(",")
    row[2] = repr(float(row[2]) * (1.0 + 1e-9))
    lines[5] = ",".join(row)
    (b / "figures" / "fig4.csv").write_text("\n".join(lines) + "\n")
    code, out = _diff(tool, a, b, capsys)
    assert code == 1 and len(out) == 3 and out[0] == "figures.fig4"
    rel = _relative(out[1], "figures.fig4.photons_below")
    assert rel == pytest.approx(1e-9, rel=1e-3)
    assert out[2] == f"1 of 14 entries differ; largest {rel:.3g}"


def test_output_diff_sizes_a_moved_compute_field(two_runs, capsys):
    """A scaled field of a compute output moves by its scale, a deleted one
    is only in the other run, and the fields that did not move are not
    listed."""
    tool, a, b = two_runs
    payload = json.loads((b / "compute" / "0001.json").read_text())
    payload["bound_integral"] *= 1.0 + 1e-9
    del payload["bound_error"]
    (b / "compute" / "0001.json").write_text(json.dumps(payload))
    code, out = _diff(tool, a, b, capsys)
    assert code == 1 and out[:2] == ["compute.1", f"compute.1.bound_error: only in {a}"]
    rel = _relative(out[2], "compute.1.bound_integral")
    assert rel == pytest.approx(1e-9, rel=1e-3)
    assert out[3:] == [f"1 of 14 entries differ; largest {rel:.3g}"]


def test_output_diff_sizes_a_moved_evolve_field(two_runs, capsys):
    """An evolve output is diffed as a compute output is: a moved sigma
    entry moves its field, named by its path of keys."""
    tool, a, b = two_runs
    payload = json.loads((b / "evolve" / "0.json").read_text())
    payload["state"]["sigma"][0][1] *= 1.0 + 1e-6
    (b / "evolve" / "0.json").write_text(json.dumps(payload))
    code, out = _diff(tool, a, b, capsys)
    assert code == 1 and out[0] == "evolve.0"
    rel = _relative(out[1], "evolve.0.state.sigma")
    assert rel == pytest.approx(1e-6, rel=1e-3)
    assert out[2:] == [f"1 of 14 entries differ; largest {rel:.3g}"]


def test_output_diff_sizes_a_moved_fock_estimate(two_runs, capsys):
    """A Fock estimate is diffed as a compute field is; the dims it tried,
    unchanged, are not listed."""
    tool, a, b = two_runs
    payload = json.loads((b / "fock" / "0.json").read_text())
    payload["estimate"] *= 1.0 + 1e-3
    (b / "fock" / "0.json").write_text(json.dumps(payload))
    code, out = _diff(tool, a, b, capsys)
    assert code == 1 and out[0] == "fock.0"
    rel = _relative(out[1], "fock.0.estimate")
    assert rel == pytest.approx(1e-3, rel=1e-3)
    assert out[2:] == [f"1 of 14 entries differ; largest {rel:.3g}"]


def test_output_diff_names_entries_one_digest_holds(two_runs, capsys):
    tool, a, b = two_runs
    digest = json.loads((b / "digest.json").read_text())
    digest["validate"] = "x"
    digest["errors"]["extra"] = "x"
    del digest["errors"]["no_command"]
    (b / "digest.json").write_text(json.dumps(digest))
    assert _diff(tool, a, b, capsys) == (1, [
        "validate", f"errors.no_command: only in {a}", f"errors.extra: only in {b}",
        "3 of 15 entries differ; largest 0",
    ])


def test_output_diff_reports_files_that_do_not_pair(two_runs, capsys):
    """A figure with a row fewer pairs no column; a kept output under
    another config's number moves both entries."""
    tool, a, b = two_runs
    lines = (b / "figures" / "fig4.csv").read_text().splitlines()
    (b / "figures" / "fig4.csv").write_text("\n".join(lines[:-1]) + "\n")
    code, out = _diff(tool, a, b, capsys)
    header = lines[0].split(",")
    assert code == 1
    assert out == ["figures.fig4", *(f"figures.fig4.{c}: does not pair" for c in sorted(header)),
                   "1 of 14 entries differ; largest 0"]
    shutil.copy(a / "figures" / "fig4.csv", b / "figures" / "fig4.csv")
    (b / "compute" / "0001.json").rename(b / "compute" / "0000.json")
    assert _diff(tool, a, b, capsys) == (1, ["compute.0", "compute.1", "2 of 14 entries differ; largest 0"])


def test_output_diff_usage_error(two_runs, tmp_path, capsys):
    tool, a, _ = two_runs
    for argv in ([str(a)], [str(a), str(tmp_path)], [str(a), str(a), str(a)]):
        assert tool.main(argv) == 2
        assert capsys.readouterr().err == "usage: python3 tools/output_diff.py DIR_A DIR_B\n"


def test_src_lines_parts_sum_to_wc(capsys):
    """tools/src_lines.py splits each module's lines into parts that sum to
    its lines, and its total equals `wc -l` of the modules (newlines
    counted); a docstring's blank line, a string's blank line and a line of
    code with a trailing comment land where its docstring says."""
    tool = _load_tool("src_lines")
    src = Path(critsense.__file__).parent
    rows = tool.table(src)
    assert [name for name, _, _ in rows] == sorted(path.name for path in src.glob("*.py"))
    assert all(sum(parts.values()) == lines for _, lines, parts in rows)
    assert tool.main([str(src)]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total[:2] == ["total", str(sum(path.read_bytes().count(b"\n") for path in src.glob("*.py")))]
    module = ['"""Doc.', "", 'More."""', "", "# note", 'x = """a', "", 'b"""  # why', "", "", "def f():", '    """One."""']
    assert tool.count("\n".join(module) + "\n") == {"code": 4, "docstring": 4, "comment": 1, "blank": 3}
