import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import critsense
from critsense import protocols
from critsense.cli import main, run_compute
from critsense.dynamics import SystemParams, evolve_critical, evolve_passive, mean_photons_vs_time
from critsense.errors import ConfigError
from critsense.gaussian import DisplacementAmplitude, mean_photons, purity, thermal_state
from critsense.metrology import DerivativePair, differentiate_at_zero_shift, fi_homodyne
from critsense.protocols import (
    best_homodyne,
    cqs_qfi,
    default_pqs_input,
    epsilon_opt,
    optimal_squeezing_homodyne,
    pqs_input_state,
    pqs_pair,
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


def _fig2_row(t):
    i_pqs = pqs_qfi(_ALPHA, _SQUEEZE, _PASSIVE, t)
    i_cqs = cqs_qfi(_DRIVEN, t)
    return {
        "qfi_pqs": i_pqs,
        "qfi_cqs": i_cqs,
        "log1p_qfi_pqs": math.log1p(i_pqs),
        "log1p_qfi_cqs": math.log1p(i_cqs),
        "photons_pqs": mean_photons(evolve_passive(_PASSIVE, pqs_input_state(_ALPHA, _SQUEEZE), t)),
        "photons_cqs": mean_photons_vs_time(_DRIVEN, t),
    }


def _fig3_row(t):
    r_opt = optimal_squeezing_homodyne(100.0, 1.0, t)
    a_opt = DisplacementAmplitude(math.sqrt(max(100.0 - math.sinh(r_opt.r) ** 2, 0.0)))
    info = {
        "pqs": pqs_qfi(_ALPHA, _SQUEEZE, _PASSIVE, t),
        "cqs": cqs_qfi(_DRIVEN, t),
        "hom_optr": fi_homodyne(pqs_pair(a_opt, r_opt, _PASSIVE, t), math.pi / 2.0),
        "hom_sqvac": best_homodyne(pqs_pair(_ALPHA, _SQUEEZE, _PASSIVE, t))[1],
    }
    row = {f"rate_{k}_tpm{t_pm}": v / (100.0 * (t + t_pm)) for k, v in info.items() for t_pm in (0, 2)}
    row.update(_fig2_row(t))
    return {k: v for k, v in row.items() if k.startswith(("rate_", "photons_"))}


def _fig4_row(t):
    row = {}
    for label, params in (("below", SystemParams(1.0, 0.99, 1.0)),
                          ("above", SystemParams(1.0, 0.9975 * math.sqrt(2.0), 1.0))):
        row[f"purity_{label}"] = purity(evolve_critical(params, thermal_state(params.n_bath), t))
        row[f"photons_{label}"] = mean_photons_vs_time(params, t)
    return row


_FIGURE_ROWS = {"fig2": _fig2_row, "fig3": _fig3_row, "fig4": _fig4_row}


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

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
    def test_columns_equal_public_functions(self, tmp_path, name):
        """First, middle and last rows equal the public functions called
        directly, exactly after the CSV's round-trip decimals."""
        assert main(["figure", name, "--out", str(tmp_path)]) == 0
        header, data = read_csv(tmp_path / f"{name}.csv")
        for i in (0, len(data) // 2, len(data) - 1):
            t = float(data[i, 0])
            want = _FIGURE_ROWS[name](t)
            assert set(want) == set(header[1:])
            for col, value in want.items():
                assert data[i, header.index(col)] == value, (name, i, col)

    def test_figure_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["figure", "fig4", "--out", str(a)])
        main(["figure", "fig4", "--out", str(b)])
        assert (a / "fig4.csv").read_bytes() == (b / "fig4.csv").read_bytes()


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

    def test_constant_bound(self):
        cfg = {
            "mode": "bound",
            "params": {"gamma": 1.0, "n_bath": 0.0},
            "protocol": {"n_max": 100.0, "total_time": 10.0},
        }
        payload = run_compute(cfg)
        assert payload["bound_value"] == pytest.approx(2000.0, rel=1e-8)

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
        ],
    )
    def test_unused_field_exits_2(self, tmp_path, capsys, problem, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["compute", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"

    def test_overflowing_qfi_exits_1(self, tmp_path, capsys):
        """A QFI beyond the double range exits 1 with one typed error line and
        no numpy warning: lossless protocols at t = 1e160, where the QFI grows
        as t^2. (Design configs 437 and 517 of perfbench/workloads.py, which
        overflowed here through the finite-difference derivative, now compute;
        see test_metrology.py::TestExactDerivative.)"""
        cases = [
            ({"mode": "fi", "params": {"omega0": 1.0, "gamma": 0.0},
              "protocol": {"kind": "CQS", "n_max": 1000.0, "psi": 1.0}, "t": 1e160},
             "error: QFI term is not finite (inf)"),
            ({"mode": "qfi", "params": {"omega0": 1.0, "gamma": 0.0},
              "protocol": {"kind": "PQS", "n_max": 1000.0}, "t": 1e160},
             "error: QFI term is not finite (inf)"),
        ]
        for k, (cfg, error) in enumerate(cases):
            cfg_path, out = tmp_path / f"cfg{k}.json", tmp_path / f"out{k}.json"
            cfg_path.write_text(json.dumps(cfg))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["compute", "--config", str(cfg_path), "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(error), captured.err
            assert len(captured.err.splitlines()) == 1
            assert captured.out == "" and not out.exists()

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

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["compute", "--config", str(tmp_path / "nope.json")]) == 2

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
        """A propagator with a 1% drive error fails the RK4 cross-check."""
        import critsense.validate as val

        def perturbed(params, state, t):
            return evolve_critical(replace(params, epsilon=0.99 * params.epsilon), state, t)

        monkeypatch.setattr(val, "evolve_critical", perturbed)
        assert main(["validate", "--filter", "rk4"]) == 1

    def test_injected_derivative_error_fails_validation(self, monkeypatch):
        """A 1% error in the exact shift derivative alone, the state left
        exact, fails the RK4 cross-check."""
        exact = protocols.cqs_pair

        def perturbed(params, t):
            pair = exact(params, t)
            return DerivativePair(pair.state, pair.dv, 1.01 * pair.dsigma)

        monkeypatch.setattr(protocols, "cqs_pair", perturbed)
        assert main(["validate", "--filter", "rk4"]) == 1


def test_import_leaves_oracle_and_bound_dependencies_unloaded():
    """`import critsense.cli` runs before every command, so the Fock oracle's
    scipy.sparse, the bound's scipy.integrate and the time search's
    scipy.optimize are imported where used."""
    code = (
        "import sys, critsense.cli; "
        "print(sorted({'scipy.sparse', 'scipy.integrate', 'scipy.optimize'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(critsense.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
