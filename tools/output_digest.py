#!/usr/bin/env python3
"""sha256 digests of everything critsense writes, and the outputs they
digest, for checking that a refactor leaves its outputs byte-identical.

    python3 tools/output_digest.py OUT_DIR

Writes OUT_DIR/digest.json with one digest per figure CSV (`critsense
figure NAME`), one per `perfbench/workloads.design()` config (its exit code,
stdout, stderr and output JSON from `critsense compute --config C --out O`),
in design order, one per EVOLVE config (the same, for the `evolve` mode,
which the design does not run), one per QFI config (the same, for `qfi`
and `fi` configs the design does not hold), one per
`perfbench/workloads.FOCK_DESIGN` centre (the Fock oracle's
`fock_qfi_fidelity` there, as the benchmark runs it without jitter), one
of `critsense validate`'s exit code and report (stdout), and one per bad
invocation in ERRORS (its exit code, stdout and stderr), run last, so the
process-wide parser is checked after errors too. It keeps each CSV as
OUT_DIR/figures/NAME.csv, each output JSON as OUT_DIR/compute/NNNN.json,
NNNN its config's place in design order, each EVOLVE output as
OUT_DIR/evolve/N.json, N its place in EVOLVE, each QFI output as
OUT_DIR/qfi/N.json, N its place in QFI, and each Fock estimate with the
truncations tried as OUT_DIR/fock/K.json, K the centre's place in
FOCK_DESIGN, for `tools/output_diff.py`. The last stdout line is one
digest of all of them.
OUT_DIR must be new or empty, so no earlier run's file passes for this one's.

Runs in-process through `cli.main`, importing critsense from this tree's
src/ and the design from perfbench/, which it only reads. Every command runs
inside one scratch directory with relative paths, so the `wrote ...` lines
do not depend on where the tree is. Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from critsense import cli, dynamics, oracle  # noqa: E402
from critsense.errors import TruncationError  # noqa: E402
from workloads import FOCK_DESIGN, FOCK_DTHETA, design  # noqa: E402


def _sha(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8") if isinstance(part, str) else part
        # Length-prefixed, so no two splits of the same bytes collide.
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


# `evolve` configs: CQS and PQS, lossy thermal and lossless baths, displaced
# squeezed PQS inputs with both phases, and t = 0.
EVOLVE = [
    {"mode": "evolve", "t": 2.0, "params": {"gamma": 1.0, "n_bath": 0.5}, "protocol": {"kind": "CQS", "n_max": 100.0}},
    {"mode": "evolve", "t": 0.0, "params": {"gamma": 1.0, "n_bath": 0.5}, "protocol": {"kind": "CQS", "n_max": 100.0}},
    {"mode": "evolve", "t": 5.0, "params": {"epsilon": 0.9, "gamma": 0.0}, "protocol": {"kind": "CQS", "n_max": 1e3}},
    {"mode": "evolve", "t": 1.5, "params": {"gamma": 0.5, "n_bath": 1.0}, "protocol": {"kind": "PQS", "n_max": 50.0}},
    {"mode": "evolve", "t": 0.7, "params": {"gamma": 1.0, "n_bath": 0.3},
     "protocol": {"kind": "PQS", "n_max": 20.0, "alpha": 1.5, "alpha_phase": 2.0, "r": 0.5, "r_phase": 0.4}},
    {"mode": "evolve", "t": 3.0, "params": {"omega0": 2.0, "gamma": 0.0},
     "protocol": {"kind": "PQS", "n_max": 20.0, "alpha": 2.0, "alpha_phase": 0.7, "r": 0.8, "r_phase": -1.1}},
    {"mode": "evolve", "t": 0.0, "params": {"gamma": 0.0}, "protocol": {"kind": "PQS", "n_max": 10.0}},
]

# `qfi` and `fi` configs: PQS inputs off the phase-space axes, lossy and
# lossless, where the passive flow's tangent meets a start whose mean and
# squeezing are both turned (the design's PQS inputs are on the axes), and a
# CQS drive at omega0 = -0.0, whose printed zeros keep their sign.
QFI = [
    {"mode": "qfi", "t": 1.3, "params": {"gamma": 0.7, "n_bath": 0.4},
     "protocol": {"kind": "PQS", "n_max": 30.0, "alpha": 1.2, "alpha_phase": 0.9, "r": 0.6, "r_phase": -0.5}},
    {"mode": "fi", "t": 2.5, "params": {"gamma": 0.0},
     "protocol": {"kind": "PQS", "n_max": 20.0, "alpha": 1.5, "alpha_phase": -2.3, "r": 0.8, "r_phase": 1.1,
                  "psi": 0.4}},
    {"mode": "qfi", "t": 1.5, "params": {"omega0": -0.0, "epsilon": 0.5, "gamma": 1.0},
     "protocol": {"kind": "CQS", "n_max": 10.0}},
]

# Bad invocations by name; each runs inside the scratch directory, where
# digests() writes the files they name.
ERRORS = {
    "no_command": [],
    "unknown_figure": ["figure", "nosuch", "--out", "figures"],
    "compute_without_config": ["compute"],
    "missing_config": ["compute", "--config", "missing.json"],
    "non_utf8_config": ["compute", "--config", "latin1.json"],
    "invalid_json": ["compute", "--config", "truncated.json"],
    "unwritable_out": ["compute", "--config", "config.json", "--out", "missing_dir/out.json"],
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    """cli.main(argv) with stdout and stderr captured; a usage error's
    SystemExit gives its exit code. Each call shows a warning once per
    place, as a fresh process would."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def _compute(config: dict, keep: Path) -> str:
    """The digest of `critsense compute` on config (its exit code, stdout,
    stderr and output JSON); the output JSON, if one is written, is kept as
    keep."""
    Path("config.json").write_text(json.dumps(config), encoding="utf-8")
    Path("out.json").unlink(missing_ok=True)
    code, out, err = _run(["compute", "--config", "config.json", "--out", "out.json"])
    written = Path("out.json").read_bytes() if Path("out.json").exists() else b""
    if written:
        keep.write_bytes(written)
    return _sha(str(code), out, err, written)


def fock_run(n_bath: float, ratio: float, t: float) -> dict:
    """fock_qfi_fidelity at one design centre (omega0 = Gamma = 1, eps_c =
    sqrt(2)) from suggested_dim's truncation, retrying at each
    TruncationError's suggested_dim: the estimate and the dims tried."""
    params = dynamics.SystemParams(1.0, ratio * math.sqrt(2.0), 1.0, n_bath=n_bath)
    dims = [oracle.suggested_dim(dynamics.mean_photons_vs_time(params, t))]
    while True:
        try:
            return {"estimate": oracle.fock_qfi_fidelity(params, t, FOCK_DTHETA, dims[-1]), "dims": dims}
        except TruncationError as exc:
            dims.append(exc.suggested_dim)


def digests(kept: Path) -> dict:
    figures = {}
    for name in cli.FIGURES:
        code, out, err = _run(["figure", name, "--out", "figures"])
        csv = Path("figures", f"{name}.csv").read_bytes()
        figures[name] = _sha(str(code), out, err, csv)
        (kept / "figures" / f"{name}.csv").write_bytes(csv)
    cases = (case for block in design() for case in block)
    compute = [_compute(case.config(), kept / "compute" / f"{i:04d}.json") for i, case in enumerate(cases)]
    evolve = [_compute(config, kept / "evolve" / f"{i}.json") for i, config in enumerate(EVOLVE)]
    qfi = [_compute(config, kept / "qfi" / f"{i}.json") for i, config in enumerate(QFI)]
    fock = []
    for k, (n_bath, ratio, t, _) in enumerate(FOCK_DESIGN):
        text = json.dumps(fock_run(n_bath, ratio, t))
        fock.append(_sha(text))
        (kept / "fock" / f"{k}.json").write_text(text, encoding="utf-8")
    code, out, _ = _run(["validate"])
    validate = _sha(str(code), out)
    Path("config.json").write_text(json.dumps({"mode": "qfi", "t": 1.0}), encoding="utf-8")
    Path("latin1.json").write_bytes('{"mode": "qfi", "t": 1.0, "\u00e9": 1}'.encode("latin-1"))
    Path("truncated.json").write_text('{"mode": "qfi"', encoding="utf-8")
    errors = {}
    for name, argv in ERRORS.items():
        code, out, err = _run(argv)
        errors[name] = _sha(str(code), out, err)
    return {
        "figures": figures, "compute": compute, "evolve": evolve, "qfi": qfi, "fock": fock, "validate": validate,
        "errors": errors,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/output_digest.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        print(f"error: {argv[0]} exists and is not an empty directory", file=sys.stderr)
        return 2
    for sub in ("figures", "compute", "evolve", "qfi", "fock"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    home = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="critsense-digest-") as work:
        os.chdir(work)
        try:
            result = digests(out)
        finally:
            os.chdir(home)
    text = json.dumps(result, indent=1) + "\n"
    (out / "digest.json").write_text(text, encoding="utf-8")
    print(f"{len(result['figures'])} figures, {len(result['compute'])} compute configs, "
          f"{len(result['evolve'])} evolve configs, {len(result['qfi'])} qfi configs, "
          f"{len(result['fock'])} Fock centres, validate, "
          f"{len(result['errors'])} errors: {_sha(text)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
