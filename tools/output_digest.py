#!/usr/bin/env python3
"""sha256 digests of everything critsense writes, for checking that a
refactor leaves its outputs byte-identical.

    python3 tools/output_digest.py OUT.json

Writes OUT.json with one digest per figure CSV (`critsense figure NAME`), one
per `perfbench/workloads.design()` config (its exit code, stdout, stderr and
output JSON from `critsense compute --config C --out O`), in design order,
and one of `critsense validate`'s exit code and report (stdout). Two trees
give the same OUT.json when their outputs are identical: run it in each and
compare the files (`cmp a.json b.json`). The last stdout line is one digest
of all of them.

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
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from critsense import cli  # noqa: E402
from workloads import design  # noqa: E402


def _sha(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8") if isinstance(part, str) else part
        # Length-prefixed, so no two splits of the same bytes collide.
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def _run(argv: list[str]) -> tuple[int, str, str]:
    """cli.main(argv) with stdout and stderr captured. Each call shows a
    warning once per place, as a fresh process would."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digests() -> dict:
    figures = {}
    for name in cli.FIGURES:
        code, out, err = _run(["figure", name, "--out", "figures"])
        figures[name] = _sha(str(code), out, err, Path("figures", f"{name}.csv").read_bytes())
    compute = []
    for case in (case for block in design() for case in block):
        Path("config.json").write_text(json.dumps(case.config()), encoding="utf-8")
        Path("out.json").unlink(missing_ok=True)
        code, out, err = _run(["compute", "--config", "config.json", "--out", "out.json"])
        written = Path("out.json").read_bytes() if Path("out.json").exists() else b""
        compute.append(_sha(str(code), out, err, written))
    code, out, _ = _run(["validate"])
    return {"figures": figures, "compute": compute, "validate": _sha(str(code), out)}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/output_digest.py OUT.json", file=sys.stderr)
        return 2
    target = Path(argv[0]).resolve()
    home = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="critsense-digest-") as work:
        os.chdir(work)
        try:
            result = digests()
        finally:
            os.chdir(home)
    text = json.dumps(result, indent=1) + "\n"
    target.write_text(text, encoding="utf-8")
    print(f"{len(result['figures'])} figures, {len(result['compute'])} compute configs, validate: {_sha(text)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
