#!/usr/bin/env python3
"""Each output that differs between two `tools/output_digest.py` runs, and
by how much, for showing that a change moved only the outputs it meant to.

    python3 tools/output_diff.py DIR_A DIR_B

DIR_A and DIR_B are OUT_DIRs of `output_digest.py`. Prints one line per
entry whose digest or kept file differs: `figures.NAME`, `compute.N` (N the
config's place in design order), `evolve.N` (N the config's place in
EVOLVE), `qfi.N` (N the config's place in QFI), `fock.K` (K the centre's
place in FOCK_DESIGN), `validate` or `errors.NAME`, or `NAME: only in DIR`
for an entry that one digest alone holds. Under a figure, compute, evolve,
qfi or Fock entry both sides kept, one line per CSV column or numeric JSON
field (named by its path of keys; a list's entries share its path) that
moved: the largest |a - b| / max(|a|, |b|) over its values (0 where both
are 0, or equal and non-finite; inf where one is non-finite and the other
is not), `only in DIR` for a field one side alone holds, or `does not pair`
when the sides hold different numbers of values. A Fock entry's `dims`, the
truncations it tried, are labels, not measurements: a change is listed by
value, as `fock.0.dims: [30] -> [18]`, and not sized. The last line counts
the entries that differ and gives the largest relative difference. Exits 0
when none differs, 1 otherwise, 2 on a usage error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np


def entries(out: Path) -> dict[str, tuple]:
    """Each entry of out/digest.json by name, as (its digest, the bytes of
    the file kept for it or None)."""
    digest = json.loads((out / "digest.json").read_text(encoding="utf-8"))
    kept = {
        **{f"figures.{name}": (sha, out / "figures" / f"{name}.csv") for name, sha in digest["figures"].items()},
        **{f"compute.{i}": (sha, out / "compute" / f"{i:04d}.json") for i, sha in enumerate(digest["compute"])},
        **{f"evolve.{i}": (sha, out / "evolve" / f"{i}.json") for i, sha in enumerate(digest["evolve"])},
        **{f"qfi.{i}": (sha, out / "qfi" / f"{i}.json") for i, sha in enumerate(digest["qfi"])},
        **{f"fock.{k}": (sha, out / "fock" / f"{k}.json") for k, sha in enumerate(digest["fock"])},
        "validate": (digest["validate"], None),
        **{f"errors.{name}": (sha, None) for name, sha in digest["errors"].items()},
    }
    return {name: (sha, path.read_bytes() if path and path.is_file() else None) for name, (sha, path) in kept.items()}


def leaves(node, path: str = ""):
    """(path of keys, value) of each numeric leaf of a JSON value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for value in node:
            yield from leaves(value, path)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


def fields(name: str, data: bytes) -> dict[str, list]:
    """The values of each field of a kept file: a figure CSV's columns, a
    compute, evolve, qfi or Fock JSON's numeric leaves."""
    if name.startswith("figures."):
        header, *rows = (line.split(",") for line in data.decode("utf-8").splitlines())
        pairs = ((column, float(x)) for row in rows for column, x in zip(header, row))
    else:
        pairs = leaves(json.loads(data))
    out: dict[str, list] = {}
    for key, x in pairs:
        out.setdefault(key, []).append(x)
    return out


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    finite = np.isfinite(a) & np.isfinite(b)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return float(np.where(same, 0.0, np.where(finite, rel, np.inf)).max(initial=0.0))


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all((Path(d) / "digest.json").is_file() for d in argv):
        print("usage: python3 tools/output_diff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    a, b = (entries(Path(d)) for d in argv)
    differ = [name for name in {**a, **b} if a.get(name) != b.get(name)]
    largest = 0.0
    for name in differ:
        if name not in a or name not in b:
            print(f"{name}: only in {argv[0] if name in a else argv[1]}")
            continue
        print(name)
        if a[name][1] is None or b[name][1] is None:
            continue
        fa, fb = fields(name, a[name][1]), fields(name, b[name][1])
        for key in sorted(fa.keys() | fb.keys()):
            if key not in fa or key not in fb:
                print(f"{name}.{key}: only in {argv[0] if key in fa else argv[1]}")
            elif key == "dims":  # a Fock entry's truncations tried: labels, not measurements
                if fa[key] != fb[key]:
                    print(f"{name}.{key}: {fa[key]} -> {fb[key]}")
            elif len(fa[key]) != len(fb[key]):
                print(f"{name}.{key}: does not pair")
            elif rel := relative_difference(np.array(fa[key], dtype=float), np.array(fb[key], dtype=float)):
                print(f"{name}.{key}: {rel:.3g}")
                largest = max(largest, rel)
    print(f"{len(differ)} of {len(a.keys() | b.keys())} entries differ; largest {largest:.3g}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
