#!/usr/bin/env python3
"""Largest relative difference of each column of the figure CSVs in two
output directories, for stating how far a change that moves the numerics on
purpose moved them.

    python3 tools/figure_diff.py DIR_A DIR_B

DIR_A and DIR_B each hold the CSVs `critsense figure NAME --out DIR` writes.
For every NAME.csv found in DIR_A, prints one line per column other than t:
the largest |a - b| / max(|a|, |b|) over its rows (0 where both are 0, or
equal and non-finite; inf where one is non-finite and the other is not),
then that figure's largest. The last line is the largest over all figures.
Exits 1 if a CSV is missing from DIR_B or its header, t column or row count
differs, as then the rows do not pair up; 2 on a usage error.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=float).reshape(len(rows), -1)


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    """max over the rows of |a - b| / max(|a|, |b|), as the module says."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    finite = np.isfinite(a) & np.isfinite(b)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel = np.where(same, 0.0, np.where(finite, rel, np.inf))
    return float(rel.max(initial=0.0))


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: python3 tools/figure_diff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = map(Path, argv)
    overall = 0.0
    for path_a in sorted(dir_a.glob("*.csv")):
        path_b = dir_b / path_a.name
        if not path_b.is_file():
            print(f"{path_a.name}: missing from {dir_b}", file=sys.stderr)
            return 1
        (header_a, a), (header_b, b) = read_csv(path_a), read_csv(path_b)
        if header_a != header_b or a.shape != b.shape or not np.array_equal(a[:, :1], b[:, :1]):
            print(f"{path_a.name}: header, t column or row count differs", file=sys.stderr)
            return 1
        worst = 0.0
        for i, column in enumerate(header_a[1:], start=1):
            rel = relative_difference(a[:, i], b[:, i])
            worst = max(worst, rel)
            print(f"{path_a.stem}.{column}: {rel:.3g}")
        print(f"{path_a.stem}: {worst:.3g}")
        overall = max(overall, worst)
    print(f"all: {overall:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
