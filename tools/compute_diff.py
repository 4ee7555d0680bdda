#!/usr/bin/env python3
"""Largest relative difference of each numeric field of the `compute`
outputs in two directories, for stating how far a change that moves the
numerics on purpose moved them.

    python3 tools/compute_diff.py DIR_A DIR_B

DIR_A and DIR_B each hold the NNNN.json files that
`python3 tools/output_digest.py OUT.json DIR` keeps, one per config of
`perfbench/workloads.design()`. Files are paired by name. A field is named
by its path of keys (`report.qfi_single_shot`; the entries of a list share
their key's name). Prints one line per field: the largest
|a - b| / max(|a|, |b|) over the files that hold it on both sides (as
`tools/figure_diff.py` takes it), or `only in DIR_X` for a field that one
side alone holds, such as a new output. The last line is the largest over
all fields held by both. Exits 1 if a file of DIR_A is missing from DIR_B or
the reverse, or a field holds more numbers on one side, as then they do not
pair up; 2 on a usage error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from figure_diff import relative_difference  # noqa: E402


def numbers(node, path: str = "") -> dict[str, list]:
    """Each numeric leaf of a JSON value, by its path of keys; a list's
    entries join its own path, and non-numeric leaves are dropped."""
    if isinstance(node, dict):
        items = [numbers(value, f"{path}.{key}" if path else key) for key, value in node.items()]
    elif isinstance(node, list):
        items = [numbers(value, path) for value in node]
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        return {path: [float(node)]}
    else:
        return {}
    out: dict[str, list] = {}
    for item in items:
        for key, values in item.items():
            out.setdefault(key, []).extend(values)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: python3 tools/compute_diff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = map(Path, argv)
    names_a, names_b = ({p.name for p in d.glob("*.json")} for d in (dir_a, dir_b))
    if names_a != names_b:
        print(f"files differ: {sorted(names_a ^ names_b)[:5]}", file=sys.stderr)
        return 1
    worst: dict[str, float] = {}
    only: dict[str, str] = {}
    for name in sorted(names_a):
        a, b = (numbers(json.loads((d / name).read_text(encoding="utf-8"))) for d in (dir_a, dir_b))
        for key in a.keys() ^ b.keys():
            only[key] = str(dir_a if key in a else dir_b)
        for key in a.keys() & b.keys():
            if len(a[key]) != len(b[key]):
                print(f"{name}: {key} differs in length", file=sys.stderr)
                return 1
            rel = relative_difference(np.array(a[key]), np.array(b[key]))
            worst[key] = max(worst.get(key, 0.0), rel)
    for key in sorted(worst.keys() | only.keys()):
        print(f"{key}: only in {only[key]}" if key in only else f"{key}: {worst[key]:.3g}")
    print(f"all: {max(worst.values(), default=0.0):.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
