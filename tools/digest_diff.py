#!/usr/bin/env python3
"""Each entry that differs between two `tools/output_digest.py` files, for
showing that a change moved only the outputs it meant to move.

    python3 tools/digest_diff.py A.json B.json

Prints one line per differing entry: `figures.NAME`, `compute.N` (N the
config's place in design order), `validate` or `errors.NAME`; an entry that
one file alone holds is printed too. The last line counts them. Exits 0 when
the files hold the same digests, 1 otherwise, 2 on a usage error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def entries(digest: dict) -> dict[str, str]:
    """Each digest of an output_digest.py file by its entry name."""
    return {
        **{f"figures.{name}": sha for name, sha in digest["figures"].items()},
        **{f"compute.{i}": sha for i, sha in enumerate(digest["compute"])},
        "validate": digest["validate"],
        **{f"errors.{name}": sha for name, sha in digest["errors"].items()},
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(p).is_file() for p in argv):
        print("usage: python3 tools/digest_diff.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (entries(json.loads(Path(p).read_text(encoding="utf-8"))) for p in argv)
    differ = [name for name in {**a, **b} if a.get(name) != b.get(name)]
    for name in differ:
        print(name if name in a and name in b else f"{name}: only in {argv[0] if name in a else argv[1]}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} entries differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
