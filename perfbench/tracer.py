"""Out-of-program tracing of critsense's public functions.

`Tracer.install()` wraps every public function of the critsense modules and
`GaussianState.__post_init__` (the constructor's checks). Modules bind names
with `from ... import`, so each wrapper replaces the name in every critsense
module that holds the function, and in module-level tuples and dicts such as
`validate.ALL_CHECKS` and `cli.FIGURE_WRITERS`. Each call records a span
(name, start, end, parent span, op id) in memory; `uninstall()` puts the
originals back. Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("gaussian", "dynamics", "metrology", "protocols", "oracle", "validate", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One [name id, parent index, op id, start, end] per call; appended in
        # one step so a deadline signal cannot leave a partial record.
        self.spans: list[list] = []
        self.op_id = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        # Per-call observations that spans alone do not carry; observers also
        # see calls that raised (result None).
        self.rk4_steps = 0
        self.fock_dims: list[int] = []
        self.derivative_warns = 0

    # --- recording -----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Start a new op; drops stack entries a deadline signal may have left."""
        self.op_id = op_id
        self._stack[:] = [-1]

    def _wrap(self, name: str, fn, observe=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            depth = len(stack)
            record = [nid, stack[-1], tracer.op_id, perf_counter(), 0.0]
            tracer.spans.append(record)
            stack.append(len(tracer.spans) - 1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record[4] = perf_counter()
                del stack[depth:]
                if observe is not None:
                    observe(args, kwargs, result)

        return traced

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"critsense.{m}") for m in MODULES}
        package = importlib.import_module("critsense")
        originals = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[obj] = f"{short}.{attr}"
        observers = self._observers(mods)
        wrappers = {fn: self._wrap(name, fn, observers.get(name)) for fn, name in originals.items()}
        for mod in (*mods.values(), package):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
                elif isinstance(obj, tuple) and any(inspect.isfunction(x) and x in wrappers for x in obj):
                    self._set(mod, attr, tuple(wrappers.get(x, x) for x in obj))
                elif isinstance(obj, dict) and any(inspect.isfunction(x) and x in wrappers for x in obj.values()):
                    self._set(mod, attr, {k: wrappers.get(v, v) for k, v in obj.items()})
        state_cls = mods["gaussian"].GaussianState
        self._set(state_cls, "__post_init__", self._wrap("gaussian.GaussianState", state_cls.__post_init__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _observers(self, mods) -> dict:
        oracle = mods["oracle"]
        default_step = oracle.default_step
        rk4_sig = inspect.signature(oracle.lyapunov_rk4)

        def rk4(args, kwargs, result):
            bound = rk4_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if a["t"] == 0.0:
                return
            dt = a["dt"] if a["dt"] is not None else default_step(a["params"])
            n = max(1, math.ceil(a["t"] / dt))
            self.rk4_steps += 3 * n if a["verify_step"] else n

        def fock(args, kwargs, result):
            rho0 = args[1] if len(args) > 1 else kwargs["rho0"]
            self.fock_dims.append(rho0.dim)

        def derivative(args, kwargs, result):
            self.derivative_warns += result is not None and bool(result.warn)

        return {
            "oracle.lyapunov_rk4": rk4,
            "oracle.fock_evolve": fock,
            "metrology.differentiate_at_zero_shift": derivative,
        }

    # --- analysis --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns; a span a signal left open gets zero duration."""
        cols = list(zip(*self.spans)) if self.spans else [(), (), (), (), ()]
        start, end = np.asarray(cols[3], dtype=float), np.asarray(cols[4], dtype=float)
        return {
            "name_id": np.asarray(cols[0], dtype=np.int32),
            "parent": np.asarray(cols[1], dtype=np.int64),
            "op": np.asarray(cols[2], dtype=np.int32),
            "start": start,
            "end": np.where(end == 0.0, start, end),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(self_s[mask].sum()),
            }
        return out

    def child_count(self, parent_name: str, child_names: tuple[str, ...]) -> int:
        """Number of spans named in child_names whose direct parent is parent_name."""
        if parent_name not in self._name_ids:
            return 0
        a = self.arrays()
        pid = self._name_ids[parent_name]
        cids = [self._name_ids[c] for c in child_names if c in self._name_ids]
        has_parent = a["parent"] >= 0
        parent_names = np.full(len(a["parent"]), -1)
        parent_names[has_parent] = a["name_id"][a["parent"][has_parent]]
        return int(np.sum((parent_names == pid) & np.isin(a["name_id"], cids)))
