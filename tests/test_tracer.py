"""The benchmark's tracer and self-tests on this tree.

`perfbench/run.py --trace 1` wraps every public function with
functools.wraps, replacing it wherever a module holds it by name or in a
module-level tuple or dict value (never a dict key). It reads a few of the
package's internals:
  - `oracle.default_step`, and `lyapunov_rk4`'s `dt` and `verify_step`;
  - `DerivativePair.warn`, on each result of `differentiate_at_zero_shift`;
  - `GaussianState.__post_init__`, which it wraps too.
`perfbench/selftest.py` asserts that `metrology.differentiate_at_zero_shift`
and `protocols.differentiate_at_zero_shift` are one function, and that one
float `protocols.cqs_qfi` call makes exactly one call of it. A change to any
of these fails here, without running the benchmark, as does a change that
breaks `perfbench/selftest.py`. Both are loaded from perfbench/, which these
tests only read.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from critsense import cli, gaussian, oracle, protocols
from critsense.dynamics import SystemParams
from critsense.gaussian import thermal_state
from critsense.protocols import ProtocolKind, ProtocolSpec, ResourceBudget

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _bound() -> tuple:
    """The names the test calls, and GaussianState's checks, as bound now."""
    return (protocols.cqs_qfi, oracle.lyapunov_rk4, oracle.fock_qfi_fidelity, cli.FIGURE_WRITERS,
            gaussian.GaussianState.__post_init__)


def test_tracer_counts_calls_and_restores_the_originals(tmp_path):
    """A float and an array cqs_qfi, one short RK4 run, one Fock QFI at dim
    30 and one figure writer, traced; afterwards every name is bound to its
    own function again."""
    originals = _bound()
    params = SystemParams(1.0, 0.9, 1.0)
    tracer = _tracer()
    tracer.install()
    try:
        protocols.cqs_qfi(params, 0.5)
        protocols.cqs_qfi(params, np.array([0.5, 1.0]))
        oracle.lyapunov_rk4(params, thermal_state(0.0), 0.1)
        oracle.fock_qfi_fidelity(params, 0.5, 1e-3, 30)
        cli.FIGURE_WRITERS["fig4"](tmp_path)
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    for name in ("protocols.cqs_qfi", "metrology.differentiate_at_zero_shift", "gaussian.GaussianState",
                 "oracle.lyapunov_rk4", "oracle.fock_qfi_fidelity", "oracle.fock_evolve", "cli.figure_fig4"):
        assert calls.get(name, 0) > 0, name
    assert tracer.rk4_steps > 0 and tracer.fock_dims == [30]
    assert tracer.derivative_warns == 0
    assert all(now is before for now, before in zip(_bound(), originals))
    assert (tmp_path / "fig4.csv").exists()


def test_traced_protocol_specs_give_the_untraced_pairs():
    """A CQS and a PQS ProtocolSpec built under the tracer hold the traced
    evolution, a wrapper that differentiate_at_zero_shift follows to its
    flow: their pairs at a float and an array t are the untraced ones, bit
    for bit."""
    budget = ResourceBudget(100.0, 10.0)
    times = (0.5, np.array([0.5, 1.0, 2.0]))

    def pairs():
        specs = (ProtocolSpec(ProtocolKind.CQS, SystemParams(1.0, 0.9, 1.0), budget),
                 ProtocolSpec(ProtocolKind.PQS, SystemParams(1.0, 0.0, 1.0), budget))
        return [spec.evolution for spec in specs], [spec.pair(t) for spec in specs for t in times]

    evolutions, want = pairs()
    tracer = _tracer()
    tracer.install()
    try:
        traced, got = pairs()
    finally:
        tracer.uninstall()
    assert all(wrapper is not evolution and wrapper.__wrapped__ is evolution
               for wrapper, evolution in zip(traced, evolutions))
    for a, b in zip(got, want):
        for x, y in ((a.state.v, b.state.v), (a.state.sigma, b.state.sigma), (a.dv, b.dv), (a.dsigma, b.dsigma)):
            assert x.tobytes() == y.tobytes()


def test_benchmark_selftest_passes():
    """perfbench/selftest.py, the benchmark's own unit tests of its
    references, checks, deadline and tracer, exits 0 on this tree."""
    run = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]
