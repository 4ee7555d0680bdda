#!/usr/bin/env python3
"""critsense benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; critsense is imported from ./src. Load is
closed-loop: one process, one thread, BLAS pinned to one thread; the next op
starts when the previous one has finished. Ops run in passes; a run makes as
many passes as typical passes of the workload (`pass_s`, measured on a 2-vCPU
x86-64 VM) fit in --seconds, and at least the workload's minimum. The pass
count never depends on a measured time, so the same arguments give the same
ops and the same attempted and failed counts. Every op's output is checked
against an independent reference outside the timed region; an op that
raises, exits non-zero, runs past its deadline or misses its reference counts
as failed.

--trace 0 prints the end-to-end metrics; --trace 1 times the first pass
untraced (repeated to fill half of --seconds), then runs it once traced and prints
the per-layer metrics. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. `failed` counts every failed op;
`correct` is false when an op failed in a way that findings.json does not
record for this workload (see `known_finding`). A fuller report (sample
counts, tail percentile, failures by finding, raw times, run metadata) goes to
.perfbench_out/. The script exits non-zero, printing no result, when
critsense is not under ./src or an output check cannot run.

Times are scaled to a nominal machine speed. The host's speed for the same
single-threaded work drifts by up to 2.5x over seconds to minutes, so a fixed
calibration kernel (`calibration_sample`) is timed at least every
CAL_INTERVAL_S between ops, after every pass, and every CAL_INTERVAL_S of CPU
time inside an op (from a SIGPROF handler, its time left out of the op's).
Each op's time is multiplied by CAL_NOMINAL_S over the mean kernel time just
before, inside and just after it. In a traced run the spans include the
in-op samples (about 2% of the time).
Ops stopped at their deadline take the deadline, not the program's time: they
count in pass_ratio but not in wall_s, op_p50_ms or op_tail_ms.
oracle_battery's single pass (about 22 s) is its minimum; at a --seconds
below that, its run measures longer than asked.
"""

import os

# Pin BLAS threads before numpy loads; child processes inherit the setting.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from scipy.linalg import expm  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 3
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
FINDINGS = HERE / "findings.json"
# Calibration: the kernel's time at the nominal speed (about this host's
# fastest stretches on a 2-vCPU x86-64 VM), and the longest gap between
# kernel samples while ops run.
CAL_NOMINAL_S = 1.0e-3
CAL_INTERVAL_S = 0.25
_CAL_A = np.array([[0.3, 0.1, 0.0, 0.2], [0.0, 0.4, 0.1, 0.0], [0.1, 0.0, 0.2, 0.3], [0.0, 0.2, 0.0, 0.1]])

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "pass_ratio": "1",
    "peak_rss_mb": "MB",
}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that ran past its deadline.

    A BaseException, so that no `except Exception` in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(op, cal_samples: list[float] | None = None) -> tuple[float, str | None]:
    """Time one op under its deadline, then check its output untimed.

    With a `cal_samples` list, a SIGPROF timer takes a calibration sample
    every CAL_INTERVAL_S of CPU time inside the op and appends it, so that a
    long op is scaled by the speed during it; the samples' own time is left
    out of the op's seconds. Returns (seconds, None) on success or
    (seconds, failure reason).
    """
    spent = 0.0

    def on_prof(signum, frame):
        nonlocal spent
        t = perf_counter()
        cal_samples.append(calibration_sample())
        spent += perf_counter() - t

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    previous_prof = signal.signal(signal.SIGPROF, on_prof) if cal_samples is not None else None
    reason = None
    t0 = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
            if cal_samples is not None:
                signal.setitimer(signal.ITIMER_PROF, CAL_INTERVAL_S, CAL_INTERVAL_S)
            value = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            elapsed = perf_counter() - t0 - spent
    except OpTimeout:
        reason = f"deadline exceeded {op.deadline_s:g} s"
    except SystemExit as exc:
        reason = f"exit_code SystemExit({exc.code})"
    except Exception as exc:
        reason = f"raised {type(exc).__name__}: {exc}"[:300]
    finally:
        signal.signal(signal.SIGALRM, previous)
        if cal_samples is not None:
            signal.signal(signal.SIGPROF, previous_prof)
    if reason is None:
        reason = op.check(value)
    return elapsed, reason


def calibration_sample() -> float:
    """Seconds of a fixed kernel of small expm, solve and matmul calls, the
    kind of work critsense does; best of three."""
    eye = np.eye(4)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(40):
            e = expm(_CAL_A)
            np.linalg.solve(eye + e, e @ _CAL_A.T)
        best = min(best, perf_counter() - t0)
    return best


def known_finding(expected: list[tuple[str, dict]], tags: dict, reason: str) -> str | None:
    """Id of the recorded finding that explains a failure, or None.

    Each finding in findings.json may carry `expect` rules: lists of allowed
    `mode`, `kind`, `n_bath` and `gamma` tags, a photon-budget range
    [`N_from`, `N_below`) and a `reason` regex that the failure must match.
    """
    for finding_id, rule in expected:
        if any(key in rule and tags.get(key) not in rule[key] for key in ("mode", "kind", "n_bath", "gamma")):
            continue
        n = tags.get("n_max")
        if "N_from" in rule and (n is None or n < rule["N_from"]):
            continue
        if "N_below" in rule and (n is None or n >= rule["N_below"]):
            continue
        if re.search(rule["reason"], reason):
            return finding_id
    return None


def expected_failures(workload_name: str) -> list[tuple[str, dict]]:
    findings = json.loads(FINDINGS.read_text(encoding="utf-8"))["findings"]
    return [(f["id"], rule) for f in findings if f["workload"] == workload_name for rule in f.get("expect", [])]


# --- statistics ----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n


class Record:
    """One op of a run: raw and scaled seconds, calibration samples taken
    inside it, failure reason (None when the output was right) and the
    finding that explains the failure, if any."""

    __slots__ = ("label", "start", "seconds", "scaled", "in_op", "reason", "finding")

    def __init__(self, label, start, seconds, reason, finding, in_op=()):
        self.label, self.start, self.seconds = label, start, seconds
        self.reason, self.finding = reason, finding
        self.in_op = list(in_op)
        self.scaled = seconds

    @property
    def timed(self) -> bool:
        """False for an op stopped at its deadline, whose time is the deadline's."""
        return not (self.reason or "").startswith("deadline")


class Run:
    """Op records, passes and calibration samples of one measured run."""

    def __init__(self, expected=()):
        self.expected = list(expected)
        self.records: list[Record] = []
        self.passes: list[range] = []
        self.cal_times: list[float] = []  # when each calibration sample ended
        self.cal_s: list[float] = []

    def calibrate(self) -> None:
        self.cal_s.append(calibration_sample())
        self.cal_times.append(perf_counter())

    def run_op(self, op) -> Record:
        if not self.cal_times or perf_counter() - self.cal_times[-1] >= CAL_INTERVAL_S:
            self.calibrate()
        start = perf_counter()
        in_op: list[float] = []
        elapsed, reason = run_op(op, in_op)
        finding = None if reason is None else known_finding(self.expected, op.tags, reason)
        record = Record(op.label, start, elapsed, reason, finding, in_op)
        self.records.append(record)
        return record

    def run_pass(self, ops, before_op=None) -> None:
        """Run ops in order, then calibrate and scale the pass's ops."""
        first = len(self.records)
        for i, op in enumerate(ops):
            if before_op is not None:
                before_op(i)
            self.run_op(op)
        self.calibrate()
        self.passes.append(range(first, len(self.records)))
        self.scale(self.records[first:])

    def scale(self, records: list[Record]) -> None:
        """Scale each op to the nominal speed with the samples just before,
        inside and just after it."""
        for r in records:
            before = self.cal_s[bisect.bisect_right(self.cal_times, r.start) - 1]
            after = self.cal_s[bisect.bisect_left(self.cal_times, r.start + r.seconds)]
            r.scaled = r.seconds * CAL_NOMINAL_S / statistics.fmean([before, *r.in_op, after])

    def pass_times(self, raw: bool = False) -> list[float]:
        """Per-pass sums over the ops that met their deadline."""
        return [sum(r.seconds if raw else r.scaled for r in self.records[p.start:p.stop] if r.timed)
                for p in self.passes]

    def latencies(self, raw: bool = False) -> list[float]:
        return [r.seconds if raw else r.scaled for r in self.records if r.timed]

    @property
    def failures(self) -> list[Record]:
        return [r for r in self.records if r.reason is not None]

    @property
    def unexpected(self) -> list[Record]:
        return [r for r in self.failures if r.finding is None]

    @property
    def attempted(self) -> int:
        return len(self.records)


# --- metadata ------------------------------------------------------------------


def metadata(args) -> dict:
    import numpy
    import scipy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_files": len(files),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "load": "closed loop, 1 process, 1 thread",
    }


# --- runs ------------------------------------------------------------------------


def import_program():
    """Import critsense from ./src and nowhere else."""
    if not (SRC / "critsense" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'critsense'} not found; run from a critsense checkout")
    sys.path.insert(0, str(SRC))
    import critsense

    if Path(critsense.__file__).resolve().parent != (SRC / "critsense").resolve():
        raise SystemExit(f"error: imported critsense from {critsense.__file__}, not {SRC}")
    return critsense


def build(args, work_dir: Path):
    return workloads.WORKLOADS[args.workload](args.seed, work_dir)


def warm_up(workload) -> None:
    _, reason = run_op(workload.warmup())
    if reason is not None:
        raise SystemExit(f"error: warm-up op of {workload.name} failed: {reason}")


def setup_probe(args, work_dir: Path) -> None:
    """Child mode: set up as a measured run does, report readiness, then
    report calibration samples taken on the CPU the set-up ran on."""
    warm_up(build(args, work_dir))
    print("ready", flush=True)
    print(json.dumps([calibration_sample() for _ in range(3)]), flush=True)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Process start to first timed op, SETUP_PROBES times in fresh processes.

    Returns the scaled and the raw seconds of each probe. Each probe is
    scaled by the calibration samples it takes right after its set-up: the
    probe may run on another CPU than this process, at another speed.
    """
    samples, raw = [], []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", "--work-dir", str(WORK_DIR / f"probe-{os.getpid()}-{i}")]
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe failed with exit code {code}")
        raw.append(elapsed)
        samples.append(elapsed * CAL_NOMINAL_S / statistics.fmean(json.loads(rest)))
    return samples, raw


def passes(workload, seconds: float) -> int:
    """Passes in a run: as many typical passes as fit in `seconds`, and at
    least the workload's minimum. The count depends on nothing measured, so
    a run's attempted and failed counts depend only on its arguments."""
    return max(workload.min_passes, round(seconds / workload.pass_s))


def measure(args, workload) -> tuple[Run, dict]:
    run = Run(expected_failures(workload.name))
    for _ in range(passes(workload, args.seconds)):
        run.run_pass(workload.next_pass())
    latencies = run.latencies()
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "wall_s": (statistics.median(run.pass_times()), len(run.passes)),
        "op_p50_ms": (1e3 * statistics.median(latencies), len(latencies)),
        "op_tail_ms": (1e3 * tail_value, len(latencies)),
        "pass_ratio": (1.0 - len(run.failures) / run.attempted, run.attempted),
    }
    raw = run.latencies(raw=True)
    return run, {
        "tail_percentile": tail_pct,
        "raw": {"wall_s": statistics.median(run.pass_times(raw=True)),
                "op_p50_ms": 1e3 * statistics.median(raw), "op_tail_ms": 1e3 * tail(raw)[0]},
        "calibration_s": {"median": statistics.median(run.cal_s), "min": min(run.cal_s),
                          "max": max(run.cal_s), "samples": len(run.cal_s)},
        "metrics": metrics,
    }


def measure_traced(args, workload) -> tuple[Run, dict, Tracer]:
    """Repeat the first pass untraced, as many times as typical passes fit in
    half of --seconds (at least once), then run it traced.

    trace_overhead_ratio compares the traced op times with the untraced
    medians, over the ops that met the deadline in every repetition (a
    deadline op takes the deadline either way).
    """
    first = workload.next_pass()
    run = Run(expected_failures(workload.name))
    for _ in range(max(1, round(args.seconds / 2.0 / workload.pass_s))):
        run.run_pass(first)
    untraced = run.records[:]
    tracer = Tracer()
    retries_before = getattr(workload, "retries", 0)
    tracer.install()
    try:
        run.run_pass(first, before_op=tracer.begin_op)
    finally:
        tracer.uninstall()
    traced = run.records[len(untraced):]
    metrics = per_layer(tracer, getattr(workload, "retries", 0) - retries_before)
    reps = [untraced[i::len(first)] for i in range(len(first))]
    kept = [i for i in range(len(first)) if all(r.timed for r in reps[i] + [traced[i]])]
    base = sum(statistics.median(r.scaled for r in reps[i]) for i in kept)
    metrics["trace_overhead_ratio"] = (sum(traced[i].scaled for i in kept) / base if base else 0.0, len(kept))
    if set(metrics) != set(layers.catalogue()):
        raise SystemExit(f"error: per-layer metrics differ from the catalogue: {set(metrics) ^ set(layers.catalogue())}")
    times = run.pass_times()
    return run, {"untraced_pass_s": times[:-1], "traced_pass_s": times[-1], "metrics": metrics}, tracer


def per_layer(tracer, fock_retries: int) -> dict:
    s = tracer.summary()

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in layers.CALLS:
        out[f"{name}.calls"] = (get(name, "calls"), 1)
    for name in layers.SELF_S:
        out[f"{name}.self_s"] = (get(name, "self_s"), get(name, "calls"))
    for name in layers.CHECKS:
        out[f"validate.{name}.s"] = (get(f"validate.{name}", "s"), get(f"validate.{name}", "calls"))
    deriv = get("metrology.differentiate_at_zero_shift", "calls")
    evolutions = tracer.child_count(
        "metrology.differentiate_at_zero_shift",
        ("dynamics.evolve_critical", "dynamics.evolve_passive", "dynamics.steady_state"))
    out["metrology.evolutions_per_derivative"] = (ratio(evolutions, deriv), deriv)
    out["metrology.warn_share"] = (ratio(tracer.derivative_warns, deriv), deriv)
    best = get("protocols.best_homodyne", "calls")
    out["protocols.fi_homodyne_per_best_homodyne"] = (
        ratio(tracer.child_count("protocols.best_homodyne", ("metrology.fi_homodyne",)), best), best)
    opt = get("protocols.optimize_time", "calls")
    out["protocols.objective_evals_per_optimize"] = (
        ratio(tracer.child_count("protocols.optimize_time", ("metrology.qfi",)), opt), opt)
    bnd = get("protocols.fundamental_bound", "calls")
    out["protocols.integrand_evals_per_bound"] = (
        ratio(tracer.child_count("protocols.fundamental_bound",
                                 ("dynamics.mean_photons_vs_time", "dynamics.evolve_passive")), bnd), bnd)
    out["oracle.rk4_steps"] = (tracer.rk4_steps, get("oracle.lyapunov_rk4", "calls"))
    dims = tracer.fock_dims
    out["oracle.fock_dim_mean"] = (ratio(sum(dims), len(dims)), len(dims))
    fock_ops = get("oracle.suggested_dim", "calls")  # one call per Fock op
    out["oracle.fock_retries_per_op"] = (ratio(fock_retries, fock_ops), fock_ops)
    return out


def report(args, run: Run, result: dict, meta: dict, units: dict) -> dict:
    by_finding: dict[str, int] = {}
    for r in run.failures:
        key = r.finding or "unexpected"
        by_finding[key] = by_finding.get(key, 0) + 1
    full = {
        "meta": meta,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "correct": not run.unexpected,
        "failures_by_finding": by_finding,
        "unexpected_failures": [f"{r.label}: {r.reason}" for r in run.unexpected[:20]],
        "failure_examples": [f"{r.label}: {r.reason}" for r in run.failures[:20]],
        "ops": [[r.label, r.seconds, r.scaled, r.reason, r.finding] for r in run.records],
        **{k: v for k, v in result.items() if k != "metrics"},
        "metrics": {k: {"value": result["metrics"][k][0], "unit": u, "samples": result["metrics"][k][1]}
                    for k, u in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return full


def print_report(full: dict) -> None:
    meta = full["meta"]
    print(f"# {meta['workload']} seed={meta['seed']} src_lines={meta['src_lines']} "
          f"commit={meta['commit']} python={meta['python']} numpy={meta['numpy']} scipy={meta['scipy']} "
          f"nproc={meta['nproc']} blas_threads=1")
    for name, m in full["metrics"].items():
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{full['tail_percentile']:.1f}, {TAIL_BEYOND} samples beyond)"
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']:<6} n={m['samples']}{extra}")
    print(f"  ops failed/attempted: {full['failed']}/{full['attempted']} {full['failures_by_finding']}")
    for line in full["unexpected_failures"]:
        print(f"  unexpected failure: {line}")


def main_one(args) -> int:
    import_program()
    work_dir = Path(args.work_dir) if args.work_dir else WORK_DIR / f"run-{os.getpid()}"
    try:
        if args.setup_probe:
            setup_probe(args, work_dir)
            return 0
        meta = metadata(args)
        workload = build(args, work_dir)
        if args.trace:
            warm_up(workload)
            run, result, tracer = measure_traced(args, workload)
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
            units = layers.catalogue()
        else:
            t0 = perf_counter()
            setup, setup_raw = measure_setup(args)
            t1 = perf_counter()
            warm_up(workload)
            run, result = measure(args, workload)
            result["phase_s"] = {"setup_probes": t1 - t0, "measure": perf_counter() - t1}
            result["metrics"] = {
                "setup_s": (statistics.median(setup), len(setup)),
                **result["metrics"],
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
            }
            result["setup_samples_s"] = setup
            result["raw"]["setup_s"] = statistics.median(setup_raw)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    full = report(args, run, result, meta, units)
    print_report(full)
    print(json.dumps({
        "correct": full["correct"],
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in full["metrics"].items()},
    }))
    return 0


def main_all(args) -> int:
    """Run every workload in its own process and print one table."""
    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"# {name}: exit code {proc.returncode}")
            code = 1
    return code


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        import_program()
        return main_all(args)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)} or all")
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
