#!/usr/bin/env python3
"""qpf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload wscc9-hhl --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The workloads, metrics and their bounds are declared in
``BENCHMARK.json`` and explained in ``perfbench/DESIGN.md``.

With ``--trace 0`` every operation runs untraced and the last line of stdout
is a JSON object with the end-to-end metrics.  With ``--trace 1`` cycles
alternate between untraced and traced, the JSON holds the per-layer metrics,
and the spans are written to ``perfbench/out/``.  Lines before the JSON,
prefixed ``#``, give the environment, sample counts, raw wall times and
failure reasons.
"""

import os
import time

_START = time.perf_counter()

# Pin BLAS/OpenMP threads before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
# No operation starts if its timeout could end later than this many seconds
# after the process started.
WALL_LIMIT_S = 170.0
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Seconds per iteration of the calibration kernel on an uncontended core of
# the reference box (2-core x86_64, python 3.11.7, numpy 2.4.6).
REFERENCE_ITERATION_S = 1.0e-5
EDGE_ITERATIONS = 500  # kernel run between operations
PROBE_ITERATIONS = 100  # kernel run by the in-operation speed probe
PROBE_INTERVAL_S = 0.1  # of process CPU time

sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np
    import qpf
    import scipy
    import tracing
    import workloads
except ImportError as exc:
    sys.exit(f"perfbench: cannot import qpf from {ROOT / 'src'}: {exc}")


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past its timeout."""


def _on_alarm(signum, frame):
    raise OpTimeout


_KERNEL_U = np.eye(4, dtype=complex)


def calibrate(iterations: int = EDGE_ITERATIONS) -> float:
    """Seconds per iteration of a fixed kernel of interpreter loops and small
    numpy calls.

    It touches no qpf code, so a change to the program cannot move it; only
    the speed the machine gives this process at the moment can.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += int(np.abs(_KERNEL_U.conj().T @ _KERNEL_U).max())
        for j in range(100):
            acc += (i * j) % 7
    return (time.perf_counter() - start) / iterations


class SpeedProbe:
    """Samples the machine's speed while an operation runs.

    Every PROBE_INTERVAL_S of process CPU time, SIGPROF runs a short kernel
    inside the operation.  The time spent in the probe is subtracted from
    the operation's wall time.  A shared machine can switch between a fast
    and a ~1.5x slower state for seconds at a time (the 2-vCPU reference box
    does), so the kernel times around and inside an operation tell which
    state it ran in.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate(PROBE_ITERATIONS))
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self.samples.clear()
        self.spent_s = 0.0
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self, before: float, after: float) -> float:
        """Factor converting the operation's wall time to reference seconds."""
        return REFERENCE_ITERATION_S / statistics.mean([before, after] + self.samples)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def call(workload, case):
    """(output, failure reason or None, detail) of one unchecked call."""
    try:
        signal.setitimer(signal.ITIMER_REAL, workload.timeout_s)
        try:
            return workload.run(case), None, ""
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return None, "timeout", f"{case.label}: > {workload.timeout_s} s"
    except Exception as exc:  # any error of the program is a failed operation
        return None, "raised", f"{case.label}: {exc!r}"


def attempt(workload, case, probe) -> tuple[float, str | None, str]:
    """Run and check one operation: (seconds, failure reason or None, detail).

    The seconds exclude the time the speed probe spent inside the call.
    """
    with probe:
        start = time.perf_counter()
        output, reason, detail = call(workload, case)
        elapsed = time.perf_counter() - start - probe.spent_s
    if reason is not None:
        return elapsed, reason, detail
    try:
        workload.check(case, output)
    except workloads.BadExit as exc:
        return elapsed, "exit_code", f"{case.label}: {exc}"
    except workloads.Mismatch as exc:
        return elapsed, "wrong_output", f"{case.label}: {exc}"
    return elapsed, None, ""


@dataclass
class Op:
    wall_s: float
    scale: float
    traced: bool
    ok: bool

    @property
    def seconds(self) -> float:
        return self.wall_s * self.scale


@dataclass
class Run:
    ops: list[Op] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    details: list[str] = field(default_factory=list)
    cycles: int = 0
    kernel_s: list[float] = field(default_factory=list)

    def seconds(self, traced: bool, ok_only: bool = True, raw: bool = False) -> list[float]:
        return [op.wall_s if raw else op.seconds for op in self.ops
                if op.traced == traced and (op.ok or not ok_only)]


def measure(workload, cases, seconds, rng, tracer) -> Run:
    """Whole cycles over the cases until ``seconds`` of operation wall time.

    Each cycle runs every case once, in an order drawn from ``rng``.  With a
    tracer, odd cycles are traced, and the run ends on an even cycle count.
    The calibration kernel runs between operations, outside the timing.
    """
    run = Run(kernel_s=[calibrate()])
    probe = SpeedProbe()
    busy = 0.0
    while busy < seconds or (tracer is not None and run.cycles % 2):
        traced = tracer is not None and run.cycles % 2 == 1
        if traced:
            tracer.install()
        try:
            for i in rng.permutation(len(cases)):
                if time.perf_counter() - _START + workload.timeout_s > WALL_LIMIT_S:
                    return run
                if traced:
                    tracer.op = len(run.ops)
                elapsed, reason, detail = attempt(workload, cases[i], probe)
                run.kernel_s.append(calibrate())
                scale = probe.scale(run.kernel_s[-2], run.kernel_s[-1])
                run.ops.append(Op(elapsed, scale, traced, reason is None))
                busy += elapsed
                if reason is not None:
                    run.failures[reason] += 1
                    run.details.append(detail)
        finally:
            if traced:
                tracer.uninstall()
        run.cycles += 1
    return run


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest candidate with >= 10 samples beyond it.

    With fewer than 20 samples no percentile from p50 up qualifies, and the
    median is reported.
    """
    for pct in TAIL_CANDIDATES:
        if len(samples) * (1 - pct / 100) >= 10:
            return pct, float(np.percentile(samples, pct))
    return 50.0, float(np.percentile(samples, 50))


def latency(samples: list[float]) -> tuple[float, float, float]:
    """(p50, tail percentile, tail value); zeros when nothing succeeded."""
    if not samples:
        return 0.0, 50.0, 0.0
    return (statistics.median(samples), *tail(samples))


def end_to_end(run: Run, setup_s: float, setup_raw_s: float):
    good, raw = run.seconds(False), run.seconds(False, raw=True)
    spent = sum(run.seconds(False, ok_only=False))
    spent_raw = sum(run.seconds(False, ok_only=False, raw=True))
    p50, pct, tail_s = latency(good)
    raw_p50, _, raw_tail = latency(raw)
    attempted, failed = len(run.ops), sum(run.failures.values())
    metrics = {
        "latency_p50_s": p50,
        "latency_tail_s": tail_s,
        "throughput_ops_s": len(good) / spent if spent else 0.0,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (attempted - failed) / attempted,
    }
    notes = {
        "latency_p50_s": f"n={len(good)}; wall {raw_p50:.6g} s",
        "latency_tail_s": f"p{pct:g}, n={len(good)}"
                          + (" (fewer than 20 samples: the median)" if len(good) < 20 else "")
                          + f"; wall {raw_tail:.6g} s",
        "throughput_ops_s": f"{len(good)} ops in {spent:.6g} s; wall "
                            f"{len(good) / spent_raw if spent_raw else 0.0:.6g} 1/s",
        "setup_s": f"median of {SETUP_REPEATS} x (import + inputs + warm-up); "
                   f"wall {setup_raw_s:.6g} s",
        "peak_rss_mib": "ru_maxrss of the process",
        "ok_share": f"failed_share={failed / attempted:.6g} ({failed}/{attempted})",
    }
    return metrics, notes


IMPORT_PROGRAM = ("import time; start = time.perf_counter(); import qpf.cli; "
                  "print(time.perf_counter() - start)")


def import_seconds() -> float:
    """Wall time to import qpf, numpy and scipy in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROGRAM], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def set_up(workload, seed):
    """Cases plus (set-up seconds, raw wall seconds).

    One set-up is an import of qpf in a fresh interpreter, making the inputs
    from the seed, and one warm-up operation.  It is repeated and the median
    taken.
    """
    probe = SpeedProbe()
    kernel = [calibrate()]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        import_s = import_seconds()
        kernel.append(calibrate())
        import_scale = REFERENCE_ITERATION_S / statistics.mean(kernel[-2:])
        with probe:
            t0 = time.perf_counter()
            cases = workload.generate(seed, OUT_DIR)
            _output, reason, detail = call(workload, cases[0])
            inputs_s = time.perf_counter() - t0 - probe.spent_s
        kernel.append(calibrate())
        raw.append(import_s + inputs_s)
        scaled.append(import_s * import_scale
                      + inputs_s * probe.scale(kernel[-2], kernel[-1]))
        if reason is not None:
            print(f"# warm-up failed ({reason}): {detail}")
            break
    return cases, statistics.median(scaled), statistics.median(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not Path(qpf.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: qpf was imported from {qpf.__file__}, not {src}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))

    cases, setup_s, setup_raw_s = set_up(workload, args.seed)
    for case in cases:
        workload.expect(case)
    tracer = tracing.Tracer() if args.trace else None
    run = measure(workload, cases, args.seconds, np.random.default_rng(args.seed), tracer)
    if not run.ops:
        sys.exit("perfbench: no operation could start within the wall-clock limit")
    failed = sum(run.failures.values())
    print(f"# workload={workload.name} seed={args.seed} cycles={run.cycles} "
          f"attempted={len(run.ops)} failed={failed} reasons={dict(run.failures)}")
    kernel = statistics.quantiles(run.kernel_s, n=10)
    print(f"# calibration kernel per iteration: p10 {kernel[0]:.4g} s, median "
          f"{statistics.median(run.kernel_s):.4g} s, p90 {kernel[-1]:.4g} s "
          f"(reference {REFERENCE_ITERATION_S} s)")
    for detail in run.details[:5]:
        print(f"#   failure: {detail}")

    if args.trace:
        values = trace_report(run, tracer, workload, args.seed, env)
        section = spec["per_layer"]
    else:
        values, notes = end_to_end(run, setup_s, setup_raw_s)
        section = spec["end_to_end"]
        for item in section:
            print(f"# {item['name']} = {values[item['name']]:.6g} {item['unit']} "
                  f"({notes[item['name']]})")
    result = {
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {item["name"]: {"value": values[item["name"]], "unit": item["unit"]}
                    for item in section},
    }
    print(json.dumps(result))
    return 0


def trace_report(run, tracer, workload, seed, env) -> dict[str, float]:
    """Per-layer metrics of the traced cycles; writes the spans to OUT_DIR."""
    traced_ops = len({s.op for s in tracer.spans})
    values = tracing.layer_metrics(tracer.spans, max(traced_ops, 1))
    untraced, _, _ = latency(run.seconds(False))
    traced, _, _ = latency(run.seconds(True))
    values["trace.overhead_s"] = traced - untraced
    negative = sum(1 for v in tracing.self_times(tracer.spans) if v < -1e-9)
    print(f"# traced ops={traced_ops} spans={len(tracer.spans)} "
          f"negative self times={negative}")
    print(f"# tracing overhead: traced p50 {traced:.6g} s - untraced p50 {untraced:.6g} s"
          f" = {traced - untraced:.6g} s (n={len(run.seconds(True))}, "
          f"{len(run.seconds(False))})")
    run_hhl = sum(s.end - s.start for s in tracer.spans if s.name == "hhl.run_hhl")
    if run_hhl:
        counting = sum(s.end - s.start for s in tracer.spans
                       if s.name == "qsim.metrics"
                       and tracer.spans[s.parent].name == "hhl.run_hhl")
        print(f"# qsim.metrics (with lower_to_basis) inside hhl.run_hhl: "
              f"{counting / run_hhl:.1%} of its time")
    names = {s.name for s in tracer.spans}
    for name in tracing.TRACED:
        if name not in names:
            print(f"# {name}: not called (its metrics read 0)")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload.name, "seed": seed, "env": env,
                                "metrics": values, "spans": tracer.to_json()}))
    print(f"# spans written to {path.relative_to(ROOT)}")
    return values


if __name__ == "__main__":
    sys.exit(main())
