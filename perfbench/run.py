"""teleport3q benchmark: closed-loop workloads, one single-threaded client each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan|analyze|teleport|all --seed N --seconds S --trace 0|1

`--trace 0` prints the end-to-end metrics; `--trace 1` prints the per-layer
metrics of a separate traced run. The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. A record of the run,
with machine facts, goes to `.perfbench_out/`; input files live in a
temporary directory under `.perfbench_tmp/` that is removed at exit.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported (here or in
# any child process, which inherits the environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("scan", "analyze", "teleport")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150
# Share of operation time spent on the calibration kernel, interleaved with
# the operations, and the kernel's time at the reference speed the bounded
# timings are expressed in (about its time on a quiet 2-vCPU virtual machine).
CALIBRATION_SHARE = 0.1
REFERENCE_KERNEL_S = 0.005
LOCAL_WINDOW_S = 0.5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import teleport3q from this checkout's src/, never from site-packages."""
    if not (SRC / "teleport3q" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'teleport3q'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import teleport3q

    if SRC not in Path(teleport3q.__file__).resolve().parents:
        raise SystemExit(f"error: imported teleport3q from {teleport3q.__file__}, not {SRC}")
    return teleport3q


# ----------------------------------------------------------------------------
# Running operations


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    midpoints: list[float] = field(default_factory=list)  # perf_counter, per operation
    classes: list[str] = field(default_factory=list)  # per operation
    haar_trials: list[int] = field(default_factory=list)  # per operation
    feasible: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {why}")


def run_op(op, call, tally: Tally, outputs: list[str | None]) -> str | None:
    """Time one call, then check it; returns its output, None if it raised."""
    from workloads import OracleFailure

    tally.attempted += 1
    start = time.perf_counter()
    try:
        outcome, raised = call(), None
    except Exception as exc:  # a raising operation is a failed operation
        outcome, raised = None, exc
    end = time.perf_counter()
    tally.latencies.append(end - start)
    tally.midpoints.append((start + end) / 2)
    tally.classes.append(op.cls)
    tally.haar_trials.append(0 if raised else op.haar_trials)
    if raised is not None:
        tally.fail(op.label, f"raised {raised!r}")
        return None
    try:
        tally.feasible += op.check(outcome)
        if op.probe_of is not None and outcome.text != outputs[op.probe_of]:
            raise OracleFailure(f"output differs from operation {op.probe_of} of the cycle")
    except (OracleFailure, KeyError, ValueError, TypeError) as exc:
        tally.fail(op.label, str(exc) or repr(exc))
        return outcome.text
    if op.save_to is not None:
        op.save_to.write_text(outcome.text)
    return outcome.text


def run_ops(ops, tally: Tally, tracer=None, untraced: Tally | None = None) -> None:
    """Run one cycle. With a tracer, each operation runs twice back to back,
    untraced into `untraced` and then traced into `tally`, so that both see
    the same machine load; the two outputs must agree."""
    outputs: list[str | None] = []
    for op in ops:
        if tracer is None:
            outputs.append(run_op(op, op.call, tally, outputs))
            continue
        plain = run_op(op, op.call, untraced, outputs)
        tracer.plain_scans = not op.injected
        tracer.install()
        try:
            text = run_op(op, tracer.root(op.call), tally, outputs)
        finally:
            tracer.restore()
        if text != plain:
            tally.fail(op.label, "traced output differs from untraced output")
        outputs.append(text)


def calibration_kernel() -> float:
    """Fixed numpy work of the same grain as the package's (small complex
    QR factorizations, products and norms); it never touches teleport3q."""
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(100):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(z)
        acc += float(np.abs(np.trace(q @ q.conj().T)))
        acc += float(np.linalg.norm(np.kron(q[0], q[1])))
    return acc


class Calibrator:
    """Times the calibration kernel between operations, for
    CALIBRATION_SHARE of their time, so that it sees the host's speed
    throughout the run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.midpoints: list[float] = []  # perf_counter, increasing
        self._owed = 0.0

    def around(self, start: float, end: float) -> float:
        """Mean kernel time over the samples within `end - start`, and at least
        LOCAL_WINDOW_S, either side of [start, end]: an operation's time sums
        its work over the host's speed, so the mean is the matching average."""
        margin = max(end - start, LOCAL_WINDOW_S)
        lo = bisect.bisect_left(self.midpoints, start - margin)
        hi = bisect.bisect_right(self.midpoints, end + margin)
        if lo == hi:  # no sample that close: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.samples), hi + 1)
        return statistics.fmean(self.samples[lo:hi])

    def after(self, op_seconds: float) -> None:
        self._owed += CALIBRATION_SHARE * op_seconds
        while self._owed > 0:
            start = time.perf_counter()
            calibration_kernel()
            end = time.perf_counter()
            self.samples.append(end - start)
            self.midpoints.append((start + end) / 2)
            self._owed -= end - start


class SetupProbes:
    """SETUP_PROBES fresh interpreters, each timed from spawn to its readiness
    line (import, the first cycle's inputs, warm-up), spread evenly over the
    timed loop so that they see the same host as the operations."""

    def __init__(self, args, seconds: float) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-probe"]
        self.interval = seconds / SETUP_PROBES
        self.samples: list[float] = []
        self.midpoints: list[float] = []  # perf_counter, per probe
        self.spent = 0.0  # wall time spent in probes

    def due(self, elapsed: float) -> None:
        while len(self.samples) < SETUP_PROBES and elapsed >= len(self.samples) * self.interval:
            self._probe()

    def finish(self) -> None:
        while len(self.samples) < SETUP_PROBES:
            self._probe()

    def _probe(self) -> None:
        start = time.perf_counter()
        proc = subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        self.spent += time.perf_counter() - start
        if proc.returncode != 0 or not line.startswith("ready "):
            raise SystemExit(f"error: set-up probe exited with {proc.returncode}")
        if line.split()[1] != "0":
            raise SystemExit(f"error: set-up probe warm-up had {line.split()[1]} failed operations")
        self.samples.append(elapsed)
        self.midpoints.append(start + elapsed / 2)


def run_timed(workload, seconds: float, first_cycle, tally: Tally, calibrator: Calibrator,
              probes: SetupProbes) -> int:
    """Run operations until `seconds` have passed, set-up probes excluded;
    the first cycle always runs whole. Returns the number of cycles begun."""
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start - probes.spent

    cycle = 0
    while cycle == 0 or elapsed() < seconds:
        ops = first_cycle if cycle == 0 else workload.cycle(cycle)
        outputs: list[str | None] = []
        for op in ops:
            if cycle and elapsed() >= seconds:
                break
            probes.due(elapsed())
            outputs.append(run_op(op, op.call, tally, outputs))
            calibrator.after(tally.latencies[-1])
        cycle += 1
    probes.finish()
    return cycle


def set_up(args, tmp: Path):
    """Import, generate the first cycle's inputs, warm up. Returns
    (workload, first cycle, warm-up tally)."""
    import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
    first_cycle = workload.cycle(0)
    warm = Tally()
    run_ops(workload.warmup(), warm)
    return workload, first_cycle, warm


def setup_probe(args) -> int:
    """Child process: set up, report readiness on stdout, exit."""
    with workspace() as tmp:
        _, _, warm = set_up(args, tmp)
        print(f"ready {warm.failed}", flush=True)
    return 0


@contextlib.contextmanager
def workspace():
    """A temporary directory under the checkout, removed on exit."""
    TMP_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=TMP_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            TMP_DIR.rmdir()


# ----------------------------------------------------------------------------
# Metrics


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    11th-slowest sample, at percentile 100 * (n - 10) / n. With ten or fewer
    samples, the slowest one."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100.0
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tally: Tally, calibrator: Calibrator, probes: SetupProbes) -> tuple[dict, dict]:
    """The bounded metrics, and the rest of the run's figures for the record.

    Timings are expressed at the reference speed: each operation's latency,
    and each set-up probe's time, is scaled by REFERENCE_KERNEL_S over the
    calibration kernel's time around it. On a shared virtual machine,
    co-tenant load changes a core's speed by up to 2x for seconds to minutes
    at a time; the kernel slows with it, so the scaled figures follow the
    program's own cost. Operation latencies are then taken per operation
    class, so that every class weighs in whatever its count or cost.
    """
    by_class: dict[str, list[float]] = {}
    raw_by_class: dict[str, list[float]] = {}
    for cls, latency, t in zip(tally.classes, tally.latencies, tally.midpoints):
        kernel = calibrator.around(t - latency / 2, t + latency / 2)
        by_class.setdefault(cls, []).append(latency * REFERENCE_KERNEL_S / kernel)
        raw_by_class.setdefault(cls, []).append(latency)
    p50 = {cls: statistics.median(v) for cls, v in by_class.items()}
    setup = [s * REFERENCE_KERNEL_S / calibrator.around(t - s / 2, t + s / 2)
             for s, t in zip(probes.samples, probes.midpoints)]
    busy = sum(tally.latencies)
    tail_s, tail_pct = tail(tally.latencies)
    metrics = {
        "op_ms_p50": metric(statistics.geometric_mean(p50.values()) * 1e3, "ms"),
        "slowest_class_ms_p50": metric(max(p50.values()) * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    details = {
        "ops_per_s": len(tally.latencies) / busy,
        "all_op_ms_p50": statistics.median(tally.latencies) * 1e3,
        "op_ms_tail": tail_s * 1e3,
        "tail_percentile": tail_pct,
        "haar_trials_per_s": sum(tally.haar_trials) / busy,
        "samples": len(tally.latencies),
        "classes": {cls: {"samples": len(v), "ms_p50": p50[cls] * 1e3,
                          "raw_ms_p50": statistics.median(raw_by_class[cls]) * 1e3,
                          "raw_ms_p10": percentile(raw_by_class[cls], 10) * 1e3}
                    for cls, v in sorted(by_class.items())},
        "kernel_ms_p10": percentile(calibrator.samples, 10) * 1e3,
        "kernel_ms_p50": statistics.median(calibrator.samples) * 1e3,
        "kernel_samples": len(calibrator.samples),
        "setup_scaled_s": setup,
        # Raw times (s) and their midpoints (perf_counter s), to recompute the scaling.
        "timeline": {"op_mid": tally.midpoints, "op_cls": tally.classes, "op_s": tally.latencies,
                     "k_mid": calibrator.midpoints, "k_s": calibrator.samples,
                     "probe_mid": probes.midpoints, "probe_s": probes.samples},
    }
    return metrics, details


def per_layer(tracer, traced: Tally, untraced_busy: float) -> dict:
    from tracing import SCAN_SPAN, SPANS, TRIAL_SPAN, VALIDATE_SPANS

    ids = tracer.ids
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = metric(tracer.calls[ids[name]], "count")
        metrics[f"{name}.self_ms"] = metric(tracer.self_ns[ids[name]] / 1e6, "ms")
    trials = tracer.calls[ids[TRIAL_SPAN]]
    plain_trials = tracer.plain_scan_calls[ids[TRIAL_SPAN]]
    traced_busy = sum(traced.latencies)
    metrics[f"{SCAN_SPAN}.us_per_trial"] = metric(
        tracer.incl_ns[ids[SCAN_SPAN]] / 1e3 / trials if trials else 0.0, "us")
    for name in ("states.PureState.validate", "protocols.MeasurementBasis.validate",
                 "protocols.BranchOperatorFamily.validate"):
        per_trial = tracer.plain_scan_calls[ids[name]] / plain_trials if plain_trials else 0.0
        metrics[f"{name}.per_trial"] = metric(per_trial, "count")
    validate_ns = sum(tracer.self_ns[ids[name]] for name in VALIDATE_SPANS)
    metrics["validate.share"] = metric(validate_ns / 1e9 / traced_busy, "ratio")
    haar_trials = sum(traced.haar_trials)
    metrics["feasibility.scan.feasible_per_trial"] = metric(
        traced.feasible / haar_trials if haar_trials else 0.0, "ratio")
    metrics["trace.overhead"] = metric(traced_busy / untraced_busy, "ratio")
    return metrics


# ----------------------------------------------------------------------------
# Machine facts


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_facts() -> dict:
    import teleport3q

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "teleport3q": teleport3q.__version__,
        "commit": git_commit(),
    }


# ----------------------------------------------------------------------------
# Entry points


def run_workload(args) -> dict:
    with workspace() as tmp:
        workload, first_cycle, warm = set_up(args, tmp)
        import workloads

        if args.trace:
            from tracing import Tracer

            k = workloads.TRACED_CYCLES[args.workload]
            tracer, traced, untraced = Tracer(), Tally(), Tally()
            for c in range(k):
                run_ops(first_cycle if c == 0 else workload.cycle(c), traced, tracer, untraced)
            tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
            metrics = per_layer(tracer, traced, sum(untraced.latencies))
            details = {"inclusive_us_per_call": {
                name: tracer.incl_ns[i] / 1e3 / tracer.calls[i]
                for i, name in enumerate(tracer.names) if tracer.calls[i]}}
            cycles, tallies = k, (warm, untraced, traced)
        else:
            timed, calibrator = Tally(), Calibrator()
            for _ in range(3):  # warm the kernel's code paths before it is timed
                calibration_kernel()
            probes = SetupProbes(args, args.seconds)
            cycles = run_timed(workload, args.seconds, first_cycle, timed, calibrator, probes)
            metrics, details = end_to_end(timed, calibrator, probes)
            tallies = (warm, timed)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "loop": "closed, one client", "cycles": cycles,
                  "machine": machine_facts(), "details": details}
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    record["failures"] = [f for t in tallies for f in t.failures]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    facts = record["machine"]
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    line = " ".join(f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items())
    line += f" error_rate={failed / attempted:.6g} (attempted={attempted}, cycles={cycles}"
    print(f"{args.workload}: {line})")
    if not args.trace:
        haar = details["haar_trials_per_s"]
        print(f"{args.workload} (unbounded, as timed over all operations):"
              f" ops_per_s={details['ops_per_s']:.6g} 1/s"
              f" all_op_ms_p50={details['all_op_ms_p50']:.6g} ms"
              f" op_ms_tail={details['op_ms_tail']:.6g} ms (p{details['tail_percentile']:.2f})"
              + (f" haar_trials_per_s={haar:.6g} 1/s" if haar else "")
              + f" (samples={details['samples']}, kernel_ms_p50={details['kernel_ms_p50']:.4g})")
        for cls, c in details["classes"].items():
            print(f"  class {cls}: ms_p50={c['ms_p50']:.6g} at reference speed;"
                  f" raw ms_p50={c['raw_ms_p50']:.6g} ms_p10={c['raw_ms_p10']:.6g} (samples={c['samples']})")
    return result


def run_all(args) -> int:
    """Each workload in its own process; prints every workload's metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
