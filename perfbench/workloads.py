"""Seeded workloads for the teleport3q benchmark: inputs, operations and oracles.

A workload is an endless sequence of cycles. Cycle `c` is generated from
`(seed, c + 1)` alone (the warm-up cycle from `(seed, 0)`), so the same seed
gives the same inputs. Each cycle ends with determinism probes: repeats of
earlier operations of the same cycle whose output must match byte for byte.

Operations call the package in-process, through `teleport3q.feasibility` or
through `teleport3q.cli.main(argv)` with stdout captured. Both are looked up
as module attributes at call time, so the tracer's wrappers are seen.

The package sees only what is generated here: PureState inputs and injected
bases for library scans, and for the CLI the argv strings and the state, S
and protocol files written into the workload's temporary directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from teleport3q import cli, feasibility, protocols, states

FIDELITY_TOL = 1e-10
SAMPLE_SHOTS = 100_000  # the CLI default for --sample
ANALYZE_SCAN_TRIALS = 200  # the CLI default for --scan-trials

# Scan cycle: eight 500-trial calls, two of 2 000 and one of 8 000, about
# 10 s on a 2-vCPU virtual machine. The 8 000 call spans two chunks of the
# ~4k-trial batched kernel ROADMAP item 2 plans; 500 sits below one chunk, so
# a per-call fixed cost shows there. Each size is its own operation class
# (see `Op.cls`), so the bounded figures weigh the three sizes equally.
SCAN_SIZES = (500, 500, 2000, 500, 500, 8000, 500, 500, 2000, 500, 500)
SCAN_WARMUP_SIZE = 500


class OracleFailure(Exception):
    """An operation's output contradicts what its input was built to give."""


@dataclass(frozen=True)
class Outcome:
    """Exit code and stdout; `detail` is the ScanResult of a library scan or
    the stderr of a CLI call."""

    code: int
    text: str
    detail: Any = None


@dataclass(frozen=True)
class Op:
    """One timed operation.

    `cls` is the operation class the end-to-end figures are taken over: scan
    size, analyzed state kind, or teleport operation kind. `call` is the only
    timed part. `check` raises OracleFailure on a wrong result and returns the
    number of feasible Haar trials it reported.
    `probe_of` names the earlier operation of the cycle whose output this
    repeat must reproduce; `save_to` keeps the output as a file for a later
    operation of the cycle.
    """

    label: str
    cls: str
    call: Callable[[], Outcome]
    check: Callable[[Outcome], int]
    haar_trials: int = 0
    injected: bool = False
    probe_of: int | None = None
    save_to: Path | None = None


# ----------------------------------------------------------------------------
# Input generation (numpy only; the package never sees the generator)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar unitary by QR of a complex Gaussian with the R-diagonal phases
    absorbed into Q (Mezzadri, math-ph/0609050)."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_state(rng: np.random.Generator, dim: int = 8) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def one_ebit_state(rng: np.random.Generator) -> np.ndarray:
    """U_sender (x) V_B applied to |0>|Phi+>: exactly one ebit across the cut."""
    base = np.zeros(8, dtype=complex)
    base[0] = base[3] = 1.0 / math.sqrt(2.0)
    return np.kron(haar_unitary(rng, 4), haar_unitary(rng, 2)) @ base


def w_like_angles(rng: np.random.Generator) -> tuple[float, float, float]:
    gamma, phi, omega = rng.uniform(0.0, 2.0 * math.pi, size=3)
    return float(gamma), float(phi), float(omega)


def write_state(path: Path, amplitudes: np.ndarray) -> Path:
    data = {"nQubits": 3, "amplitudes": [[float(z.real), float(z.imag)] for z in amplitudes]}
    path.write_text(json.dumps(data))
    return path


def s_json(s: np.ndarray) -> str:
    return json.dumps([[[float(z.real), float(z.imag)] for z in row] for row in s])


def seed_of(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ----------------------------------------------------------------------------
# Operations and their oracles


def run_cli(argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage by exiting
            code = exc.code if isinstance(exc.code, int) else 2
    return Outcome(code, out.getvalue(), err.getvalue())


def _expect_code(outcome: Outcome, code: int) -> None:
    if outcome.code != code:
        raise OracleFailure(f"exit code {outcome.code}, expected {code}; stderr: {outcome.detail!r}")


def scan_op(shared, trials: int, seed: int, inject, expect_feasible: bool, label: str) -> Op:
    """Library scan. Negative states must give no feasible trial; an injected
    known basis must give at least one, with all 8 branches passing."""

    def call() -> Outcome:
        result = feasibility.haar_scan(shared, trials, seed, inject=inject)
        return Outcome(0, repr(result), result)

    def check(outcome: Outcome) -> int:
        result = outcome.detail
        if result.trials != trials:
            raise OracleFailure(f"scan ran {result.trials} trials, asked for {trials}")
        if expect_feasible:
            if result.feasible_count < 1 or result.max_passing_branches != 8:
                raise OracleFailure(f"positive control failed: {result}")
        elif result.feasible_count != 0:
            raise OracleFailure(f"negative state reported feasible bases: {result}")
        return result.feasible_count

    return Op(label, f"scan-{trials}", call, check, haar_trials=trials, injected=inject is not None)


def analyze_op(argv: list[str], expect_feasible: bool, label: str) -> Op:
    """`analyze` exits 0 iff the state carries one ebit, and the sum rule
    balances exactly for the states built to carry one."""
    fmt = argv[argv.index("--format") + 1]

    def check(outcome: Outcome) -> int:
        _expect_code(outcome, 0 if expect_feasible else 1)
        if fmt == "json":
            report = json.loads(outcome.text)
            balanced, trials = report["sumRuleBalanced"], report["scanTrials"]
            feasible = report["scanFeasibleCount"]
        else:
            lines = dict(line.split(": ", 1) for line in outcome.text.splitlines())
            balanced = {"yes": True, "no": False}[lines["sum rule balanced"]]
            counts = lines["scan"].split(" ", 1)[0]
            feasible, trials = (int(x) for x in counts.split("/"))
        if balanced is not expect_feasible:
            raise OracleFailure(f"sumRuleBalanced is {balanced}, expected {expect_feasible}")
        if trials != ANALYZE_SCAN_TRIALS:
            raise OracleFailure(f"scan ran {trials} trials, expected {ANALYZE_SCAN_TRIALS}")
        return feasible

    return Op(label, label, lambda: run_cli(argv), check, haar_trials=ANALYZE_SCAN_TRIALS)


def teleport_op(argv: list[str], expect_perfect: bool, label: str) -> Op:
    """`teleport --expect-perfect`: perfect protocols exit 0 with total
    fidelity >= 1 - 1e-10, others exit 1; sampled counts sum to the shots."""
    fmt = argv[argv.index("--format") + 1]
    sampled = "--sample" in argv
    if sampled:
        cls = "sample"
    elif "--basis" in argv:
        cls = "haar"
    elif "--protocol-file" in argv:
        cls = "protocol-file"
    else:
        cls = "canonical"

    def check(outcome: Outcome) -> int:
        _expect_code(outcome, 0 if expect_perfect else 1)
        if fmt == "json":
            payload = json.loads(outcome.text)
            total = payload["totalFidelity"]
            counts = payload["sample"]["counts"] if sampled else None
        else:
            lines = dict(line.split(": ", 1) for line in outcome.text.splitlines() if ": " in line)
            total = float(lines["total fidelity"])
            counts = [int(c) for c in lines["counts"].split()] if sampled else None
        if (total >= 1.0 - FIDELITY_TOL) is not expect_perfect:
            raise OracleFailure(f"total fidelity {total}, expected perfect={expect_perfect}")
        if sampled and sum(counts) != SAMPLE_SHOTS:
            raise OracleFailure(f"sample counts sum to {sum(counts)}, not {SAMPLE_SHOTS}")
        return 0

    return Op(label, cls, lambda: run_cli(argv), check)


def basis_gen_op(argv: list[str], save_to: Path, label: str) -> Op:
    """`basis-gen` emits a full protocol; a later `teleport --protocol-file`
    operation of the same cycle checks that it is perfect."""

    def check(outcome: Outcome) -> int:
        _expect_code(outcome, 0)
        protocol = json.loads(outcome.text)
        for key in ("basisElements", "corrections", "coefficients"):
            if len(protocol[key]) != 8:
                raise OracleFailure(f"basis-gen emitted {len(protocol[key])} {key}")
        return 0

    return Op(label, "basis-gen", lambda: run_cli(argv), check, save_to=save_to)


def probe(op: Op, index: int) -> Op:
    return replace(op, label=f"probe:{op.label}", probe_of=index, save_to=None)


# ----------------------------------------------------------------------------
# Workloads


class Workload:
    """Generates the operations of cycle `index`; files go under `tmp`."""

    name = ""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def _fresh_dir(self, name: str) -> Path:
        path = self.tmp / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def cycle(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index + 1])
        return self._ops(rng, self._fresh_dir("cycle"), index, warmup=False)

    def warmup(self) -> list[Op]:
        rng = np.random.default_rng([self.seed, 0])
        return self._ops(rng, self._fresh_dir("warmup"), 0, warmup=True)

    def _ops(self, rng, directory: Path, index: int, warmup: bool) -> list[Op]:
        raise NotImplementedError


class ScanWorkload(Workload):
    """Library `haar_scan` over W, injected GHZ and W-like controls, and
    Haar-random states; sizes from SCAN_SIZES. Warm-up: one 500-trial scan
    per state kind."""

    name = "scan"

    def _ops(self, rng, directory, index, warmup):
        sizes = (SCAN_WARMUP_SIZE,) * 4 if warmup else SCAN_SIZES
        ops = []
        for j, trials in enumerate(sizes):
            kind = (index * len(sizes) + j) % 4
            seed = seed_of(rng)
            if kind == 0:
                op = scan_op(states.make_named_state("w"), trials, seed, None, False, f"scan-w-{trials}")
            elif kind == 1:
                basis = protocols.ghz_protocol().basis
                op = scan_op(states.make_named_state("ghz"), trials, seed, basis, True, f"scan-ghz-{trials}")
            elif kind == 2:
                params = states.WLikeParams(*w_like_angles(rng))
                shared = states.w_like_from_params(params)
                basis = protocols.w_like_protocol(params).basis
                op = scan_op(shared, trials, seed, basis, True, f"scan-wlike-{trials}")
            else:
                shared = states.PureState(3, haar_state(rng))
                op = scan_op(shared, trials, seed, None, False, f"scan-random-{trials}")
            ops.append(op)
        if not warmup:
            ops.append(probe(ops[0], 0))
        return ops


class AnalyzeWorkload(Workload):
    """`cli analyze` at the default 200 scan trials, alternating json and
    text, over w, ghz, seeded w-like, Haar-random state files and one-ebit
    state files. Warm-up: one operation per state kind."""

    name = "analyze"

    def _ops(self, rng, directory, index, warmup):
        ops = []
        for j in range(5 if warmup else 10):
            kind, fmt = j % 5, ("json", "text")[j % 2]
            tail = ["--format", fmt, "--seed", str(seed_of(rng))]
            if kind == 0:
                op = analyze_op(["analyze", "--shared", "w", *tail], False, "analyze-w")
            elif kind == 1:
                op = analyze_op(["analyze", "--shared", "ghz", *tail], True, "analyze-ghz")
            elif kind == 2:
                spec = "w-like:" + ",".join(repr(a) for a in w_like_angles(rng))
                op = analyze_op(["analyze", "--shared", spec, *tail], True, "analyze-wlike")
            elif kind == 3:
                path = write_state(directory / f"random{j}.json", haar_state(rng))
                op = analyze_op(["analyze", "--state-file", str(path), *tail], False, "analyze-random")
            else:
                path = write_state(directory / f"ebit{j}.json", one_ebit_state(rng))
                op = analyze_op(["analyze", "--shared", str(path), *tail], True, "analyze-ebit")
            ops.append(op)
        if not warmup:
            ops.append(probe(ops[0], 0))
        return ops


class TeleportWorkload(Workload):
    """`cli teleport` and `basis-gen`, alternating json and text: canonical
    ghz, w-like and bell(m,n) protocols, `--basis haar:SEED` on W and on
    Haar-random states, and protocol files written by `basis-gen` from a
    Haar-random S. Two operations in 22 add `--sample`. Warm-up: one cycle."""

    name = "teleport"

    # (state kind, message kind, extra flag) for each slot of a cycle; basis-gen
    # slots are followed by the teleport that loads their protocol file.
    SLOTS = (
        ("ghz", "theta", ""), ("w-like", "random", ""), ("bell", "theta", ""),
        ("basis-gen", "file", ""), ("protocol", "random", ""),
        ("w", "theta", "haar"), ("random-shared", "random", "haar"),
        ("ghz", "random", "sample"), ("w-like", "theta", ""), ("bell", "random", ""),
        ("w", "random", "haar"),
        ("basis-gen", "inline", ""), ("protocol", "theta", ""),
        ("ghz", "random", ""), ("random-file", "theta", "haar"),
        ("w-like", "random", "sample"), ("bell", "theta", ""), ("w", "theta", "haar"),
        ("ghz", "theta", ""), ("w-like", "theta", ""),
    )
    PROBES = (1, 14)

    def _ops(self, rng, directory, index, warmup):
        ops = []
        protocol_file = None
        for j, (kind, message, extra) in enumerate(self.SLOTS):
            fmt = ("json", "text")[j % 2]
            if kind == "basis-gen":
                angles = ",".join(repr(a) for a in w_like_angles(rng))
                s = haar_unitary(rng, 2)
                if message == "file":
                    s_path = directory / f"s{j}.json"
                    s_path.write_text(s_json(s))
                    s_spec = str(s_path)
                else:
                    s_spec = s_json(s)
                protocol_file = directory / f"protocol{j}.json"
                argv = ["basis-gen", "--params", angles, "--S", s_spec]
                ops.append(basis_gen_op(argv, protocol_file, f"basis-gen-{message}"))
                continue
            if kind == "protocol":
                argv = ["teleport", "--protocol-file", str(protocol_file)]
            elif kind == "w-like":
                argv = ["teleport", "--shared", "w-like:" + ",".join(repr(a) for a in w_like_angles(rng))]
            elif kind == "bell":
                m, n = (int(b) for b in rng.integers(0, 2, size=2))
                argv = ["teleport", "--shared", f"bell({m},{n})"]
            elif kind == "random-shared":
                argv = ["teleport", "--shared", str(write_state(directory / f"random{j}.json", haar_state(rng)))]
            elif kind == "random-file":
                argv = ["teleport", "--state-file", str(write_state(directory / f"random{j}.json", haar_state(rng)))]
            else:
                argv = ["teleport", "--shared", kind]
            if message == "theta":
                theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
                argv += ["--theta", repr(float(theta)), "--phi", repr(float(phi))]
            else:
                argv += ["--random", "--seed", str(seed_of(rng))]
            if extra == "haar":
                argv += ["--basis", f"haar:{seed_of(rng)}"]
            elif extra == "sample":
                argv += ["--sample"]
            argv += ["--expect-perfect", "--format", fmt]
            ops.append(teleport_op(argv, extra != "haar", f"teleport-{kind}{'-' + extra if extra else ''}"))
        if not warmup:
            ops += [probe(ops[i], i) for i in self.PROBES]
        return ops


WORKLOADS = {w.name: w for w in (ScanWorkload, AnalyzeWorkload, TeleportWorkload)}

# How many cycles the traced run records: fixed work, so that every `.calls`
# count repeats exactly between runs of the same code. Each operation runs
# untraced and traced, so a traced run takes 20-40 s on a 2-vCPU virtual machine.
TRACED_CYCLES = {"scan": 1, "analyze": 6, "teleport": 150}
