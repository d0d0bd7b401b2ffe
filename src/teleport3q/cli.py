"""Command-line front end: state construction, protocol runs, feasibility reports.

Exit codes are a stable scripting contract: 0 for an affirmative verdict,
1 for a negative verdict, 2 for usage or input errors. All output is
deterministic for a fixed flag set, including --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

from .feasibility import SCAN_TOL, build_feasibility_report, haar_scan
from .linalg import ATOL, HADAMARD, IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, haar_random_unitary
from .protocols import (
    MeasurementBasis,
    TeleportProtocol,
    basis_from_S,
    bell_protocol,
    check_tolerance,
    check_trials,
    ghz_protocol,
    protocol_from_basis,
    run_teleport,
    sample_teleport,
    w_like_protocol,
)
from .serialize import (
    _cut,
    _echo,
    dumps_canonical,
    json_array,
    json_entry,
    protocol_from_jsonable,
    protocol_to_jsonable,
    report_to_jsonable,
    state_from_jsonable,
    state_input_hash,
    state_to_jsonable,
)
from .states import (
    PureState, WLikeParams, bloch_qubit, haar_random_state, make_named_state, trusted, w_like_from_params
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

_HAAR_BASIS_RE = re.compile(r"^haar:(\d+)$")
_DIAG_RE = re.compile(r"^diag\((.+)\)$")
_NAMED_S = {"I": IDENTITY, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z, "H": HADAMARD}
# what an argparse error quotes a value as: an ambiguous option's whole text, a repr, or a word of the command line
_QUOTED_RE = re.compile(r"""(?s)(?<=^ambiguous option: ).*(?= could match )|'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|\S+""")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose own errors cut each value they quote as serialize's errors do."""

    def error(self, message):
        super().error(_QUOTED_RE.sub(lambda match: _cut(match[0]), message))


def _fmt(x: float) -> str:
    return f"{float(x) + 0.0:.12g}"  # -0.0 prints as 0


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file {out!r}: {exc.strerror}") from exc
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # what is left in the buffer goes to devnull at exit, not to a second error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ValueError(f"cannot write to stdout: {exc.strerror}") from exc


def _parse_w_like_params(text: str) -> WLikeParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated angles, got {_echo(text)}")
    try:
        gamma, phi, omega = (float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"malformed angle in {_echo(text)}") from exc
    return WLikeParams(gamma=gamma, phi=phi, omega=omega)


def _tolerance(text: str) -> float:
    try:
        # "-0" and negatives that underflow, such as "-1e-400", parse to -0.0, which it returns as 0.0
        return check_tolerance(float(text))
    except ValueError:  # not a number, or not a tolerance
        raise argparse.ArgumentTypeError(f"tolerance must be finite and non-negative, got {_echo(text)}") from None


def _seed(text: str) -> int:
    """An integer in [0, 2**128), the seeds default_rng and a Philox key both accept."""
    try:
        value = int(text)
    except ValueError:  # not an integer, or more digits than int() reads
        value = -1
    if not 0 <= value < 2**128:
        raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2**128), got {_echo(text)}")
    return value


def _trials(text: str) -> int:
    try:
        return check_trials(int(text))
    except ValueError:  # not an integer, or not a trial count
        raise argparse.ArgumentTypeError(f"trials must be an integer in [1, 2**32], got {_echo(text)}") from None


def _loads_json(text: str, what: str):
    """Parse JSON text; what json.loads rejects (any ValueError) or what nests too deeply is a ValueError."""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError is one
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to parse") from None


def _read_json(path: str, what: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"unreadable {what} file {path!r}: {exc.strerror}") from exc
    return _loads_json(text, f"{what} file {path!r}")


def _resolve_state(
    args, state_needed: bool = True
) -> tuple[PureState | None, str, Callable[[], TeleportProtocol] | None]:
    """Returns (state, label, canonical); canonical() builds the state's known perfect protocol, or is None.
    A w-like state is None unless `state_needed`: w_like_protocol builds its own from the angles."""
    if args.state_file and args.shared:
        raise ValueError("pass either --shared or --state-file, not both")
    if args.state_file:
        return state_from_jsonable(_read_json(args.state_file, "state")), args.state_file, None
    if not args.shared:
        raise ValueError("a shared state is required: --shared or --state-file")
    spec = args.shared.strip()
    lowered = spec.lower()
    if lowered.startswith("w-like:"):
        params = _parse_w_like_params(spec[len("w-like:"):])
        return w_like_from_params(params) if state_needed else None, spec, partial(w_like_protocol, params)
    try:
        state = make_named_state(lowered)
    except ValueError:
        if os.path.exists(spec):  # False, not an OSError, for a name too long for a path
            return state_from_jsonable(_read_json(spec, "state")), spec, None
        raise ValueError(
            f"unrecognized state spec {_echo(spec)}; expected ghz, w, bell(m,n), w-like:g,p,o, or a file path"
        ) from None
    # the builders are looked up per call, so a patched module attribute sees every build
    canonical = {"ghz": ghz_protocol, "bell": bell_protocol}.get(lowered.partition("(")[0])
    return state, lowered, canonical and partial(canonical, state)


def _resolve_message(args) -> tuple[PureState, str]:
    if args.random and (args.theta is not None or args.phi is not None):
        raise ValueError("pass either --random or --theta/--phi, not both")
    if args.random:
        return haar_random_state(1, args.seed), f"random(seed={args.seed})"
    if args.theta is None:
        raise ValueError("a message state is required: --theta [--phi] or --random")
    theta, phi = args.theta, 0.0 if args.phi is None else args.phi
    return bloch_qubit(theta, phi), f"theta={_fmt(theta)}, phi={_fmt(phi)}"


def _resolve_protocol(args) -> tuple[TeleportProtocol, str]:
    if args.protocol_file:
        if args.shared or args.state_file:
            raise ValueError("--protocol-file excludes --shared and --state-file")
        if args.basis:
            raise ValueError("--protocol-file excludes --basis")
        return protocol_from_jsonable(_read_json(args.protocol_file, "protocol")), args.protocol_file
    state, label, canonical = _resolve_state(args, state_needed=bool(args.basis))
    if args.basis:
        match = _HAAR_BASIS_RE.match(args.basis.strip())
        if not match:
            raise ValueError(f"unrecognized basis spec {_echo(args.basis)}; expected haar:SEED")
        try:
            seed = _seed(match.group(1))
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"argument --basis: {exc}") from None
        rows = haar_random_unitary(2**state.n_qubits, seed).T  # orthonormal to 64 eps
        return protocol_from_basis(state, trusted(MeasurementBasis, rows=rows)), label
    if canonical is None:
        raise ValueError(f"no canonical protocol for {_echo(label)}; pass --basis haar:SEED or --protocol-file")
    return canonical(), label


def _parse_s_operator(spec: str) -> np.ndarray:
    text = spec.strip()
    if text.upper() in _NAMED_S:
        return _NAMED_S[text.upper()]
    match = _DIAG_RE.match(text)
    if match:
        parts = match.group(1).split(",")
        if len(parts) != 2:
            raise ValueError(f"diag(...) needs two entries, got {_echo(text)}")
        try:
            return np.diag([complex(float(p)) for p in parts])
        except ValueError as exc:
            raise ValueError(f"malformed entry in {_echo(text)}") from exc
    if not (text.startswith("[") or os.path.exists(text)):  # False, not an OSError, for a name too long for a path
        raise ValueError(
            f"unrecognized S spec {_echo(text)}; expected I, X, Y, Z, H, diag(a,b), inline JSON, or a file path"
        )
    data = _loads_json(text, "S operator") if text.startswith("[") else _read_json(text, "S operator")
    matrix = json_array(data, "S", json_entry, rows=True)
    if matrix.shape != (2, 2):
        raise ValueError(f"S must be 2x2, got shape {matrix.shape}")
    return matrix


def cmd_teleport(args) -> tuple[int, str]:
    protocol, shared_label = _resolve_protocol(args)
    psi, message_label = _resolve_message(args)
    result = run_teleport(psi, protocol)
    perfect = result.total_fidelity >= 1.0 - args.tolerance
    sample = sample_teleport(result, args.trials, args.seed) if args.sample else None
    code = EXIT_NEGATIVE if args.expect_perfect and not perfect else EXIT_OK

    if args.format == "json":
        branches = [
            {"index": o.label, "probability": o.probability, "fidelity": o.branch_fidelity}
            for o in result.outcomes
        ]
        payload = {
            "sharedLabel": shared_label,
            "sharedState": state_to_jsonable(protocol.shared),
            "messageLabel": message_label,
            "message": state_to_jsonable(psi),
            "branches": branches,
            "totalFidelity": result.total_fidelity,
            "perfect": perfect,
            "tolerance": args.tolerance,
        }
        if sample is not None:
            payload["sample"] = {
                "trials": sample.trials,
                "seed": args.seed,
                "counts": sample.counts.tolist(),
                "empiricalFidelity": sample.empirical_fidelity,
            }
        return code, dumps_canonical(payload)
    lines = [
        f"shared: {shared_label}",
        f"message: {message_label}",
        "branch  probability     fidelity",
    ]
    for o in result.outcomes:
        fid = "-" if o.branch_fidelity is None else _fmt(o.branch_fidelity)
        lines.append(f"{o.label:<7} {_fmt(o.probability):<15} {fid}")
    lines.append(f"total fidelity: {_fmt(result.total_fidelity)}")
    if args.expect_perfect:
        lines.append(f"expect-perfect: {'PASS' if perfect else 'FAIL'} (tolerance {_fmt(args.tolerance)})")
    if sample is not None:
        lines.append(
            f"sampled {sample.trials} trials (seed {args.seed}): "
            f"empirical fidelity {_fmt(sample.empirical_fidelity)}"
        )
        lines.append("counts: " + " ".join(str(int(c)) for c in sample.counts))
    return code, "\n".join(lines) + "\n"


def cmd_analyze(args) -> tuple[int, str]:
    state, label, _ = _resolve_state(args)
    report = build_feasibility_report(state, label, args.scan_trials, args.seed)
    code = EXIT_OK if report.entropy_feasible else EXIT_NEGATIVE
    if args.format == "json":
        return code, dumps_canonical(report_to_jsonable(report, state_input_hash(state)))
    lines = [
        f"state: {label}",
        f"entropy (bits): {_fmt(report.entropy_bits)}",
        f"entropy feasible: {'yes' if report.entropy_feasible else 'no'}",
        f"sum rule rows: ({_fmt(report.sum_rule_row0)}, {_fmt(report.sum_rule_row1)})",
        f"sum rule balanced: {'yes' if report.sum_rule_balanced else 'no'}",
        f"scan: {report.scan.feasible_count}/{report.scan.trials} feasible bases "
        f"(max passing branches {report.scan.max_passing_branches})",
        f"componentwise disentangler exists: {'no' if report.componentwise.unitary is None else 'yes'}",
        f"schmidt disentangler residual entropy: {_fmt(report.entropy_bits)}",
    ]
    return code, "\n".join(lines) + "\n"


def cmd_scan(args) -> tuple[int, str]:
    state, label, canonical = _resolve_state(args)
    if args.inject_known_basis and canonical is None:
        raise ValueError(f"no known perfect basis for {_echo(label)}")
    inject = canonical().basis if args.inject_known_basis else None
    result = haar_scan(state, args.trials, args.seed, inject=inject, tol=args.tolerance)

    if args.format == "json":
        payload = {
            "stateLabel": label,
            "trials": result.trials,
            "feasibleCount": result.feasible_count,
            "maxPassingBranches": result.max_passing_branches,
            "tolerance": result.tolerance,
            "seed": args.seed,
            "injectedKnownBasis": result.injected,
        }
        return EXIT_OK, dumps_canonical(payload)
    lines = [
        f"state: {label}",
        f"feasible bases: {result.feasible_count}/{result.trials}",
        f"max unitary-passing branches: {result.max_passing_branches}",
        f"tolerance: {_fmt(result.tolerance)}",
        f"seed: {args.seed}",
        f"injected known basis: {'yes' if result.injected else 'no'}",
    ]
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_basis_gen(args) -> tuple[int, str]:
    protocol = basis_from_S(_parse_w_like_params(args.params), _parse_s_operator(args.s_operator))
    return EXIT_OK, dumps_canonical(protocol_to_jsonable(protocol), round_trip=True)


def _add_state_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shared",
        help="shared state: ghz, w, bell(m,n), w-like:gamma,phi,omega, or a state JSON path",
    )
    parser.add_argument("--state-file", help="shared state as a JSON file")


def _add_common_options(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument(
        "--format", choices=("json", "text"), default=default_format,
        help=f"output format (default {default_format})",
    )


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its command parsers, built once per process. Parsing keeps
    no state on a parser: each parse fills a fresh Namespace from the declared defaults."""
    parser = _Parser(
        prog="teleport3q",
        description="Teleportation over small shared entangled states: run, analyze, scan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("teleport", help="run a protocol branch by branch")
    _add_state_options(p)
    p.add_argument("--protocol-file", help="load a full protocol JSON instead of --shared")
    p.add_argument("--theta", type=float, help="message polar angle (radians)")
    p.add_argument("--phi", type=float, help="message azimuthal angle (radians), default 0")
    p.add_argument("--random", action="store_true", help="Haar-random message from --seed")
    p.add_argument("--basis", help="override measurement basis: haar:SEED")
    p.add_argument(
        "--expect-perfect", action="store_true",
        help="exit 1 unless total fidelity reaches 1 within --tolerance",
    )
    p.add_argument("--sample", action="store_true", help="also sample the classical channel")
    p.add_argument("--trials", type=_trials, default=100000, help="sampling trials (default 100000)")
    p.add_argument(
        "--tolerance", type=_tolerance, default=ATOL,
        help=f"fidelity tolerance for the perfect verdict (default {ATOL:g})",
    )
    _add_common_options(p, "text")
    p.set_defaults(handler=cmd_teleport)

    p = sub.add_parser("analyze", help="full feasibility report for a state of at least 3 qubits")
    _add_state_options(p)
    p.add_argument(
        "--scan-trials", type=_trials, default=200,
        help="Haar bases tried for the embedded scan (default 200)",
    )
    _add_common_options(p, "json")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("scan", help="feasibility search over Haar-random bases")
    _add_state_options(p)
    p.add_argument("--trials", type=_trials, default=100000, help="bases to try (default 100000)")
    p.add_argument(
        "--inject-known-basis", action="store_true",
        help="replace trial 0 with the state's known perfect basis (ghz, bell(m,n), w-like)",
    )
    p.add_argument(
        "--tolerance", type=_tolerance, default=SCAN_TOL,
        help=f"branch unitarity tolerance for the verdict (default {SCAN_TOL:g})",
    )
    _add_common_options(p, "text")
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("basis-gen", help="emit the protocol determined by a free unitary S")
    p.add_argument("--params", required=True, help="w-like angles: gamma,phi,omega")
    p.add_argument(
        "--S", dest="s_operator", required=True,
        help="2x2 unitary: named I/X/Y/Z/H, diag(a,b), inline JSON, or a JSON file",
    )
    p.add_argument("--out", help="write the protocol JSON to this path")
    p.set_defaults(handler=cmd_basis_gen)

    # Python 3.13's rule, so `--theta -1e-3` and `--params -1.2,0.3,0.4` parse:
    # '-' then a digit, or '-.' then a digit, is a value; no option looks like one
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """The top-level parse_args(argv), in one pass when argv starts with a command: its parser reads the
    rest. What a parse leaves is the top-level parser's error, as in parse_args, with each argument cut
    alone, since the error's own cut takes an argument with spaces in it for several words."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args, extras = parser.parse_known_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(map(_cut, extras))}")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        # a command computes its whole output first, so a failing one writes nothing
        code, text = args.handler(args)
        _emit(text, args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code
