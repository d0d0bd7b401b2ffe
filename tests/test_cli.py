import contextlib
import errno
import io
import json
import math
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import run_cli
from teleport3q import cli, feasibility, protocols
from teleport3q.linalg import ATOL, haar_random_unitary
from teleport3q.serialize import (
    MAX_QUBITS, _cut, _echo, dumps_canonical, protocol_to_jsonable, round12, state_to_jsonable
)
from teleport3q.states import WLikeParams, make_named_state

HALF_PI = "1.5707963267948966"
BASIS_GEN_PROTOCOL = Path(__file__).parent / "golden" / "inputs" / "basis_gen_protocol.json"


def test_teleport_ghz_expect_perfect():
    proc = run_cli("teleport", "--shared", "ghz", "--theta", "1.0", "--phi", "0.5", "--expect-perfect")
    assert proc.returncode == 0
    assert "total fidelity: 1" in proc.stdout
    assert "PASS" in proc.stdout


def test_teleport_w_like_random_message():
    proc = run_cli(
        "teleport", "--shared", "w-like:0.7854,0,0", "--random", "--seed", "7", "--expect-perfect"
    )
    assert proc.returncode == 0


def test_teleport_w_haar_basis_imperfect():
    proc = run_cli(
        "teleport", "--shared", "w", "--theta", "1.0", "--phi", "0",
        "--basis", "haar:42", "--expect-perfect",
    )
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_teleport_w_without_basis_is_usage_error():
    proc = run_cli("teleport", "--shared", "w", "--theta", "1.0")
    assert proc.returncode == 2
    assert "no canonical protocol" in proc.stderr


def test_teleport_requires_message():
    proc = run_cli("teleport", "--shared", "ghz")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: a message state is required: --theta [--phi] or --random\n"


@pytest.mark.parametrize("angle", ["--theta", "--phi"])
def test_random_message_rejects_either_angle(capsys, angle):
    assert cli.main(["teleport", "--shared", "ghz", "--random", angle, "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pass either --random or --theta/--phi, not both\n"


def test_analyze_w():
    proc = run_cli("analyze", "--shared", "w", "--scan-trials", "20")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["entropyBits"] == pytest.approx(0.918296, abs=1e-6)
    assert report["sumRuleRow0"] == pytest.approx(4 / 3, abs=1e-4)
    assert report["sumRuleRow1"] == pytest.approx(2 / 3, abs=1e-4)
    assert report["entropyVerdict"] is False
    assert report["scanFeasibleCount"] == 0
    assert report["componentwiseDisentangler"]["exists"] is False


def test_analyze_ghz():
    proc = run_cli("analyze", "--shared", "ghz", "--scan-trials", "5")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["entropyBits"] == pytest.approx(1.0, abs=1e-10)
    assert report["componentwiseDisentangler"]["exists"] is True


def test_analyze_w_like_half_pi():
    proc = run_cli("analyze", "--shared", f"w-like:{HALF_PI},0,0.3", "--scan-trials", "5")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["componentwiseDisentangler"]["exists"] is True
    # the 5-digit approximation of pi/2 also analyzes as feasible (exit 0);
    # its third-ket weight ~2.6e-6 is genuine, so the componentwise move is
    # correctly refused there
    proc = run_cli("analyze", "--shared", "w-like:1.5708,0,0.3", "--scan-trials", "5")
    assert proc.returncode == 0


def test_analyze_rejects_two_qubit_state():
    proc = run_cli("analyze", "--shared", "bell(0,0)")
    assert proc.returncode == 2


def test_analyze_text_builds_no_json_report(monkeypatch, capsys):
    """Only --format json needs the JSON report and its input hash."""

    def refuse(*args):
        raise AssertionError("text output built a JSON report")

    monkeypatch.setattr(cli, "state_input_hash", refuse)
    monkeypatch.setattr(cli, "report_to_jsonable", refuse)
    assert cli.main(["analyze", "--shared", "w", "--scan-trials", "3", "--format", "text"]) == 1
    assert capsys.readouterr().out.startswith("state: w\n")


def test_scan_w_is_all_negative():
    proc = run_cli("scan", "--shared", "w", "--trials", "50", "--seed", "1", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["feasibleCount"] == 0
    assert data["trials"] == 50


def test_scan_single_trial_deterministic():
    args = ("scan", "--shared", "w", "--trials", "1", "--seed", "9", "--format", "json")
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_scan_inject_known_basis():
    for spec in ("ghz", "bell(1,0)"):
        proc = run_cli(
            "scan", "--shared", spec, "--trials", "10", "--inject-known-basis", "--format", "json"
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["feasibleCount"] >= 1


def test_scan_inject_rejected_for_w():
    proc = run_cli("scan", "--shared", "w", "--trials", "1", "--inject-known-basis")
    assert proc.returncode == 2


def test_basis_gen_round_trip(tmp_path):
    proto = tmp_path / "protocol.json"
    gen = run_cli("basis-gen", "--params", "0.5,0.2,0.9", "--S", "H", "--out", str(proto))
    assert gen.returncode == 0
    run = run_cli(
        "teleport", "--protocol-file", str(proto), "--random", "--seed", "3", "--expect-perfect"
    )
    assert run.returncode == 0


def test_basis_gen_identity_matches_canonical(tmp_path):
    gen = run_cli("basis-gen", "--params", "0.7854,0,0", "--S", "I")
    assert gen.returncode == 0
    data = json.loads(gen.stdout)
    assert len(data["basisElements"]) == 8
    # written in full: the built coefficients, 0.5 to rounding
    assert data["coefficients"][:4] == pytest.approx([0.5] * 4, abs=1e-15)


@pytest.mark.parametrize(
    "edit, message",
    [
        ("[1,2]", "S must be a JSON list of rows"),
        ("diag(1,i)", "malformed entry in 'diag(1,i)'"),
        ("diag(1,)", "malformed entry in 'diag(1,)'"),
        ("[[1,0],[0,1e400]]", "S is not unitary"),
        ("[[1,0],[0,1e200]]", "S is not unitary"),
        ({"basisElements": 5}, "must be lists: basisElements"),
        ({"corrections": 5}, "must be lists: corrections"),
        ({"coefficients": [1.0] + [0.0] * 7}, "coefficients differ from the derived"),
        ({"corrections": [[[[1e400, 0], [0, 0]], [[0, 0], [1, 0]]]] * 8}, "correction 0 is not a 2x2 unitary"),
        # a JSON number is an int or a float, never a string or a bool
        ('[[1,0],[0,["1",1]]]', "expected a JSON number, got '1'"),
        ("[[1,0],[0,true]]", "expected a JSON number, got True"),
        ("[[1,0],[0,1" + "0" * 400 + "]]", "JSON integer too large for a float"),
        ({"coefficients": ["0.5"] * 4 + [0.0] * 4}, "malformed coefficients: expected a JSON number"),
        ({"corrections": [[[[True, 0], [0, 0]], [[0, 0], [1, 0]]]] * 8}, "malformed operator entries"),
        (
            {"corrections": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]] * 7 + [[[[1, 0]]]]},
            "correction 7 is not a 2x2 unitary",
        ),
        # the first failing correction is named, whichever check it fails
        (
            {"corrections": [[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]] * 7 + [[[[1, 0]]]]},
            "correction 0 is not a 2x2 unitary",
        ),
        # its product overflows, which fails the check and prints no RuntimeWarning
        ({"corrections": [[[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]]] * 8}, "correction 0 is not a 2x2 unitary"),
        # rows of unequal lengths, which numpy refuses with an error of its own
        ("[[1,0],[0,1,2]]", "S must be 2x2, got 2 rows of lengths 2 to 3"),
        ('[[1,0],{"a":1}]', "S must be a JSON list of rows"),
    ],
    ids=[
        "S-not-nested", "S-diag-not-a-number", "S-diag-empty-entry", "S-non-finite", "S-overflows",
        "basisElements-not-list", "corrections-not-list",
        "coefficients-edited", "correction-non-finite",
        "S-string-entry", "S-bool-entry", "S-huge-integer", "coefficients-strings", "correction-bool",
        "correction-not-2x2", "correction-not-unitary-before-not-2x2", "correction-overflows",
        "S-ragged", "S-row-object",
    ],
)
def test_malformed_input_exits_2(tmp_path, edit, message):
    """A string edit is a basis-gen --S spec; a dict edit overrides protocol-file fields."""
    if isinstance(edit, str):
        args = ["basis-gen", "--params", "0.5,0.2,0.9", "--S", edit]
    else:
        path = tmp_path / "protocol.json"
        # json writes an infinite float as Infinity; the file spells it 1e400
        text = json.dumps(json.loads(BASIS_GEN_PROTOCOL.read_text()) | edit).replace("Infinity", "1e400")
        path.write_text(text)
        args = ["teleport", "--protocol-file", str(path), "--random", "--expect-perfect"]
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert proc.stderr.count("\n") == 1


def _protocol_file(tmp_path, edit) -> str:
    """The basis-gen protocol with `edit` applied to its JSON object, written to a file; the file's path."""
    data = json.loads(BASIS_GEN_PROTOCOL.read_text())
    edit(data)
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(data))
    return str(path)


def _drop_a_correction(data):
    del data["corrections"][7]


def _mix_qubit_counts(data):
    data["basisElements"][3] = {"nQubits": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["analyze", "--shared", "w", "--state-file", str(BASIS_GEN_PROTOCOL)],
            "pass either --shared or --state-file, not both",
        ),
        (["analyze"], "a shared state is required: --shared or --state-file"),
        (
            ["teleport", "--protocol-file", str(BASIS_GEN_PROTOCOL), "--shared", "ghz", "--theta", "1"],
            "--protocol-file excludes --shared and --state-file",
        ),
        (
            ["teleport", "--protocol-file", str(BASIS_GEN_PROTOCOL), "--basis", "haar:1", "--theta", "1"],
            "--protocol-file excludes --basis",
        ),
        (["teleport", "--protocol-file", _drop_a_correction, "--theta", "1"], "expected 8 corrections, got 7"),
        (["teleport", "--protocol-file", _mix_qubit_counts, "--theta", "1"], "basis elements must share a qubit count"),
        (["basis-gen", "--params", "inf,0,0", "--S", "I"], "gamma must be finite"),
        (["teleport", "--shared", "ghz", "--theta", "inf"], "angles must be finite"),
    ],
    ids=[
        "shared-and-state-file", "analyze-without-state", "protocol-file-and-shared",
        "protocol-file-and-basis", "seven-corrections", "mixed-qubit-counts", "params-inf", "theta-inf",
    ],
)
def test_usage_errors_exit_2_with_one_line(tmp_path, argv, line):
    """Each exits 2 with one `error:` line on stderr, nothing on stdout and no traceback (teleport without a
    message: test_teleport_requires_message). A callable in argv edits the basis-gen protocol into a file."""
    argv = [_protocol_file(tmp_path, arg) if callable(arg) else arg for arg in argv]
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {line}\n")


def test_ragged_S_error_is_one_short_line(tmp_path, capsys):
    path = tmp_path / "S.json"
    path.write_text(json.dumps([[1, 0]] * 100_000 + [[0, 1, 2]]))
    assert cli.main(["basis-gen", "--params", "0.5,0.2,0.9", "--S", str(path)]) == 2
    assert capsys.readouterr().err == "error: S must be 2x2, got 100001 rows of lengths 2 to 3\n"


# a list a protocol file holds, replaced by a value of another shape; each once leaked numpy's or
# Python's own text ("inhomogeneous shape", "'int' object is not iterable") or read a dict key by key
NOT_A_LIST = "must be a JSON list"
WRONG_SHAPES = {
    "correction-ragged": (
        ("corrections", 3), [[[1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],
        "malformed operator entries: correction 3 must be 2x2, got 2 rows of lengths 2 to 3",
    ),
    "correction-number": (("corrections", 3), 5, f"malformed operator entries: correction 3 {NOT_A_LIST} of rows"),
    "correction-dict": (("corrections", 0), {"a": 1}, f"malformed operator entries: correction 0 {NOT_A_LIST} of rows"),
    "correction-row-number": (
        ("corrections", 7, 1), 5, f"malformed operator entries: correction 7 {NOT_A_LIST} of rows"
    ),
    "amplitudes-number": (("sharedState", "amplitudes"), 5, f"malformed state object: amplitudes {NOT_A_LIST}"),
    "amplitudes-dict": (
        ("basisElements", 2, "amplitudes"), {"a": [1, 0]}, f"malformed state object: amplitudes {NOT_A_LIST}"
    ),
    "amplitudes-string": (("sharedState", "amplitudes"), "ab", f"malformed state object: amplitudes {NOT_A_LIST}"),
}


@pytest.mark.parametrize("case", WRONG_SHAPES)
def test_protocol_values_of_the_wrong_shape_are_named(tmp_path, capsys, case):
    (*up, key), value, message = WRONG_SHAPES[case]
    protocol = json.loads(BASIS_GEN_PROTOCOL.read_text())
    parent = protocol
    for step in up:
        parent = parent[step]
    parent[key] = value
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(protocol))
    assert cli.main(["teleport", "--protocol-file", str(path), "--theta", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _basis_state(n_qubits: int) -> dict:
    """|0...0> on n_qubits, as a state file holds it."""
    return {"nQubits": n_qubits, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * (2**n_qubits - 1)}


@pytest.mark.parametrize("n_qubits", [MAX_QUBITS + 1, 13])
@pytest.mark.parametrize("source", ["scan", "haar-basis", "sharedState", "basisElements"])
def test_states_above_the_qubit_cap_exit_2_before_allocating(tmp_path, capsys, source, n_qubits):
    """A 9-qubit scan would allocate a 1.63 GB workspace and a 13-qubit one 384 GiB, which exited 1 with
    numpy's MemoryError; a state above the cap is refused as it is read, in milliseconds, and the
    run's allocations stay those of reading its JSON."""
    path = tmp_path / "input.json"
    if source in ("scan", "haar-basis"):
        path.write_text(json.dumps(_basis_state(n_qubits)))
        argv = {
            "scan": ["scan", "--state-file", str(path), "--trials", "1000"],
            "haar-basis": ["teleport", "--shared", str(path), "--theta", "1", "--basis", "haar:1"],
        }[source]
    else:
        protocol = json.loads(BASIS_GEN_PROTOCOL.read_text())
        if source == "sharedState":
            protocol["sharedState"] = _basis_state(n_qubits)
        else:
            protocol["basisElements"][5] = _basis_state(n_qubits)
        path.write_text(json.dumps(protocol))
        argv = ["teleport", "--protocol-file", str(path), "--theta", "1"]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr() == ("", f"error: nQubits must be at most {MAX_QUBITS}, got {n_qubits}\n")
    assert peak < 16 * 2**20 and elapsed < 1.0, (peak, elapsed)


@pytest.mark.parametrize(
    "argv",
    [["scan", "--trials", "5"], ["teleport", "--theta", "1", "--basis", "haar:1"]],
    ids=["scan", "haar-basis"],
)
def test_six_qubit_w_times_w_is_below_the_cap(tmp_path, capsys, argv):
    ww = np.kron(make_named_state("w").amplitudes, make_named_state("w").amplitudes)
    path = tmp_path / "ww.json"
    path.write_text(json.dumps({"nQubits": 6, "amplitudes": [[z.real, z.imag] for z in ww.tolist()]}))
    assert cli.main([argv[0], "--state-file", str(path), *argv[1:]]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("where", ["state-file", "sharedState", "basisElements"])
def test_overflowing_amplitudes_exit_2(tmp_path, capsys, where):
    """An amplitude of 1e308 squares to inf: one error line and no RuntimeWarning,
    which the suite's filterwarnings = error would raise from cli.main."""
    huge = {"nQubits": 3, "amplitudes": [[1e308, 0]] + [[0, 0]] * 7}
    path = tmp_path / "huge.json"
    if where == "state-file":
        path.write_text(json.dumps(huge))
        argv = ["analyze", "--state-file", str(path), "--scan-trials", "1"]
    else:
        protocol = json.loads(BASIS_GEN_PROTOCOL.read_text())
        if where == "sharedState":
            protocol["sharedState"] = huge
        else:
            protocol["basisElements"][0] = huge
        path.write_text(json.dumps(protocol))
        argv = ["teleport", "--protocol-file", str(path), "--theta", "1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: squared norm deviates from 1 by inf (> 1e-10)\n"


def _scaled_element(element, factor):
    return {"nQubits": element["nQubits"], "amplitudes": [[factor * a, factor * b] for a, b in element["amplitudes"]]}


# one fault in one basis element; each message is PureState's for that fault,
# whichever check finds it
SINGLE_FAULT_ELEMENTS = {
    "nQubits-float": (lambda e: e | {"nQubits": 3.0}, "nQubits must be an integer, got 3.0"),
    "nQubits-string": (lambda e: e | {"nQubits": "3"}, "nQubits must be an integer, got '3'"),
    "nQubits-zero": (lambda e: e | {"nQubits": 0}, "n_qubits must be at least 1"),
    "seven-amplitudes": (lambda e: e | {"amplitudes": e["amplitudes"][:7]}, "length 7 is not a power of two"),
    "norm-1.21": (lambda e: _scaled_element(e, 1.1), "squared norm deviates from 1 by 2.100e-01 (> 1e-10)"),
    "entry-1e400": (
        lambda e: e | {"amplitudes": [[math.inf, 0]] + e["amplitudes"][1:]},
        "amplitudes contains non-finite entries",
    ),
    "entry-string": (
        lambda e: e | {"amplitudes": [["x", 0]] + e["amplitudes"][1:]},
        "malformed state object: expected a JSON number, got 'x'",
    ),
}


@pytest.mark.parametrize("row", [0, 2, 7])
@pytest.mark.parametrize("fault", SINGLE_FAULT_ELEMENTS)
def test_single_fault_basis_element_error_text(tmp_path, capsys, fault, row):
    edit, message = SINGLE_FAULT_ELEMENTS[fault]
    protocol = json.loads(BASIS_GEN_PROTOCOL.read_text())
    protocol["basisElements"][row] = edit(protocol["basisElements"][row])
    path = tmp_path / "protocol.json"
    # json writes an infinite float as Infinity; the file spells it 1e400
    path.write_text(json.dumps(protocol).replace("Infinity", "1e400"))
    assert cli.main(["teleport", "--protocol-file", str(path), "--theta", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


EVERY_SUBCOMMAND = pytest.mark.parametrize(
    "args",
    [
        ["teleport", "--shared", "ghz", "--theta", "1"],
        ["analyze", "--shared", "ghz", "--scan-trials", "1"],
        ["scan", "--shared", "w", "--trials", "1"],
        ["basis-gen", "--params", "0.5,0.2,0.9", "--S", "H"],
    ],
    ids=["teleport", "analyze", "scan", "basis-gen"],
)


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@EVERY_SUBCOMMAND
def test_unwritable_out_exits_2(tmp_path, capsys, args, target):
    out = tmp_path / "no" / "such" / "out.txt" if target == "missing-directory" else tmp_path
    assert cli.main(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write output file {str(out)!r}: ")
    assert captured.err.count("\n") == 1


@EVERY_SUBCOMMAND
def test_closed_stdout_exits_2(args):
    """The reader of stdout is gone before the child starts. The error is one line,
    and the interpreter's exit-time flush adds nothing and keeps the exit code."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli(*args, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write to stdout: Broken pipe\n")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that is always full")
def test_full_stdout_exits_2():
    with open("/dev/full", "w") as full:
        proc = run_cli("analyze", "--shared", "ghz", "--scan-trials", "1", stdout=full)
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write to stdout: No space left on device\n")


def test_canonical_protocols_take_no_polar_factors(monkeypatch, capsys):
    """Only --basis haar:SEED corrects by polar factors. GHZ is built by ghz_protocol
    and every bell(m,n) by bell_protocol, each looked up when it runs, so a patched
    attribute sees every build."""
    built = []

    def counting(name):
        builder = getattr(protocols, name)

        def counted(shared):
            built.append(name)
            return builder(shared)

        return counted

    monkeypatch.setattr(cli, "protocol_from_basis", None)
    for name in ("ghz_protocol", "bell_protocol"):
        monkeypatch.setattr(cli, name, counting(name))
    bells = [f"bell({m},{n})" for m in (0, 1) for n in (0, 1)]
    for spec in ["ghz", "w-like:0.5,0.2,0.9", *bells]:
        assert cli.main(["teleport", "--shared", spec, "--theta", "1", "--expect-perfect"]) == 0
        assert cli.main(["scan", "--shared", spec, "--trials", "1", "--inject-known-basis"]) == 0
    assert "feasible bases: 1/1" in capsys.readouterr().out
    assert (built.count("ghz_protocol"), built.count("bell_protocol")) == (2, 2 * len(bells))


@pytest.mark.parametrize("spec", ["ghz", "w-like:0.5,0.2,0.9", "bell(1,1)"])
def test_canonical_protocol_is_built_over_the_resolved_state(spec):
    args = cli._parse_args(["teleport", "--shared", spec, "--theta", "1"])
    state, _, canonical = cli._resolve_state(args)
    shared = canonical().shared
    # w_like_protocol takes only the angles and builds their state again, with the same bits
    assert shared is state or spec.startswith("w-like:")
    assert shared.amplitudes.tobytes() == state.amplitudes.tobytes()


@pytest.mark.parametrize(
    "argv, built",
    [
        (["teleport", "--theta", "1", "--expect-perfect"], 0),
        (["teleport", "--theta", "1", "--basis", "haar:3"], 1),
        (["scan", "--trials", "1", "--inject-known-basis"], 1),
        (["analyze", "--scan-trials", "1"], 1),
    ],
)
def test_the_cli_builds_a_w_like_state_only_where_it_is_read(monkeypatch, capsys, argv, built):
    """w_like_protocol builds the state of its angles itself, so a canonical teleport leaves it to
    the builder; the Haar basis, the scan and analyze read the state the command resolved."""
    calls, build = [], cli.w_like_from_params

    def counted(params):
        calls.append(params)
        return build(params)

    monkeypatch.setattr(cli, "w_like_from_params", counted)
    assert cli.main([*argv, "--shared", "w-like:0.5,0.2,0.9"]) == 0
    capsys.readouterr()
    assert len(calls) == built


def test_sampled_teleport_runs_the_protocol_once(monkeypatch, capsys):
    """--sample draws from the exact run the command already made."""
    calls, run_teleport = [], protocols.run_teleport

    def counted(psi, protocol):
        calls.append(protocol)
        return run_teleport(psi, protocol)

    monkeypatch.setattr(cli, "run_teleport", counted)
    monkeypatch.setattr(protocols, "run_teleport", counted)
    argv = ["teleport", "--shared", "bell(1,0)", "--theta", "1", "--sample", "--trials", "100"]
    assert cli.main(argv) == 0
    assert "sampled 100 trials" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--state-file", "{path}", "--scan-trials", "3"],
        ["teleport", "--protocol-file", "{path}", "--random"],
        ["basis-gen", "--params", "0.5,0.2,0.9", "--S", "{path}"],
        ["basis-gen", "--params", "0.5,0.2,0.9", "--S", "{text}"],
    ],
    ids=["state-file", "protocol-file", "S-file", "S-inline"],
)
def test_deeply_nested_json_exits_2(tmp_path, capsys, args):
    # in process: one argument this long is more than execve passes on
    text = "[" * 200_000 + "]" * 200_000
    path = tmp_path / "nested.json"
    path.write_text(text)
    argv = [arg.replace("{path}", str(path)).replace("{text}", text) for arg in args]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "args, what",
    [
        (["scan", "--state-file", "{path}", "--trials", "1"], "state file {path!r}"),
        (["basis-gen", "--params", "0.5,0.2,0.9", "--S", "{text}"], "S operator"),
    ],
    ids=["state-file", "S-inline"],
)
def test_json_integer_of_5000_digits_exits_2_naming_its_input(tmp_path, capsys, args, what):
    """json.loads reads no integer of more than 4,300 digits, and its ValueError names no input."""
    path = tmp_path / "digits.json"
    path.write_text(f'{{"nQubits": {"9" * 5000}, "amplitudes": []}}')
    text = f"[[1{'0' * 5000},0],[0,1]]"
    argv = [arg.replace("{path}", str(path)).replace("{text}", text) for arg in args]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what.format(path=str(path))} is not valid JSON: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1 and len(err) < 1024


def _main(argv, capsys):
    """Exit code, stdout and stderr of an in-process run; argparse errors and help exit too."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "args, option, value",
    [
        (["basis-gen", "--S", "H"], "--params", "-1.2,0.3,0.4"),
        (["teleport", "--shared", "ghz", "--phi", "0.5"], "--theta", "-1e-3"),
        (["teleport", "--shared", "ghz", "--theta", "1"], "--phi", "-2e-1"),
        (["teleport", "--shared", "ghz", "--phi", "0.5"], "--theta", "-.25"),
    ],
)
def test_negative_values_parse_as_in_the_equals_form(capsys, args, option, value):
    joined = _main(args + [f"{option}={value}"], capsys)
    assert joined[0] == 0
    assert _main(args + [option, value], capsys) == joined


@pytest.mark.parametrize("where", ["S", "amplitude", "nQubits"])
def test_echoed_input_is_bounded(tmp_path, capsys, where):
    """An error echoes a fixed-length prefix of the offending value."""
    lengths = set()
    for depth in (300, 900):
        nested = "[" * depth + "1" + "]" * depth
        if where == "S":
            argv = ["basis-gen", "--params", "0.5,0.2,0.9", "--S", f"[[{nested}, 0], [0, 1]]"]
        else:
            path = tmp_path / "deep.json"
            amplitudes = ", ".join([nested if where == "amplitude" else "[1, 0]"] + ["[0, 0]"] * 7)
            n_qubits = nested if where == "nQubits" else "3"
            path.write_text(f'{{"nQubits": {n_qubits}, "amplitudes": [{amplitudes}]}}')
            argv = ["analyze", "--state-file", str(path), "--scan-trials", "1"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        lengths.add(len(err))
    assert len(lengths) == 1 and lengths.pop() < 150


@pytest.mark.parametrize(
    "args",
    [
        ("scan", "--shared", "w", "--trials", "1", "--tolerance", "-1"),
        ("scan", "--shared", "w", "--trials", "1", "--tolerance", "nan"),
        ("teleport", "--shared", "ghz", "--theta", "1", "--tolerance", "-1", "--expect-perfect"),
        ("teleport", "--shared", "ghz", "--theta", "1", "--tolerance", "inf"),
        # text that is not a number gets the same message, not argparse's "invalid _tolerance value"
        ("scan", "--shared", "w", "--trials", "1", "--tolerance", "abc"),
        ("teleport", "--shared", "ghz", "--theta", "1", "--tolerance", "abc"),
    ],
)
def test_bad_tolerance_exits_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    value = args[args.index("--tolerance") + 1]
    assert proc.stderr.endswith(f"error: argument --tolerance: tolerance must be finite and non-negative, got {value!r}\n")


@pytest.mark.parametrize("value", ["-0", "-1e-400"])
def test_negative_zero_tolerance_echoes_as_zero(value, capsys):
    cli.main(["scan", "--shared", "w", "--trials", "3", "--tolerance", value])
    assert "\ntolerance: 0\n" in capsys.readouterr().out
    cli.main(["teleport", "--shared", "ghz", "--theta", "1", "--tolerance", value, "--format", "json"])
    assert '"tolerance": 0.0' in capsys.readouterr().out


def test_fmt_prints_negative_zero_as_zero():
    assert cli._fmt(-0.0) == "0"


@pytest.mark.parametrize(
    ("x", "json_text", "text"), [(-5e-324, "-5e-324", "-4.94065645841e-324"), (-1e-300, "-1e-300", "-1e-300")]
)
def test_tiny_negatives_keep_their_sign_in_both_printers(x, json_text, text):
    assert dumps_canonical(x) == json_text + "\n"
    assert cli._fmt(x) == text


@pytest.mark.parametrize(
    "angles", [["--theta", "-0", "--phi", "-0"], ["--theta", "-1e-400", "--phi", "-1e-400"], ["--theta", "-0"]]
)
@pytest.mark.parametrize("output", ["json", "text"])
def test_negative_zero_angles_print_as_zero(capsys, angles, output):
    argv = ["teleport", "--shared", "ghz", "--format", output]
    zero = _main(argv + ["--theta", "0", "--phi", "0"], capsys)
    assert _main(argv + angles, capsys) == zero
    assert "theta=0, phi=0" in zero[1] and "-0" not in zero[1]


DISPATCH_ARGVS = [
    [], ["-h"], ["--help", "teleport"], ["bogus"], ["tele"], ["teleport", "-h"],
    ["teleport", "--bogus"],
    ["teleport", "--sha", "ghz", "--theta", "1"],
    ["teleport", "--shared", "ghz", "--theta", "1", "extra"],
    ["teleport", "--", "--shared"],
    ["analyze", "--scan-trials", "0"],
    ["basis-gen", "--params", "-1.2,0.3,0.4", "--S", "H"],
    ["scan", "--shared", "w", "--tolerance", "-1"],
    ["scan", "--shared", "w", "--trials", "2", "--seed", "1", "-1"],
]


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
@pytest.mark.parametrize("through_sys_argv", [False, True])
def test_dispatch_matches_the_full_parse(monkeypatch, capsys, argv, through_sys_argv):
    """main reads a command line as a full parse by build_parser() does: the same exit, stdout and stderr."""
    if through_sys_argv:
        monkeypatch.setattr(sys, "argv", ["teleport3q", *argv])
    given_argv = None if through_sys_argv else argv
    dispatched = _main(given_argv, capsys)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
    assert dispatched == _main(given_argv, capsys)


def test_a_command_line_is_parsed_once_by_its_command_parser(monkeypatch, capsys):
    parser, commands = cli._parsers()
    parse, calls = commands["teleport"].parse_known_args, []

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a command line")

    def recorded(args, namespace=None):
        calls.append(list(args))
        return parse(args, namespace)

    monkeypatch.setattr(parser, "parse_args", refuse)
    monkeypatch.setattr(parser, "parse_known_args", refuse)
    monkeypatch.setattr(commands["teleport"], "parse_known_args", recorded)
    assert cli.main(["teleport", "--shared", "ghz", "--theta", "1", "--expect-perfect"]) == 0
    assert calls == [["--shared", "ghz", "--theta", "1", "--expect-perfect"]]
    assert "expect-perfect: PASS" in capsys.readouterr().out


SEEDED = {
    "scan": ["scan", "--shared", "w", "--trials", "1"],
    "analyze": ["analyze", "--shared", "w", "--scan-trials", "1"],
    "sample": ["teleport", "--shared", "ghz", "--theta", "1", "--sample", "--trials", "10"],
}


@pytest.mark.parametrize("seed", ["-1", str(2**128), "1.5", "x"])
@pytest.mark.parametrize("command", SEEDED)
def test_bad_seed_exits_2(capsys, command, seed):
    # default_rng and a Philox key both accept exactly [0, 2**128); the echo is cut after 40 characters
    with pytest.raises(SystemExit) as exc:
        cli.main(SEEDED[command] + ["--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --seed: seed must be an integer in [0, 2**128), got {_echo(seed)}\n")


@pytest.mark.parametrize("seed", [str(2**128), "9" * 5000], ids=["2**128", "5000-digits"])
def test_bad_basis_seed_exits_2(capsys, seed):
    """haar:SEED takes the --seed range; a seed past int()'s digit limit is no exception."""
    assert cli.main(["teleport", "--shared", "w", "--theta", "1", "--basis", f"haar:{seed}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument --basis: seed must be an integer in [0, 2**128), got {_echo(seed)}\n"


TRIALS_REJECTED = "trials must be an integer in [1, 2**32], got"
TRIAL_OPTIONS = {
    "scan": ["scan", "--shared", "w", "--trials"],
    "analyze": ["analyze", "--shared", "w", "--scan-trials"],
    "sample": ["teleport", "--shared", "ghz", "--theta", "1", "--sample", "--trials"],
}


@pytest.mark.parametrize("trials", ["0", "-5", "1.5", "x"])
@pytest.mark.parametrize("command", TRIAL_OPTIONS)
def test_bad_trial_count_exits_2_naming_its_option(capsys, command, trials):
    with pytest.raises(SystemExit) as exc:
        cli.main(TRIAL_OPTIONS[command] + [trials])
    assert exc.value.code == 2
    option = TRIAL_OPTIONS[command][-1]
    assert capsys.readouterr().err.endswith(f"error: argument {option}: {TRIALS_REJECTED} {trials!r}\n")


LONG = "9" * 5000
SPACED = "9 " * 2500
DIAG_LONG = f"diag({'1,' * 2500}1)"
SEED_RANGE = "seed must be an integer in [0, 2**128), got"
S_SPECS = "expected I, X, Y, Z, H, diag(a,b), inline JSON, or a file path"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["scan", "--shared", "w", "--seed", LONG], f"argument --seed: {SEED_RANGE} {_echo(LONG)}"),
        (["scan", "--shared", "w", "--trials", LONG], f"argument --trials: {TRIALS_REJECTED} {_echo(LONG)}"),
        (
            ["scan", "--shared", "w", "--tolerance", LONG],
            f"argument --tolerance: tolerance must be finite and non-negative, got {_echo(LONG)}",
        ),
        (
            ["teleport", "--shared", "w", "--theta", "1", "--basis", f"haar:{LONG}"],
            f"argument --basis: {SEED_RANGE} {_echo(LONG)}",
        ),
        (
            ["teleport", "--shared", "w", "--theta", "1", "--basis", f"x{LONG}"],
            f"unrecognized basis spec {_echo('x' + LONG)}; expected haar:SEED",
        ),
        (["analyze", "--shared", f"w-like:{LONG}"], f"expected three comma-separated angles, got {_echo(LONG)}"),
        (["analyze", "--shared", f"w-like:1,2,x{LONG}"], f"malformed angle in {_echo('1,2,x' + LONG)}"),
        (
            ["basis-gen", "--params", "0.5,0.2,0.9", "--S", DIAG_LONG],
            f"diag(...) needs two entries, got {_echo(DIAG_LONG)}",
        ),
        (
            ["basis-gen", "--params", "0.5,0.2,0.9", "--S", f"diag(1,x{LONG})"],
            f"malformed entry in {_echo(f'diag(1,x{LONG})')}",
        ),
        (
            ["basis-gen", "--params", "0.5,0.2,0.9", "--S", LONG],
            f"unrecognized S spec {_echo(LONG)}; {S_SPECS}",
        ),
        (
            ["basis-gen", "--params", "0.5,0.2,0.9", "--S", "no/such/S.json"],
            f"unrecognized S spec 'no/such/S.json'; {S_SPECS}",
        ),
        # argparse's own errors
        # a float too large is inf, not an error
        (
            ["teleport", "--shared", "ghz", "--theta", f"x{LONG}"],
            f"argument --theta: invalid float value: {_echo('x' + LONG)}",
        ),
        (
            ["teleport", "--shared", "ghz", "--theta", "1", "--phi", f"x{LONG}"],
            f"argument --phi: invalid float value: {_echo('x' + LONG)}",
        ),
        (
            ["scan", "--shared", "w", "--format", LONG],
            f"argument --format: invalid choice: {_echo(LONG)} (choose from 'json', 'text')",
        ),
        (["teleport", "--shared", "ghz", "--theta", "1", LONG], f"unrecognized arguments: {_cut(LONG)}"),
        (["teleport", "--shared", "ghz", "--theta", "1", SPACED], f"unrecognized arguments: {_cut(SPACED)}"),
        # a control character is escaped as repr escapes it, so the error stays one line
        (["teleport", "--shared", "ghz", "--theta", "1", "a\nb"], "unrecognized arguments: a\\nb"),
        ([f"--x{LONG}", "teleport"], f"unrecognized arguments: {_cut('--x' + LONG)}"),
        (
            [LONG, "--shared", "ghz"],
            f"argument command: invalid choice: {_echo(LONG)} (choose from 'teleport', 'analyze', 'scan', 'basis-gen')",
        ),
        (
            ["teleport", "--shared", "ghz", "--theta", "1", f"--random={LONG}"],
            f"argument --random: ignored explicit argument {_echo(LONG)}",
        ),
        (
            ["teleport", "--shared", "ghz", "--theta", "1", f"--s={LONG}"],
            f"ambiguous option: {_cut('--s=' + LONG)} could match --shared, --state-file, --sample, --seed",
        ),
        # the option's whole text is cut, not word by word, which echoed all 2,500 words
        (
            ["teleport", "--shared", "ghz", "--theta", "1", f"--s={SPACED}"],
            f"ambiguous option: {_cut('--s=' + SPACED)} could match --shared, --state-file, --sample, --seed",
        ),
        (
            ["teleport", "--shared", "ghz", "--theta", "1", "--s=a\nb"],
            "ambiguous option: --s=a\\nb could match --shared, --state-file, --sample, --seed",
        ),
    ],
    ids=[
        "seed", "trials", "tolerance", "basis-seed", "basis-spec", "w-like", "w-like-angle", "diag-count", "diag-entry",
        "S-spec", "S-missing-path", "theta", "phi", "format", "unrecognized", "unrecognized-spaced",
        "unrecognized-newline", "unrecognized-before-command", "command", "explicit-argument",
        "ambiguous-option", "ambiguous-option-spaced", "ambiguous-option-newline",
    ],
)
def test_long_option_values_are_echoed_cut(capsys, argv, line):
    """A 5,000-character value is quoted as serialize's JSON errors quote a value, its repr cut after
    40 characters, and argparse's own errors cut each value they quote, a repr or a word, alike; so
    the error stays under 1 KB with the usage argparse prints before it. A value of at most 40
    characters keeps its bytes."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines()[-1].endswith(f"error: {line}")
    assert captured.err.endswith(f"error: {line}\n")
    assert len(captured.err) < 1024


@pytest.mark.parametrize(
    "argv, line",
    [
        (["teleport", "--theta", "1"], "no canonical protocol for {}; pass --basis haar:SEED or --protocol-file"),
        (["scan", "--inject-known-basis"], "no known perfect basis for {}"),
    ],
    ids=["teleport", "scan"],
)
def test_long_state_file_labels_are_echoed_cut(tmp_path, capsys, argv, line):
    path = tmp_path / ("s" * 200 + ".json")
    path.write_text(json.dumps(state_to_jsonable(make_named_state("w"))))
    assert cli.main(argv + ["--state-file", str(path)]) == 2
    assert capsys.readouterr().err == "error: " + line.format(_echo(str(path))) + "\n"


@pytest.mark.parametrize("command, code", [("scan", 0), ("analyze", 1), ("sample", 0)])
def test_largest_seed_runs(capsys, command, code):
    assert cli.main(SEEDED[command] + ["--seed", str(2**128 - 1)]) == code


def test_protocol_file_at_the_edge_of_its_checks_teleports(tmp_path):
    """A sharedState of squared norm 1 + 0.9 ATOL and basisElements of Gram
    deviation 0.9 ATOL each pass their own check; their branch family is
    complete only to 1.8 ATOL, which is a consequence, not a further check."""
    stretch = math.sqrt(1.0 + 0.9 * ATOL)
    protocol = protocols.ghz_protocol()

    def stretched(amplitudes):
        # full precision: rounding to 12 digits would undo the stretch
        return {"nQubits": 3, "amplitudes": [[z.real, z.imag] for z in (stretch * amplitudes).tolist()]}

    data = protocol_to_jsonable(protocol)
    data["sharedState"] = stretched(protocol.shared.amplitudes)
    data["basisElements"] = [stretched(row) for row in protocol.basis.rows]
    path = tmp_path / "stretched.json"
    path.write_text(json.dumps(data))
    proc = run_cli("teleport", "--protocol-file", str(path), "--theta", "1", "--expect-perfect")
    assert proc.returncode == 0, proc.stderr
    assert "expect-perfect: PASS" in proc.stdout


def test_basis_gen_rejects_non_unitary_S():
    proc = run_cli("basis-gen", "--params", "0.5,0.2,0.9", "--S", "diag(1,2)")
    assert proc.returncode == 2
    assert "S is not unitary" in proc.stderr


def test_state_file_input(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(dumps_canonical(state_to_jsonable(make_named_state("w"))))
    proc = run_cli("analyze", "--state-file", str(path), "--scan-trials", "3")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["entropyVerdict"] is False


@pytest.mark.parametrize("n_qubits", ["1e400", "3.7", '"3"', str(10**12)])
def test_state_file_n_qubits_must_be_the_integer_qubit_count(tmp_path, n_qubits):
    path = tmp_path / "w.json"
    text = dumps_canonical(state_to_jsonable(make_named_state("w")))
    path.write_text(text.replace('"nQubits": 3', f'"nQubits": {n_qubits}'))
    proc = run_cli("analyze", "--state-file", str(path), "--scan-trials", "3")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("entry", ["[true, false]", '["1", 0]', "[1, 0, 0]", "1"])
def test_state_file_amplitudes_must_be_number_pairs(tmp_path, entry):
    # |000> with its first amplitude spelled `entry`; [true, false] loaded as 1 before
    path = tmp_path / "zero.json"
    amplitudes = ", ".join([entry] + ["[0, 0]"] * 7)
    path.write_text(f'{{"nQubits": 3, "amplitudes": [{amplitudes}]}}')
    proc = run_cli("analyze", "--state-file", str(path), "--scan-trials", "3")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: malformed state object") and proc.stderr.count("\n") == 1


def test_scan_trials_capped_to_bound_run_time(monkeypatch, capsys):
    # in process, with the Haar draw removed: a scan that started fails at once
    # instead of running for a day
    monkeypatch.setattr(feasibility, "haar_isometries", None)
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--shared", "w", "--trials", str(2**32 + 1)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --trials: {TRIALS_REJECTED} '{2**32 + 1}'\n")


def test_sample_trials_capped_like_the_scan(no_draws, capsys):
    argv = ["teleport", "--shared", "ghz", "--theta", "1", "--sample", "--trials", str(2**32 + 1)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --trials: {TRIALS_REJECTED} '{2**32 + 1}'\n")


def test_in_process_main_calls_share_no_options(tmp_path, capsys):
    """The parser is built once per process; options given in one call must
    not reach the next, which sees the declared defaults."""
    out = tmp_path / "scan.json"
    calls = [
        ["scan", "--shared", "w", "--trials", "3", "--seed", "9", "--format", "json", "--out", str(out)],
        ["scan", "--shared", "w", "--trials", "3"],
        ["teleport", "--shared", "ghz", "--theta", "1", "--expect-perfect", "--tolerance", "0.5",
         "--sample", "--trials", "10", "--format", "json", "--seed", "4"],
        ["teleport", "--shared", "ghz", "--theta", "1"],
        ["analyze", "--shared", "ghz", "--scan-trials", "2", "--format", "text"],
        ["analyze", "--shared", "ghz", "--scan-trials", "2"],
    ]
    for args in calls:
        code = cli.main(args)
        fresh = run_cli(*args)
        assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout)
    assert json.loads(out.read_text())["seed"] == 9


def test_unreadable_state_file():
    """The path is printed once, whole, and the OS error by its message alone."""
    proc = run_cli("teleport", "--state-file", "/nonexistent/state.json", "--theta", "1.0")
    assert proc.returncode == 2
    assert proc.stderr == f"error: unreadable state file '/nonexistent/state.json': {os.strerror(errno.ENOENT)}\n"


def test_too_long_state_file_path_is_printed_once(capsys):
    path = "/nonexistent/" + "s" * 5000
    assert cli.main(["teleport", "--state-file", path, "--theta", "1.0"]) == 2
    assert capsys.readouterr().err == f"error: unreadable state file {path!r}: {os.strerror(errno.ENAMETOOLONG)}\n"


def test_malformed_w_like_params():
    proc = run_cli("analyze", "--shared", "w-like:1,2")
    assert proc.returncode == 2
    assert "three comma-separated angles" in proc.stderr


def test_unknown_shared_spec():
    proc = run_cli("teleport", "--shared", "nope", "--theta", "0.5")
    assert proc.returncode == 2
    assert "unrecognized state spec" in proc.stderr


def _json_floats(value):
    """Every float in a parsed JSON document."""
    if isinstance(value, float):
        yield value
    children = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    for child in children:
        yield from _json_floats(child)


def _json_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code in (0, 1)
    return json.loads(out.getvalue())


ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
SEED = st.integers(0, 2**32)


@given(angles=st.tuples(ANGLE, ANGLE, ANGLE), theta=ANGLE, s_seed=SEED, basis_seed=SEED)
@example(angles=(math.pi / 4, 0.0, 0.0), theta=1.0, s_seed=0, basis_seed=42)
def test_every_report_float_carries_12_significant_digits(angles, theta, s_seed, basis_seed):
    """Every float of a teleport, scan or analyze report is rounded to 12 digits; basis-gen writes a
    file that is read back, so its floats are the built protocol's in full."""
    params = ",".join(repr(a) for a in angles)
    shared = f"--shared=w-like:{params}"
    s = [[[z.real, z.imag] for z in row] for row in haar_random_unitary(2, s_seed).tolist()]
    documents = [
        _json_stdout(["teleport", shared, f"--theta={theta!r}", "--format", "json"]),
        _json_stdout([
            "teleport", shared, "--basis", f"haar:{basis_seed}", "--random", "--seed", str(basis_seed),
            "--sample", "--trials", "1000", "--format", "json",
        ]),
        _json_stdout(["scan", shared, "--trials", "3", "--inject-known-basis", "--format", "json"]),
        _json_stdout(["analyze", shared, "--scan-trials", "2"]),
    ]
    floats = [x for document in documents for x in _json_floats(document)]
    assert len(floats) > 100
    assert all(round12(x) == x for x in floats)
    written = _json_stdout(["basis-gen", f"--params={params}", f"--S={json.dumps(s)}"])
    built = protocols.basis_from_S(WLikeParams(*angles), haar_random_unitary(2, s_seed))
    assert written == json.loads(json.dumps(protocol_to_jsonable(built)))
