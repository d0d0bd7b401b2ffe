import json
import subprocess
import sys
from pathlib import Path

import pytest

from teleport3q import cli, feasibility, protocols
from teleport3q.serialize import dumps_canonical, state_to_jsonable
from teleport3q.states import make_named_state

HALF_PI = "1.5707963267948966"
BASIS_GEN_PROTOCOL = Path(__file__).parent / "golden" / "inputs" / "basis_gen_protocol.json"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "teleport3q", *args],
        capture_output=True,
        text=True,
    )


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
    assert proc.returncode == 2
    assert "message" in proc.stderr


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
    assert data["coefficients"][:4] == [0.5, 0.5, 0.5, 0.5]


@pytest.mark.parametrize(
    "edit, message",
    [
        ("[1,2]", "S must be a JSON list of rows"),
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
    ],
    ids=[
        "S-not-nested", "S-non-finite", "S-overflows", "basisElements-not-list", "corrections-not-list",
        "coefficients-edited", "correction-non-finite",
        "S-string-entry", "S-bool-entry", "S-huge-integer", "coefficients-strings", "correction-bool",
        "correction-not-2x2", "correction-not-unitary-before-not-2x2", "correction-overflows",
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


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize(
    "args",
    [
        ["teleport", "--shared", "ghz", "--theta", "1"],
        ["analyze", "--shared", "ghz", "--scan-trials", "1"],
        ["scan", "--shared", "w", "--trials", "1"],
        ["basis-gen", "--params", "0.5,0.2,0.9", "--S", "H"],
    ],
    ids=["teleport", "analyze", "scan", "basis-gen"],
)
def test_unwritable_out_exits_2(tmp_path, capsys, args, target):
    out = tmp_path / "no" / "such" / "out.txt" if target == "missing-directory" else tmp_path
    assert cli.main(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write output file {str(out)!r}: ")
    assert captured.err.count("\n") == 1


def test_canonical_protocols_take_no_polar_factors(monkeypatch, capsys):
    """Only --basis haar:SEED corrects by polar factors. Every bell(m,n) is built
    by bell_protocol, looked up when it runs, so a patched attribute sees it."""
    built, bell_protocol = [], protocols.bell_protocol

    def counted(shared):
        built.append(shared)
        return bell_protocol(shared)

    monkeypatch.setattr(cli, "protocol_from_basis", None)
    monkeypatch.setattr(cli, "bell_protocol", counted)
    bells = [f"bell({m},{n})" for m in (0, 1) for n in (0, 1)]
    for spec in ["ghz", "w-like:0.5,0.2,0.9", *bells]:
        assert cli.main(["teleport", "--shared", spec, "--theta", "1", "--expect-perfect"]) == 0
        assert cli.main(["scan", "--shared", spec, "--trials", "1", "--inject-known-basis"]) == 0
    assert "feasible bases: 1/1" in capsys.readouterr().out
    assert len(built) == 2 * len(bells)


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


def _main(argv, capsys):
    """Exit code and stdout of an in-process run; argparse errors exit too."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


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
    ],
)
def test_bad_tolerance_exits_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "tolerance must be finite and non-negative" in proc.stderr


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
    monkeypatch.setattr(feasibility, "haar_unitaries", None)
    assert cli.main(["scan", "--shared", "w", "--trials", str(2**32 + 1)]) == 2
    assert capsys.readouterr().err == "error: trials must be <= 2**32\n"


def test_sample_trials_capped_like_the_scan(no_draws, capsys):
    argv = ["teleport", "--shared", "ghz", "--theta", "1", "--sample", "--trials", str(2**32 + 1)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: trials must be <= 2**32\n"


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
    proc = run_cli("teleport", "--state-file", "/nonexistent/state.json", "--theta", "1.0")
    assert proc.returncode == 2
    assert "unreadable" in proc.stderr


def test_malformed_w_like_params():
    proc = run_cli("analyze", "--shared", "w-like:1,2")
    assert proc.returncode == 2
    assert "three comma-separated angles" in proc.stderr


def test_unknown_shared_spec():
    proc = run_cli("teleport", "--shared", "nope", "--theta", "0.5")
    assert proc.returncode == 2
    assert "unrecognized state spec" in proc.stderr
