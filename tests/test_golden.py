"""Pinned CLI outputs: the exact stdout bytes and exit code of fixed invocations.

Each case runs `teleport3q.cli.main` in-process with tests/golden/ as the
working directory, so the input paths, and the labels the CLI derives from
them, are the same on every machine. The expected result of case NAME is
tests/golden/NAME.out: a first line `exit CODE`, then stdout byte for byte.
The inputs under tests/golden/inputs/ are committed: two Haar-random states
(haar3_2789.json at full precision), a one-ebit state and a `basis-gen`
protocol file.

After a change that is meant to alter CLI output, regenerate every expected
file with

    PYTHONPATH=src python tests/test_golden.py

and log the change.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
from pathlib import Path

import pytest

from teleport3q import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
HALF_PI = "1.5707963267948966"

CASES = {
    # teleport: canonical protocols, both formats, exit 0 / 1 / 2
    "teleport_ghz_text": ["teleport", "--shared", "ghz", "--theta", "1.0", "--phi", "0.5", "--expect-perfect"],
    "teleport_ghz_json": ["teleport", "--shared", "GHZ", "--theta", "2.2", "--phi", "-0.4", "--format", "json"],
    "teleport_w_like_random": [
        "teleport", "--shared", "w-like:0.7854,0,0", "--random", "--seed", "7", "--expect-perfect",
    ],
    "teleport_bell00_json": ["teleport", "--shared", "bell(0,0)", "--theta", "0.3", "--phi", "1.1", "--format", "json"],
    "teleport_bell11_text": ["teleport", "--shared", "bell(1,1)", "--random", "--seed", "4", "--expect-perfect"],
    "teleport_w_haar_fail": [
        "teleport", "--shared", "w", "--theta", "1.0", "--phi", "0", "--basis", "haar:42", "--expect-perfect",
    ],
    "teleport_w_haar_json": ["teleport", "--shared", "w", "--theta", "0.4", "--basis", "haar:8", "--format", "json"],
    "teleport_ghz_sample_json": [
        "teleport", "--shared", "ghz", "--theta", "1.0", "--phi", "0.5",
        "--sample", "--trials", "2000", "--seed", "3", "--format", "json",
    ],
    "teleport_w_like_sample_text": [
        "teleport", "--shared", "w-like:0.5,0.2,0.9", "--random", "--seed", "2", "--sample", "--trials", "500",
    ],
    "teleport_protocol_file": [
        "teleport", "--protocol-file", "inputs/basis_gen_protocol.json",
        "--random", "--seed", "3", "--expect-perfect", "--format", "json",
    ],
    "teleport_random_state_file": [
        "teleport", "--state-file", "inputs/random_state.json", "--theta", "0.9", "--basis", "haar:5",
    ],
    # 8 live outcomes sampled across two ends of protocols.SAMPLE_CHUNK shots
    "teleport_w_haar_sample_150000_json": [
        "teleport", "--shared", "w", "--basis", "haar:5", "--random", "--seed", "9",
        "--sample", "--trials", "150000", "--format", "json",
    ],
    "teleport_one_ebit_shared_path": [
        "teleport", "--shared", "inputs/one_ebit_state.json", "--random", "--seed", "1",
        "--basis", "haar:1", "--format", "json",
    ],
    "teleport_w_no_basis": ["teleport", "--shared", "w", "--theta", "1.0"],
    # analyze: both formats, exit 0 / 1 / 2
    "analyze_w_json": ["analyze", "--shared", "w", "--scan-trials", "20"],
    "analyze_ghz_text": ["analyze", "--shared", "ghz", "--scan-trials", "10", "--seed", "5", "--format", "text"],
    "analyze_w_like_json": ["analyze", "--shared", f"w-like:{HALF_PI},0,0.3", "--scan-trials", "5"],
    "analyze_random_state_text": [
        "analyze", "--state-file", "inputs/random_state.json", "--scan-trials", "10", "--format", "text",
    ],
    "analyze_one_ebit_json": ["analyze", "--state-file", "inputs/one_ebit_state.json", "--scan-trials", "10"],
    "analyze_bell_rejected": ["analyze", "--shared", "bell(0,0)"],
    # one entropy, printed as entropyBits and alphaEntropy; the input keeps every bit of haar_random_state(3, 2789)
    "analyze_haar3_2789_json": ["analyze", "--state-file", "inputs/haar3_2789.json", "--scan-trials", "10"],
    # scan: both formats, injected controls, exit 0 / 2
    "scan_w_text": ["scan", "--shared", "w", "--trials", "50", "--seed", "1"],
    "scan_ghz_inject_json": ["scan", "--shared", "ghz", "--trials", "10", "--inject-known-basis", "--format", "json"],
    "scan_w_like_inject_text": ["scan", "--shared", "w-like:0.5,0.2,0.9", "--trials", "5", "--inject-known-basis"],
    "scan_random_state_json": [
        "scan", "--state-file", "inputs/random_state.json", "--trials", "20", "--seed", "3", "--format", "json",
    ],
    "scan_w_inject_rejected": ["scan", "--shared", "w", "--trials", "1", "--inject-known-basis"],
    # scans that span several kernel chunks of feasibility.SCAN_CHUNK trials
    "scan_w_600_text": ["scan", "--shared", "w", "--trials", "600", "--seed", "4"],
    "scan_random_state_300_json": [
        "scan", "--state-file", "inputs/random_state.json", "--trials", "300", "--seed", "8", "--format", "json",
    ],
    "scan_bell00_inject_257_text": ["scan", "--shared", "bell(0,0)", "--trials", "257", "--inject-known-basis"],
    "analyze_w_300_json": ["analyze", "--shared", "w", "--scan-trials", "300", "--format", "json"],
    # loose tolerances, where most trials are decided on the exact path
    "scan_w_600_tol_005_text": ["scan", "--shared", "w", "--trials", "600", "--seed", "4", "--tolerance", "0.05"],
    "scan_random_state_300_tol_02_json": [
        "scan", "--state-file", "inputs/random_state.json", "--trials", "300", "--seed", "8",
        "--tolerance", "0.2", "--format", "json",
    ],
    # basis-gen: exit 0 / 2
    "basis_gen_h": ["basis-gen", "--params", "0.5,0.2,0.9", "--S", "H"],
    "basis_gen_identity": ["basis-gen", "--params", "0.7854,0,0", "--S", "I"],
    # complex and Pauli S: pins the (sigma S)† element and sigma S correction arithmetic
    "basis_gen_complex_S": ["basis-gen", "--params", "1.1,0.4,-0.9", "--S", "[[0.6,[0,0.8]],[[0,0.8],0.6]]"],
    "basis_gen_y": ["basis-gen", "--params", "0.3,1.0,-2.0", "--S", "Y"],
    "basis_gen_non_unitary": ["basis-gen", "--params", "0.5,0.2,0.9", "--S", "diag(1,2)"],
}


def run_case(argv: list[str]) -> str:
    """Exit code line plus captured stdout, run from the golden directory."""
    out = io.StringIO()
    previous = Path.cwd()
    os.chdir(GOLDEN_DIR)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(previous)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    expected = (GOLDEN_DIR / f"{name}.out").read_text()
    assert run_case(CASES[name]) == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_out_file(name, tmp_path):
    """--out FILE receives the golden stdout byte for byte and stdout stays empty;
    a command that exits 2 creates no file."""
    code, _, stdout = (GOLDEN_DIR / f"{name}.out").read_bytes().partition(b"\n")
    out = tmp_path / "out"
    assert run_case(CASES[name] + ["--out", str(out)]) == f"{code.decode()}\n"
    if code == b"exit 2":
        assert not out.exists()
    else:
        assert out.read_bytes() == stdout


def test_golden_files_match_cases():
    """Every expected file has a case and every case a file, so a renamed case
    cannot leave a stale file that no test reads."""
    assert sorted(path.stem for path in GOLDEN_DIR.glob("*.out")) == sorted(CASES)


# a -0.0 JSON number or a -0 text token, not the -0 that starts -0.4 or ends 1e-05
NEGATIVE_ZERO = re.compile(r"(?<![\w.])-0(?:\.0)?(?![\w.])")


def test_no_golden_prints_a_negative_zero():
    """The printers write every zero as 0.0 (JSON) or 0 (text), whatever the sign the numerics gave it."""
    printed = [path.name for path in sorted(GOLDEN_DIR.glob("*.out")) if NEGATIVE_ZERO.search(path.read_text())]
    assert printed == []


def test_golden_covers_every_exit_code():
    codes = {(GOLDEN_DIR / f"{name}.out").read_text().split("\n", 1)[0] for name in CASES}
    assert codes == {"exit 0", "exit 1", "exit 2"}


if __name__ == "__main__":
    for case_name, case_argv in sorted(CASES.items()):
        (GOLDEN_DIR / f"{case_name}.out").write_text(run_case(case_argv))
