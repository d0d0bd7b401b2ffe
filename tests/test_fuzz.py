"""Hypothesis fuzz of the exit-code contract for JSON inputs.

Every case runs in process through cli.main and must exit 0, 1 or 2 without an
exception (the suite turns warnings into errors too). An exit of 2 comes with
exactly one `error:` line on stderr and nothing on stdout; valid inputs never
exit 2. Mutated inputs start from a valid W state file, a basis-gen protocol
file and valid --S matrices; each mutation retypes, nests, drops or
duplicates one field. No generated state is valid above 3 qubits: a scan over
n qubits allocates a workspace of SCAN_CHUNK·(3·2**n + 4)(2**n + 4) complex numbers.
"""

import contextlib
import copy
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from teleport3q import cli
from teleport3q.linalg import ATOL, haar_random_unitary
from teleport3q.serialize import _echo, state_to_jsonable
from teleport3q.states import PureState, make_named_state

BASIS_GEN_PROTOCOL = json.loads(
    (Path(__file__).parent / "golden" / "inputs" / "basis_gen_protocol.json").read_text()
)
W_STATE = state_to_jsonable(make_named_state("w"))
FUZZ = settings(max_examples=150)

# numbers at the edges of a float, and every other JSON type
ODD_VALUES = st.one_of(
    st.sampled_from([1e308, -1e308, 5e-324, 1e-300, 10**400, math.inf, -math.inf, math.nan, 0, -0.0]),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.floats(-2, 2), max_size=3),
    st.just({}),
)


class Again(str):
    """A dict key equal only to itself, so json.dumps writes its name a second
    time next to the original key; json.loads keeps the later value."""

    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other


def complex_rows(matrix: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in matrix.tolist()]


def paths(value, prefix=()):
    """Every path from the root into `value`, the root included."""
    yield prefix
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


@st.composite
def mutated(draw, document):
    """`document` with one field retyped, nested, dropped or duplicated."""
    doc = copy.deepcopy(document)
    path = draw(st.sampled_from(list(paths(doc))))
    action = draw(st.sampled_from(["retype", "nest", "drop", "duplicate"]))
    odd = draw(ODD_VALUES)
    if not path:  # the whole document
        return {"retype": odd, "drop": odd, "nest": [doc], "duplicate": [doc, doc]}[action]
    *up, key = path
    parent = doc
    for step in up:
        parent = parent[step]
    if action == "retype":
        parent[key] = odd
    elif action == "nest":
        parent[key] = [parent[key]]
    elif action == "drop":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[Again(key)] = odd
    return doc


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv) -> int:
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(state=mutated(W_STATE))
@example(state={"nQubits": 3, "amplitudes": [[1e308, 0]] + [[0, 0]] * 7})
def test_mutated_state_files_keep_the_exit_contract(workdir, state):
    path = workdir / "state.json"
    path.write_text(json.dumps(state))
    assert_contract(["analyze", "--state-file", str(path), "--scan-trials", "1"])


@FUZZ
@given(protocol=mutated(BASIS_GEN_PROTOCOL))
@example(protocol=BASIS_GEN_PROTOCOL | {"sharedState": {"nQubits": 3, "amplitudes": [[1e308, 0]] + [[0, 0]] * 7}})
def test_mutated_protocol_files_keep_the_exit_contract(workdir, protocol):
    path = workdir / "protocol.json"
    path.write_text(json.dumps(protocol))
    assert_contract(["teleport", "--protocol-file", str(path), "--theta", "1", "--expect-perfect"])


VALID_S = [[[1, 0], [0, 1]], complex_rows(haar_random_unitary(2, 5))]


@FUZZ
@given(s=st.sampled_from(VALID_S).flatmap(mutated))
def test_mutated_inline_s_keeps_the_exit_contract(s):
    assert_contract(["basis-gen", "--params", "0.5,0.2,0.9", f"--S={json.dumps(s)}"])


AMPLITUDE = st.one_of(st.just(0.0), st.floats(-1, 1))
# squared norms 1 + ATOL * excess across the band PureState accepts; k * 2**-40 moves
# the edge by ulps, where two sums of the same squares can round to opposite sides
EDGE = st.integers(0, 2**20).map(lambda k: 1.0 - k * 2.0**-40)
NORM_EXCESS = st.one_of(st.floats(-1, 1), EDGE, EDGE.map(lambda e: -e))


@settings(max_examples=40)
@given(
    parts=st.lists(AMPLITUDE, min_size=16, max_size=16).filter(lambda v: np.linalg.norm(v) > 1e-3),
    excess=NORM_EXCESS,
)
@example(parts=[0.0, 0.0, 1.0] + [0.0] * 13, excess=0.0)
# its reduced density's trace read 1 + 1.000e-10, which failed analyze with exit 2
@example(
    parts=[-0.74, -0.0, 0.2, -0.94, -0.7, 0.86, -0.86, -0.74, 0.9, 0.24, -0.26, 0.02, 0.33, -0.45, -0.72, 0.58],
    excess=1.0,
)
def test_normalised_three_qubit_states_never_exit_2(workdir, parts, excess):
    """A state file PureState accepts exits 0 or 1 under analyze and 0 under scan;
    one it rejects, at the very edge of the band, exits 2 under both."""
    amplitudes = np.array(parts[::2]) + 1j * np.array(parts[1::2])
    amplitudes /= np.linalg.norm(amplitudes)
    amplitudes *= math.sqrt(1.0 + ATOL * excess)
    path = workdir / "valid.json"
    path.write_text(json.dumps({"nQubits": 3, "amplitudes": [[z.real, z.imag] for z in amplitudes.tolist()]}))
    analyze = assert_contract(["analyze", "--state-file", str(path), "--scan-trials", "1"])
    scan = assert_contract(["scan", "--state-file", str(path), "--trials", "1"])
    try:
        PureState(3, amplitudes)
    except ValueError:
        assert analyze == scan == 2
    else:
        assert analyze in (0, 1) and scan == 0


ANGLE = st.floats(-2 * math.pi, 2 * math.pi)


@settings(max_examples=40)
@given(angles=st.tuples(ANGLE, ANGLE, ANGLE), s_seed=st.integers(0, 2**32))
@example(angles=(0.0, 0.0, 0.0), s_seed=0)
@example(angles=(math.pi / 2, 0.0, 0.3), s_seed=1)
def test_basis_gen_protocols_never_exit_2(workdir, angles, s_seed):
    path = workdir / "generated.json"
    s = complex_rows(haar_random_unitary(2, s_seed))
    params = ",".join(repr(a) for a in angles)
    assert run(["basis-gen", f"--params={params}", f"--S={json.dumps(s)}", "--out", str(path)]) == (0, "", "")
    assert assert_contract(["teleport", "--protocol-file", str(path), "--random", "--expect-perfect"]) in (0, 1)


@pytest.mark.parametrize("length", [255, 256, 5000])
@pytest.mark.parametrize(
    "command", [["teleport", "--theta", "1"], ["analyze", "--scan-trials", "1"], ["scan", "--trials", "1"]],
    ids=lambda argv: argv[0],
)
def test_long_shared_specs_are_unrecognized(command, length):
    """A spec too long for a file name is no file either: from 256 characters on, the file probe's
    OSError (File name too long) made it exit 1 with a traceback."""
    spec = "x" * length
    message = f"unrecognized state spec {_echo(spec)}; expected ghz, w, bell(m,n), w-like:g,p,o, or a file path"
    assert run(command + ["--shared", spec]) == (2, "", f"error: {message}\n")
