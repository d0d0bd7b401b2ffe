"""Hypothesis fuzz of the exit-code contract for JSON inputs.

Every case runs in process through cli.main and must exit 0, 1 or 2 without an
exception (the suite turns warnings into errors too). An exit of 2 comes with
exactly one `error:` line on stderr and nothing on stdout, which quotes no
Python or numpy internals; valid inputs never exit 2. Mutated inputs start
from a valid W state file, a basis-gen protocol file and valid --S matrices;
each mutation retypes, nests, drops or duplicates one field, or replaces one
of the format's lists with a value of another shape. Drawn qubit counts reach
MAX_QUBITS + 5: a state above the cap is refused before anything is
allocated, and the scans of the states below it run one trial, whose
workspace of (2d(d+4) + (d+4)²) complex numbers, d = 2**n, is 3.2 MB at the cap.
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
from teleport3q.serialize import MAX_QUBITS, _echo, state_to_jsonable
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


# what an error line leaked before one reader checked every list of the format
LEAKS = ("not iterable", "inhomogeneous", "Traceback")


def assert_contract(argv) -> int:
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        assert not any(leak in err for leak in LEAKS), err
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


# a value of another shape than the list it replaces: a number, a string, an object or ragged rows
WRONG_SHAPE = st.one_of(
    st.integers(-5, 5),
    st.floats(-2, 2),
    st.text(max_size=4),
    st.dictionaries(st.text(max_size=2), st.lists(st.floats(-1, 1), max_size=2), max_size=2),
    # rows of unequal lengths, never a valid matrix, row or list of pairs
    st.lists(st.lists(st.floats(-1, 1), max_size=3), min_size=2, max_size=3).filter(
        lambda rows: len({len(row) for row in rows}) > 1
    ),
    st.just([[[1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]),
)
# the format's lists: amplitudes, a correction, a correction row, the coefficients
PROTOCOL_LISTS = [("sharedState", "amplitudes"), ("coefficients",)] + [
    path for k in range(8) for path in [("basisElements", k, "amplitudes"), ("corrections", k)]
    + [("corrections", k, row) for row in range(2)]
]


@st.composite
def reshaped(draw, document, lists):
    """`document` with one of `lists`, the paths of its lists, replaced by a value of another shape;
    the path (None,) replaces the whole document."""
    doc = copy.deepcopy(document)
    *up, key = draw(st.sampled_from(lists))
    parent = doc
    for step in up:
        parent = parent[step]
    value = draw(WRONG_SHAPE)
    if not up and key is None:  # the whole document
        return value
    parent[key] = value
    return doc


@FUZZ
@given(state=reshaped(W_STATE, [("amplitudes",)]))
def test_reshaped_state_files_exit_2(workdir, state):
    path = workdir / "state.json"
    path.write_text(json.dumps(state))
    assert assert_contract(["analyze", "--state-file", str(path), "--scan-trials", "1"]) == 2


@FUZZ
@given(protocol=reshaped(BASIS_GEN_PROTOCOL, PROTOCOL_LISTS))
@example(protocol=BASIS_GEN_PROTOCOL | {"coefficients": {"a": [0.5]}})
def test_reshaped_protocol_files_exit_2(workdir, protocol):
    path = workdir / "protocol.json"
    path.write_text(json.dumps(protocol))
    assert assert_contract(["teleport", "--protocol-file", str(path), "--theta", "1"]) == 2


@FUZZ
@given(s=st.sampled_from(VALID_S).flatmap(lambda s: reshaped(s, [(None,), (0,), (1,)])))
def test_reshaped_s_files_exit_2(workdir, s):
    path = workdir / "S.json"
    path.write_text(json.dumps(s))
    assert assert_contract(["basis-gen", "--params", "0.5,0.2,0.9", "--S", str(path)]) == 2


QUBITS = st.integers(0, MAX_QUBITS + 5)


@settings(max_examples=40)
@given(n_qubits=QUBITS, size_qubits=QUBITS, command=st.sampled_from(["scan", "haar-basis", "sharedState"]))
@example(n_qubits=MAX_QUBITS + 5, size_qubits=MAX_QUBITS + 5, command="scan")
@example(n_qubits=MAX_QUBITS, size_qubits=MAX_QUBITS, command="scan")
def test_qubit_counts_past_the_cap_keep_the_exit_contract(workdir, n_qubits, size_qubits, command):
    """|0...0> on 2**size_qubits amplitudes that claims n_qubits; above the cap it is refused unread."""
    state = {"nQubits": n_qubits, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * (2**size_qubits - 1)}
    path = workdir / "qubits.json"
    if command == "sharedState":
        path.write_text(json.dumps(BASIS_GEN_PROTOCOL | {"sharedState": state}))
        argv = ["teleport", "--protocol-file", str(path), "--theta", "1"]
    else:
        path.write_text(json.dumps(state))
        argv = {
            "scan": ["scan", "--state-file", str(path), "--trials", "1"],
            "haar-basis": ["teleport", "--state-file", str(path), "--theta", "1", "--basis", "haar:1"],
        }[command]
    if n_qubits > MAX_QUBITS:
        assert run(argv) == (2, "", f"error: nQubits must be at most {MAX_QUBITS}, got {n_qubits}\n")
    else:
        assert assert_contract(argv) == (0 if command != "sharedState" and n_qubits == size_qubits >= 1 else 2)


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
