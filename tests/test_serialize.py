import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import run_cli
from hypothesis import example, given, strategies as st

from teleport3q.feasibility import SCAN_CHUNK, SCAN_TOL, build_feasibility_report, haar_scan
from teleport3q.protocols import PROB_FLOOR, basis_from_S, run_teleport, w_like_protocol
from teleport3q.serialize import (
    MAX_QUBITS,
    _cut,
    _float_text,
    dumps_canonical,
    json_number,
    protocol_from_jsonable,
    protocol_to_jsonable,
    report_to_jsonable,
    round12,
    state_from_jsonable,
    state_input_hash,
    state_to_jsonable,
)
from teleport3q.states import PureState, WLikeParams, bloch_qubit, fidelity, haar_random_state, make_named_state

from teleport3q.linalg import HADAMARD, haar_random_unitary


def test_round12():
    assert round12(1 / 3) == 0.333333333333
    assert round12(1.0) == 1.0


def test_an_error_value_of_40_characters_keeps_its_bytes():
    assert _cut("x" * 40) == "x" * 40
    assert _cut("x" * 41) == "x" * 40 + "..."
    # a 38-character string, whose repr has 40 characters
    with pytest.raises(ValueError, match=f"^expected a JSON number, got '{'y' * 38}'$"):
        json_number("y" * 38)


def test_state_round_trip():
    state = make_named_state("ghz")
    data = state_to_jsonable(state)
    assert data["nQubits"] == 3
    assert len(data["amplitudes"]) == 8
    back = state_from_jsonable(json.loads(json.dumps(data)))
    assert fidelity(state, back) == pytest.approx(1.0, abs=1e-10)


def test_state_from_jsonable_rejects_garbage():
    with pytest.raises(ValueError):
        state_from_jsonable({"amplitudes": [[1, 0]]})


def test_protocol_round_trip_preserves_perfection():
    protocol = basis_from_S(WLikeParams(0.5, 0.2, 0.9), HADAMARD)
    data = json.loads(dumps_canonical(protocol_to_jsonable(protocol)))
    assert sorted(data) == ["basisElements", "coefficients", "corrections", "sharedState"]
    back = protocol_from_jsonable(data)
    result = run_teleport(bloch_qubit(1.1, -0.4), back)
    assert result.total_fidelity == pytest.approx(1.0, abs=1e-10)


def test_reloaded_basis_gen_dead_branches_stay_below_the_floor():
    """A protocol file as 0.4.0 wrote it, its amplitudes rounded to 12 digits, still loads. The rounding
    lifts its dead branches (outcomes 100 to 111), exactly 0 in exact arithmetic, to probabilities of
    up to 9.69e-25 on these inputs: under PROB_FLOOR = 1e-24, so the reloaded protocol reports them dead."""
    rng = np.random.default_rng(0)
    messages = [haar_random_state(1, seed) for seed in range(5)]
    dead = []
    for seed in range(300):
        params = WLikeParams(*rng.uniform(-math.pi, math.pi, 3))
        for s in (haar_random_unitary(2, seed), HADAMARD):
            text = dumps_canonical(protocol_to_jsonable(basis_from_S(params, s)))
            loaded = protocol_from_jsonable(json.loads(text))
            dead += [o.probability for psi in messages for o in run_teleport(psi, loaded).outcomes[4:]]
    assert max(dead) < PROB_FLOOR


def outcome_bits(result):
    """Each outcome's label, probability bits and liveness, and the total fidelity's bits."""
    outcomes = [(o.label, float(o.probability).hex(), o.branch_fidelity is None) for o in result.outcomes]
    return outcomes, float(result.total_fidelity).hex()


PINNED_PARAMS = (2.45460152355, 0.300068645173, 1.59584366122)


@given(
    angles=st.tuples(*[st.floats(-2 * math.pi, 2 * math.pi)] * 3),
    s_seed=st.one_of(st.none(), st.integers(0, 2**32)),
    message_seed=st.integers(0, 2**32),
)
@example(angles=PINNED_PARAMS, s_seed=None, message_seed=0)
def test_a_reloaded_protocol_runs_as_the_protocol_it_was_written_from(angles, s_seed, message_seed):
    """A basis-gen file writes every float in full, so the loaded protocol runs outcome by outcome as
    the built one: the same liveness and the same probability bits (S = H when s_seed is None)."""
    s = HADAMARD if s_seed is None else haar_random_unitary(2, s_seed)
    protocol = basis_from_S(WLikeParams(*angles), s)
    loaded = protocol_from_jsonable(json.loads(dumps_canonical(protocol_to_jsonable(protocol), round_trip=True)))
    psi = haar_random_state(1, message_seed)
    assert outcome_bits(run_teleport(psi, loaded)) == outcome_bits(run_teleport(psi, protocol))


def test_the_pinned_basis_gen_file_keeps_outcome_100_dead(tmp_path):
    """Written with 12-digit amplitudes, this protocol's outcome 100 reloaded at probability 1.06e-24,
    above PROB_FLOOR, and printed a fidelity; written in full it reloads at the built 7.5e-33 and prints -."""
    path = tmp_path / "p.json"
    params = ",".join(repr(a) for a in PINNED_PARAMS)
    assert run_cli("basis-gen", "--params", params, "--S", "H", "--out", str(path)).returncode == 0
    proc = run_cli("teleport", "--protocol-file", str(path), "--theta", "0", "--phi", "0")
    assert proc.returncode == 0
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines() if line[:3] in ("100", "101")}
    assert rows["100"][1] == "-" and float(rows["100"][0]) < 1e-32


def test_round_trip_floats_are_their_shortest_repr():
    """With round_trip each float is written as repr writes it, a zero of either sign as 0.0 and a
    tiny negative with its sign; a non-finite float is refused as in the 12-digit form."""
    values = [0.1 + 0.2, -0.0, 0.0, -5e-324, 1e16, 1.5e-7, 123.0, 2.45460152355]
    text = dumps_canonical(values, round_trip=True)
    assert json.loads(text) == [v + 0.0 for v in values]
    assert "-0.0" not in text and "0.30000000000000004" in text and "-5e-324" in text
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dumps_canonical([bad], round_trip=True)


def test_protocol_from_jsonable_reports_missing_fields():
    with pytest.raises(ValueError, match="missing fields"):
        protocol_from_jsonable({"sharedState": {}})


def test_dumps_canonical_sorted_and_stable():
    payload = {"b": 1.0 / 3.0, "a": [1, 2]}
    text = dumps_canonical(payload)
    assert text == dumps_canonical({"a": [1, 2], "b": 1.0 / 3.0})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def rounded(obj):
    """obj with round12 applied to every float."""
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, list):
        return [rounded(item) for item in obj]
    if isinstance(obj, dict):
        return {key: rounded(value) for key, value in obj.items()}
    return obj


def reference_dumps(obj) -> str:
    return json.dumps(rounded(obj), sort_keys=True, indent=2) + "\n"


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, 1e308])
EDGE_TEXT = st.sampled_from(['say "hi"', "back\\slash", "\x00\x1f\t\n\x7f", "é ü ß", "\u2028 日本 \U0001f600"])
SCALARS = st.none() | st.booleans() | st.integers() | FINITE_FLOATS | EDGE_FLOATS | st.text() | EDGE_TEXT
KEYS = st.text() | EDGE_TEXT
# what the payloads hold: str-keyed dicts, lists, str, bool, None, int and finite float
JSON_TREES = st.recursive(
    SCALARS,
    lambda children: st.lists(children) | st.dictionaries(KEYS, children),
    max_leaves=25,
)


# where the 12-digit format's notation and repr's part ways: exponents 11, 12,
# 15 and 16, values that round up across a power of ten, the smallest normal
# double and its subnormal predecessor, and integral floats up to 2**53
NOTATION_EDGES = [
    1.5e11, 1.23456789012345e12, 9.87654321098765e15, 1.5e16, 999999999999.5, 9999999999999999.0,
    9.9999999999995e-5, 2.2250738585072014e-308, math.nextafter(2.2250738585072014e-308, 0.0),
    1.0, 100.0, 123456789012.0, 2.0**52, 2.0**53, -0.0,
]


class FloatSubclass(float):
    pass


class ListSubclass(list):
    pass


class DictSubclass(dict):
    pass


@given(JSON_TREES)
@example([])
@example({})
@example({"a": [], "b": {}})
@example([-0.0, 5e-324, 1e308, 1 / 3, 0.1 + 0.2, True, False, None, 0, -(10**30)])
@example(NOTATION_EDGES)
@example([[x, -x] for x in NOTATION_EDGES])
@example({"re-im": [1 / 3, 2.0**53], "scalar": 999999999999.5, "mixed": [1.5e16, 1]})
@example(ListSubclass([FloatSubclass(1 / 3), DictSubclass(b=[FloatSubclass(1e12), 2.5])]))
def test_dumps_canonical_is_json_dumps_sorted_and_indented(obj):
    assert dumps_canonical(obj) == reference_dumps(obj)


@given(FINITE_FLOATS | st.floats(-1e-300, 1e-300) | st.floats(-1e17, 1e17))
@example(5e-324)
@example(-5e-324)
@example(1.7976931348623157e308)
@example(1e-308)
@example(1.23456789012345e12)
@example(999999999999.5)
@example(9.9999999999995e-5)
@example(2.0**53)
@example(-0.0)
def test_float_text_is_repr_of_the_12_digit_rounding(x):
    assert _float_text(x) == float.__repr__(round12(x))


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, FloatSubclass(math.nan)])
def test_float_text_refuses_non_finite_floats(x):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        _float_text(x)


@given(FINITE_FLOATS)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(9.9999999999995e-5)
def test_round12_is_idempotent(x):
    # so the encoder's rounding keeps the bytes of a value that was rounded before
    assert round12(round12(x)) == round12(x)


@pytest.mark.parametrize(
    ("obj", "text"),
    [
        (-0.0, "0.0\n"),
        ([-0.0, -0.0], "[\n  0.0,\n  0.0\n]\n"),
        ([-0.0, 2, -0.0], "[\n  0.0,\n  2,\n  0.0\n]\n"),
        ({"a": -0.0}, '{\n  "a": 0.0\n}\n'),
    ],
    ids=["top-level", "re-im pair", "list", "dict value"],
)
def test_dumps_canonical_prints_negative_zero_as_zero(obj, text):
    assert dumps_canonical(obj) == text


@pytest.mark.parametrize(
    "obj",
    [object(), 1j, np.int64(3), {1, 2}, b"bytes", [1, {"a": object()}], {(1, 2): 3}, {"a": {1j: 2}}],
    ids=["object", "complex", "np.int64", "set", "bytes", "nested", "tuple-key", "complex-key"],
)
def test_dumps_canonical_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        reference_dumps(obj)
    with pytest.raises(TypeError):
        dumps_canonical(obj)


@pytest.mark.parametrize(
    ("obj", "error"),
    [
        (math.nan, ValueError),
        (math.inf, ValueError),
        ([1.0, {"a": -math.inf}], ValueError),
        ((1, 2), TypeError),
        ({1: 2}, TypeError),
        ({1.5: 2}, TypeError),
        ({True: 2}, TypeError),
        ({None: 2}, TypeError),
        ({"a": 1, 2: 3}, TypeError),
    ],
    ids=["nan", "inf", "nested-minus-inf", "tuple", "int-key", "float-key", "bool-key", "none-key", "mixed-keys"],
)
def test_dumps_canonical_rejects_what_json_writes_but_no_payload_holds(obj, error):
    with pytest.raises(error):
        dumps_canonical(obj)


def test_report_jsonable_has_contractual_fields():
    report = build_feasibility_report(make_named_state("w"), "w", scan_trials=3, seed=0)
    payload = report_to_jsonable(report, state_input_hash(make_named_state("w")))
    for key in (
        "stateLabel",
        "bobReducedState",
        "entropyBits",
        "entropyVerdict",
        "sumRuleRow0",
        "sumRuleRow1",
        "sumRuleBalanced",
        "scanTrials",
        "scanFeasibleCount",
        "componentwiseDisentangler",
        "schmidtDisentangler",
        "toolkitVersion",
        "inputHash",
    ):
        assert key in payload
    assert payload["componentwiseDisentangler"]["unitary"] is None
    assert payload["schmidtDisentangler"]["alphaEntropy"] == pytest.approx(0.918296, abs=1e-6)
    # hash is stable for the same input state
    assert payload["inputHash"] == state_input_hash(make_named_state("w"))


def test_state_hash_distinguishes_states():
    assert state_input_hash(make_named_state("w")) != state_input_hash(make_named_state("ghz"))


def test_state_hash_ignores_the_sign_of_zero():
    """The hash reads the printed text, where -0.0 is 0.0."""
    amps = make_named_state("w").amplitudes
    signed = amps.copy()
    signed.view(float)[amps.view(float) == 0.0] = -0.0
    assert np.signbit(signed.view(float)).any()
    assert state_input_hash(PureState(3, signed)) == state_input_hash(PureState(3, amps))


def test_protocol_jsonable_amplitude_precision():
    protocol = w_like_protocol(WLikeParams(0.3, 1.0, -2.0))
    data = protocol_to_jsonable(protocol)
    shared = state_from_jsonable(data["sharedState"])
    assert np.max(np.abs(shared.amplitudes - protocol.shared.amplitudes)) <= 1e-11


# what README "JSON formats" says a state at the qubit cap can make a command allocate
CAP_BOUND_BYTES = 512 * 10**6


def scan_trial_bytes(n_qubits: int) -> int:
    """README's bytes per trial of a scan's chunk, 20d complex numbers for d = 2**n: five (d, 4) arrays.
    The draw holds about three at once (the Gaussians, the copy that QR factors, and Q, phased in
    place); the verdicts, the peak, hold the branch operators and about 3.8 more in
    scale_and_deviation's temporaries."""
    return 20 * 2**n_qubits * 16


def scan_bytes(n_qubits: int) -> int:
    """The bytes a scan over n qubits holds at most: one chunk's trials."""
    return SCAN_CHUNK * scan_trial_bytes(n_qubits)


def test_qubit_cap_bounds_the_scan_workspace_and_the_haar_draw():
    """Evaluated, never allocated: up to the cap a scan (README's formula) and the Gaussians of
    haar_random_unitary (2·d² floats) stay under README's bound. A scan draws d x 4 isometries, so
    a chunk grows with d, not d², and SCAN_CHUNK trials at the cap take 10.5 MB."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert f"`nQubits` is at most {MAX_QUBITS}" in readme and f"{CAP_BOUND_BYTES // 10**6} MB" in readme
    assert all(scan_bytes(n) < CAP_BOUND_BYTES for n in range(3, MAX_QUBITS + 1))
    assert scan_bytes(MAX_QUBITS) == 10_485_760
    assert 2 * (2**MAX_QUBITS) ** 2 * 8 < CAP_BOUND_BYTES
    assert MAX_QUBITS >= 6  # W⊗W


def one_chunk_scan_peaks(n_qubits: int) -> list[int]:
    """The tracemalloc peaks of a one-chunk W_n scan at SCAN_TOL and at 0.3."""
    amplitudes = np.zeros(2**n_qubits, dtype=complex)
    amplitudes[[2**k for k in range(n_qubits)]] = n_qubits**-0.5
    shared = PureState(n_qubits, amplitudes)
    peaks = []
    for tol in (SCAN_TOL, 0.3):
        haar_scan(shared, 1, 0, tol=tol)  # numpy's first calls build caches
        tracemalloc.start()
        try:
            haar_scan(shared, SCAN_CHUNK, 1, tol=tol)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_a_six_qubit_scan_peaks_under_the_formula():
    """2.50 MB at both tolerances, against the formula's 2.62 MB."""
    assert all(peak < scan_bytes(6) for peak in one_chunk_scan_peaks(6))


def test_a_scan_at_the_qubit_cap_peaks_under_the_formula():
    """10.0 MB at both tolerances, against the formula's 10.5 MB."""
    assert all(peak < scan_bytes(MAX_QUBITS) for peak in one_chunk_scan_peaks(MAX_QUBITS))


def test_the_qubit_cap_holds_at_the_json_boundary_only():
    def ket_zero(n_qubits):
        return {"nQubits": n_qubits, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * (2**n_qubits - 1)}

    assert state_from_jsonable(ket_zero(MAX_QUBITS)).n_qubits == MAX_QUBITS
    with pytest.raises(ValueError, match=f"^nQubits must be at most {MAX_QUBITS}, got {MAX_QUBITS + 1}$"):
        state_from_jsonable(ket_zero(MAX_QUBITS + 1))
    # checked before the amplitudes, which are not even read
    with pytest.raises(ValueError, match="^nQubits must be at most"):
        state_from_jsonable({"nQubits": 40, "amplitudes": None})
    amplitudes = np.zeros(2 ** (MAX_QUBITS + 1), dtype=complex)
    amplitudes[0] = 1.0
    assert PureState(MAX_QUBITS + 1, amplitudes).n_qubits == MAX_QUBITS + 1
