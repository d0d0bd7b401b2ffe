import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from teleport3q.feasibility import build_feasibility_report
from teleport3q.protocols import basis_from_S, run_teleport, w_like_protocol
from teleport3q.serialize import (
    _float_text,
    dumps_canonical,
    protocol_from_jsonable,
    protocol_to_jsonable,
    report_to_jsonable,
    round12,
    state_from_jsonable,
    state_input_hash,
    state_to_jsonable,
)
from teleport3q.states import WLikeParams, bloch_qubit, fidelity, make_named_state

from teleport3q.linalg import HADAMARD


def test_round12():
    assert round12(1 / 3) == 0.333333333333
    assert round12(1.0) == 1.0


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


def test_protocol_jsonable_amplitude_precision():
    protocol = w_like_protocol(WLikeParams(0.3, 1.0, -2.0))
    data = protocol_to_jsonable(protocol)
    shared = state_from_jsonable(data["sharedState"])
    assert np.max(np.abs(shared.amplitudes - protocol.shared.amplitudes)) <= 1e-11
