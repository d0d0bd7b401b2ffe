"""JSON wire formats: states, operators, protocols, and feasibility reports.

The `*_to_jsonable` functions build trees of plain Python values at full
precision; only the encoder, `dumps_canonical`, decides their bytes. It sorts
keys and rounds every float of a report to 12 significant digits as it writes
it, and writes every float of a file that is read back, a protocol, as its
shortest round trip, so identical inputs serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .feasibility import FeasibilityReport
from .linalg import ATOL, max_abs, qubit_count
from .protocols import MeasurementBasis, TeleportProtocol
from .states import DensityMatrix, PureState, check_qubit_count


# the most qubits a JSON state may declare, so no command allocates more than 512 MB for it (README "JSON formats")
MAX_QUBITS = 8


def round12(x: float) -> float:
    """Round to 12 significant digits, -0.0 to 0.0; shortest-round-trip printing does the rest.
    Idempotent on finite doubles, so rounding an already rounded value keeps its bytes."""
    return float(f"{float(x):.12g}") + 0.0


def _cut(text: str) -> str:
    """text, each character repr escapes (a newline, a control character) escaped as repr escapes it, cut
    after 40 characters, so an error stays one short line; escaping never shrinks, so 41 characters decide."""
    text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in text[:41])
    return text if len(text) <= 40 else text[:40] + "..."


def _echo(value) -> str:
    """repr(value), cut as _cut cuts."""
    return _cut(repr(value))


def json_number(value) -> float:
    """A JSON number read as a float: an int or a float, never a bool or a string."""
    if type(value) not in (int, float):  # bool is a subclass of int
        raise ValueError(f"expected a JSON number, got {_echo(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("JSON integer too large for a float") from None


def json_complex(pair) -> complex:
    """An [re, im] pair of JSON numbers read as a complex number."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected an [re, im] pair, got {_echo(pair)}")
    re, im = pair
    if type(re) is float and type(im) is float:  # json_number would return them as they are
        return complex(re, im)
    return complex(json_number(re), json_number(im))


def json_entry(value) -> complex:
    """An --S entry: a JSON number or an [re, im] pair of them."""
    return json_complex(value) if isinstance(value, list) else complex(json_number(value))


def json_array(data, what: str, entry=json_complex, rows: bool = False, malformed: str = "") -> np.ndarray:
    """A JSON list of entries, or with `rows` a list of rows of equal length, each entry read by `entry`.
    Rows are read in order, each checked to be a list, before their lengths are compared; every matrix
    the wire format holds is 2x2. Each error is one line, and starts with `malformed`."""
    try:
        if not isinstance(data, list):
            raise ValueError(f"{what} must be a JSON list{' of rows' if rows else ''}")
        if not rows:
            return np.array([entry(value) for value in data])
        matrix = []
        for row in data:
            if not isinstance(row, list):
                raise ValueError(f"{what} must be a JSON list of rows")
            matrix.append([entry(value) for value in row])
    except ValueError as exc:
        raise ValueError(f"{malformed}{exc}") from None
    try:
        return np.array(matrix)
    except ValueError:  # rows of unequal lengths, which numpy refuses with an error that names no input
        low, *_, high = sorted(map(len, matrix))  # two rows at least, or numpy would not refuse them
    raise ValueError(f"{malformed}{what} must be 2x2, got {len(matrix)} rows of lengths {low} to {high}")


def _amplitudes_to_jsonable(amplitudes: np.ndarray) -> dict:
    return {"nQubits": qubit_count(amplitudes.size), "amplitudes": [[z.real, z.imag] for z in amplitudes.tolist()]}


def state_to_jsonable(state: PureState) -> dict:
    return _amplitudes_to_jsonable(state.amplitudes)


def _state_fields(data: dict) -> tuple[int, np.ndarray]:
    """nQubits and amplitudes of a state object, checked as PureState checks them but for the unit norm."""
    if not isinstance(data, dict) or "nQubits" not in data or "amplitudes" not in data:
        raise ValueError("state object must have nQubits and amplitudes fields")
    n_qubits = data["nQubits"]
    if type(n_qubits) is not int:  # rejects bool, float and string, never truncates
        raise ValueError(f"nQubits must be an integer, got {_echo(n_qubits)}")
    if n_qubits > MAX_QUBITS:  # before any amplitude is read
        raise ValueError(f"nQubits must be at most {MAX_QUBITS}, got {_echo(n_qubits)}")
    amps = json_array(data["amplitudes"], "amplitudes", malformed="malformed state object: ")
    return check_qubit_count(n_qubits, amps.size), amps


def state_from_jsonable(data: dict) -> PureState:
    return PureState(*_state_fields(data))


def operator_to_jsonable(op: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.asarray(op, dtype=complex).tolist()]


def operator_from_jsonable(data, what: str) -> np.ndarray:
    return json_array(data, what, rows=True, malformed="malformed operator entries: ")


def matrix_to_jsonable(matrix: DensityMatrix) -> dict:
    return {"nQubits": matrix.n_qubits, "matrix": operator_to_jsonable(matrix.matrix)}


def protocol_to_jsonable(protocol: TeleportProtocol) -> dict:
    return {
        "sharedState": state_to_jsonable(protocol.shared),
        "basisElements": [_amplitudes_to_jsonable(row) for row in protocol.basis.rows],
        "corrections": [operator_to_jsonable(u) for u in protocol.corrections],
        "coefficients": protocol.coefficients.tolist(),
    }


def protocol_from_jsonable(data: dict) -> TeleportProtocol:
    """Load a protocol; its coefficients must match the ones derived from it."""
    required = ("sharedState", "basisElements", "corrections", "coefficients")
    if not isinstance(data, dict):
        raise ValueError("protocol must be a JSON object")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"protocol object is missing fields: {', '.join(missing)}")
    not_lists = [key for key in required[1:] if not isinstance(data[key], list)]
    if not_lists:
        raise ValueError(f"protocol fields must be lists: {', '.join(not_lists)}")
    coefficients = json_array(data["coefficients"], "coefficients", json_number, malformed="malformed coefficients: ")
    shared = state_from_jsonable(data["sharedState"])
    rows = [_state_fields(e)[1] for e in data["basisElements"]]
    if len({row.size for row in rows}) > 1:
        raise ValueError("basis elements must share a qubit count")
    # built before the corrections are read, so a basis error is reported first; its Gram check covers the norms
    basis = MeasurementBasis(np.array(rows))
    corrections = [operator_from_jsonable(u, f"correction {k}") for k, u in enumerate(data["corrections"])]
    protocol = TeleportProtocol(shared=shared, basis=basis, corrections=corrections)
    derived = protocol.coefficients
    # `not <=` also rejects NaN
    if coefficients.shape != derived.shape or not max_abs(coefficients - derived) <= ATOL:
        derived_text = ", ".join(f"{c:.12g}" for c in derived)
        raise ValueError(f"coefficients differ from the derived branch magnitudes [{derived_text}]")
    return protocol


def report_to_jsonable(report: FeasibilityReport, input_hash: str) -> dict:
    comp = report.componentwise
    componentwise = {
        "exists": comp.unitary is not None,
        "unitary": None if comp.unitary is None else operator_to_jsonable(comp.unitary),
        "residualState": None if comp.residual is None else state_to_jsonable(comp.residual),
    }
    schmidt = {
        "unitary": operator_to_jsonable(report.schmidt.unitary),
        "alphaSchmidt": report.schmidt.coefficients.tolist(),
        "alphaEntropy": report.entropy_bits,
        "residualState": state_to_jsonable(report.schmidt.residual),
    }
    return {
        "stateLabel": report.state_label,
        "bobReducedState": matrix_to_jsonable(report.bob_reduced_state),
        "entropyBits": report.entropy_bits,
        "entropyVerdict": report.entropy_feasible,
        "sumRuleRow0": report.sum_rule_row0,
        "sumRuleRow1": report.sum_rule_row1,
        "sumRuleBalanced": report.sum_rule_balanced,
        "scanTrials": report.scan.trials,
        "scanFeasibleCount": report.scan.feasible_count,
        "scanMaxPassingBranches": report.scan.max_passing_branches,
        "componentwiseDisentangler": componentwise,
        "schmidtDisentangler": schmidt,
        "toolkitVersion": __version__,
        "inputHash": input_hash,
    }


def _float_text(x: float) -> str:
    """float.__repr__(round12(x)) from one format. The digits of f"{x:.12g}"
    are already the shortest round trip of round12(x), since two distinct
    decimals of at most 12 digits never round to one normal double; only the
    notation can differ from repr's, and -0.0 prints as round12's 0.0."""
    text = float.__format__(x, ".12g")
    if "e" in text:
        exponent = int(text[text.index("e") + 1 :])
        # repr writes 1e12 to 1e16 (exclusive) in full, and a subnormal can keep fewer digits
        if 12 <= exponent <= 15 or exponent <= -308:
            return float.__repr__(float(text))
        return text
    if "." in text:
        return text
    if text[-1].isdigit():
        return "0.0" if text == "-0" else text + ".0"
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")


def _repr_text(x: float) -> str:
    """float.__repr__(x), the shortest round trip of x, -0.0 as 0.0; a non-finite x fails as in _float_text."""
    return float.__repr__(x + 0.0) if -math.inf < x < math.inf else _float_text(x)


def _write_json(obj, indent: str, out: list, number=_float_text) -> None:
    """Append to `out` the text of obj, each float written by `number`; `indent`
    is a newline and the indentation of obj's own level."""
    kind = type(obj)
    if kind is float:  # first: floats are most of every payload
        out.append(number(obj))
    elif kind is list or isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        if len(obj) == 2 and type(obj[0]) is float and type(obj[1]) is float:  # an [re, im] pair
            out.append(f"[{inner}{number(obj[0])},{inner}{number(obj[1])}{indent}]")
            return
        separator, comma = "[" + inner, "," + inner
        for item in obj:
            out.append(separator)
            _write_json(item, inner, out, number)
            separator = comma
        out.append(indent + "]")
    elif kind is dict or isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        separator, comma = "{" + inner, "," + inner
        # keys of mixed types fail the sort with a TypeError of their own
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _write_json(value, inner, out, number)
            separator = comma
        out.append(indent + "}")
    elif isinstance(obj, float):
        out.append(number(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def dumps_canonical(obj, round_trip: bool = False) -> str:
    """The one place that decides JSON bytes: sorted keys, an indent of 2,
    every float rounded to 12 significant digits, and a closing newline; with
    `round_trip`, for a file that is read back, every float in full instead.

    `obj` is a tree of str-keyed dicts, lists, str, bool, None, int and finite
    float; the text is json.dumps(obj with round12, or with `round_trip` x + 0.0,
    applied to each float x, sort_keys=True, indent=2) + "\n", written in one pass. A non-finite float
    is a ValueError and anything else (a tuple, a non-str key, a numpy integer)
    a TypeError; no CLI payload holds either. A container that holds itself
    recurses until RecursionError."""
    out: list[str] = []
    _write_json(obj, "\n", out, _repr_text if round_trip else _float_text)
    out.append("\n")
    return "".join(out)


def state_input_hash(state: PureState) -> str:
    return hashlib.sha256(dumps_canonical(state_to_jsonable(state)).encode()).hexdigest()
