"""JSON wire formats: states, operators, protocols, and feasibility reports.

The `*_to_jsonable` functions build trees of plain Python values at full
precision; only the encoder, `dumps_canonical`, decides their bytes. It sorts
keys and rounds every float to 12 significant digits as it writes it, so
identical inputs serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .feasibility import FeasibilityReport
from .linalg import ATOL, max_abs, qubit_count
from .protocols import MeasurementBasis, TeleportProtocol
from .states import DensityMatrix, PureState, check_qubit_count


def round12(x: float) -> float:
    """Round to 12 significant digits; shortest-round-trip printing does the rest.
    Idempotent on finite doubles, so rounding an already rounded value keeps its bytes."""
    return float(f"{float(x):.12g}")


def _echo(value) -> str:
    """repr(value) cut after 40 characters, so an error line stays short."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


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


def _amplitudes_to_jsonable(amplitudes: np.ndarray) -> dict:
    return {"nQubits": qubit_count(amplitudes.size), "amplitudes": [[z.real, z.imag] for z in amplitudes.tolist()]}


def state_to_jsonable(state: PureState) -> dict:
    return _amplitudes_to_jsonable(state.amplitudes)


def _state_fields(data: dict) -> tuple[int, np.ndarray]:
    """nQubits and amplitudes of a state object, parsed but not yet checked against each other."""
    if not isinstance(data, dict) or "nQubits" not in data or "amplitudes" not in data:
        raise ValueError("state object must have nQubits and amplitudes fields")
    n_qubits = data["nQubits"]
    if type(n_qubits) is not int:  # rejects bool, float and string, never truncates
        raise ValueError(f"nQubits must be an integer, got {_echo(n_qubits)}")
    try:
        amps = np.array([json_complex(pair) for pair in data["amplitudes"]])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed state object: {exc}") from exc
    return n_qubits, amps


def state_from_jsonable(data: dict) -> PureState:
    return PureState(*_state_fields(data))


def _basis_row_from_jsonable(data: dict) -> np.ndarray:
    """The amplitudes of a basis element, checked as PureState checks a
    state's but for the unit norm, which MeasurementBasis decides."""
    n_qubits, amps = _state_fields(data)
    check_qubit_count(n_qubits, amps.size)
    return amps


def operator_to_jsonable(op: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.asarray(op, dtype=complex).tolist()]


def operator_from_jsonable(data) -> np.ndarray:
    try:
        return np.array([[json_complex(pair) for pair in row] for row in data])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed operator entries: {exc}") from exc


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
    try:
        coefficients = np.array([json_number(c) for c in data["coefficients"]])
    except ValueError as exc:
        raise ValueError(f"malformed coefficients: {exc}") from exc
    shared = state_from_jsonable(data["sharedState"])
    rows = [_basis_row_from_jsonable(e) for e in data["basisElements"]]
    if len({row.size for row in rows}) > 1:
        raise ValueError("basis elements must share a qubit count")
    # the rows' norms are the diagonal of the basis's Gram check; built
    # before the corrections are parsed, so a basis error is reported first
    basis = MeasurementBasis(np.array(rows))
    corrections = [operator_from_jsonable(u) for u in data["corrections"]]
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
        "exists": comp.exists,
        "unitary": None if comp.unitary is None else operator_to_jsonable(comp.unitary),
        "residualState": None if comp.residual is None else state_to_jsonable(comp.residual),
    }
    schmidt = {
        "unitary": operator_to_jsonable(report.schmidt.unitary),
        "alphaSchmidt": report.schmidt.coefficients.tolist(),
        "alphaEntropy": report.schmidt.residual_entropy,
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
    notation can differ from repr's."""
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
        return text + ".0"
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")


def _write_json(obj, indent: str, out: list) -> None:
    """Append to `out` the text of obj, its floats rounded by round12; `indent`
    is a newline and the indentation of obj's own level."""
    kind = type(obj)
    if kind is float:  # first: floats are most of every payload
        out.append(_float_text(obj))
    elif kind is list or isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        if len(obj) == 2 and type(obj[0]) is float and type(obj[1]) is float:  # an [re, im] pair
            out.append(f"[{inner}{_float_text(obj[0])},{inner}{_float_text(obj[1])}{indent}]")
            return
        separator, comma = "[" + inner, "," + inner
        for item in obj:
            out.append(separator)
            _write_json(item, inner, out)
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
            _write_json(value, inner, out)
            separator = comma
        out.append(indent + "}")
    elif isinstance(obj, float):
        out.append(_float_text(obj))
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


def dumps_canonical(obj) -> str:
    """The one place that decides JSON bytes: sorted keys, an indent of 2,
    every float rounded to 12 significant digits, and a closing newline.

    `obj` is a tree of str-keyed dicts, lists, str, bool, None, int and finite
    float; the text is json.dumps(obj with round12 applied to each float,
    sort_keys=True, indent=2) + "\n", written in one pass. A non-finite float
    is a ValueError and anything else (a tuple, a non-str key, a numpy integer)
    a TypeError; no CLI payload holds either. A container that holds itself
    recurses until RecursionError."""
    out: list[str] = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def state_input_hash(state: PureState) -> str:
    return hashlib.sha256(dumps_canonical(state_to_jsonable(state)).encode()).hexdigest()
