"""JSON wire formats: states, operators, protocols, and feasibility reports.

All floats are rounded to 12 significant digits before encoding and keys are
sorted, so identical inputs serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from . import __version__
from .feasibility import FeasibilityReport
from .linalg import ATOL, max_abs, qubit_count
from .protocols import MeasurementBasis, TeleportProtocol
from .states import DensityMatrix, PureState


def round12(x: float) -> float:
    """Round to 12 significant digits; shortest-round-trip printing does the rest."""
    return float(f"{float(x):.12g}")


def _pair(z: complex) -> list[float]:
    return [round12(z.real), round12(z.imag)]


def _amplitudes_to_jsonable(amplitudes: np.ndarray) -> dict:
    return {"nQubits": qubit_count(amplitudes.size), "amplitudes": [_pair(z) for z in amplitudes]}


def state_to_jsonable(state: PureState) -> dict:
    return _amplitudes_to_jsonable(state.amplitudes)


def state_from_jsonable(data: dict) -> PureState:
    if not isinstance(data, dict) or "nQubits" not in data or "amplitudes" not in data:
        raise ValueError("state object must have nQubits and amplitudes fields")
    n_qubits = data["nQubits"]
    if type(n_qubits) is not int:  # rejects bool, float and string, never truncates
        raise ValueError(f"nQubits must be an integer, got {n_qubits!r}")
    try:
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed state object: {exc}") from exc
    return PureState(n_qubits, amps)


def operator_to_jsonable(op: np.ndarray) -> list:
    return [[_pair(complex(z)) for z in row] for row in np.asarray(op, dtype=complex)]


def operator_from_jsonable(data) -> np.ndarray:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in data])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed operator entries: {exc}") from exc


def matrix_to_jsonable(matrix: DensityMatrix) -> dict:
    return {"nQubits": matrix.n_qubits, "matrix": operator_to_jsonable(matrix.matrix)}


def protocol_to_jsonable(protocol: TeleportProtocol) -> dict:
    return {
        "sharedState": state_to_jsonable(protocol.shared),
        "basisElements": [_amplitudes_to_jsonable(row) for row in protocol.basis.rows],
        "corrections": [operator_to_jsonable(u) for u in protocol.corrections],
        "coefficients": [round12(c) for c in protocol.coefficients],
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
        coefficients = np.array([float(c) for c in data["coefficients"]])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed coefficients: {exc}") from exc
    shared = state_from_jsonable(data["sharedState"])
    rows = [state_from_jsonable(e).amplitudes for e in data["basisElements"]]
    if len({row.size for row in rows}) > 1:
        raise ValueError("basis elements must share a qubit count")
    protocol = TeleportProtocol(
        shared=shared,
        basis=MeasurementBasis(np.array(rows)),
        corrections=tuple(operator_from_jsonable(u) for u in data["corrections"]),
    )
    derived = protocol.coefficients
    # `not <=` also rejects NaN
    if coefficients.shape != derived.shape or not max_abs(coefficients - derived) <= ATOL:
        derived_text = ", ".join(f"{c:.12g}" for c in derived)
        raise ValueError(f"coefficients differ from the derived branch magnitudes [{derived_text}]")
    return protocol


def report_to_jsonable(report: FeasibilityReport, input_hash: str) -> dict:
    componentwise = {
        "exists": report.componentwise.exists,
        "unitary": (
            operator_to_jsonable(report.componentwise.unitary)
            if report.componentwise.unitary is not None
            else None
        ),
        "residualState": (
            state_to_jsonable(report.componentwise.residual)
            if report.componentwise.residual is not None
            else None
        ),
    }
    schmidt = {
        "unitary": operator_to_jsonable(report.schmidt.unitary),
        "alphaSchmidt": [round12(c) for c in report.schmidt.coefficients],
        "alphaEntropy": round12(report.schmidt.residual_entropy),
        "residualState": state_to_jsonable(report.schmidt.residual),
    }
    return {
        "stateLabel": report.state_label,
        "bobReducedState": matrix_to_jsonable(report.bob_reduced_state),
        "entropyBits": round12(report.entropy_bits),
        "entropyVerdict": report.entropy_feasible,
        "sumRuleRow0": round12(report.sum_rule_row0),
        "sumRuleRow1": round12(report.sum_rule_row1),
        "sumRuleBalanced": report.sum_rule_balanced,
        "scanTrials": report.scan.trials,
        "scanFeasibleCount": report.scan.feasible_count,
        "scanMaxPassingBranches": report.scan.max_passing_branches,
        "componentwiseDisentangler": componentwise,
        "schmidtDisentangler": schmidt,
        "toolkitVersion": __version__,
        "inputHash": input_hash,
    }


def dumps_canonical(obj) -> str:
    """Fixed field order and separators; ends with a newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def state_input_hash(state: PureState) -> str:
    return hashlib.sha256(dumps_canonical(state_to_jsonable(state)).encode()).hexdigest()
