"""Feasibility of perfect teleportation for a shared 3-qubit state.

Four independent diagnostics are provided: the branch-operator
proportional-unitarity test, the basis-independent sum rule on the
receiver's reduced state, the entanglement-entropy criterion (one full ebit
is necessary and sufficient when the receiver holds a single qubit), and two
disentangler constructions on the sender's qubit pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ZERO_ATOL, complete_orthonormal, haar_unitaries, schmidt_decompose
from .protocols import (
    MeasurementBasis, branch_operators, branch_tensor, check_basis_qubits, check_trials, scale_and_deviation
)
from .states import DensityMatrix, PureState, entanglement_entropy, partial_trace, shannon_entropy, trusted

__all__ = [
    "DisentanglerResult",
    "FeasibilityReport",
    "ScanResult",
    "SchmidtDisentangler",
    "UnitarityVerdict",
    "build_feasibility_report",
    "componentwise_disentangler",
    "entropy_criterion",
    "haar_scan",
    "protocol_feasible",
    "schmidt_disentangler",
    "unitarity_verdict",
]

ENTROPY_ATOL = 1e-9
SUM_RULE_ATOL = 1e-9
SCAN_TOL = 1e-8
# Trials per batched kernel call in haar_scan. Larger chunks only raise peak
# memory, at the same speed: on a 2-CPU machine a process running an
# 8 000-trial W scan peaks at 36.1 MB with 64, 37.7 MB with 256 and 61.7 MB
# with 4 096.
SCAN_CHUNK = 64


@dataclass(frozen=True)
class UnitarityVerdict:
    """Whether T†T = TT† = scale * I within tolerance; scale is tr(T†T)/2."""

    is_proportional_unitary: bool
    scale: float
    deviation: float


@dataclass(frozen=True)
class DisentanglerResult:
    """Outcome of the componentwise sender-side disentangler search."""

    exists: bool
    unitary: np.ndarray | None
    residual: PureState | None


@dataclass(frozen=True)
class SchmidtDisentangler:
    """Always-constructible disentangler from the sender-pair Schmidt vectors."""

    unitary: np.ndarray
    residual: PureState
    coefficients: np.ndarray
    residual_entropy: float


@dataclass(frozen=True)
class ScanResult:
    trials: int
    feasible_count: int
    max_passing_branches: int
    tolerance: float
    injected: bool


@dataclass(frozen=True)
class FeasibilityReport:
    state_label: str
    bob_reduced_state: DensityMatrix
    entropy_bits: float
    entropy_feasible: bool
    sum_rule_row0: float
    sum_rule_row1: float
    sum_rule_balanced: bool
    scan: ScanResult
    componentwise: DisentanglerResult
    schmidt: SchmidtDisentangler


def unitarity_verdict(t: np.ndarray, tol: float) -> UnitarityVerdict:
    """Test proportionality to a unitary; the zero operator passes with scale 0.

    Accepting T = 0 reconciles the strictly-positive-scale requirement with
    legitimate protocols whose dead branches carry no probability.
    """
    scale, deviation = scale_and_deviation(t)
    return UnitarityVerdict(bool(deviation <= tol), float(scale), float(deviation))


def protocol_feasible(
    basis: MeasurementBasis, shared: PureState, tol: float
) -> tuple[bool, tuple[UnitarityVerdict, ...]]:
    """True iff every branch operator is proportional to a unitary at tol."""
    verdicts = tuple(unitarity_verdict(t, tol) for t in branch_operators(basis, shared).ops)
    return all(v.is_proportional_unitary for v in verdicts), verdicts


def _entropy_verdict(rho_b: DensityMatrix) -> tuple[float, bool]:
    entropy = entanglement_entropy(rho_b)
    return entropy, abs(entropy - 1.0) <= ENTROPY_ATOL


def entropy_criterion(shared: PureState) -> tuple[float, bool]:
    """Entropy in bits of the receiver's reduced state; feasible iff exactly one ebit."""
    return _entropy_verdict(bob_reduced_state(shared))


def bob_reduced_state(shared: PureState) -> DensityMatrix:
    return partial_trace(shared.density(), keep=(shared.n_qubits - 1,))


def componentwise_disentangler(shared: PureState) -> DisentanglerResult:
    """Permutation-style unitary on the sender pair, when the support allows one.

    Collects the sender-pair kets carrying amplitude above ZERO_ATOL (separating
    exact zeros from rounding noise). At most two distinct kets can be mapped
    into |0> (x) {|0>, |1>}; three or more orthonormal preimages cannot fit in
    a two-dimensional slice of a unitary, so the construction fails.
    """
    if shared.n_qubits != 3:
        raise ValueError("disentangler expects a 3-qubit shared state")
    amps = shared.amplitudes.reshape(4, 2)
    support = np.flatnonzero(np.abs(amps).max(axis=1) > ZERO_ATOL).tolist()
    if len(support) > 2:
        return DisentanglerResult(False, None, None)
    order = support + [a for a in range(4) if a not in support]
    unitary = np.eye(4, dtype=complex)[order]
    # the product, not amps[order[:2]]: adding its zero terms turns each -0.0
    # part into the 0.0 that the pinned outputs print
    residual = (unitary @ amps)[:2].reshape(-1)
    residual = residual / np.linalg.norm(residual)
    return DisentanglerResult(True, unitary, trusted(PureState, n_qubits=2, amplitudes=residual))


def schmidt_disentangler(shared: PureState) -> SchmidtDisentangler:
    """Disentangler built from the sender-pair Schmidt vectors; always exists.

    The unitary sends the (at most two) left Schmidt vectors to |00> and
    |01>, completed deterministically over computational kets. The residual
    pair state carries exactly the shared state's bipartite entanglement,
    since the construction acts on the sender side only.
    """
    if shared.n_qubits != 3:
        raise ValueError("disentangler expects a 3-qubit shared state")
    form = schmidt_decompose(shared.amplitudes, cut_qubits=(0, 1))
    # a (4 x 2) state has two Schmidt terms, filling both halves, of the checked state's norm
    residual = (form.coefficients[:, None] * form.right_factors).reshape(-1)
    return SchmidtDisentangler(
        unitary=complete_orthonormal(form.left_factors.conj(), 4),
        residual=trusted(PureState, n_qubits=2, amplitudes=residual),
        coefficients=form.coefficients.copy(),
        residual_entropy=shannon_entropy(form.coefficients**2),
    )


def haar_scan(
    shared: PureState,
    trials: int,
    seed: int,
    inject: MeasurementBasis | None = None,
    tol: float = SCAN_TOL,
) -> ScanResult:
    """Feasibility search over Haar-random measurement bases.

    Trial i measures in the i-th Haar unitary drawn in sequence from
    default_rng(seed), so trial 0 is haar_random_unitary(dim, seed), the basis
    `haar:seed` names, and the result does not depend on SCAN_CHUNK. When
    `inject` is given its rows overwrite trial 0's drawn basis, a positive
    control; trial 0's Gaussians are still drawn, so every other trial keeps its
    draw. The scan tolerance is looser than construction tolerances because
    random bases miss proportional-unitarity by O(1), not by rounding.

    Trials run in chunks of SCAN_CHUNK as one array computation: one
    standard_normal call and one batched QR give a chunk's rows, one
    contraction of their conjugates its branch operators, and
    scale_and_deviation its closed-form verdicts. Nothing is re-checked per
    chunk: QR rows are orthonormal to a few ulps (a test pins it), `inject` is
    a checked MeasurementBasis and `shared` a checked PureState, so the
    branch families are complete. An injected basis must act on as many
    qubits as `shared`, which is checked before any draw.

    One stream cannot be split: a Gaussian takes a varying number of the
    generator's words, so trial i's draw cannot be found without the ones
    before it. Per-trial keyed streams allowed a split but made every trial
    15-37% slower, and nothing split a scan; over 2 forked processes on a
    2-CPU machine a 40 000-trial W scan with keyed streams ran 0.96-2.0 times
    as fast as in one. At most 2**32 trials are taken, which bounds the run
    time (about 12 hours for W at 10 us per trial).
    """
    trials = check_trials(trials)
    if inject is not None:
        check_basis_qubits(inject, shared)
    dim = 2**shared.n_qubits
    rng = np.random.default_rng(seed)
    feasible_count = 0
    max_passing = 0
    for start in range(0, trials, SCAN_CHUNK):
        count = min(SCAN_CHUNK, trials - start)
        # basis element k is column k of the unitary
        rows = haar_unitaries(rng, count, dim).swapaxes(-1, -2)
        if inject is not None and start == 0:
            rows[0] = inject.rows
        _, deviations = scale_and_deviation(branch_tensor(rows, shared.amplitudes))
        passing = np.count_nonzero(deviations <= tol, axis=-1)
        feasible_count += int(np.count_nonzero(passing == dim))
        max_passing = max(max_passing, int(passing.max()))
    return ScanResult(
        trials=trials,
        feasible_count=feasible_count,
        max_passing_branches=max_passing,
        tolerance=tol,
        injected=inject is not None,
    )


def build_feasibility_report(shared: PureState, label: str, scan_trials: int, seed: int) -> FeasibilityReport:
    """Assemble every diagnostic for one shared state.

    The sum-rule rows are basis-independent and equal 2 diag(rho_B), so they
    are read off the receiver's reduced state directly. The componentwise
    and Schmidt disentanglers answer different questions
    (existence of a ket-permutation style move versus an unconstrained local
    unitary) and are reported side by side.
    """
    if shared.n_qubits != 3:
        raise ValueError(f"analyze expects a 3-qubit shared state, got {shared.n_qubits} qubits")
    rho_b = bob_reduced_state(shared)
    entropy, entropy_ok = _entropy_verdict(rho_b)
    row0, row1 = (2.0 * np.diag(rho_b.matrix).real).tolist()
    return FeasibilityReport(
        state_label=label,
        bob_reduced_state=rho_b,
        entropy_bits=entropy,
        entropy_feasible=entropy_ok,
        sum_rule_row0=row0,
        sum_rule_row1=row1,
        sum_rule_balanced=abs(row0 - row1) <= SUM_RULE_ATOL,
        scan=haar_scan(shared, scan_trials, seed),
        componentwise=componentwise_disentangler(shared),
        schmidt=schmidt_disentangler(shared),
    )
