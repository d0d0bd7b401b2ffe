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

from .linalg import _haar_from_states, complete_orthonormal, schmidt_decompose, spawned_pcg64_states
from .protocols import (
    MeasurementBasis, branch_operators, branch_tensor, check_basis_rows, check_complete, scale_and_deviation
)
from .states import DensityMatrix, PureState, entanglement_entropy, partial_trace, shannon_entropy

ENTROPY_ATOL = 1e-9
SUM_RULE_ATOL = 1e-9
SCAN_TOL = 1e-8
SUPPORT_THRESHOLD = 1e-12
# Trials per batched kernel call in haar_scan. Larger chunks only raise peak
# memory, at the same speed: an 8 000-trial W scan peaks at 36.1 MB with 64,
# 38.4 MB with 256 and 68.4 MB with 4 096 (38.8 MB for the per-trial loop).
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
    scales, deviations = scale_and_deviation(branch_operators(basis, shared).ops)
    verdicts = tuple(
        UnitarityVerdict(bool(d <= tol), float(s), float(d)) for s, d in zip(scales, deviations)
    )
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

    Collects the sender-pair kets carrying amplitude above 1e-12 (separating
    exact zeros from rounding noise). At most two distinct kets can be mapped
    into |0> (x) {|0>, |1>}; three or more orthonormal preimages cannot fit in
    a two-dimensional slice of a unitary, so the construction fails.
    """
    if shared.n_qubits != 3:
        raise ValueError("disentangler expects a 3-qubit shared state")
    amps = shared.amplitudes.reshape(4, 2)
    support = [a for a in range(4) if float(np.max(np.abs(amps[a]))) > SUPPORT_THRESHOLD]
    if len(support) > 2:
        return DisentanglerResult(False, None, None)
    targets = list(range(len(support)))
    remaining_targets = [t for t in range(4) if t not in targets]
    remaining_sources = [a for a in range(4) if a not in support]
    unitary = np.zeros((4, 4), dtype=complex)
    for target, source in zip(targets, support):
        unitary[target, source] = 1.0
    for target, source in zip(remaining_targets, remaining_sources):
        unitary[target, source] = 1.0
    transformed = unitary @ amps
    residual = transformed[:2].reshape(-1)
    residual = residual / np.linalg.norm(residual)
    return DisentanglerResult(True, unitary, PureState(2, residual))


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
    rows = form.left_factors.conj()
    unitary = complete_orthonormal(rows, 4)
    residual = np.zeros(4, dtype=complex)
    for k in range(form.coefficients.size):
        residual[2 * k : 2 * k + 2] = form.coefficients[k] * form.right_factors[k]
    return SchmidtDisentangler(
        unitary=unitary,
        residual=PureState(2, residual),
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

    Trial i draws its basis from default_rng of the i-th child spawned from
    SeedSequence(seed), so batches may run concurrently and still aggregate
    identically. When `inject` is given it replaces trial 0 as a positive
    control. The scan tolerance is looser than construction tolerances because
    random bases miss proportional-unitarity by O(1), not by rounding.

    Trials run in chunks of SCAN_CHUNK as one array computation. No child
    SeedSequence or Generator is built: `spawned_pcg64_states` computes the
    PCG64 state default_rng(child) would start from for every child of the
    chunk at once, and one Generator set to each state in turn draws that
    trial's Gaussians. numpy's stream-compatibility policy (NEP 19) fixes
    SeedSequence and PCG64 seeding, so the draws, and every result, are those
    of default_rng(child); the tests check this bit for bit. Spawn keys are one
    word, hence at most 2**32 trials. A chunk's unitaries come from one batched
    QR, its branch operators from one contraction and its verdicts from the
    closed-form deviations. Each chunk gets the checks a MeasurementBasis and a
    BranchOperatorFamily make: finite unit-norm elements, orthonormality and
    completeness, with the same errors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > 2**32:
        raise ValueError("trials must be <= 2**32")
    dim = 2**shared.n_qubits
    rng = np.random.default_rng(0)  # its state is replaced before every draw
    feasible_count = 0
    max_passing = 0
    for start in range(0, trials, SCAN_CHUNK):
        states = spawned_pcg64_states(seed, start, min(SCAN_CHUNK, trials - start))
        injected = inject is not None and start == 0
        if injected:
            states[0] = None
        # basis element k is column k of the unitary
        rows = np.ascontiguousarray(_haar_from_states(dim, rng, states).swapaxes(-1, -2))
        if injected:
            rows[0] = inject.rows
        check_basis_rows(rows)
        ops = branch_tensor(rows, shared.amplitudes)
        check_complete(ops)
        passing = np.count_nonzero(scale_and_deviation(ops)[1] <= tol, axis=-1)
        feasible_count += int(np.count_nonzero(passing == dim))
        max_passing = max(max_passing, int(passing.max()))
    return ScanResult(
        trials=trials,
        feasible_count=feasible_count,
        max_passing_branches=max_passing,
        tolerance=tol,
        injected=inject is not None,
    )


def build_feasibility_report(
    shared: PureState,
    label: str,
    scan_trials: int,
    seed: int,
    inject: MeasurementBasis | None = None,
) -> FeasibilityReport:
    """Assemble every diagnostic for one shared state.

    The sum-rule rows are basis-independent and equal 2 diag(rho_B), so they
    are read off the receiver's reduced state directly. The componentwise
    and Schmidt disentanglers answer different questions
    (existence of a ket-permutation style move versus an unconstrained local
    unitary) and are reported side by side.
    """
    if shared.n_qubits != 3:
        raise ValueError("feasibility report expects a 3-qubit shared state")
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
        scan=haar_scan(shared, scan_trials, seed, inject=inject),
        componentwise=componentwise_disentangler(shared),
        schmidt=schmidt_disentangler(shared),
    )
