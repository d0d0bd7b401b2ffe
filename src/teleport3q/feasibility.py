"""Feasibility of perfect teleportation for a shared 3-qubit state.

Four independent diagnostics are provided: the branch-operator
proportional-unitarity test, the basis-independent sum rule on the
receiver's reduced state, the entanglement-entropy criterion (one full ebit
is necessary and sufficient when the receiver holds a single qubit), and two
disentangler constructions on the sender's qubit pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ZERO_ATOL, complete_orthonormal, complex_gaussians, dagger, haar_from_gaussians, schmidt_decompose
from .protocols import (
    MeasurementBasis, branch_operators, branch_tensor, check_basis_qubits, check_tolerance, check_trials,
    diagonal_deviation, scale_and_deviation,
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
# Trials per batched kernel call in haar_scan. A scan draws and screens every chunk in one workspace (see
# _branch_verdicts), so a chunk allocates only its Cholesky factor, small temporaries and its open trials'
# QR arrays; with it 128-trial chunks are faster than 64 (ROADMAP "Aim 1" lists the measured alternatives).
# A scan's tracemalloc peak does not grow with its trials and stays below SCAN_PEAK_BYTES for 3 and 4 qubits.
SCAN_CHUNK = 128
SCAN_PEAK_BYTES = {3: 1_500_000, 4: 4_300_000}
# haar_scan's screen rules a trial out when its diagonal deviation exceeds the tolerance by more than
# SCREEN_BAND on every branch and its screen defect is below SCREEN_DEFECT; the exact path decides the rest.
SCREEN_BAND = 1e-6
SCREEN_DEFECT = 1e-9


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


def _write_amplitude_gram(stack: np.ndarray, gram: np.ndarray) -> None:
    """Write V†V + I4, the one block of a screen's Gram stack that depends on V = stack[..., d:] alone
    and so is every trial's (see _screen), into gram[:, d:, d:]."""
    dim = stack.shape[1]
    v = stack[0, :, dim:]
    gram[:, dim:, dim:] = dagger(v) @ v + np.eye(4)


def _screen(stack: np.ndarray, conj: np.ndarray, gram: np.ndarray, floor: float) -> np.ndarray:
    """The open trials, a (count,) bool mask, of a stack [z | V] (count, d, d + 4): z a chunk's
    Gaussians, V[j d/2 + s, 2b + j] = A[s, b] for A the amplitudes as a (d/2, 2) matrix. With L the
    Cholesky factor of [z | V]†[z | V] + (0 ⊕ I4), L[d:, :d]† = U†V holds the branch operators of z's
    Mezzadri-phased Haar unitary U, and the defect is the largest deviation from I of L[d:, d:], which
    is I exactly (README, "scan"). A trial is ruled out, and fails, when its diagonal_deviation exceeds
    `floor` on every branch and its defect is below SCREEN_DEFECT; every other trial is open.
    `gram` (count, d + 4, d + 4) holds _write_amplitude_gram's block. Its lower blocks z†z and V†z
    and `conj` (the stack's shape) are overwritten; the Cholesky reads only the lower triangle, so
    the strict upper block gram[:, :d, d:] is neither written nor read. Raises LinAlgError if a
    Cholesky fails."""
    count, dim = stack.shape[:2]
    # the whole contiguous stack conjugates faster than its strided z block alone
    np.matmul(np.conjugate(stack, out=conj).swapaxes(-1, -2), stack[..., :dim], out=gram[..., :dim])
    factor = np.linalg.cholesky(gram)
    # the view holds conj(T_k), whose bound is T_k's bit for bit: conjugation flips signs only
    ops = factor[:, dim:, :dim].swapaxes(-1, -2).reshape(count, dim, 2, 2)
    defects = np.abs(factor[:, dim:, dim:] - np.eye(4)).max(axis=(-2, -1))
    # a NaN fails both compares, so its trial stays open
    return ~(diagonal_deviation(ops) > floor).all(axis=-1) | ~(defects < SCREEN_DEFECT)


def _branch_verdicts(shared: PureState, trials: int, seed: int, inject: MeasurementBasis | None, tol: float):
    """Per chunk of haar_scan's trials, each trial's branch verdicts at `tol`, a (count, d) bool array."""
    dim, size = 2**shared.n_qubits, min(SCAN_CHUNK, trials)
    rng = np.random.default_rng(seed)
    # the workspace: one buffer carved into the stack [z | V] (see _screen), its conjugate, the Gram
    # stack and the real normals; as separate buffers, malloc trimmed them at each short scan's end
    # and faulted them back in at the next
    shapes = ((size, dim, dim + 4), (size, dim, dim + 4), (size, dim + 4, dim + 4), (size, dim, dim))
    sizes = [math.prod(shape) for shape in shapes]
    parts = np.split(np.zeros(sum(sizes), dtype=complex), np.cumsum(sizes[:-1]))
    stack, conj, gram, spare = (part.reshape(shape) for part, shape in zip(parts, shapes))
    normals = spare.view(float).reshape(size, 2, dim, dim)
    stack[:, : dim // 2, dim::2] = stack[:, dim // 2 :, dim + 1 :: 2] = shared.amplitudes.reshape(-1, 2)
    _write_amplitude_gram(stack, gram)
    for start in range(0, trials, SCAN_CHUNK):
        count, injected = min(SCAN_CHUNK, trials - start), inject is not None and start == 0
        chunk = complex_gaussians(rng, count, dim, stack[:count, :, :dim], normals[:count])
        try:
            exact = _screen(stack[:count], conj[:count], gram[:count], tol + SCREEN_BAND)
        except np.linalg.LinAlgError:
            exact = np.ones(count, dtype=bool)
        exact[0] |= injected
        verdicts = np.zeros((count, dim), dtype=bool)
        if exact.any():
            # the normals are spent once drawn, so their buffer takes the open trials' Gaussians, then their rows
            z = np.compress(exact, chunk, axis=0, out=spare[: np.count_nonzero(exact)])
            # basis element k is column k of the unitary
            rows = haar_from_gaussians(z).swapaxes(-1, -2)
            if injected:
                rows[0] = inject.rows
            verdicts[exact] = scale_and_deviation(branch_tensor(rows, shared.amplitudes))[1] <= tol
        yield verdicts


def haar_scan(
    shared: PureState,
    trials: int,
    seed: int,
    inject: MeasurementBasis | None = None,
    tol: float = SCAN_TOL,
) -> ScanResult:
    """Feasibility search over Haar-random measurement bases.

    Trial i measures in the i-th Haar unitary drawn in sequence from default_rng(seed), so trial 0 is
    haar_random_unitary(dim, seed), the basis `haar:seed` names, and the result does not depend on
    SCAN_CHUNK. When `inject` is given its rows overwrite trial 0's drawn basis, a positive control;
    trial 0's Gaussians are still drawn, so every other trial keeps its draw. The scan tolerance is
    looser than construction tolerances because random bases miss by O(1), not by rounding.

    Trials run in chunks of SCAN_CHUNK, each drawn by one standard_normal call and screened by one
    batched Cholesky (see _screen) in a workspace allocated once per scan. The screen only rules trials
    out (see SCREEN_BAND); every other trial and the injected trial 0 is decided on the exact path,
    haar_unitaries' QR rows bit for bit and their closed-form verdicts. Nothing is re-checked: QR rows
    are orthonormal to a few ulps (a test pins it), and the checked `inject` and `shared` give complete
    branch families.
    `tol` is checked, and so is, before any draw, that an injected basis acts on as many qubits as `shared`.

    One stream cannot be split: a Gaussian takes a varying number of the generator's words, so trial
    i's draw needs the ones before it (keyed per-trial streams allowed a split, but every trial ran
    15-37% slower, and 2 forked processes on 2 CPUs 0.96-2.0 times as fast as one). At most 2**32
    trials are taken, which bounds the run time (about 8.4 hours for W at 7 us per trial).
    """
    trials = check_trials(trials)
    tol = check_tolerance(tol)
    if inject is not None:
        check_basis_qubits(inject, shared)
    feasible_count = max_passing = 0
    for verdicts in _branch_verdicts(shared, trials, seed, inject, tol):
        passing = np.count_nonzero(verdicts, axis=-1)
        feasible_count += int(np.count_nonzero(passing == verdicts.shape[-1]))
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
