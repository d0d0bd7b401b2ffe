"""Feasibility of perfect teleportation over a shared state whose last qubit is the receiver's.

Four diagnostics: the branch-operator proportional-unitarity test, the basis-independent sum rule on the
receiver's reduced state, the entanglement-entropy criterion (one full ebit is necessary and sufficient
when the receiver holds one qubit: its Bloch length g is 0, and both state-only verdicts read g against
one tolerance, BLOCH_TOL), and two disentanglers. Every state-only one reads the receiver cut (_receiver_cut).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ZERO_ATOL, dagger, haar_isometries
from .protocols import (
    MeasurementBasis, branch_tensor, check_basis_qubits, check_tolerance, check_trials, scale_and_deviation,
)
from .states import DensityMatrix, PureState, entanglement_entropy, trusted

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

BLOCH_TOL = 5e-10  # one ebit: the receiver's Bloch length g is at most this; the sum rule's bound is twice it
SCAN_TOL = 1e-8
# Trials per batched kernel call in haar_scan (see _branch_verdicts). A chunk holds a few (count, d, 4) arrays,
# so a scan's tracemalloc peak does not grow with its trials and stays below SCAN_PEAK_BYTES for 3 and 4 qubits:
# the 20 000-trial W peaks, 0.377 and 0.707 MB with numpy 2.4.6, plus about 15%.
SCAN_CHUNK = 128
SCAN_PEAK_BYTES = {3: 440_000, 4: 820_000}


@dataclass(frozen=True)
class UnitarityVerdict:
    """Whether T†T = TT† = scale * I within tolerance; scale is tr(T†T)/2."""

    is_proportional_unitary: bool
    scale: float
    deviation: float


@dataclass(frozen=True)
class DisentanglerResult:
    """Outcome of the componentwise sender-side disentangler search; it exists iff `unitary` is not None."""

    unitary: np.ndarray | None
    residual: PureState | None


@dataclass(frozen=True)
class SchmidtDisentangler:
    """Always-constructible disentangler from the sender-pair Schmidt vectors. The residual's entropy,
    shannon_entropy(coefficients**2), is the receiver's, which a report holds once as entropy_bits."""

    unitary: np.ndarray
    residual: PureState
    coefficients: np.ndarray


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
    verdicts = tuple(unitarity_verdict(t, tol) for t in branch_tensor(basis.rows, shared.amplitudes))
    return all(v.is_proportional_unitary for v in verdicts), verdicts


def _bloch_length(rho_b: DensityMatrix) -> float:
    """The Bloch length g = lambda0 - lambda1 of a trace-1 qubit rho_B, 0 exactly at one ebit, where 1 - S ~
    g**2/(2 ln 2) is quadratic. The sum rule's row gap 2|rho00 - rho11| is at most 2g in floats too."""
    (rho00, rho01), (_, rho11) = rho_b.matrix.tolist()
    return math.hypot((rho00 - rho11).real, 2.0 * abs(rho01))


def _entropy_verdict(rho_b: DensityMatrix) -> tuple[float, bool]:
    return entanglement_entropy(rho_b), _bloch_length(rho_b) <= BLOCH_TOL


def entropy_criterion(shared: PureState) -> tuple[float, bool]:
    """Entropy in bits of the receiver's reduced state; feasible iff exactly one ebit."""
    return _entropy_verdict(bob_reduced_state(shared))


def _receiver_cut(shared: PureState, what: str, least: int = 3) -> np.ndarray:
    """A, the amplitudes as a (2**(n - 1), 2) matrix: row s is the sender's ket |s>, column b the receiver's
    bit. Raises unless n >= least; both disentanglers and analyze need a sender of at least two qubits."""
    if shared.n_qubits < least:
        raise ValueError(f"{what} expects a shared state of at least {least} qubits, got {shared.n_qubits} qubits")
    return shared.amplitudes.reshape(-1, 2)


def bob_reduced_state(shared: PureState) -> DensityMatrix:
    """rho_B = sum_s outer(A[s], conj(A[s])), summed over s in index order as partial_trace's einsum is, bit for bit."""
    cut = _receiver_cut(shared, "the receiver's reduced state", least=2)
    return trusted(DensityMatrix, n_qubits=1, matrix=(cut[:, :, None] * cut.conj()[:, None, :]).sum(axis=0))


def componentwise_disentangler(shared: PureState) -> DisentanglerResult:
    """Permutation of the sender's kets, when the support allows one.

    Collects the rows of A carrying amplitude above ZERO_ATOL (separating exact zeros from rounding
    noise). At most two distinct kets can be mapped into |0...0> (x) {|0>, |1>}; three or more
    orthonormal preimages cannot fit in a two-dimensional slice of a unitary, so the construction fails.
    """
    amps = _receiver_cut(shared, "disentangler")
    support = np.flatnonzero(np.abs(amps).max(axis=1) > ZERO_ATOL).tolist()
    if len(support) > 2:
        return DisentanglerResult(None, None)
    order = support + [a for a in range(len(amps)) if a not in support]
    unitary = np.eye(len(amps), dtype=complex)[order]
    residual = amps[order[:2]].reshape(-1)
    residual = residual / np.linalg.norm(residual)
    return DisentanglerResult(unitary, trusted(PureState, n_qubits=2, amplitudes=residual))


def schmidt_disentangler(shared: PureState) -> SchmidtDisentangler:
    """Disentangler built from the sender's Schmidt vectors; always exists.

    One full SVD A = U diag(s) Vh of the receiver cut gives it all: the unitary is U†, whose rows 0 and 1,
    the conjugated left Schmidt vectors, go to |0...00> and |0...01> and whose other rows, the rest of
    U's left singular vectors, complete the basis; any completion disentangles. The residual pair state
    diag(s) Vh carries exactly the shared state's sender-receiver entanglement, since the construction
    acts on the sender side only.
    """
    cut = _receiver_cut(shared, "disentangler")
    u, s, vh = np.linalg.svd(cut)
    # a (2**(n - 1) x 2) state has two Schmidt terms, filling both halves, of the checked state's norm
    residual = (s[:, None] * vh).reshape(-1)
    return SchmidtDisentangler(
        unitary=dagger(u),
        residual=trusted(PureState, n_qubits=2, amplitudes=residual),
        coefficients=s,
    )


def _branch_verdicts(shared: PureState, trials: int, seed: int, inject: MeasurementBasis | None, tol: float):
    """Per chunk of haar_scan's trials, each trial's branch verdicts at `tol`, a (count, d) bool array.
    With A the amplitudes as a (d/2, 2) matrix, V[j d/2 + s, 2b + j] = A[s, b] is d x 4, and row k of
    U†V holds branch_tensor's T_k[b, j] at 2b + j for the basis whose element k is column k of U. One
    thin SVD V = Q S W† per scan gives U†V = (U†Q)(S W†), and U†Q is drawn as a Haar isometry."""
    dim = 2**shared.n_qubits
    v = np.zeros((dim, 4), dtype=complex)
    v[: dim // 2, 0::2] = v[dim // 2 :, 1::2] = shared.amplitudes.reshape(-1, 2)
    _, s, wh = np.linalg.svd(v, full_matrices=False)
    right = s[:, None] * wh
    rng = np.random.default_rng(seed)
    for start in range(0, trials, SCAN_CHUNK):
        count = min(SCAN_CHUNK, trials - start)
        ops = (haar_isometries(rng, count, dim, len(s)) @ right).reshape(count, dim, 2, 2)
        if inject is not None and start == 0:
            ops[0] = branch_tensor(inject.rows, shared.amplitudes)
        verdicts = scale_and_deviation(ops)[1] <= tol
        del ops  # else the next chunk's draw runs beside this chunk's operators
        yield verdicts


def haar_scan(
    shared: PureState,
    trials: int,
    seed: int,
    inject: MeasurementBasis | None = None,
    tol: float = SCAN_TOL,
) -> ScanResult:
    """Feasibility search over Haar-random measurement bases.

    A trial measures in a Haar unitary U, whose branch operators are the rows of U†V (see
    _branch_verdicts); for Haar U, U†Q is a Haar d x 4 isometry, Q being V's thin-SVD frame, so trial i
    draws only that isometry, the i-th from default_rng(seed), and the result does not depend on the
    chunk size. When `inject` is given its branch operators overwrite trial 0's, a positive control;
    trial 0's Gaussians are still drawn, so every other trial keeps its draw. The scan tolerance is
    looser than construction tolerances because random bases miss by O(1), not by rounding.

    Trials run in chunks of SCAN_CHUNK, each drawn by one standard_normal call and decided on one path:
    its branch operators and their closed-form verdicts. Nothing is re-checked: QR columns are
    orthonormal to a few ulps (a test pins it), and the checked `inject` and `shared` give complete
    branch families. `tol` is checked, and so is, before any draw, that an injected basis acts on as
    many qubits as `shared`.

    One stream cannot be split: a Gaussian takes a varying number of the generator's words, so trial
    i's draw needs the ones before it. At most 2**32 trials are taken, which bounds the run time
    (about 4.5 hours for W at 3.8 us per trial).
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
    return ScanResult(trials, feasible_count, max_passing, tol, inject is not None)


def build_feasibility_report(shared: PureState, label: str, scan_trials: int, seed: int) -> FeasibilityReport:
    """Assemble every diagnostic for one shared state.

    The sum-rule rows are basis-independent and equal 2 diag(rho_B), so they
    are read off the receiver's reduced state directly. The componentwise
    and Schmidt disentanglers answer different questions
    (existence of a ket-permutation style move versus an unconstrained local
    unitary) and are reported side by side; entropy_bits is also the Schmidt residual's entropy.
    """
    _receiver_cut(shared, "analyze")  # before the scan runs
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
        sum_rule_balanced=abs(row0 - row1) <= 2 * BLOCH_TOL,
        scan=haar_scan(shared, scan_trials, seed),
        componentwise=componentwise_disentangler(shared),
        schmidt=schmidt_disentangler(shared),
    )
