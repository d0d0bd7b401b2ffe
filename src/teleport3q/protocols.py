"""Measurement-basis builders and exact plus sampled teleportation runs.

A protocol pairs a shared resource state (sender holds every qubit but the
last, receiver the last) with an orthonormal measurement basis on the
(message + sender) register. Every outcome induces a 2x2 branch operator
mapping the message qubit onto the receiver's qubit; the stored correction
is the unitary the receiver inverts to recover the message. Branch
magnitudes are derived from the basis and the state, never stored.

The Pauli index map used by the S-parameterized builder is fixed as
00 -> I, 01 -> X, 10 -> Y, 11 -> Z.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import (
    ATOL,
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ZERO_ATOL,
    as_int,
    closest_unitary,
    dagger,
    frame,
    is_unitary,
    isometry_deviation,
    qubit_count,
)
from .states import PureState, WLikeParams, check_unit_norm, make_named_state, trusted, w_like_from_params

__all__ = [
    "BranchOperatorFamily",
    "BranchOutcome",
    "MeasurementBasis",
    "SampleResult",
    "TeleportProtocol",
    "TeleportResult",
    "basis_from_S",
    "bell_protocol",
    "branch_operators",
    "ghz_protocol",
    "protocol_from_basis",
    "run_teleport",
    "sample_teleport",
    "w_like_protocol",
]

SIGMA_BY_INDEX = (IDENTITY, PAULI_X, PAULI_Y, PAULI_Z)

# Branch probabilities below this are treated as unreachable: their fidelity
# is reported as None so averages are never polluted by dead branches.
PROB_FLOOR = 1e-24
# Philox words drawn per call in sample_teleport: 8 bytes each.
SAMPLE_CHUNK = 2**16
_S_NOT_UNITARY = f"S is not unitary (2x2 within tolerance {ATOL:g} required)"


def check_trials(trials: int) -> int:
    """trials as an int; raise unless it is an integer in [1, 2**32], a cap on a scan's or a sample's run time."""
    trials = as_int(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > 2**32:
        raise ValueError("trials must be <= 2**32")
    return trials


def check_tolerance(tol) -> float:
    """tol as a float; raise unless it is a finite, non-negative real number that is not a bool."""
    try:
        value = math.nan if isinstance(tol, bool) or not isinstance(tol, numbers.Real) else float(tol)
    except OverflowError:  # an int or a Fraction beyond the float range
        value = math.inf
    if not 0.0 <= value < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    return value + 0.0  # a -0.0 tolerance is stored as 0.0


def check_basis_qubits(basis: MeasurementBasis, shared: PureState) -> None:
    """Raise unless `basis` acts on as many qubits as `shared`, which a branch contraction needs."""
    if basis.n_qubits != shared.n_qubits:
        raise ValueError("basis must act on as many qubits as the shared state")


def branch_tensor(rows: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Branch operators of a stack of bases, shape (..., outcomes, 2, 2).

    rows[..., k, :] is basis element k on the (message + sender) register and
    `amplitudes` the shared state.
    T_k[b, j] = sum_s conj(e_k[j, s]) shared[s, b], i.e. column j of T_k is
    <e_k|(|j> (x) shared); j is the message bit, s the sender kets and b the
    receiver's.
    """
    d = rows.shape[-1]
    # one (rows * 2, d/2) x (d/2, 2) product: each row half is (element k, message j)
    flat = rows.conj().reshape(-1, d // 2) @ amplitudes.reshape(d // 2, 2)
    return flat.reshape(*rows.shape[:-1], 2, 2).swapaxes(-1, -2)


def branch_scale(weights: np.ndarray) -> np.ndarray:
    """Scale tr(T†T)/2 of each 2x2 operator of a stack, from its weights w = re² + im² (..., 2, 2), in
    the one summation order that scale_and_deviation and TeleportProtocol.coefficients share."""
    return ((weights[..., 0, 0] + weights[..., 1, 0]) + (weights[..., 0, 1] + weights[..., 1, 1])) / 2.0


def scale_and_deviation(ops) -> tuple[np.ndarray, np.ndarray]:
    """Scale tr(T†T)/2 (branch_scale) of each 2x2 operator T = [[a, b], [c, d]] of a stack
    (..., 2, 2), and its deviation: the larger max-abs entry of T†T - scale I
    and TT† - scale I, in closed form. The diagonals are the column sums
    |a|^2 + |c|^2, |b|^2 + |d|^2 (T†T) and the row sums |a|^2 + |b|^2,
    |c|^2 + |d|^2 (TT†), the upper off-diagonals conj(a) b + conj(c) d and
    a conj(c) + b conj(d); the lower ones are their conjugates. A huge or
    non-finite entry gives an inf or NaN deviation without a RuntimeWarning.
    """
    ops = np.asarray(ops, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = ops.real**2 + ops.imag**2
        w00, w01, w10, w11 = weights[..., 0, 0], weights[..., 0, 1], weights[..., 1, 0], weights[..., 1, 1]
        # written in place; [k, ...] is a view even for a single operator
        diagonals = np.empty((4, *ops.shape[:-2]))
        np.add(w00, w10, out=diagonals[0, ...])
        np.add(w01, w11, out=diagonals[1, ...])
        np.add(w00, w01, out=diagonals[2, ...])
        np.add(w10, w11, out=diagonals[3, ...])
        conj = ops.conj()
        a, b, d = ops[..., 0, 0], ops[..., 0, 1], ops[..., 1, 1]
        off = np.empty((2, *ops.shape[:-2]), dtype=complex)
        # keep each product's operand order: numpy fuses the multiply-adds, so
        # x * y and y * x may differ in the last bit, which scan verdicts resolve
        np.add(conj[..., 0, 0] * b, conj[..., 1, 0] * d, out=off[0, ...])
        np.add(a * conj[..., 1, 0], b * conj[..., 1, 1], out=off[1, ...])
        scale = branch_scale(weights)
        diagonal = np.abs(diagonals - scale)
    off_diagonal = np.abs(off)
    deviation = np.maximum(np.maximum(diagonal[0], diagonal[1]), np.maximum(diagonal[2], diagonal[3]))
    return scale, np.maximum(deviation, np.maximum(off_diagonal[0], off_diagonal[1]))


@dataclass(frozen=True)
class MeasurementBasis:
    """Full orthonormal basis on the measured register, one row per outcome.

    `rows` is a read-only (2**n, 2**n) matrix; row k is the element for the
    outcome whose bits are the big-endian binary digits of k. The Gram matrix a†a, a = rowsᵀ, must be I
    within ATOL; its diagonal holds the squared row norms, so a failing basis reports a row's PureState
    error (finite, unit norm) first.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=complex, order="C")
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1] or qubit_count(len(rows)) < 1:
            raise ValueError(f"basis must be a 2**n x 2**n matrix with n >= 1, got shape {rows.shape}")
        deviation = isometry_deviation(rows.T)
        if not deviation <= ATOL:
            check_unit_norm(rows)
            raise ValueError(f"basis is not orthonormal: Gram deviation {deviation:.3e}")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def n_qubits(self) -> int:
        return qubit_count(len(self.rows))


@dataclass(frozen=True)
class BranchOperatorFamily:
    """The per-outcome 2x2 operators induced by a basis and a shared state.

    `ops` is a read-only, C-ordered (outcomes, 2, 2) copy; it is not checked.
    For an orthonormal basis and a unit shared state the family is complete,
    sum of T†T = I, a theorem that the tests pin.
    """

    ops: np.ndarray

    def __post_init__(self) -> None:
        ops = np.array(self.ops, dtype=complex, order="C")
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)


@dataclass(frozen=True)
class TeleportProtocol:
    """Shared state, measurement basis and per-outcome corrections, a read-only (outcomes, 2, 2) array."""

    shared: PureState
    basis: MeasurementBasis
    corrections: np.ndarray

    def __post_init__(self) -> None:
        check_basis_qubits(self.basis, self.shared)
        n_out = len(self.basis.rows)
        if len(self.corrections) != n_out:
            raise ValueError(f"expected {n_out} corrections, got {len(self.corrections)}")
        # checked as one stack up to the first correction of another shape
        shaped = next((k for k, u in enumerate(self.corrections) if np.shape(u) != (2, 2)), n_out)
        corrections = np.array(self.corrections[:shaped], dtype=complex, order="C").reshape(shaped, 2, 2)
        failing = np.flatnonzero(~is_unitary(corrections, ATOL))
        first = int(failing[0]) if failing.size else shaped
        if first < n_out:
            raise ValueError(f"correction {first} is not a 2x2 unitary")
        corrections.setflags(write=False)
        object.__setattr__(self, "corrections", corrections)

    @property
    def coefficients(self) -> np.ndarray:
        """Branch magnitudes sqrt(tr(T†T)/2), exactly 0 where that weight is <= PROB_FLOOR."""
        ops = branch_tensor(self.basis.rows, self.shared.amplitudes)
        scales = branch_scale(ops.real**2 + ops.imag**2)
        return np.where(scales > PROB_FLOOR, np.sqrt(scales), 0.0)


@dataclass(frozen=True)
class BranchOutcome:
    label: str
    probability: float
    branch_fidelity: float | None


@dataclass(frozen=True)
class TeleportResult:
    outcomes: tuple[BranchOutcome, ...]
    total_fidelity: float


@dataclass(frozen=True)
class SampleResult:
    counts: np.ndarray
    empirical_fidelity: float
    trials: int


def branch_operators(basis: MeasurementBasis, shared: PureState) -> BranchOperatorFamily:
    """Extract the 2x2 branch operators; column j is <basis_k|(|j> (x) shared)."""
    return BranchOperatorFamily(branch_tensor(basis.rows, shared.amplitudes))


def run_teleport(psi: PureState, protocol: TeleportProtocol) -> TeleportResult:
    """Exact execution of every branch at once.

    Probability of outcome k is ||T_k psi||^2; the receiver applies the
    inverse of the stored correction, so a perfect protocol returns psi on
    every reachable branch. Total fidelity is the probability-weighted mean.
    """
    if psi.n_qubits != 1:
        raise ValueError("message must be a single qubit")
    branches = branch_tensor(protocol.basis.rows, protocol.shared.amplitudes) @ psi.amplitudes
    probs = np.sum(np.abs(branches) ** 2, axis=-1)
    live = probs > PROB_FLOOR
    # dead branches are divided by 1, not by their vanishing norm
    normalized = branches / np.sqrt(np.where(live, probs, 1.0))[:, None]
    received = dagger(protocol.corrections) @ normalized[..., None]
    overlaps = (psi.amplitudes.conj() @ received)[:, 0]
    outcomes, total = [], 0.0
    labels = _outcome_labels(len(probs))
    for label, prob, reached, overlap in zip(labels, probs.tolist(), live.tolist(), overlaps.tolist()):
        # Python's abs and ** call C's hypot and pow, as numpy scalars do; array loops may round otherwise
        fid = abs(overlap) ** 2 if reached else None
        total += 0.0 if fid is None else prob * fid
        outcomes.append(BranchOutcome(label, prob, fid))
    return TeleportResult(tuple(outcomes), total)


@cache
def _outcome_labels(count: int) -> tuple[str, ...]:
    """The big-endian bit strings of outcomes 0 .. count - 1, n digits each for count = 2**n."""
    return tuple(format(k, f"0{qubit_count(count)}b") for k in range(count))


def _word_bound(c: float) -> int:
    """The least 64-bit word w whose uniform reaches c, for 0 <= c <= 1. numpy's
    Generator.random makes u = (w >> 11) * 2**-53 from a Philox word w, so
    u < c exactly when w < _word_bound(c); below c = 1 it fits in np.uint64."""
    return math.ceil(c * 2.0**53) << 11


def sample_teleport(exact: TeleportResult, trials: int, seed: int) -> SampleResult:
    """Sampled execution over the classical channel, drawn from the exact run `exact`.

    The sender draws outcomes from its branch distribution; each drawn
    outcome is delivered as a classical bit string to a receiver that applies
    its correction. Philox keying makes trial batches reproducible and
    splittable. Philox words w are drawn SAMPLE_CHUNK at a time, so memory does not
    grow with `trials`. The counts are exactly those of one rng.choice(m, trials, p=p):
    over the uniforms u of the same w and cdf = p.cumsum() / its last entry (exactly 1.0),
    it draws k when cdf[k-1] <= u < cdf[k], so count_k = L_k - L_{k-1}, L_j = #{u < cdf[j]}
    = #{w < _word_bound(cdf[j])}. Equal bounds have equal L, and only an entry of 1.0 has
    a bound of 2**64, with L = trials; so each distinct bound below it is compared once
    per chunk, and the dead outcomes of a perfect protocol repeat entries.
    """
    trials = check_trials(trials)
    probs = np.array([o.probability for o in exact.outcomes])
    bit_generator = np.random.Philox(key=seed)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    bounds = [_word_bound(c) for c in cdf.tolist()]
    below = {bound: 0 for bound in bounds if bound < 2**64}
    for start in range(0, trials, SAMPLE_CHUNK):
        words = bit_generator.random_raw(min(SAMPLE_CHUNK, trials - start))
        for bound in below:
            below[bound] += np.count_nonzero(words < np.uint64(bound))
    counts = np.diff(np.array([below.get(bound, trials) for bound in bounds], dtype=np.intp), prepend=0)
    fidelity_sum = 0.0
    for count, outcome in zip(counts.tolist(), exact.outcomes):
        fidelity_sum += count * (outcome.branch_fidelity or 0.0)
    return SampleResult(counts=counts, empirical_fidelity=fidelity_sum / trials, trials=trials)


def _protocol_from_corrections(shared: PureState, live: dict[int, np.ndarray]) -> TeleportProtocol:
    """Perfect protocol over `shared` whose live outcome k is corrected by C_k.

    `live` maps an outcome k to its stored 2x2 unitary C_k. Basis element k
    is v = (I (x) C_k†)|shared> with the receiver's slot moved onto the
    message slot, element[2**(n-1) j + a] = v[2 a + j], so its branch operator
    is T_k = rho_B C_k. The receiver must hold one ebit (rho_B = I/2): the live
    elements are then orthonormal and T_k = C_k/2. Every other outcome is dead
    and corrected by I. The live elements span C^2 (x) range(A), A = shared as
    (2**(n-1), 2) rows, so the dead elements complete the basis as |j> (x) f
    for the rows f of frame(A): j = 0 on the first half of the dead outcomes,
    j = 1 on the rest, each in f's order.
    The one-ebit gate: live rows orthonormal within ZERO_ATOL, with the dead
    ones orthonormal and orthogonal to them to rounding, are stored
    unchecked; any others go to MeasurementBasis, which checks them.
    """
    dim, keys = len(shared.amplitudes), sorted(live)
    if keys[-1] >= dim:
        needed = keys[-1].bit_length()
        raise ValueError(f"the live outcomes need a shared state of at least {needed} qubits, got {shared.n_qubits}")
    corrections = np.array([live.get(k, IDENTITY) for k in range(dim)])
    cut = shared.amplitudes.reshape(-1, 2)
    # the live elements as one batched product, (A conj(C_k))ᵀ, each as its message halves (2, dim/2)
    halves = (cut @ corrections[keys].conj()).swapaxes(-1, -2)
    orthonormal = bool(isometry_deviation(halves.reshape(len(keys), dim).T) <= ZERO_ATOL)
    rows = np.zeros((dim, 2, dim // 2), dtype=complex)
    rows[keys] = halves
    if dead := [k for k in range(dim) if k not in live]:
        f = frame(cut)
        rows[dead[: len(f)], 0] = rows[dead[len(f) :], 1] = f
    rows = rows.reshape(dim, dim)
    basis = trusted(MeasurementBasis, rows=rows) if orthonormal else MeasurementBasis(rows)
    # Paulis or basis_from_S's checked products
    return trusted(TeleportProtocol, shared=shared, basis=basis, corrections=corrections)


def bell_protocol(shared: PureState | None = None) -> TeleportProtocol:
    """Perfect 2-qubit protocol over `shared`, bell(0,0) by default
    (_protocol_from_corrections): outcomes 00, 01, 10, 11 have corrections
    C_k = I, X, Z, -iY and branch operators C_k/2. Over bell(0,0) the elements
    are bell(0,0)..bell(1,1). The receiver's qubit must be maximally mixed, as
    in every bell(m,n); over any other 2-qubit state the elements are not
    orthonormal and MeasurementBasis raises."""
    shared = make_named_state("bell(0,0)") if shared is None else shared
    return _protocol_from_corrections(shared, {0: IDENTITY, 1: PAULI_X, 2: PAULI_Z, 3: -1j * PAULI_Y})


def ghz_protocol(shared: PureState | None = None) -> TeleportProtocol:
    """Perfect protocol over `shared`, GHZ by default (_protocol_from_corrections):
    outcomes 000, 001, 100, 101 are live with corrections C_k = I, Z, X, iY
    and branch operators C_k/2; the other four are dead."""
    shared = make_named_state("ghz") if shared is None else shared
    return _protocol_from_corrections(shared, {0: IDENTITY, 1: PAULI_Z, 4: PAULI_X, 5: 1j * PAULI_Y})


def w_like_protocol(params: WLikeParams) -> TeleportProtocol:
    """Perfect protocol over the W-like state of `params` (_protocol_from_corrections),
    which it builds itself: outcomes 000..011 are live with corrections
    C_k = I, Z, X, iY and branch operators C_k/2; 100..111 are dead."""
    shared = w_like_from_params(params)
    return _protocol_from_corrections(shared, {0: IDENTITY, 1: PAULI_Z, 2: PAULI_X, 3: 1j * PAULI_Y})


def basis_from_S(params: WLikeParams, s: np.ndarray) -> TeleportProtocol:
    """Protocol over a W-like state with corrections C_mn = sigma^{(mn)} S.

    The receiver fixes one free unitary S; live outcome mn (000..011, in the
    Pauli index order) then has the element (I (x) C_mn†)|shared> re-slotted
    onto the message qubit (_protocol_from_corrections) and the branch
    operator C_mn/2. S must be 2x2, and each product sigma^{(mn)} S unitary
    within ATOL: the products are checked as they are stored, not S alone,
    since a product can round across ATOL where S does not.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != (2, 2):
        raise ValueError(_S_NOT_UNITARY)
    # a non-finite S gives NaN products (0 * inf), which fail the check without a RuntimeWarning
    with np.errstate(invalid="ignore"):
        corrections = [sigma @ s for sigma in SIGMA_BY_INDEX]
        if not is_unitary(corrections, ATOL).all():
            raise ValueError(_S_NOT_UNITARY)
    return _protocol_from_corrections(w_like_from_params(params), dict(enumerate(corrections)))


def protocol_from_basis(shared: PureState, basis: MeasurementBasis) -> TeleportProtocol:
    """Best-effort protocol for an arbitrary basis.

    Corrections are the polar unitary factors of the branch operators.
    Fidelity reaches 1 only when every branch operator is proportional to a
    unitary. The basis must act on as many qubits as `shared`.
    """
    check_basis_qubits(basis, shared)
    corrections = closest_unitary(branch_tensor(basis.rows, shared.amplitudes))  # unitary by construction
    return trusted(TeleportProtocol, shared=shared, basis=basis, corrections=corrections)
