"""Measurement-basis builders and exact plus sampled teleportation runs.

A protocol pairs a shared resource state (sender holds every qubit but the
last, receiver the last) with an orthonormal measurement basis on the
(message + sender) register. Every outcome induces a 2x2 branch operator
mapping the message qubit onto the receiver's qubit; the stored correction
is the unitary the receiver inverts to recover the message. Branch
magnitudes are derived from the basis and the state, never stored.

The Pauli index map used by the twirl and the S-parameterized builder is
fixed as 00 -> I, 01 -> X, 10 -> Y, 11 -> Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ATOL,
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    closest_unitary,
    complete_orthonormal,
    dagger,
    is_unitary,
    max_abs,
    qubit_count,
)
from .states import PureState, WLikeParams, check_unit_norm, make_named_state, w_like_from_params

SIGMA_BY_INDEX = (IDENTITY, PAULI_X, PAULI_Y, PAULI_Z)

# Branch probabilities below this are treated as unreachable: their fidelity
# is reported as None so averages are never polluted by dead branches.
PROB_FLOOR = 1e-24
# Uniforms drawn per call in sample_teleport: 8 bytes each.
SAMPLE_CHUNK = 2**16


def _apply_to_last_qubit(amplitudes: np.ndarray, op: np.ndarray) -> np.ndarray:
    return (amplitudes.reshape(-1, 2) @ op.T).reshape(-1)


def check_basis_rows(rows: np.ndarray) -> None:
    """Raise unless each (d, d) matrix of the stack (..., d, d) has orthonormal rows.

    Every row must be finite with unit norm (the PureState checks), and the
    Gram matrix must be the identity within ATOL.
    """
    check_unit_norm(rows)
    deviation = max_abs(rows.conj() @ rows.swapaxes(-1, -2) - np.eye(rows.shape[-1]))
    if deviation > ATOL:
        raise ValueError(f"basis is not orthonormal: Gram deviation {deviation:.3e}")


def branch_tensor(rows: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Branch operators of a stack of bases, shape (..., outcomes, 2, 2).

    rows[..., k, :] is basis element k on the (message + sender) register and
    `amplitudes` the shared state. T_k[b, j] = sum_s conj(e_k[j, s]) shared[s, b],
    i.e. column j of T_k is <e_k|(|j> (x) shared); j is the message bit, s the
    sender kets and b the receiver's.
    """
    d = rows.shape[-1]
    # one (rows * 2, d/2) x (d/2, 2) product: each row half is (element k, message j)
    flat = rows.conj().reshape(-1, d // 2) @ amplitudes.reshape(d // 2, 2)
    return flat.reshape(*rows.shape[:-1], 2, 2).swapaxes(-1, -2)


def check_complete(ops: np.ndarray) -> None:
    """Raise unless sum_k T_k†T_k = I within ATOL for each family (..., outcomes, 2, 2)."""
    # stacking the branches as rows gives sum_k T_k†T_k = M†M in one product
    stacked = ops.reshape(*ops.shape[:-3], -1, 2)
    deviation = max_abs(dagger(stacked) @ stacked - np.eye(2))
    if deviation > ATOL:
        raise ValueError(f"branch operators are not complete: deviation {deviation:.3e}")


def scale_and_deviation(ops) -> tuple[np.ndarray, np.ndarray]:
    """Scale tr(T†T)/2 of each 2x2 operator of a stack (..., 2, 2), and its
    deviation: the larger max-abs entry of T†T - scale I and TT† - scale I.

    Computed in closed form for T = [[a, b], [c, d]]: the scale is
    (|a|^2 + |b|^2 + |c|^2 + |d|^2) / 2, the diagonals of T†T and TT† are the
    column sums |a|^2 + |c|^2, |b|^2 + |d|^2 and the row sums |a|^2 + |b|^2,
    |c|^2 + |d|^2, and their off-diagonal entries are conj(a) b + conj(c) d and
    a conj(c) + b conj(d), each with its conjugate.
    """
    ops = np.asarray(ops, dtype=complex)
    a, b, c, d = ops[..., 0, 0], ops[..., 0, 1], ops[..., 1, 0], ops[..., 1, 1]
    weights = ops.real**2 + ops.imag**2
    w00, w01, w10, w11 = weights[..., 0, 0], weights[..., 0, 1], weights[..., 1, 0], weights[..., 1, 1]
    col0, col1, row0, row1 = w00 + w10, w01 + w11, w00 + w01, w10 + w11
    scale = (col0 + col1) / 2.0
    diagonal = np.maximum(
        np.maximum(np.abs(col0 - scale), np.abs(col1 - scale)),
        np.maximum(np.abs(row0 - scale), np.abs(row1 - scale)),
    )
    off_diagonal = np.maximum(np.abs(a.conj() * b + c.conj() * d), np.abs(a * c.conj() + b * d.conj()))
    return scale, np.maximum(diagonal, off_diagonal)


@dataclass(frozen=True)
class MeasurementBasis:
    """Full orthonormal basis on the measured register, one row per outcome.

    `rows` is a read-only (2**n, 2**n) matrix; row k is the element for the
    outcome whose bits are the big-endian binary digits of k.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=complex, order="C")
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1] or qubit_count(len(rows)) < 1:
            raise ValueError(f"basis must be a 2**n x 2**n matrix with n >= 1, got shape {rows.shape}")
        check_basis_rows(rows)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def n_qubits(self) -> int:
        return qubit_count(len(self.rows))

    @classmethod
    def from_unitary_columns(cls, u: np.ndarray) -> "MeasurementBasis":
        return cls(np.asarray(u).T)


@dataclass(frozen=True)
class BranchOperatorFamily:
    """The per-outcome 2x2 operators induced by a basis and a shared state.

    `ops` is a read-only (outcomes, 2, 2) array. For any orthonormal basis and
    normalized shared state the family is complete: sum of T†T equals the
    identity.
    """

    ops: np.ndarray

    def __post_init__(self) -> None:
        ops = np.array(self.ops, dtype=complex, order="C")
        check_complete(ops)
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)


@dataclass(frozen=True)
class TeleportProtocol:
    """Shared state, measurement basis and per-outcome corrections, a read-only (outcomes, 2, 2) array."""

    shared: PureState
    basis: MeasurementBasis
    corrections: np.ndarray

    def __post_init__(self) -> None:
        if self.basis.n_qubits != self.shared.n_qubits:
            raise ValueError("basis must act on as many qubits as the shared state")
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
        weights, _ = scale_and_deviation(branch_operators(self.basis, self.shared).ops)
        return np.where(weights > PROB_FLOOR, np.sqrt(weights), 0.0)


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
    branches = branch_operators(protocol.basis, protocol.shared).ops @ psi.amplitudes
    probs = np.sum(np.abs(branches) ** 2, axis=-1)
    live = probs > PROB_FLOOR
    # dead branches are divided by 1, not by their vanishing norm
    normalized = branches / np.sqrt(np.where(live, probs, 1.0))[:, None]
    received = dagger(protocol.corrections) @ normalized[..., None]
    overlaps = (psi.amplitudes.conj() @ received)[:, 0]
    n_bits = protocol.basis.n_qubits
    outcomes, total = [], 0.0
    for k, (prob, overlap) in enumerate(zip(probs.tolist(), overlaps.tolist())):
        # Python's abs and ** call C's hypot and pow, as numpy scalars do; array loops may round otherwise
        fid = abs(overlap) ** 2 if prob > PROB_FLOOR else None
        total += 0.0 if fid is None else prob * fid
        outcomes.append(BranchOutcome(format(k, f"0{n_bits}b"), prob, fid))
    return TeleportResult(tuple(outcomes), total)


def sample_teleport(exact: TeleportResult, trials: int, seed: int) -> SampleResult:
    """Sampled execution over the classical channel, drawn from the exact run `exact`.

    The sender draws outcomes from its branch distribution; each drawn
    outcome is delivered as a classical bit string to a receiver that applies
    its correction. Philox keying makes trial batches reproducible and
    splittable. Uniforms u are drawn SAMPLE_CHUNK at a time, so memory does not
    grow with `trials`. The counts are exactly those of one rng.choice(m, trials, p=p):
    over the same u and cdf = p.cumsum() / its last entry (exactly 1.0), it draws
    k when cdf[k-1] <= u < cdf[k], so count_k = L_k - L_{k-1}, L_j = #{u < cdf[j]}.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > 2**32:
        raise ValueError("trials must be <= 2**32")
    probs = np.array([o.probability for o in exact.outcomes])
    rng = np.random.Generator(np.random.Philox(key=seed))
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    below = np.zeros(len(probs), dtype=np.intp)
    for start in range(0, trials, SAMPLE_CHUNK):
        u = rng.random(min(SAMPLE_CHUNK, trials - start))
        below += [np.count_nonzero(u < c) for c in cdf.tolist()]
    counts = np.diff(below, prepend=0)
    fidelity_sum = 0.0
    for count, outcome in zip(counts.tolist(), exact.outcomes):
        fidelity_sum += count * (outcome.branch_fidelity or 0.0)
    return SampleResult(counts=counts, empirical_fidelity=fidelity_sum / trials, trials=trials)


def _protocol_from_corrections(
    shared: PureState, live: dict[int, np.ndarray], s: np.ndarray = IDENTITY
) -> TeleportProtocol:
    """Perfect protocol over `shared` whose live outcome k is corrected by C_k = P_k S.

    `live` maps an outcome k to a 2x2 unitary P_k. Basis element k is
    v = (I (x) S†P_k)|shared> with the receiver's slot moved onto the message
    slot, element[2**(n-1) j + a] = v[2 a + j], so its branch operator is
    T_k = rho_B P_k† S. The receiver must hold one ebit (rho_B = I/2): the live
    elements are then orthonormal and T_k = P_k† S / 2, which is +C_k/2 for
    Hermitian P_k and -C_k/2 for P_k = ±iY. Every other outcome is dead: its
    element completes the basis deterministically and its correction is I.
    """
    dim, keys = len(shared.amplitudes), sorted(live)
    moved = [_apply_to_last_qubit(shared.amplitudes, dagger(s) @ live[k]).reshape(-1, 2).T for k in keys]
    full = complete_orthonormal(np.reshape(moved, (len(keys), dim)), dim)
    # the completion lists the live elements first, in key order, then the extras
    rows = np.empty_like(full)
    rows[keys + [k for k in range(dim) if k not in live]] = full
    corrections = [live[k] @ s if k in live else IDENTITY for k in range(dim)]
    return TeleportProtocol(shared=shared, basis=MeasurementBasis(rows), corrections=corrections)


def bell_protocol(shared: PureState | None = None) -> TeleportProtocol:
    """Perfect 2-qubit protocol over `shared`, bell(0,0) by default
    (_protocol_from_corrections): outcomes 00, 01, 10, 11 have corrections
    C_k = I, X, Z, iY and branch operators ±C_k/2 = I/2, X/2, Z/2, -iY/2. Over
    bell(0,0) the elements are bell(0,0)..bell(1,1). The receiver's qubit must
    be maximally mixed, as in every bell(m,n); over any other 2-qubit state the
    elements are not orthonormal and MeasurementBasis raises."""
    shared = make_named_state("bell(0,0)") if shared is None else shared
    return _protocol_from_corrections(shared, {0: IDENTITY, 1: PAULI_X, 2: PAULI_Z, 3: 1j * PAULI_Y})


def ghz_protocol() -> TeleportProtocol:
    """Perfect protocol over GHZ (_protocol_from_corrections): outcomes 000,
    001, 100, 101 are live with corrections C_k = I, Z, X, -iY and branch
    operators ±C_k/2 = I/2, Z/2, X/2, iY/2; the other four are dead."""
    return _protocol_from_corrections(
        make_named_state("ghz"), {0: IDENTITY, 1: PAULI_Z, 4: PAULI_X, 5: -1j * PAULI_Y}
    )


def w_like_protocol(params: WLikeParams) -> TeleportProtocol:
    """Perfect protocol over a W-like state (_protocol_from_corrections):
    outcomes 000..011 are live with corrections C_k = I, Z, X, -iY and branch
    operators ±C_k/2 = I/2, Z/2, X/2, iY/2; 100..111 are dead."""
    return _protocol_from_corrections(
        w_like_from_params(params), {0: IDENTITY, 1: PAULI_Z, 2: PAULI_X, 3: -1j * PAULI_Y}
    )


def sigma_twirl_states(shared: PureState) -> tuple[tuple[PureState, ...], np.ndarray]:
    """Pauli twirl of the receiver slot: sigma† applied to the last qubit.

    Returns the four twirled states (indexed 00, 01, 10, 11 by the Pauli map)
    and their 4x4 Gram matrix; the shared state supports perfect teleportation
    with Pauli-style corrections exactly when the Gram matrix is the identity.
    """
    if shared.n_qubits != 3:
        raise ValueError("twirl expects a 3-qubit shared state")
    twirled = tuple(
        PureState.from_array(_apply_to_last_qubit(shared.amplitudes, dagger(sigma)))
        for sigma in SIGMA_BY_INDEX
    )
    amplitudes = np.array([state.amplitudes for state in twirled])
    return twirled, amplitudes.conj() @ amplitudes.T


def basis_from_S(params: WLikeParams, s: np.ndarray) -> TeleportProtocol:
    """Protocol over a W-like state with corrections sigma^{(mn)} S.

    The receiver fixes one free unitary S; live outcome mn (000..011, in the
    Pauli index order) then has the element (I (x) S† sigma^{(mn)})|shared>
    re-slotted onto the message qubit (_protocol_from_corrections) and, every
    sigma being Hermitian, the branch operator +C_mn/2 = sigma^{(mn)} S / 2.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != (2, 2) or not is_unitary(s, ATOL):
        raise ValueError(f"S is not unitary (2x2 within tolerance {ATOL:g} required)")
    return _protocol_from_corrections(w_like_from_params(params), dict(enumerate(SIGMA_BY_INDEX)), s)


def protocol_from_basis(shared: PureState, basis: MeasurementBasis) -> TeleportProtocol:
    """Best-effort protocol for an arbitrary basis.

    Corrections are the polar unitary factors of the branch operators.
    Fidelity reaches 1 only when every branch operator is proportional to a
    unitary.
    """
    corrections = closest_unitary(branch_operators(basis, shared).ops)
    return TeleportProtocol(shared=shared, basis=basis, corrections=corrections)
