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


def outcome_bits(index: int, n_bits: int) -> tuple[int, ...]:
    return tuple((index >> (n_bits - 1 - k)) & 1 for k in range(n_bits))


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
    deviation: the larger max-abs entry of T†T - scale I and TT† - scale I."""
    ops = np.asarray(ops, dtype=complex)
    adj = dagger(ops)
    left, right = adj @ ops, ops @ adj
    scale = (left[..., 0, 0] + left[..., 1, 1]).real / 2.0
    shifted = scale[..., None, None] * np.eye(2)
    left -= shifted
    right -= shifted
    return scale, np.maximum(np.abs(left).max(axis=(-2, -1)), np.abs(right).max(axis=(-2, -1)))


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
    """Shared state, measurement basis and per-outcome corrections."""

    shared: PureState
    basis: MeasurementBasis
    corrections: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.basis.n_qubits != self.shared.n_qubits:
            raise ValueError("basis must act on as many qubits as the shared state")
        n_out = len(self.basis.rows)
        if len(self.corrections) != n_out:
            raise ValueError(f"expected {n_out} corrections, got {len(self.corrections)}")
        frozen = []
        for k, u in enumerate(self.corrections):
            u = np.array(u, dtype=complex)
            if u.shape != (2, 2) or not is_unitary(u, ATOL):
                raise ValueError(f"correction {k} is not a 2x2 unitary")
            u.setflags(write=False)
            frozen.append(u)
        object.__setattr__(self, "corrections", tuple(frozen))

    @property
    def coefficients(self) -> np.ndarray:
        """Branch magnitudes sqrt(tr(T†T)/2), exactly 0 where that weight is <= PROB_FLOOR."""
        weights, _ = scale_and_deviation(branch_operators(self.basis, self.shared).ops)
        return np.where(weights > PROB_FLOOR, np.sqrt(weights), 0.0)


@dataclass(frozen=True)
class BranchOutcome:
    index: tuple[int, ...]
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
    """Exact branch-by-branch execution.

    Probability of outcome k is ||T_k psi||^2; the receiver applies the
    inverse of the stored correction, so a perfect protocol returns psi on
    every reachable branch. Total fidelity is the probability-weighted mean.
    """
    if psi.n_qubits != 1:
        raise ValueError("message must be a single qubit")
    family = branch_operators(protocol.basis, protocol.shared)
    n_bits = protocol.basis.n_qubits
    outcomes = []
    total = 0.0
    for k, t in enumerate(family.ops):
        branch = t @ psi.amplitudes
        prob = float(np.sum(np.abs(branch) ** 2))
        if prob <= PROB_FLOOR:
            outcomes.append(BranchOutcome(outcome_bits(k, n_bits), prob, None))
            continue
        bob = dagger(protocol.corrections[k]) @ (branch / np.sqrt(prob))
        fid = float(abs(np.vdot(psi.amplitudes, bob)) ** 2)
        total += prob * fid
        outcomes.append(BranchOutcome(outcome_bits(k, n_bits), prob, fid))
    return TeleportResult(tuple(outcomes), total)


def sample_teleport(
    psi: PureState, protocol: TeleportProtocol, trials: int, seed: int
) -> SampleResult:
    """Sampled execution over the classical channel.

    The sender draws outcomes from the exact branch distribution; each drawn
    outcome is delivered as a classical bit string to a receiver that applies
    its correction. Philox keying makes trial batches reproducible and
    splittable.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    exact = run_teleport(psi, protocol)
    probs = np.array([o.probability for o in exact.outcomes])
    rng = np.random.Generator(np.random.Philox(key=seed))
    drawn = rng.choice(len(probs), size=trials, p=probs / probs.sum())
    counts = np.bincount(drawn, minlength=len(probs))
    fidelity_sum = 0.0
    for k, count in enumerate(counts):
        if count == 0:
            continue
        branch_fid = exact.outcomes[k].branch_fidelity
        fidelity_sum += count * (branch_fid if branch_fid is not None else 0.0)
    return SampleResult(counts=counts, empirical_fidelity=fidelity_sum / trials, trials=trials)


def _basis_with_completion(live: dict[int, np.ndarray], dim: int) -> MeasurementBasis:
    full = complete_orthonormal(np.stack([live[i] for i in sorted(live)]), dim)
    extras = iter(full[len(live) :])
    return MeasurementBasis(np.stack([live[i] if i in live else next(extras) for i in range(dim)]))


def bell_protocol() -> TeleportProtocol:
    """Baseline 2-qubit protocol over the bell(0,0) shared pair; four live branches."""
    basis = MeasurementBasis(
        np.stack([make_named_state(f"bell({m},{n})").amplitudes for m in (0, 1) for n in (0, 1)])
    )
    # element order is 00, 01, 10, 11
    corrections = (IDENTITY, PAULI_X, PAULI_Z, -1j * PAULI_Y)
    return TeleportProtocol(
        shared=make_named_state("bell(0,0)"), basis=basis, corrections=corrections
    )


def ghz_protocol() -> TeleportProtocol:
    """Perfect protocol over the GHZ state.

    Live outcomes are 000, 001, 100, 101 with corrections I, Z, X, -iY and
    branch magnitude 1/2 each; the four dead outcomes get probability 0 and
    identity corrections, with basis elements completed deterministically.
    """
    s = 1.0 / np.sqrt(2.0)
    live = {}
    for third, sign in ((0, 1.0), (1, -1.0)):
        e = np.zeros(8, dtype=complex)
        e[0], e[7] = s, sign * s
        live[third] = e  # outcomes 000 and 001
        e = np.zeros(8, dtype=complex)
        e[4], e[3] = s, sign * s
        live[4 + third] = e  # outcomes 100 and 101
    corrections = [IDENTITY] * 8
    corrections[0] = IDENTITY
    corrections[1] = PAULI_Z
    corrections[4] = PAULI_X
    corrections[5] = -1j * PAULI_Y
    return TeleportProtocol(
        shared=make_named_state("ghz"),
        basis=_basis_with_completion(live, 8),
        corrections=tuple(corrections),
    )


def w_like_protocol(params: WLikeParams) -> TeleportProtocol:
    """Perfect protocol over a W-like state.

    The live basis elements for outcomes 000..011 carry the state's own
    weights on shifted kets; corrections are I, Z, X, Y and the magnitudes
    are 1/2. Outcomes 100..111 are dead.
    """
    y = np.exp(1j * params.phi) * np.cos(params.gamma) / np.sqrt(2.0)
    z = np.exp(1j * params.omega) * np.sin(params.gamma) / np.sqrt(2.0)
    s = 1.0 / np.sqrt(2.0)
    live = {}
    for third, sign in ((0, 1.0), (1, -1.0)):
        e = np.zeros(8, dtype=complex)
        e[1], e[2], e[4] = y, z, sign * s
        live[third] = e  # outcomes 000 and 001
        e = np.zeros(8, dtype=complex)
        e[5], e[6], e[0] = y, z, sign * s
        live[2 + third] = e  # outcomes 010 and 011
    corrections = [IDENTITY] * 8
    corrections[0] = IDENTITY
    corrections[1] = PAULI_Z
    corrections[2] = PAULI_X
    corrections[3] = PAULI_Y
    return TeleportProtocol(
        shared=w_like_from_params(params),
        basis=_basis_with_completion(live, 8),
        corrections=tuple(corrections),
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
    gram = np.array(
        [[np.vdot(a.amplitudes, b.amplitudes) for b in twirled] for a in twirled]
    )
    return twirled, gram


def basis_from_S(params: WLikeParams, s: np.ndarray) -> TeleportProtocol:
    """Protocol over a W-like state with corrections sigma^{(mn)} S.

    The receiver fixes one free unitary S; the four live basis elements are
    then determined by contracting (S† sigma^{(mn)}) applied to the receiver
    slot of the shared state back onto the message slot. Live outcomes sit at
    000..011 in (m,n) order.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != (2, 2) or not is_unitary(s, ATOL):
        raise ValueError(f"S is not unitary (2x2 within tolerance {ATOL:g} required)")
    shared = w_like_from_params(params)
    live = {}
    corrections = [IDENTITY] * 8
    for mn, sigma in enumerate(SIGMA_BY_INDEX):
        v = _apply_to_last_qubit(shared.amplitudes, dagger(s) @ sigma)
        # re-slot the receiver contraction onto the message qubit:
        # element[4a+2b+c] = v[4b+2c+a]
        live[mn] = v.reshape(2, 2, 2).transpose(2, 0, 1).reshape(8)
        corrections[mn] = sigma @ s
    return TeleportProtocol(
        shared=shared, basis=_basis_with_completion(live, 8), corrections=tuple(corrections)
    )


def protocol_from_basis(shared: PureState, basis: MeasurementBasis) -> TeleportProtocol:
    """Best-effort protocol for an arbitrary basis.

    Corrections are the polar unitary factors of the branch operators.
    Fidelity reaches 1 only when every branch operator is proportional to a
    unitary.
    """
    corrections = tuple(closest_unitary(t) for t in branch_operators(basis, shared).ops)
    return TeleportProtocol(shared=shared, basis=basis, corrections=corrections)
