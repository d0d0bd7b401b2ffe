"""Named shared states, density matrices, partial traces, and entanglement entropy.

Qubit order is big-endian everywhere: position 0 is the most significant bit
of the basis index, so a 3-qubit basis ket |abc> sits at index 4a + 2b + c.
For a shared resource state the sender holds every position but the last; the
receiver's qubit is always the last position.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import haar_random_unitary, max_abs, qubit_count

NORM_ATOL = 1e-10
_BELL_RE = re.compile(r"^bell\(\s*([01])\s*,\s*([01])\s*\)$")
_SQRT2 = math.sqrt(2.0)


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
        raise ValueError(f"{what} contains non-finite entries")


def check_unit_norm(amplitudes: np.ndarray) -> None:
    """Raise unless every row (..., 2**n) is finite with unit squared norm within NORM_ATOL."""
    _require_finite(amplitudes, "amplitudes")
    # an overflowing square gives an infinite deviation without a RuntimeWarning
    with np.errstate(over="ignore"):
        deviation = max_abs(np.sum(np.abs(amplitudes) ** 2, axis=-1) - 1.0)
    if deviation > NORM_ATOL:
        raise ValueError(f"squared norm deviates from 1 by {deviation:.3e} (> {NORM_ATOL:g})")


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector over the 2**n computational basis."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be at least 1")
        # compare qubit counts: 2**n_qubits of an unchecked n_qubits may be huge
        if qubit_count(amps.size) != self.n_qubits:
            raise ValueError(f"expected 2**{self.n_qubits} amplitudes, got {amps.size}")
        check_unit_norm(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_array(cls, amplitudes) -> "PureState":
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        return cls(qubit_count(amps.size), amps)

    def tensor(self, other: "PureState") -> "PureState":
        return PureState(
            self.n_qubits + other.n_qubits, np.kron(self.amplitudes, other.amplitudes)
        )

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-1 matrix on a qubit register.

    Invariants are enforced here, at construction, so downstream operations
    never re-validate.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        dim = 2**self.n_qubits
        if m.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
        _require_finite(m, "density matrix")
        if max_abs(m - m.conj().T) > NORM_ATOL:
            raise ValueError(f"density matrix is not Hermitian within {NORM_ATOL:g}")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > NORM_ATOL:
            raise ValueError(f"trace deviates from 1 by {abs(trace - 1.0):.3e}")
        eigs = np.linalg.eigvalsh(m)
        if float(eigs.min()) < -NORM_ATOL:
            raise ValueError(f"negative eigenvalue {eigs.min():.3e} below {-NORM_ATOL:g}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class WLikeParams:
    """Angles (radians) of the single-excitation family with a maximally mixed
    receiver qubit; values are free reals, deliberately not range-normalized."""

    gamma: float
    phi: float
    omega: float

    def __post_init__(self) -> None:
        for name in ("gamma", "phi", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class WClassParams:
    """Weight parameter n >= 0 and phases of the earlier modified-W family."""

    n: float
    p: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("n", "p", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n < 0:
            raise ValueError("n must be non-negative")


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2; the phase-insensitive notion of state equality used throughout."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def bloch_qubit(theta: float, phi: float) -> PureState:
    """Single qubit cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError("angles must be finite")
    return PureState(
        1,
        np.array(
            [math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)], dtype=complex
        ),
    )


def make_named_state(name: str) -> PureState:
    """Construct ghz, w, or bell(m,n) by name."""
    key = name.strip().lower()
    if key == "ghz":
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[7] = 1.0 / _SQRT2
        return PureState(3, amps)
    if key == "w":
        amps = np.zeros(8, dtype=complex)
        amps[1] = amps[2] = amps[4] = 1.0 / math.sqrt(3.0)
        return PureState(3, amps)
    match = _BELL_RE.match(key)
    if match:
        m, n = int(match.group(1)), int(match.group(2))
        sign = (-1.0) ** m
        amps = np.zeros(4, dtype=complex)
        if n == 0:
            amps[0], amps[3] = 1.0 / _SQRT2, sign / _SQRT2
        else:
            amps[1], amps[2] = 1.0 / _SQRT2, sign / _SQRT2
        return PureState(2, amps)
    raise ValueError(f"unknown state name {name!r}; expected ghz, w, or bell(m,n)")


def make_w_like(x: complex, y: complex, z: complex) -> PureState:
    """Single-excitation 3-qubit state x|001> + y|010> + z|100>.

    The weights must already be normalized; a violation is rejected with the
    measured deviation rather than silently rescaled.
    """
    weight = abs(x) ** 2 + abs(y) ** 2 + abs(z) ** 2
    if abs(weight - 1.0) > NORM_ATOL:
        raise ValueError(
            f"|x|^2+|y|^2+|z|^2 deviates from 1 by {abs(weight - 1.0):.3e} (> {NORM_ATOL:g})"
        )
    amps = np.zeros(8, dtype=complex)
    amps[1], amps[2], amps[4] = x, y, z
    return PureState(3, amps)


def w_like_from_params(params: WLikeParams) -> PureState:
    """W-like state with weights (1, e^{i phi} cos(gamma), e^{i omega} sin(gamma))/sqrt(2)."""
    return make_w_like(
        1.0 / _SQRT2,
        np.exp(1j * params.phi) * math.cos(params.gamma) / _SQRT2,
        np.exp(1j * params.omega) * math.sin(params.gamma) / _SQRT2,
    )


def w_class_to_w_like(params: WClassParams) -> WLikeParams:
    """Change of variables from the (n, p, delta) family into W-like angles.

    The returned angles reproduce the source state up to the global phase
    e^{-i delta}: gamma = arccos sqrt(n/(n+1)), phi = p - delta, omega = -delta.
    """
    gamma = math.acos(math.sqrt(params.n / (params.n + 1.0)))
    return WLikeParams(gamma=gamma, phi=params.p - params.delta, omega=-params.delta)


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out the complement of `keep` (0-based positions, ascending order kept)."""
    n = rho.n_qubits
    kept = sorted(set(int(q) for q in keep))
    if any(q < 0 or q >= n for q in kept):
        raise ValueError(f"keep set {kept} out of range for {n} qubits")
    if not kept or len(kept) == n:
        raise ValueError("keep must be a nonempty proper subset of the qubits")
    traced = [q for q in range(n) if q not in kept]
    perm = kept + traced + [n + q for q in kept] + [n + q for q in traced]
    tensor = rho.matrix.reshape((2,) * (2 * n)).transpose(perm)
    k, t = 2 ** len(kept), 2 ** len(traced)
    reduced = np.einsum("atbt->ab", tensor.reshape(k, t, k, t))
    return DensityMatrix(len(kept), reduced)


def shannon_entropy(probs: np.ndarray) -> float:
    """Entropy in bits of a probability vector, with 0 log 0 := 0.

    Entries are clipped to [0, 1] first; raw negatives would poison the log.
    """
    p = np.clip(probs, 0.0, 1.0)
    positive = p[p > 0.0]
    return float(-np.sum(positive * np.log2(positive)))


def entanglement_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits: the Shannon entropy of the eigenvalues."""
    return shannon_entropy(np.linalg.eigvalsh(rho.matrix))


def haar_random_state(n_qubits: int, seed: int) -> PureState:
    """Haar-random pure state: first column of a Haar-random unitary."""
    return PureState(n_qubits, haar_random_unitary(2**n_qubits, seed)[:, 0])
