"""Named shared states, density matrices, partial traces, and entanglement entropy.

Qubit order is big-endian everywhere: position 0 is the most significant bit
of the basis index, so a 3-qubit basis ket |abc> sits at index 4a + 2b + c,
and np.kron(a, b) puts the qubits of a before those of b.
For a shared resource state the sender holds every position but the last; the
receiver's qubit is always the last position.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from functools import cache
from typing import Sequence

import numpy as np

from .linalg import ATOL, as_int, haar_random_unitary, max_abs, qubit_count, split_positions

__all__ = [
    "DensityMatrix",
    "PureState",
    "WLikeParams",
    "bloch_qubit",
    "entanglement_entropy",
    "fidelity",
    "haar_random_state",
    "make_named_state",
    "make_w_like",
    "partial_trace",
    "w_like_from_params",
]

_BELL_RE = re.compile(r"^bell\(\s*([01])\s*,\s*([01])\s*\)$")
_SQRT2 = math.sqrt(2.0)
_TRUSTED = ("PureState", "DensityMatrix", "MeasurementBasis", "TeleportProtocol")


def _require_finite(values: np.ndarray, what: str) -> None:
    # on complex input isfinite is False where either part is inf or nan
    if not np.isfinite(values).all():
        raise ValueError(f"{what} contains non-finite entries")


def check_unit_norm(amplitudes: np.ndarray) -> None:
    """Raise unless every row (..., 2**n) is finite with unit squared norm within ATOL.

    One deviation decides: a non-finite entry makes it inf or NaN, which fails
    `deviation <= ATOL`, and only a failing input is scanned for such entries,
    whose error comes first.
    """
    # an overflowing square gives an infinite deviation without a RuntimeWarning
    with np.errstate(over="ignore"):
        deviation = max_abs((np.abs(amplitudes) ** 2).sum(axis=-1) - 1.0)
    if not deviation <= ATOL:
        _require_finite(amplitudes, "amplitudes")
        raise ValueError(f"squared norm deviates from 1 by {deviation:.3e} (> {ATOL:g})")


def as_qubit_count(n_qubits: int) -> int:
    """n_qubits as a Python int; raise unless it is an integer >= 1."""
    n_qubits = as_int(n_qubits, "n_qubits")
    if n_qubits < 1:
        raise ValueError("n_qubits must be at least 1")
    return n_qubits


def check_qubit_count(n_qubits: int, size: int, what: str = "amplitudes") -> int:
    """n_qubits as a Python int; raise unless it is an integer >= 1 and `size` is 2**n_qubits."""
    n_qubits = as_qubit_count(n_qubits)
    # compare qubit counts: 2**n_qubits of an unchecked n_qubits may be huge
    if qubit_count(size) != n_qubits:
        raise ValueError(f"expected 2**{n_qubits} {what}, got {size}")
    return n_qubits


@cache
def _stored_fields(cls) -> tuple[tuple[str, bool], ...]:
    """Each field of `cls` (one of _TRUSTED) as (name, whether it is an np.ndarray); read once per class.
    A refused class raises every time, since a cache keeps no exception."""
    if cls.__name__ not in _TRUSTED:
        raise TypeError(f"trusted builds only {', '.join(_TRUSTED)}, not {cls.__name__}")
    return tuple((field.name, field.type == "np.ndarray") for field in fields(cls))


def trusted(cls, **values):
    """The `cls` (one of _TRUSTED) that its constructor would store from values derived from checked
    ones, built without its checks; its np.ndarray field as a complex, C-ordered, read-only copy."""
    layout = _stored_fields(cls)
    obj = object.__new__(cls)
    for name, is_array in layout:
        value = values[name]
        if is_array:
            value = np.array(value, dtype=complex, order="C")
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector over the 2**n computational basis."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex, order="C").reshape(-1)
        object.__setattr__(self, "n_qubits", check_qubit_count(self.n_qubits, amps.size))
        check_unit_norm(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> "DensityMatrix":
        matrix = np.outer(self.amplitudes, self.amplitudes.conj())  # Hermitian, PSD, of the checked trace
        return trusted(DensityMatrix, n_qubits=self.n_qubits, matrix=matrix)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-1 matrix on a qubit register.

    Invariants are enforced here, at construction, so downstream operations
    never re-validate.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        object.__setattr__(self, "n_qubits", check_qubit_count(self.n_qubits, len(m), "rows"))
        _require_finite(m, "density matrix")
        if max_abs(m - m.conj().T) > ATOL:
            raise ValueError(f"density matrix is not Hermitian within {ATOL:g}")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > ATOL:
            raise ValueError(f"trace deviates from 1 by {abs(trace - 1.0):.3e}")
        eigs = np.linalg.eigvalsh(m)
        if float(eigs.min()) < -ATOL:
            raise ValueError(f"negative eigenvalue {eigs.min():.3e} below {-ATOL:g}")
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


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2; the phase-insensitive notion of state equality used throughout."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def bloch_qubit(theta: float, phi: float) -> PureState:
    """Single qubit cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError("angles must be finite")
    amps = [math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)]
    return trusted(PureState, n_qubits=1, amplitudes=amps)


def make_named_state(name: str) -> PureState:
    """Construct ghz, w, or bell(m,n) by name; unit vectors by construction, so unchecked."""
    key = name.strip().lower()
    match = _BELL_RE.match(key)
    amps = np.zeros(4 if match else 8, dtype=complex)
    if key == "ghz":
        amps[0] = amps[7] = 1.0 / _SQRT2
    elif key == "w":
        amps[1] = amps[2] = amps[4] = 1.0 / math.sqrt(3.0)
    elif match:
        m, n = int(match.group(1)), int(match.group(2))
        amps[[0, 3] if n == 0 else [1, 2]] = 1.0 / _SQRT2, (-1.0) ** m / _SQRT2
    else:
        raise ValueError(f"unknown state name {name!r}; expected ghz, w, or bell(m,n)")
    return trusted(PureState, n_qubits=qubit_count(amps.size), amplitudes=amps)


def make_w_like(x: complex, y: complex, z: complex) -> PureState:
    """Single-excitation 3-qubit state x|001> + y|010> + z|100>.

    The weights must already be normalized: PureState rejects an unnormalized
    input with the measured deviation rather than silently rescaling it.
    """
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


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out the complement of `keep` (0-based positions, split_positions' rule; ascending order kept)."""
    n = rho.n_qubits
    kept, traced = split_positions(keep, n, "qubit position")
    perm = kept + traced + [n + q for q in kept] + [n + q for q in traced]
    tensor = rho.matrix.reshape((2,) * (2 * n)).transpose(perm)
    k, t = 2 ** len(kept), 2 ** len(traced)
    reduced = np.einsum("atbt->ab", tensor.reshape(k, t, k, t))
    return trusted(DensityMatrix, n_qubits=len(kept), matrix=reduced)  # a reduction keeps the tolerance rho was checked to


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
    """Haar-random pure state: first column of a Haar-random unitary, unit to 64 eps."""
    n_qubits = as_qubit_count(n_qubits)
    return trusted(PureState, n_qubits=n_qubits, amplitudes=haar_random_unitary(2**n_qubits, seed)[:, 0])
