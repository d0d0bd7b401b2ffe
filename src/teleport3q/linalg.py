"""Dense complex linear algebra primitives for few-qubit systems (dimension <= 16)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ATOL = 1e-10
PIVOT_TOL = 1e-8

IDENTITY = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def qubit_count(size: int) -> int:
    """Number of qubits for a vector length, rejecting non-powers of two."""
    n = int(size).bit_length() - 1
    if n < 0 or 2**n != size:
        raise ValueError(f"length {size} is not a power of two")
    return n


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (..., m, n)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def max_abs(a) -> float:
    """Largest entry magnitude; the norm used by every tolerance check here."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors or two operators.

    Big-endian composition: the qubits of `a` land on the most significant
    bits of the composite index.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_unitary(u: np.ndarray, tol: float = ATOL) -> bool:
    """True iff u is finite and the max-abs entry of u†u - I is within tol."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"operator must be square, got shape {u.shape}")
    # checked first: inf * 0 in the product is NaN, with a RuntimeWarning
    return bool(np.isfinite(u).all()) and max_abs(dagger(u) @ u - np.eye(u.shape[0])) <= tol


def _haar_from_rngs(dim: int, rngs: Sequence[np.random.Generator | None]) -> np.ndarray:
    """Stack of Haar unitaries, one per generator (real Gaussian part drawn
    first). A None slot gets the identity, a placeholder for the caller to
    overwrite, so the batched QR never reads uninitialised memory."""
    parts = np.empty((2, len(rngs), dim, dim))
    for i, rng in enumerate(rngs):
        if rng is None:
            parts[0, i], parts[1, i] = np.eye(dim), 0.0
        else:
            rng.standard_normal(out=parts[0, i])
            rng.standard_normal(out=parts[1, i])
    z = parts[0] + 1j * parts[1]
    z /= np.sqrt(2.0)
    # QR of a complex Gaussian is not Haar until the R diagonal phases are
    # absorbed into Q (Mezzadri construction).
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def _haar_from_rng(dim: int, rng: np.random.Generator) -> np.ndarray:
    return _haar_from_rngs(dim, [rng])[0]


def haar_random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed dim x dim unitary, deterministic for a fixed seed."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return _haar_from_rng(dim, np.random.default_rng(seed))


@dataclass(frozen=True)
class SchmidtForm:
    """Bipartite canonical form of a pure state.

    `coefficients` are non-increasing and non-negative with unit sum of
    squares; factor rows are orthonormal on their respective subsystems.
    """

    coefficients: np.ndarray
    left_factors: np.ndarray
    right_factors: np.ndarray


def schmidt_decompose(amplitudes: np.ndarray, cut_qubits: Sequence[int]) -> SchmidtForm:
    """Singular value decomposition across the (cut | rest) bipartition.

    `cut_qubits` are 0-based positions, position 0 being the most significant
    index bit. Left factors live on the cut qubits (ascending position order),
    right factors on the remaining qubits.
    """
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    n = qubit_count(amps.size)
    cut = sorted(set(int(q) for q in cut_qubits))
    if any(q < 0 or q >= n for q in cut):
        raise ValueError(f"cut qubits {cut} out of range for {n} qubits")
    rest = [q for q in range(n) if q not in cut]
    if not cut or not rest:
        raise ValueError("cut must be a nonempty proper subset of the qubits")
    matrix = amps.reshape((2,) * n).transpose(cut + rest).reshape(2 ** len(cut), 2 ** len(rest))
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    return SchmidtForm(coefficients=s, left_factors=u.T.copy(), right_factors=vh.copy())


def complete_orthonormal(rows: np.ndarray, dim: int) -> np.ndarray:
    """Extend orthonormal rows to a full orthonormal basis of C^dim.

    Candidates are the computational-basis kets taken in index order, so the
    completion is reproducible without any randomness; a candidate whose
    residual norm is at most PIVOT_TOL is skipped. Each accepted vector is
    orthogonalized twice; a single Gram-Schmidt pass loses digits when the
    pivot norm is small.
    """
    basis = [np.asarray(r, dtype=complex) for r in np.atleast_2d(rows)] if np.size(rows) else []
    for k in range(dim):
        if len(basis) == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[k] = 1.0
        for _ in range(2):
            for b in basis:
                v = v - np.vdot(b, v) * b
        norm = float(np.linalg.norm(v))
        if norm > PIVOT_TOL:
            basis.append(v / norm)
    if len(basis) != dim:
        raise RuntimeError(f"could not complete basis: got {len(basis)} of {dim} vectors")
    return np.stack(basis)


def closest_unitary(t: np.ndarray) -> np.ndarray:
    """Polar unitary factor of t; identity for (numerically) zero input."""
    t = np.asarray(t, dtype=complex)
    if max_abs(t) < 1e-12:
        return np.eye(t.shape[0], dtype=complex)
    w, _, vh = np.linalg.svd(t)
    return w @ vh
