"""Dense complex linear algebra primitives for few-qubit systems (dimension <= 16)."""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

__all__ = [
    "HADAMARD",
    "IDENTITY",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "closest_unitary",
    "complete_orthonormal",
    "dagger",
    "haar_random_unitary",
    "is_unitary",
    "schmidt_decompose",
]

ATOL = 1e-10
# An array whose entries are all below this in magnitude is numerically zero.
ZERO_ATOL = 1e-12

IDENTITY = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def as_int(value, what: str) -> int:
    """`value` as an int; a bool, a float (3.0 too) or another non-integer is a ValueError, never truncated."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


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
    # the method, not np.max: the same reduction without np.max's dispatch
    return float(np.abs(a).max()) if a.size else 0.0


def isometry_deviation(a) -> float | np.ndarray:
    """Max-abs entry of a†a - I for a matrix, or of each matrix in a stack
    (..., m, n): the one deviation every orthonormality and unitarity check
    compares as `deviation <= tol`, so NaN fails. It is non-finite where `a`
    has a non-finite entry, and an overflow or an inf * 0 in the product makes
    it inf or NaN without a RuntimeWarning."""
    a = np.asarray(a, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        excess = dagger(a) @ a
        excess -= np.eye(a.shape[-1])
        # the modulus as sqrt(re^2 + im^2), the form scale_and_deviation takes; np.abs
        # (hypot) is slower and differs from it by at most an ulp
        squares = np.square(excess.real)
        squares += np.square(excess.imag)
    return np.sqrt(squares.max(axis=(-2, -1)))


def is_unitary(u: np.ndarray, tol: float = ATOL) -> bool | np.ndarray:
    """True iff the isometry deviation of u is within tol, which also requires u
    finite; for a stack (..., n, n), a bool array with that verdict per matrix."""
    u = np.asarray(u)
    if u.ndim < 2 or u.shape[-2] != u.shape[-1]:
        raise ValueError(f"operator must be square, got shape {u.shape}")
    unitary = isometry_deviation(u) <= tol
    return bool(unitary) if unitary.ndim == 0 else unitary


def haar_isometries(rng: np.random.Generator, count: int, dim: int, cols: int) -> np.ndarray:
    """Stack of `count` Haar dim x cols isometries, cols <= dim, the next ones in `rng`'s stream; with
    cols = dim, Haar unitaries. Isometry i is the Mezzadri-phased QR factor (Mezzadri, Notices AMS 54,
    592 (2007)) of (re + 1j im) / sqrt(2), its real then its imaginary part drawn within one
    standard_normal call, so it is the isometry a one-at-a-time draw would give."""
    parts = rng.standard_normal((count, 2, dim, cols))
    z = np.empty((count, dim, cols), dtype=complex)
    # without complex temporaries: numpy divides by the complex sqrt(2) + 0j as Smith's method does,
    # scaling each part by 1 / (sqrt(2) + 0 * 0); the bits agree for every part but -0.0 (p = 2**-52)
    scale = 1.0 / (np.sqrt(2.0) + 0.0 * 0.0)
    np.multiply(parts[:, 0], scale, out=z.real)
    np.multiply(parts[:, 1], scale, out=z.imag)
    # QR of a complex Gaussian is not Haar until the R diagonal phases are absorbed into Q
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _haar_from_rng(dim: int, rng: np.random.Generator) -> np.ndarray:
    return haar_isometries(rng, 1, dim, dim)[0]


def haar_random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed dim x dim unitary, deterministic for a fixed seed."""
    dim = as_int(dim, "dim")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return _haar_from_rng(dim, np.random.default_rng(seed))


def split_positions(positions: Sequence[int], n: int, what: str) -> tuple[list[int], list[int]]:
    """The one position rule: `positions` of n qubits, sorted without repeats, and the other positions.
    Raises unless each is an integer in [0, n) and they are a nonempty proper subset of the qubits."""
    chosen = sorted({as_int(q, what) for q in positions})
    if any(q < 0 or q >= n for q in chosen):
        raise ValueError(f"{what}s {chosen} out of range for {n} qubits")
    rest = [q for q in range(n) if q not in chosen]
    if not chosen or not rest:
        raise ValueError(f"{what}s must be a nonempty proper subset of the {n} qubits")
    return chosen, rest


def schmidt_decompose(amplitudes: np.ndarray, cut_qubits: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reduced SVD (u, s, vh) of the amplitudes as a (cut | rest) matrix, as np.linalg.svd returns it.

    `cut_qubits` are 0-based positions under split_positions' rule, position 0 being the most significant
    index bit. The Schmidt coefficients s are non-increasing; column k of u is the k-th Schmidt vector on
    the cut qubits (ascending position order), row k of vh the one on the remaining qubits.
    """
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    n = qubit_count(amps.size)
    cut, rest = split_positions(cut_qubits, n, "cut qubit")
    matrix = amps.reshape((2,) * n).transpose(cut + rest).reshape(2 ** len(cut), 2 ** len(rest))
    return np.linalg.svd(matrix, full_matrices=False)


def frame(a: np.ndarray) -> np.ndarray:
    """The left singular vectors of a (d, r) matrix past its first r, as rows, from one full SVD:
    an orthonormal basis of the complement of a's column space, each row orthogonal to every column."""
    return np.linalg.svd(a)[0][:, a.shape[1] :].T


def complete_orthonormal(rows: np.ndarray, dim: int) -> np.ndarray:
    """Extend orthonormal rows (a stack, a single 1-D row or none) to a basis of C^dim: the rows,
    with their bits, then frame(rows.T), the builders' rule. No rows complete to the identity;
    rows of another width raise ValueError, and a non-finite row numpy's LinAlgError."""
    rows = np.atleast_2d(np.asarray(rows, dtype=complex)) if np.size(rows) else np.zeros((0, dim), dtype=complex)
    if rows.ndim != 2 or rows.shape[1] != dim or len(rows) > dim:
        raise ValueError(f"expected at most {dim} rows of length {dim}, got shape {rows.shape}")
    return np.concatenate([rows, frame(rows.T)])


def closest_unitary(t: np.ndarray) -> np.ndarray:
    """Polar unitary factor W V† of a matrix, or of each matrix in a stack
    (..., n, n), from one batched SVD; the identity where a matrix is
    numerically zero (every entry below ZERO_ATOL)."""
    t = np.asarray(t, dtype=complex)
    w, _, vh = np.linalg.svd(t)
    zero = np.abs(t).max(axis=(-2, -1)) < ZERO_ATOL
    return np.where(zero[..., None, None], np.eye(t.shape[-1]), w @ vh)
