"""Dense complex linear algebra primitives for few-qubit systems (dimension <= 16)."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

ATOL = 1e-10
PIVOT_TOL = 1e-8
# An array whose entries are all below this in magnitude is numerically zero.
ZERO_ATOL = 1e-12

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


# SeedSequence hashing constants, from numpy/random/bit_generator.pyx.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG_DEFAULT_MULTIPLIER_128, from numpy/random/src/pcg64/pcg64.h.
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = 2**128 - 1


def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """SeedSequence's hash constant at each of `steps` + 1 points: init, then
    multiplied by `mult` modulo 2**32 at each step; shape (steps + 1, 1)."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult % 2**32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashing step (hashmix, or one generate_state word) on the
    uint32 rows of `values`, row i xored with consts[i] and multiplied by
    consts[i + 1]."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> np.uint32(16))


# generate_state(4, np.uint64) draws 8 words with these constants
_GENERATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def spawned_pcg64_states(seed: int, start: int, count: int) -> list[dict]:
    """PCG64 states of default_rng(child) for the children start..start+count-1
    of SeedSequence(seed), computed for all of them at once.

    numpy's stream-compatibility policy (NEP 19) fixes SeedSequence and PCG64
    seeding, and this follows their source. A child's entropy is the seed's
    uint32 words, zero-padded to the pool size, then its spawn key, one word
    while start + count <= 2**32. Up to that last word the child mixes exactly
    what its parent mixes, so it starts from the parent's pool and from the
    hash constant after the parent's 16 + 4 * (words beyond the pool) hashmix
    calls; the key is then hashmixed into each pool word. generate_state(4,
    uint64) yields PCG64's seed and sequence words, which pcg64_set_seed turns
    into (state, inc).
    """
    seed = operator.index(seed)
    parent = np.random.SeedSequence(seed)
    words = max(1, -(-seed.bit_length() // 32))
    calls = _POOL_SIZE**2 + _POOL_SIZE * max(0, words - _POOL_SIZE)
    keys = np.arange(start, start + count, dtype=np.uint64).astype(np.uint32)
    mixed = _hash(keys, _hash_constants(_INIT_A * pow(_MULT_A, calls, 2**32) % 2**32, _MULT_A, _POOL_SIZE))
    # mix(pool word, hashmix(key)): MIX_MULT_L * x - MIX_MULT_R * y, folded
    pool = np.uint32(_MIX_MULT_L) * parent.pool[:, None] - np.uint32(_MIX_MULT_R) * mixed
    pool ^= pool >> np.uint32(16)
    # 8 words cycling over the pool, read as little-endian pairs
    out = _hash(np.tile(pool, (2, 1)), _GENERATE_CONSTANTS).astype(np.uint64)
    states = []
    for seed_hi, seed_lo, seq_hi, seq_lo in (out[0::2] | out[1::2] << np.uint64(32)).T.tolist():
        # pcg64_set_seed: inc = 2 * initseq + 1; an LCG step from 0, add
        # initstate, another LCG step
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append(
            {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        )
    return states


def _haar_from_states(dim: int, rng: np.random.Generator, states: Sequence[dict]) -> np.ndarray:
    """Stack of Haar unitaries, one per bit-generator state: `rng` is set to
    each state in turn and draws the real, then the imaginary Gaussian part.
    Unitary i depends on states[i] alone, so a caller may overwrite any of
    them without moving the others."""
    parts = np.empty((2, len(states), dim, dim))
    bit_generator = rng.bit_generator
    for i, state in enumerate(states):
        bit_generator.state = state
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
    return _haar_from_states(dim, rng, [rng.bit_generator.state])[0]


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
    """Polar unitary factor W V† of a matrix, or of each matrix in a stack
    (..., n, n), from one batched SVD; the identity where a matrix is
    numerically zero (every entry below ZERO_ATOL)."""
    t = np.asarray(t, dtype=complex)
    w, _, vh = np.linalg.svd(t)
    zero = np.abs(t).max(axis=(-2, -1)) < ZERO_ATOL
    return np.where(zero[..., None, None], np.eye(t.shape[-1]), w @ vh)
