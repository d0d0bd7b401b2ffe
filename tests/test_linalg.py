import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from teleport3q.linalg import (
    IDENTITY,
    PAULI_X,
    ZERO_ATOL,
    closest_unitary,
    complete_orthonormal,
    dagger,
    haar_isometries,
    haar_random_unitary,
    is_unitary,
    isometry_deviation,
    max_abs,
    qubit_count,
    schmidt_decompose,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def test_tensor_product_basis_kets():
    out = np.kron(KET0, KET1)
    expected = np.zeros(4, dtype=complex)
    expected[1] = 1.0
    np.testing.assert_allclose(out, expected)


def test_tensor_product_identities():
    np.testing.assert_allclose(np.kron(IDENTITY, IDENTITY), np.eye(4))


def test_tensor_product_ket0_with_ghz():
    # hand-indexed: |0> (x) (|000>+|111>)/sqrt(2) puts 1/sqrt(2) at 0 and 7 of 16
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
    out = np.kron(KET0, ghz)
    assert out.shape == (16,)
    expected = np.zeros(16, dtype=complex)
    expected[0] = expected[7] = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(out, expected)


def test_adjoint_distributes_over_kron():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = dagger(np.kron(a, b))
        rhs = np.kron(dagger(a), dagger(b))
        assert max_abs(lhs - rhs) <= 1e-12


def test_is_unitary_pauli():
    assert is_unitary(PAULI_X, 1e-10)


def test_is_unitary_rejects_zero_and_scaling():
    assert not is_unitary(np.zeros((2, 2)), 1e-10)
    assert not is_unitary(np.diag([1.0, 2.0]), 1e-10)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1j * np.inf])
def test_is_unitary_rejects_non_finite_entries(bad):
    u = np.eye(2, dtype=complex)
    u[1, 1] = bad
    assert not is_unitary(u)


def test_is_unitary_gives_one_verdict_per_matrix_of_a_stack():
    # an overflowing product and an inf * 0 fail their matrix without a RuntimeWarning
    stack = np.stack([PAULI_X, np.zeros((2, 2)), np.diag([1e200, 1.0]), np.diag([np.inf, 1.0]), IDENTITY])
    verdicts = is_unitary(stack)
    assert verdicts.dtype == bool
    assert verdicts.tolist() == [True, False, False, False, True]
    assert [is_unitary(u) for u in stack] == verdicts.tolist()


@pytest.mark.parametrize("dim", [2, 8])
def test_isometry_deviation_matches_the_max_abs_definition(dim):
    # sqrt(re^2 + im^2) against numpy's abs (hypot), on matrices far from and near unitary
    rng = np.random.default_rng(dim)
    gaussian = rng.standard_normal((300, dim, dim)) + 1j * rng.standard_normal((300, dim, dim))
    for stack in (gaussian, haar_isometries(rng, 300, dim, dim)):
        reference = np.abs(dagger(stack) @ stack - np.eye(dim)).max(axis=(-2, -1))
        deviation = isometry_deviation(stack)
        assert deviation.shape == reference.shape
        assert np.all(np.abs(deviation - reference) <= 4 * np.spacing(reference))
    assert np.ndim(isometry_deviation(gaussian[0])) == 0


def test_is_unitary_rejects_non_square():
    with pytest.raises(ValueError):
        is_unitary(np.zeros((2, 3)))


def test_haar_unitary_by_construction():
    u = haar_random_unitary(8, 123)
    assert is_unitary(u, 1e-10)


def test_haar_deterministic_bit_for_bit():
    a = haar_random_unitary(8, 42)
    b = haar_random_unitary(8, 42)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_haar_draw_order_is_real_then_imaginary(dim):
    """The draw rebuilt here from its definition pins the stream order: a
    real Gaussian matrix, then an imaginary one, QR and the Mezzadri phases."""
    for seed in range(24):
        rng = np.random.default_rng(seed)
        z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        phases = np.diagonal(r) / np.abs(np.diagonal(r))
        assert (q * phases).tobytes() == haar_random_unitary(dim, seed).tobytes()


@pytest.mark.parametrize("dim", [2, 8])
def test_haar_isometries_continue_one_stream(dim):
    """A stack of draws is the same isometries, bit for bit, as one draw at a
    time from the same generator, however the stream is split; with as many
    columns as rows, the first is haar_random_unitary's."""
    for cols in sorted({min(4, dim), dim}):
        one_at_a_time = np.random.default_rng(5)
        singles = np.stack([haar_isometries(one_at_a_time, 1, dim, cols)[0] for _ in range(20)])
        rng = np.random.default_rng(5)
        stacked = np.concatenate([haar_isometries(rng, count, dim, cols) for count in (7, 1, 12)])
        assert stacked.tobytes() == singles.tobytes()
    assert singles[0].tobytes() == haar_random_unitary(dim, 5).tobytes()


def test_haar_unitary_many_seeds():
    for seed in range(1000):
        dim = (2, 4, 8, 16)[seed % 4]
        u = haar_random_unitary(dim, seed)
        assert max_abs(dagger(u) @ u - np.eye(dim)) <= 1e-10


def test_haar_marginal_mean():
    # |u00|^2 of a Haar 2x2 unitary is uniform on [0, 1]: mean 1/2
    samples = [abs(haar_random_unitary(2, seed)[0, 0]) ** 2 for seed in range(10_000)]
    assert abs(np.mean(samples) - 0.5) <= 0.02


def test_haar_rejects_bad_dim():
    with pytest.raises(ValueError, match="dim must be >= 1"):
        haar_random_unitary(0, 1)


@pytest.mark.parametrize("dim", [True, 2.5, 2.0, np.float64(4.0), "4"])
def test_haar_dim_must_be_an_integer(dim):
    with pytest.raises(ValueError, match=f"dim must be an integer, got {re.escape(repr(dim))}"):
        haar_random_unitary(dim, 0)


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_one_dimensional_haar_unitary_is_a_phase(seed):
    u = haar_random_unitary(1, seed)
    assert u.shape == (1, 1) and is_unitary(u)


def test_qubit_count_of_one_amplitude_is_zero():
    assert qubit_count(1) == 0
    assert qubit_count(2) == 1
    with pytest.raises(ValueError, match="^length 0 is not a power of two$"):
        qubit_count(0)


def test_schmidt_bell_coefficients():
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    _, s, _ = schmidt_decompose(bell, (0,))
    np.testing.assert_allclose(s, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_schmidt_product_state_rank_one():
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi /= np.linalg.norm(psi)
    state = np.kron(KET0, psi)
    _, s, _ = schmidt_decompose(state, (0,))
    np.testing.assert_allclose(s, [1.0, 0.0], atol=1e-12)


def test_schmidt_w_state_cut_receiver():
    w = np.zeros(8, dtype=complex)
    w[1] = w[2] = w[4] = 1.0 / np.sqrt(3.0)
    _, s, _ = schmidt_decompose(w, (0, 1))
    np.testing.assert_allclose(s, [np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 3.0)], atol=1e-12)


def test_schmidt_invariants_random_states():
    rng = np.random.default_rng(7)
    for _ in range(10):
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        amps /= np.linalg.norm(amps)
        u, s, vh = schmidt_decompose(amps, (0, 2))
        assert abs(np.sum(s**2) - 1.0) <= 1e-10
        # the Schmidt vectors: the columns of u and the rows of vh
        for factors in (u.T, vh):
            gram = factors.conj() @ factors.T
            assert max_abs(gram - np.eye(factors.shape[0])) <= 1e-10
        # reconstruct on the (cut, rest) axis order, then undo the qubit reorder
        rebuilt = sum(c * np.kron(l, r) for c, l, r in zip(s, u.T, vh))
        # cut (0,2) of 4 qubits: transposed order was (0,2,1,3)
        rebuilt = rebuilt.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(-1)
        assert max_abs(rebuilt - amps) <= 1e-10


def test_schmidt_rejects_empty_and_full_cuts():
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    subset = r"^cut qubits must be a nonempty proper subset of the 2 qubits$"
    with pytest.raises(ValueError, match=subset):
        schmidt_decompose(amps, ())
    with pytest.raises(ValueError, match=subset):
        schmidt_decompose(amps, (0, 1))


def test_schmidt_rejects_a_position_equal_to_the_qubit_count():
    """The shared position rule takes positions 0 to n - 1 of n qubits."""
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    with pytest.raises(ValueError, match=r"^cut qubits \[3\] out of range for 3 qubits$"):
        schmidt_decompose(w, (3,))
    with pytest.raises(ValueError, match=r"^cut qubits \[-1\] out of range for 3 qubits$"):
        schmidt_decompose(w, (-1,))
    _, s, _ = schmidt_decompose(w, (2,))
    np.testing.assert_allclose(s, [np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 3.0)], atol=1e-12)


@pytest.mark.parametrize("cut", [[0.5], [True], [0, 1.0]])
def test_schmidt_cut_qubits_must_be_integers(cut):
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    with pytest.raises(ValueError, match="cut qubit must be an integer"):
        schmidt_decompose(w, cut)


def test_complete_orthonormal_is_deterministic_and_unitary():
    rows = np.array([[1.0, 1.0, 0.0, 0.0]], dtype=complex) / np.sqrt(2.0)
    a = complete_orthonormal(rows, 4)
    b = complete_orthonormal(rows, 4)
    assert np.array_equal(a, b)
    assert max_abs(a.conj() @ a.T - np.eye(4)) <= 1e-12


@st.composite
def partial_bases(draw):
    """Orthonormal rows on a random set of `support` columns, exact zeros on
    the others, with optional noise; with as many rows as columns, every
    candidate on the support lies in their span."""
    dim = draw(st.sampled_from([2, 4, 8, 16]))
    support = draw(st.integers(1, dim))
    count = draw(st.integers(0, support))
    noise = draw(st.sampled_from([0.0, 1e-13, 1e-10, 1e-6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = rng.permutation(dim)[:support]
    rows = np.zeros((count, dim), dtype=complex)
    rows[:, columns] = haar_isometries(rng, 1, support, support)[0][:count]
    rows[:, columns] += noise * (rng.standard_normal((count, support)) + 1j * rng.standard_normal((count, support)))
    return rows, dim


# orthonormal rows that are computational kets: every other ket is orthogonal to them or in their span
KETS = (np.eye(8, dtype=complex)[[5, 0, 3]] * [[1j], [-1.0], [1.0]], 8)


@settings(max_examples=300)
@given(case=partial_bases())
@example(case=(np.zeros((0, 4), dtype=complex), 4))
@example(case=KETS)
def test_completion_keeps_the_rows_and_is_orthonormal(case):
    """The rows come first with their bits; rows orthonormal within ZERO_ATOL complete to a basis no
    farther from orthonormal than they are, to rounding."""
    rows, dim = case
    full = complete_orthonormal(rows, dim)
    assert full.shape == (dim, dim)
    assert full[: len(rows)].tobytes() == rows.tobytes()
    deviation = isometry_deviation(rows.T) if len(rows) else 0.0
    if deviation <= ZERO_ATOL:
        assert isometry_deviation(full.T) <= deviation + 1e-14


def test_completion_of_a_non_finite_row_fails():
    # the frame's SVD does not converge on NaN
    rows = np.zeros((1, 4), dtype=complex)
    rows[0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        complete_orthonormal(rows, 4)


def test_completion_takes_one_row_or_none():
    row = np.array([1.0, 1.0j, 0.0, 0.0]) / np.sqrt(2.0)
    full = complete_orthonormal(row, 4)
    assert full.shape == (4, 4) and full[0].tobytes() == row.tobytes()
    assert isometry_deviation(full.T) <= 1e-15
    assert complete_orthonormal(np.zeros((0, 4)), 4).tobytes() == np.eye(4, dtype=complex).tobytes()
    assert complete_orthonormal([], 4).tobytes() == np.eye(4, dtype=complex).tobytes()


@pytest.mark.parametrize("rows", [np.eye(2), np.eye(8)[:1], np.eye(4)[[0, 1, 2, 3, 0]], np.zeros((1, 2, 4))])
def test_completion_rejects_rows_of_another_shape(rows):
    with pytest.raises(ValueError, match=r"expected at most 4 rows of length 4, got shape"):
        complete_orthonormal(rows, 4)


def test_closest_unitary():
    assert max_abs(closest_unitary(0.5 * PAULI_X) - PAULI_X) <= 1e-12
    np.testing.assert_allclose(closest_unitary(np.zeros((2, 2))), np.eye(2))
    rng = np.random.default_rng(5)
    t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert is_unitary(closest_unitary(t), 1e-10)


def test_closest_unitary_keeps_the_polar_factor_at_exactly_zero_atol():
    # only a matrix whose every entry is below ZERO_ATOL counts as zero
    assert max_abs(closest_unitary(ZERO_ATOL * PAULI_X) - PAULI_X) <= 1e-12


def test_closest_unitary_on_a_stack():
    """Each matrix of a (..., n, n) stack gets its own polar factor U, with
    U†T Hermitian and positive semidefinite; numerically zero ones get I."""
    rng = np.random.default_rng(6)
    t = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
    t[1, 2] = 0.0
    t[0, 3] = 1e-13
    u = closest_unitary(t)
    assert u.shape == t.shape
    for idx in np.ndindex(3, 4):
        if idx in ((1, 2), (0, 3)):
            assert np.array_equal(u[idx], IDENTITY)
            continue
        assert is_unitary(u[idx], 1e-12)
        h = dagger(u[idx]) @ t[idx]
        assert max_abs(h - dagger(h)) <= 1e-12 and np.linalg.eigvalsh(h).min() >= -1e-12
