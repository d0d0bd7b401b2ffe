import numpy as np
import pytest

from teleport3q.linalg import (
    IDENTITY,
    PAULI_X,
    closest_unitary,
    complete_orthonormal,
    dagger,
    haar_random_unitary,
    is_unitary,
    max_abs,
    schmidt_decompose,
    spawned_pcg64_states,
    tensor_product,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def test_tensor_product_basis_kets():
    out = tensor_product(KET0, KET1)
    expected = np.zeros(4, dtype=complex)
    expected[1] = 1.0
    np.testing.assert_allclose(out, expected)


def test_tensor_product_identities():
    np.testing.assert_allclose(tensor_product(IDENTITY, IDENTITY), np.eye(4))


def test_tensor_product_ket0_with_ghz():
    # hand-indexed: |0> (x) (|000>+|111>)/sqrt(2) puts 1/sqrt(2) at 0 and 7 of 16
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
    out = tensor_product(KET0, ghz)
    assert out.shape == (16,)
    expected = np.zeros(16, dtype=complex)
    expected[0] = expected[7] = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(out, expected)


def test_adjoint_distributes_over_tensor_product():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = dagger(tensor_product(a, b))
        rhs = tensor_product(dagger(a), dagger(b))
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
    with pytest.raises(ValueError):
        haar_random_unitary(0, 1)


def test_schmidt_bell_coefficients():
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    form = schmidt_decompose(bell, (0,))
    np.testing.assert_allclose(form.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_schmidt_product_state_rank_one():
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi /= np.linalg.norm(psi)
    state = tensor_product(KET0, psi)
    form = schmidt_decompose(state, (0,))
    np.testing.assert_allclose(form.coefficients, [1.0, 0.0], atol=1e-12)


def test_schmidt_w_state_cut_receiver():
    w = np.zeros(8, dtype=complex)
    w[1] = w[2] = w[4] = 1.0 / np.sqrt(3.0)
    form = schmidt_decompose(w, (0, 1))
    np.testing.assert_allclose(
        form.coefficients, [np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 3.0)], atol=1e-12
    )


def test_schmidt_invariants_random_states():
    rng = np.random.default_rng(7)
    for _ in range(10):
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        amps /= np.linalg.norm(amps)
        form = schmidt_decompose(amps, (0, 2))
        assert abs(np.sum(form.coefficients**2) - 1.0) <= 1e-10
        for factors in (form.left_factors, form.right_factors):
            gram = factors.conj() @ factors.T
            assert max_abs(gram - np.eye(factors.shape[0])) <= 1e-10
        # reconstruct on the (cut, rest) axis order, then undo the qubit reorder
        rebuilt = sum(
            c * tensor_product(l, r)
            for c, l, r in zip(form.coefficients, form.left_factors, form.right_factors)
        )
        # cut (0,2) of 4 qubits: transposed order was (0,2,1,3)
        rebuilt = rebuilt.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(-1)
        assert max_abs(rebuilt - amps) <= 1e-10


def test_schmidt_rejects_empty_and_full_cuts():
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(ValueError):
        schmidt_decompose(amps, ())
    with pytest.raises(ValueError):
        schmidt_decompose(amps, (0, 1))


def test_complete_orthonormal_is_deterministic_and_unitary():
    rows = np.array([[1.0, 1.0, 0.0, 0.0]], dtype=complex) / np.sqrt(2.0)
    a = complete_orthonormal(rows, 4)
    b = complete_orthonormal(rows, 4)
    assert np.array_equal(a, b)
    assert max_abs(a.conj() @ a.T - np.eye(4)) <= 1e-12


def test_closest_unitary():
    assert max_abs(closest_unitary(0.5 * PAULI_X) - PAULI_X) <= 1e-12
    np.testing.assert_allclose(closest_unitary(np.zeros((2, 2))), np.eye(2))
    rng = np.random.default_rng(5)
    t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert is_unitary(closest_unitary(t), 1e-10)


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


# ---------------------------------------------------------------- scan keying

KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**200]
KEY_STARTS = [0, 63, 64, 65, 99_990, 2**32 - 3]


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_spawned_pcg64_states_match_numpy(seed):
    """The computed states are default_rng(child)'s, and so are the draws.

    Seeds of one to seven uint32 words cover the zero-padded pool and the
    seed words mixed in after it; the starts cross chunk edges and reach the
    largest one-word spawn key. A numpy stream change would fail here first.
    """
    rng = np.random.default_rng(123)
    for start in KEY_STARTS:
        states = spawned_pcg64_states(seed, start, 3)
        for i, state in enumerate(states):
            child = np.random.SeedSequence(seed, spawn_key=(start + i,))
            assert state == np.random.PCG64(child).state
            rng.bit_generator.state = state
            assert np.array_equal(rng.standard_normal((2, 8, 8)), np.random.default_rng(child).standard_normal((2, 8, 8)))

