import math

import numpy as np
import pytest

from teleport3q.linalg import max_abs
from teleport3q.states import (
    DensityMatrix,
    PureState,
    WClassParams,
    WLikeParams,
    bloch_qubit,
    entanglement_entropy,
    fidelity,
    haar_random_state,
    make_named_state,
    make_w_like,
    partial_trace,
    w_class_to_w_like,
    w_like_from_params,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="deviates"):
        PureState(1, np.array([1.0, 1.0]))


def test_pure_state_rejects_non_finite():
    with pytest.raises(ValueError):
        PureState(1, np.array([np.nan, 0.0]))


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(1, np.eye(2))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(1, np.diag([1.5, -0.5]))


@pytest.mark.parametrize(
    "n_qubits, matrix, message",
    [
        (0, np.eye(1), "n_qubits must be at least 1"),
        (-1, np.eye(1), "n_qubits must be at least 1"),
        # compared as qubit counts, so 2**n_qubits is never built
        (10**12, np.eye(4) / 4, r"expected 2\*\*1000000000000 rows, got 4"),
        (3, np.eye(4) / 4, r"expected 2\*\*3 rows, got 4"),
        (1, np.full((2, 3), 0.25), r"expected a square matrix, got shape \(2, 3\)"),
    ],
)
def test_density_matrix_rejects_bad_qubit_counts(n_qubits, matrix, message):
    with pytest.raises(ValueError, match=message):
        DensityMatrix(n_qubits, matrix)


def test_bloch_poles():
    assert fidelity(bloch_qubit(0.0, 2.7), PureState(1, np.array([1.0, 0.0]))) == pytest.approx(1.0)
    np.testing.assert_allclose(
        np.abs(bloch_qubit(math.pi, 0.0).amplitudes), [0.0, 1.0], atol=1e-12
    )


def test_bloch_equator():
    got = bloch_qubit(math.pi / 2, math.pi / 2).amplitudes
    np.testing.assert_allclose(got, [1 / SQRT2, 1j / SQRT2], atol=1e-12)


def test_named_ghz():
    ghz = make_named_state("ghz")
    expected = np.zeros(8)
    expected[0] = expected[7] = 1 / SQRT2
    np.testing.assert_allclose(ghz.amplitudes, expected, atol=1e-15)


def test_named_w():
    w = make_named_state("w")
    expected = np.zeros(8)
    expected[[1, 2, 4]] = 1 / SQRT3
    np.testing.assert_allclose(w.amplitudes, expected, atol=1e-15)


def test_named_bell_11():
    bell = make_named_state("bell(1,1)")
    np.testing.assert_allclose(bell.amplitudes, [0.0, 1 / SQRT2, -1 / SQRT2, 0.0], atol=1e-15)


def test_named_rejects_unknown():
    with pytest.raises(ValueError, match="unknown state name"):
        make_named_state("ghzz")


def test_make_w_like_recovers_w():
    state = make_w_like(1 / SQRT3, 1 / SQRT3, 1 / SQRT3)
    assert fidelity(state, make_named_state("w")) == pytest.approx(1.0)


def test_make_w_like_single_ket():
    state = make_w_like(1.0, 0.0, 0.0)
    expected = np.zeros(8)
    expected[1] = 1.0
    np.testing.assert_allclose(state.amplitudes, expected)


def test_make_w_like_rejects_with_deviation():
    with pytest.raises(ValueError, match="deviates from 1 by"):
        make_w_like(1.0, 1.0, 0.0)


def test_w_like_params_quarter_pi():
    state = w_like_from_params(WLikeParams(math.pi / 4, 0.0, 0.0))
    expected = np.zeros(8)
    expected[1] = 1 / SQRT2
    expected[2] = expected[4] = 0.5
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_w_like_params_gamma_half_pi():
    omega = 0.7
    state = w_like_from_params(WLikeParams(math.pi / 2, 0.0, omega))
    expected = np.zeros(8, dtype=complex)
    expected[1] = 1 / SQRT2
    expected[4] = np.exp(1j * omega) / SQRT2
    assert max_abs(state.amplitudes - expected) <= 1e-12


def test_w_like_params_gamma_zero():
    phi = -0.4
    state = w_like_from_params(WLikeParams(0.0, phi, 12.3))
    expected = np.zeros(8, dtype=complex)
    expected[1] = 1 / SQRT2
    expected[2] = np.exp(1j * phi) / SQRT2
    assert max_abs(state.amplitudes - expected) <= 1e-12


def test_w_class_gamma_limits():
    assert w_class_to_w_like(WClassParams(0.0, 0.0, 0.0)).gamma == pytest.approx(math.pi / 2)
    converted = w_class_to_w_like(WClassParams(1.0, 0.0, 0.0))
    assert converted.gamma == pytest.approx(math.pi / 4)
    assert converted.phi == 0.0 and converted.omega == 0.0


def test_w_class_rejects_negative_n():
    with pytest.raises(ValueError):
        WClassParams(-1.0, 0.0, 0.0)


def _w_class_state_direct(n: float, p: float, delta: float) -> PureState:
    # expand the (n, p, delta) family without the angle substitution
    norm = math.sqrt(2.0 + 2.0 * n)
    return make_w_like(
        math.sqrt(n + 1.0) * np.exp(1j * delta) / norm,
        math.sqrt(n) * np.exp(1j * p) / norm,
        1.0 / norm,
    )


def test_w_class_round_trip_random():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = float(rng.uniform(0.0, 50.0))
        p, delta = (float(x) for x in rng.uniform(-math.pi, math.pi, 2))
        direct = _w_class_state_direct(n, p, delta)
        converted = w_like_from_params(w_class_to_w_like(WClassParams(n, p, delta)))
        assert fidelity(direct, converted) >= 1.0 - 1e-10


def test_w_class_large_n_limit():
    params = w_class_to_w_like(WClassParams(1e6, 0.8, 0.1))
    state = w_like_from_params(params)
    limit = w_like_from_params(WLikeParams(0.0, 0.8 - 0.1, 0.0))
    assert fidelity(state, limit) >= 1.0 - 1e-3


def test_partial_trace_w_receiver():
    w = make_named_state("w")
    reduced = partial_trace(w.density(), keep=(2,))
    np.testing.assert_allclose(reduced.matrix, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-12)


def test_partial_trace_w_like_receiver_maximally_mixed():
    rng = np.random.default_rng(5)
    for _ in range(20):
        params = WLikeParams(*(float(x) for x in rng.uniform(-2 * math.pi, 2 * math.pi, 3)))
        reduced = partial_trace(w_like_from_params(params).density(), keep=(2,))
        assert max_abs(reduced.matrix - np.eye(2) / 2) <= 1e-10


def test_partial_trace_product_factor():
    psi = bloch_qubit(0.9, -0.3)
    pair = haar_random_state(2, 17)
    rho = partial_trace(pair.density(), keep=(0,))
    joint = DensityMatrix(2, np.kron(psi.density().matrix, rho.matrix))
    np.testing.assert_allclose(partial_trace(joint, keep=(1,)).matrix, rho.matrix, atol=1e-12)


def test_partial_trace_rejects_bad_subsets():
    rho = make_named_state("w").density()
    with pytest.raises(ValueError):
        partial_trace(rho, keep=())
    with pytest.raises(ValueError):
        partial_trace(rho, keep=(0, 1, 2))
    with pytest.raises(ValueError):
        partial_trace(rho, keep=(3,))


def test_partial_trace_composition_commutes():
    state = haar_random_state(4, 99)
    stepwise = partial_trace(partial_trace(state.density(), keep=(1, 2, 3)), keep=(1, 2))
    direct = partial_trace(state.density(), keep=(2, 3))
    assert max_abs(stepwise.matrix - direct.matrix) <= 1e-12


def test_entropy_values():
    ghz_reduced = partial_trace(make_named_state("ghz").density(), keep=(2,))
    assert entanglement_entropy(ghz_reduced) == pytest.approx(1.0, abs=1e-10)
    w_reduced = partial_trace(make_named_state("w").density(), keep=(2,))
    expected = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
    assert entanglement_entropy(w_reduced) == pytest.approx(expected, abs=1e-12)
    assert entanglement_entropy(w_reduced) == pytest.approx(0.91829583, abs=1e-6)
    pure = bloch_qubit(0.0, 0.0).density()
    assert entanglement_entropy(pure) == pytest.approx(0.0, abs=1e-12)


def test_entropy_symmetry_of_pure_state_cuts():
    state = haar_random_state(4, 31)
    for keep in ((0,), (1,), (0, 1), (0, 3), (2,)):
        complement = tuple(q for q in range(4) if q not in keep)
        left = entanglement_entropy(partial_trace(state.density(), keep))
        right = entanglement_entropy(partial_trace(state.density(), complement))
        assert abs(left - right) <= 1e-10


def test_w_like_entropy_always_one():
    rng = np.random.default_rng(8)
    for _ in range(20):
        params = WLikeParams(*(float(x) for x in rng.uniform(-math.pi, math.pi, 3)))
        reduced = partial_trace(w_like_from_params(params).density(), keep=(2,))
        assert entanglement_entropy(reduced) == pytest.approx(1.0, abs=1e-10)
