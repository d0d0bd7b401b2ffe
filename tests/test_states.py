import dataclasses
import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from teleport3q import cli, states
from teleport3q.feasibility import componentwise_disentangler, schmidt_disentangler
from teleport3q.linalg import ATOL, haar_random_unitary, max_abs
from teleport3q.protocols import MeasurementBasis, basis_from_S, bell_protocol, ghz_protocol, w_like_protocol
from teleport3q.states import (
    DensityMatrix,
    PureState,
    WLikeParams,
    bloch_qubit,
    entanglement_entropy,
    fidelity,
    haar_random_state,
    make_named_state,
    make_w_like,
    partial_trace,
    trusted,
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


def test_density_matrix_accepts_hermiticity_and_trace_exactly_at_atol():
    # m - m† is 1e-10j on the diagonal and tr m - 1 is 1e-10j, both exactly ATOL in magnitude
    m = np.diag([0.5 + 0.5e-10j, 0.5 + 0.5e-10j])
    assert max_abs(m - m.conj().T) == ATOL and abs(np.trace(m) - 1.0) == ATOL
    assert DensityMatrix(1, m).matrix.tobytes() == m.tobytes()


def test_density_matrix_accepts_an_eigenvalue_exactly_at_minus_atol():
    # a diagonal matrix's eigenvalues are its entries, and its trace (1 + ATOL) + low is 1 within ATOL
    for low, accepted in ((-ATOL, True), (np.nextafter(-ATOL, -1.0), False)):
        m = np.diag([1.0 + ATOL, low]).astype(complex)
        assert np.linalg.eigvalsh(m).min() == low
        if accepted:
            assert DensityMatrix(1, m).matrix.tobytes() == m.tobytes()
        else:
            with pytest.raises(ValueError, match="^negative eigenvalue -1.000e-10 below -1e-10$"):
                DensityMatrix(1, m)


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


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "must be a real number, got True"),
        ("0.5", "must be a real number, got '0.5'"),
        (1j, "must be a real number, got 1j"),
        (None, "must be a real number, got None"),
        (np.array([0.5]), "must be a real number, got array([0.5])"),
        (10**400, "must be finite"),
        (-Fraction(10**400), "must be finite"),
        (math.inf, "must be finite"),
        (math.nan, "must be finite"),
    ],
    ids=["bool", "str", "complex", "None", "array", "int-past-floats", "fraction-past-floats", "inf", "nan"],
)
def test_w_like_params_reject_an_angle_that_is_not_a_finite_real(value, message):
    """WLikeParams is the one check a W-like state gets, as check_tolerance is a tolerance's."""
    for position, name in enumerate(("gamma", "phi", "omega")):
        angles = [0.0, 0.0, 0.0]
        angles[position] = value
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {message}')}$"):
            WLikeParams(*angles)


@pytest.mark.parametrize("value", [1, np.int64(-2), np.float32(0.3), Fraction(1, 3), 10**300], ids=repr)
def test_w_like_params_store_each_angle_as_a_float(value):
    """So a float32 angle is not computed in single precision, which left its state 2.5e-8 off unit."""
    params = WLikeParams(value, value, value)
    assert [type(a) for a in vars(params).values()] == [float] * 3
    assert params == WLikeParams(float(value), float(value), float(value))
    rechecked(w_like_from_params(params))


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
    """The shared position rule: positions 0 to n - 1 of n qubits, in a nonempty proper subset."""
    rho = make_named_state("w").density()
    subset = r"^qubit positions must be a nonempty proper subset of the 3 qubits$"
    with pytest.raises(ValueError, match=subset):
        partial_trace(rho, keep=())
    with pytest.raises(ValueError, match=subset):
        partial_trace(rho, keep=(0, 1, 2))
    with pytest.raises(ValueError, match=r"^qubit positions \[3\] out of range for 3 qubits$"):
        partial_trace(rho, keep=(3,))
    assert partial_trace(rho, keep=(2,)).n_qubits == 1


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


# ---------------------------------------------------------------- one integer rule


@pytest.mark.parametrize(
    "n_qubits, name", [(3.0, "ghz"), (2.5, "ghz"), (np.float64(3.0), "ghz"), ("3", "ghz"), (True, "zero")]
)
def test_qubit_counts_must_be_integers(n_qubits, name):
    amps = np.array([1.0, 0.0]) if name == "zero" else make_named_state(name).amplitudes
    with pytest.raises(ValueError, match=re.escape(f"n_qubits must be an integer, got {n_qubits!r}")):
        PureState(n_qubits, amps)
    with pytest.raises(ValueError, match="n_qubits must be an integer"):
        DensityMatrix(n_qubits, np.outer(amps, amps.conj()))


def test_numpy_integer_qubit_counts_are_stored_as_int():
    state = PureState(np.int64(1), [1.0, 0.0])
    rho = DensityMatrix(np.int32(1), np.eye(2) / 2.0)
    assert type(state.n_qubits) is int and type(rho.n_qubits) is int
    assert state.n_qubits == rho.n_qubits == 1
    # the stored int reaches partial_trace, which a float count broke with a TypeError
    assert partial_trace(PureState(np.int64(2), make_named_state("bell(0,0)").amplitudes).density(), [1]).n_qubits == 1


@pytest.mark.parametrize("keep", [[1.5], [True], [np.float64(1.0)], [0, 2.0]])
def test_partial_trace_positions_must_be_integers(keep):
    with pytest.raises(ValueError, match="qubit position must be an integer"):
        partial_trace(make_named_state("w").density(), keep)


def test_partial_trace_accepts_numpy_integer_positions():
    rho = make_named_state("w").density()
    assert partial_trace(rho, [np.int64(2)]).matrix.tobytes() == partial_trace(rho, [2]).matrix.tobytes()


@pytest.mark.parametrize("n_qubits", [2.5, 3.0, "3", True, 0, -1])
def test_haar_random_state_qubit_counts_must_be_integers(n_qubits):
    """Checked before any 2**n_qubits or draw."""
    integer = type(n_qubits) is int
    message = "n_qubits must be at least 1" if integer else f"n_qubits must be an integer, got {n_qubits!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        haar_random_state(n_qubits, 0)


# ---------------------------------------------------------------- trusted builds

ANGLE = st.floats(-4 * math.pi, 4 * math.pi)
SEEDS = st.integers(0, 2**32 - 1)


def assert_same_store(built, checked):
    """`built` came from trusted() and `checked` from the public constructor
    over the same values: the same type, scalars and objects, and each array
    complex, C-ordered, read-only and of the same bits."""
    assert type(built) is type(checked)
    for field in dataclasses.fields(built):
        ours, theirs = getattr(built, field.name), getattr(checked, field.name)
        if isinstance(theirs, np.ndarray):
            for stored in (ours, theirs):
                assert stored.dtype == complex and stored.flags.c_contiguous and not stored.flags.writeable
            assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
        else:
            assert type(ours) is type(theirs) and (ours is theirs or ours == theirs)


def rechecked(built):
    """The public constructor over the fields a trusted build stored."""
    return type(built)(**{f.name: getattr(built, f.name) for f in dataclasses.fields(built)})


def test_trusted_runs_no_checks(monkeypatch):
    def refuse(self):
        raise AssertionError("a check ran")

    monkeypatch.setattr(PureState, "__post_init__", refuse)
    state = trusted(PureState, n_qubits=1, amplitudes=[1.0, 0.0])
    assert state.amplitudes.tobytes() == np.array([1.0, 0.0], dtype=complex).tobytes()


def test_trusted_builds_only_the_checked_types():
    """The per-class field cache keeps no refusal: a class outside _TRUSTED raises on each call,
    before and after trusted classes were built."""
    message = "trusted builds only PureState, DensityMatrix, MeasurementBasis, TeleportProtocol, not WLikeParams"
    for _ in range(2):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            trusted(WLikeParams, gamma=0.0, phi=0.0, omega=0.0)
        trusted(PureState, n_qubits=1, amplitudes=[1.0, 0.0])
        trusted(MeasurementBasis, rows=np.eye(2))


def test_trusted_is_the_only_unchecked_construction():
    source = Path(states.__file__).parent
    news = {p.name: p.read_text().count("object.__new__(") for p in source.glob("*.py")}
    assert {name: count for name, count in news.items() if count} == {"states.py": 1}


def test_trusted_copies_its_arrays():
    amps = np.array([1.0, 0.0], dtype=complex)
    state = trusted(PureState, n_qubits=1, amplitudes=amps)
    amps[0] = 0.0
    assert state.amplitudes[0] == 1.0


@pytest.mark.parametrize("name", ["ghz", "w", "bell(0,0)", "bell(0,1)", "bell(1,0)", "bell(1,1)"])
def test_named_states_store_the_public_constructors_bits(name):
    built = make_named_state(name)
    amps = np.zeros(2**built.n_qubits, dtype=complex)
    if name == "ghz":
        amps[[0, 7]] = 1.0 / SQRT2
    elif name == "w":
        amps[[1, 2, 4]] = 1.0 / SQRT3
    else:
        m, n = int(name[5]), int(name[7])
        amps[[0, 3] if n == 0 else [1, 2]] = 1.0 / SQRT2, (-1.0) ** m / SQRT2
    assert_same_store(built, PureState(built.n_qubits, amps))
    assert_same_store(built, rechecked(built))


@given(theta=ANGLE, phi=ANGLE)
def test_bloch_qubits_store_the_public_constructors_bits(theta, phi):
    built = bloch_qubit(theta, phi)
    amps = np.array([math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)], dtype=complex)
    assert_same_store(built, PureState(1, amps))


@given(angles=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3))
@example(angles=(0.0, -0.0, 1e300))
@example(angles=(-0.0, 1e300, -1e300))
@example(angles=(1e300, -1e300, 0.0))
@example(angles=(-1e300, 0.0, -0.0))
def test_w_like_states_store_the_public_constructors_bits(angles):
    gamma, phi, omega = angles
    built = w_like_from_params(WLikeParams(*angles))
    y = np.exp(1j * phi) * math.cos(gamma) / SQRT2
    z = np.exp(1j * omega) * math.sin(gamma) / SQRT2
    assert_same_store(built, make_w_like(1 / SQRT2, y, z))


@given(n_qubits=st.integers(1, 4), seed=SEEDS)
def test_densities_store_the_public_constructors_bits(n_qubits, seed):
    state = haar_random_state(n_qubits, seed)
    built = state.density()
    assert_same_store(built, DensityMatrix(n_qubits, np.outer(state.amplitudes, state.amplitudes.conj())))


@given(seed=SEEDS)
def test_schmidt_residuals_store_the_public_constructors_bits(seed):
    built = schmidt_disentangler(haar_random_state(3, seed)).residual
    assert_same_store(built, rechecked(built))


@given(seed=SEEDS, rows=st.sampled_from(list(itertools.combinations(range(4), 2))))
def test_componentwise_residuals_store_the_public_constructors_bits(seed, rows):
    """Random states on two sender-pair kets, the support the componentwise disentangler needs."""
    rng = np.random.default_rng(seed)
    amps = np.zeros((4, 2), dtype=complex)
    amps[list(rows)] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    result = componentwise_disentangler(PureState(3, amps.reshape(-1) / np.linalg.norm(amps)))
    assert result.unitary is not None
    assert_same_store(result.residual, rechecked(result.residual))


@given(seed=SEEDS, shared=st.sampled_from(["w", "ghz", "bell(0,1)"]))
def test_cli_haar_basis_stores_the_public_constructors_bits(seed, shared):
    args = cli.build_parser().parse_args(["teleport", "--shared", shared, "--basis", f"haar:{seed}", "--theta", "1"])
    protocol, _ = cli._resolve_protocol(args)
    dim = len(protocol.basis.rows)
    assert_same_store(protocol.basis, MeasurementBasis(haar_random_unitary(dim, seed).T))
    assert_same_store(protocol, rechecked(protocol))


@given(angles=st.tuples(ANGLE, ANGLE, ANGLE), seed=st.one_of(st.none(), SEEDS))
def test_builder_protocols_store_the_public_constructors_bits(angles, seed):
    """The canonical builders' bases and protocols, trusted builds through the orthonormality gate:
    GHZ, bell(1,0), and W-like angles with their own corrections or with basis_from_S of a Haar S."""
    params = WLikeParams(*angles)
    if seed is None:
        built = [ghz_protocol(), bell_protocol(make_named_state("bell(1,0)")), w_like_protocol(params)]
    else:
        built = [basis_from_S(params, haar_random_unitary(2, seed))]
    for protocol in built:
        assert_same_store(protocol.basis, MeasurementBasis(protocol.basis.rows))
        assert_same_store(protocol, rechecked(protocol))


@given(n_qubits=st.integers(1, 4), seed=SEEDS)
def test_haar_states_store_the_public_constructors_bits(n_qubits, seed):
    built = haar_random_state(n_qubits, seed)
    assert_same_store(built, PureState(n_qubits, haar_random_unitary(2**n_qubits, seed)[:, 0]))


@given(n_qubits=st.integers(2, 4), seed=SEEDS)
def test_partial_traces_store_the_public_constructors_bits(n_qubits, seed):
    """Every nonempty proper keep set; a 1-qubit state has none."""
    rho = haar_random_state(n_qubits, seed).density()
    for size in range(1, n_qubits):
        for keep in itertools.combinations(range(n_qubits), size):
            built = partial_trace(rho, keep)
            assert_same_store(built, rechecked(built))
