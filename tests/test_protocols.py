import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from teleport3q.linalg import (
    ATOL,
    HADAMARD,
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ZERO_ATOL,
    dagger,
    haar_random_unitary,
    is_unitary,
    isometry_deviation,
    max_abs,
)
from teleport3q import protocols
from teleport3q.feasibility import entropy_criterion, unitarity_verdict
from teleport3q.protocols import (
    PROB_FLOOR,
    BranchOutcome,
    MeasurementBasis,
    TeleportProtocol,
    TeleportResult,
    _word_bound,
    basis_from_S,
    bell_protocol,
    branch_operators,
    branch_tensor,
    ghz_protocol,
    protocol_from_basis,
    run_teleport,
    sample_teleport,
    scale_and_deviation,
    w_like_protocol,
)
from teleport3q.states import (
    PureState,
    WLikeParams,
    bloch_qubit,
    haar_random_state,
    make_named_state,
    partial_trace,
    w_like_from_params,
)
from teleport3q.serialize import dumps_canonical, protocol_to_jsonable

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
LIVE_GHZ = (0, 1, 4, 5)


def oracle_branch_op(beta: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """Explicit bit-loop evaluation of one branch operator, independent of the
    reshape-based production path."""
    t = np.zeros((2, 2), dtype=complex)
    for j in (0, 1):
        for q4 in (0, 1):
            acc = 0.0 + 0.0j
            for q1 in (0, 1):
                if q1 != j:
                    continue
                for q2 in (0, 1):
                    for q3 in (0, 1):
                        acc += (
                            np.conj(beta[4 * q1 + 2 * q2 + q3])
                            * shared[4 * q2 + 2 * q3 + q4]
                        )
            t[q4, j] = acc
    return t


def ghz_live_basis_arrays() -> dict[int, np.ndarray]:
    """The four live GHZ-basis elements, written out by hand."""
    live = {}
    for third, sign in ((0, 1.0), (1, -1.0)):
        e = np.zeros(8, dtype=complex)
        e[0], e[7] = 1 / SQRT2, sign / SQRT2
        live[third] = e
        e = np.zeros(8, dtype=complex)
        e[4], e[3] = 1 / SQRT2, sign / SQRT2
        live[4 + third] = e
    return live


def assert_equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-10) -> None:
    overlap = abs(np.sum(np.conj(a) * b))
    norm = math.sqrt(float(np.sum(np.abs(a) ** 2)) * float(np.sum(np.abs(b) ** 2)))
    assert abs(overlap - norm) <= atol, f"phase-insensitive mismatch: {overlap} vs {norm}"


def random_messages(count: int, start_seed: int = 100):
    return [haar_random_state(1, start_seed + k) for k in range(count)]


# ---------------------------------------------------------------- bases


def test_measurement_basis_rejects_non_orthonormal():
    kets = [np.zeros(8, dtype=complex) for _ in range(8)]
    for k, e in enumerate(kets):
        e[k % 4] = 1.0  # duplicates
    with pytest.raises(ValueError, match="orthonormal"):
        MeasurementBasis(np.stack(kets))


@pytest.mark.parametrize("shape", [(1, 1), (6, 6), (8, 4), (8,)])
def test_measurement_basis_rejects_bad_shapes(shape):
    with pytest.raises(ValueError):
        MeasurementBasis(np.eye(*shape) if len(shape) == 2 else np.ones(shape))


def test_one_qubit_measurement_basis():
    """The smallest basis the shape check admits, 2 x 2, passes the orthonormality check, or fails it."""
    basis = MeasurementBasis(HADAMARD)
    assert basis.n_qubits == 1
    assert basis.rows.tobytes() == HADAMARD.tobytes()
    with pytest.raises(ValueError, match="^basis is not orthonormal: Gram deviation 1.000e"):
        MeasurementBasis([[1.0, 0.0], [1.0, 0.0]])


def test_check_trials_takes_every_count_up_to_2_to_the_32():
    """README's range [1, 2**32] includes both ends."""
    assert protocols.check_trials(1) == 1
    assert protocols.check_trials(2**32) == 2**32


def test_basis_rows_and_branch_operators_are_read_only():
    protocol = ghz_protocol()
    family = branch_operators(protocol.basis, protocol.shared)
    assert family.ops.shape == protocol.corrections.shape == (8, 2, 2)
    assert protocol.corrections.flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        family.ops[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        protocol.basis.rows[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        protocol.corrections[0, 0, 0] = 1.0


def test_measurement_basis_completeness():
    basis = ghz_protocol().basis
    total = sum(np.outer(e, e.conj()) for e in basis.rows)
    assert max_abs(total - np.eye(8)) <= 1e-10


# ---------------------------------------------------------------- branch operators


def test_branch_operators_match_oracle_on_ghz_basis():
    shared = make_named_state("ghz")
    live = ghz_live_basis_arrays()
    protocol = ghz_protocol()
    family = branch_operators(protocol.basis, shared)
    for k, element in enumerate(protocol.basis.rows):
        expected = oracle_branch_op(element, shared.amplitudes)
        assert max_abs(family.ops[k] - expected) <= 1e-12
    # live branches carry the scaled corrections; dead branches vanish
    assert max_abs(family.ops[0] - 0.5 * IDENTITY) <= 1e-12
    assert max_abs(family.ops[1] - 0.5 * PAULI_Z) <= 1e-12
    assert max_abs(family.ops[4] - 0.5 * PAULI_X) <= 1e-12
    assert_equal_up_to_phase(family.ops[5], 0.5 * (-1j * PAULI_Y), atol=1e-12)
    # oracle pins the exact phase of the fourth live branch
    assert max_abs(family.ops[5] - 0.5j * PAULI_Y) <= 1e-12
    for k in (2, 3, 6, 7):
        assert max_abs(family.ops[k]) <= 1e-12
    # the hand-written live arrays agree with the protocol's live slots
    for k, e in live.items():
        assert max_abs(protocol.basis.rows[k] - e) <= 1e-12


def test_branch_operators_match_oracle_on_haar_bases():
    shared = haar_random_state(3, 7)
    for seed in range(5):
        basis = MeasurementBasis(haar_random_unitary(8, seed).T)
        family = branch_operators(basis, shared)
        for k, element in enumerate(basis.rows):
            expected = oracle_branch_op(element, shared.amplitudes)
            assert max_abs(family.ops[k] - expected) <= 1e-12


def test_branch_completeness_over_haar_bases():
    for seed in range(20):
        shared = haar_random_state(3, 1000 + seed)
        basis = MeasurementBasis(haar_random_unitary(8, seed).T)
        total = sum(dagger(t) @ t for t in branch_operators(basis, shared).ops)
        assert max_abs(total - np.eye(2)) <= 1e-10


def test_branch_reduced_state_identity():
    # sum over branches of T |psi><psi| T† equals the receiver's reduced state
    messages = random_messages(20, start_seed=300)
    for seed in range(20):
        shared = haar_random_state(3, 2000 + seed)
        rho_b = partial_trace(shared.density(), keep=(2,)).matrix
        basis = MeasurementBasis(haar_random_unitary(8, 50 + seed).T)
        ops = branch_operators(basis, shared).ops
        psi = messages[seed].amplitudes
        total = sum(t @ np.outer(psi, psi.conj()) @ dagger(t) for t in ops)
        assert max_abs(total - rho_b) <= 1e-10


def reference_scale_and_deviation(t: np.ndarray) -> tuple[float, float]:
    """The definition: scale tr(T†T)/2, deviation the larger max-abs entry of
    T†T - scale I and TT† - scale I."""
    left, right = dagger(t) @ t, t @ dagger(t)
    scale = float(np.trace(left).real) / 2.0
    return scale, max(max_abs(left - scale * np.eye(2)), max_abs(right - scale * np.eye(2)))


def test_scale_and_deviation_matches_definition_on_haar_branches():
    shared = haar_random_state(3, 17)
    rows = np.stack([haar_random_unitary(8, seed).T for seed in range(512)])
    ops = branch_tensor(rows, shared.amplitudes).reshape(-1, 2, 2)
    assert ops.shape == (4096, 2, 2)
    scales, deviations = scale_and_deviation(ops)
    for t, scale, deviation in zip(ops, scales, deviations):
        ref_scale, ref_deviation = reference_scale_and_deviation(t)
        assert abs(scale - ref_scale) <= 1e-15
        assert abs(deviation - ref_deviation) <= 1e-15
    # a non-normal operator deviates, and a single operator gives scalars
    scale, deviation = scale_and_deviation(np.array([[1.0, 2.0], [0.0, 1.0j]]))
    assert (scale, deviation) == reference_scale_and_deviation(np.array([[1.0, 2.0], [0.0, 1.0j]]))


def reduced_scale_and_deviation(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scale_and_deviation with its row and column sums taken as reductions
    over the 2x2 axes, as it was first written."""
    a, b, c, d = ops[..., 0, 0], ops[..., 0, 1], ops[..., 1, 0], ops[..., 1, 1]
    weights = ops.real**2 + ops.imag**2
    columns = weights.sum(axis=-2)
    scale = (columns[..., 0] + columns[..., 1]) / 2.0
    diagonals = np.concatenate([columns, weights.sum(axis=-1)], axis=-1) - scale[..., None]
    off_diagonal = np.maximum(np.abs(a.conj() * b + c.conj() * d), np.abs(a * c.conj() + b * d.conj()))
    return scale, np.maximum(np.abs(diagonals).max(axis=-1), off_diagonal)


def gaussian_parts(seed: int, lead: tuple[int, ...]) -> np.ndarray:
    """Gaussian real and imaginary parts of a stack (*lead, 2, 2), about 30% exact zeros."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal(lead + (2, 2, 2))
    parts[rng.random(parts.shape) < 0.3] = 0.0
    return parts


LEADS = st.sampled_from([(1,), (5,), (3, 8), (33, 8)])
# real and imaginary parts, with exact and signed zeros; small enough that no square overflows
OPERATOR_PARTS = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e100, 1e100))


@given(
    parts=st.one_of(
        st.builds(gaussian_parts, st.integers(0, 2**32 - 1), LEADS),
        LEADS.flatmap(lambda lead: arrays(np.float64, lead + (2, 2, 2), elements=OPERATOR_PARTS)),
    )
)
@example(parts=np.zeros((1, 2, 2, 2)))
@example(parts=np.stack([0.5 * PAULI_Y.real, 0.5 * PAULI_Y.imag], axis=-1)[None])
def test_scale_and_deviation_bitwise_equals_the_reduction_form(parts):
    ops = parts.view(complex)[..., 0]
    scale, deviation = scale_and_deviation(ops)
    ref_scale, ref_deviation = reduced_scale_and_deviation(ops)
    assert scale.tobytes() == ref_scale.tobytes()
    assert deviation.tobytes() == ref_deviation.tobytes()


@pytest.mark.parametrize("sigma", [np.zeros((2, 2)), IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, -1j * PAULI_Y])
def test_scale_and_deviation_exact_on_half_paulis(sigma):
    # tolerance-0 scans count exactly these as passing: dead branches (zero)
    # and the live branches of the canonical bases
    scale, deviation = scale_and_deviation(0.5 * sigma)
    assert deviation == 0.0
    assert scale == (0.0 if not sigma.any() else 0.25)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_checks_reject_a_bad_entry_without_a_warning(bad):
    """One NaN, inf or overflowing entry fails the basis and unitarity checks
    and the branch verdict; the pytest configuration makes any RuntimeWarning an error."""
    protocol = ghz_protocol()
    rows = np.array(protocol.basis.rows)
    rows[3, 5] = bad
    with pytest.raises(ValueError, match="non-finite|squared norm deviates"):
        MeasurementBasis(rows)
    t = np.array([[bad, 0.0], [0.0, 1.0]])
    assert unitarity_verdict(t, 1e-8).is_proportional_unitary is False
    corrections = np.array(protocol.corrections)
    corrections[5, 0, 1] = bad
    assert is_unitary(corrections).tolist() == [True] * 5 + [False] + [True] * 2
    with pytest.raises(ValueError, match="^correction 5 is not a 2x2 unitary$"):
        TeleportProtocol(protocol.shared, protocol.basis, corrections)


def test_w_like_branch_scales():
    params = WLikeParams(0.6, -0.2, 1.4)
    protocol = w_like_protocol(params)
    ops = branch_operators(protocol.basis, protocol.shared).ops
    for k in range(4):
        assert max_abs(dagger(ops[k]) @ ops[k] - 0.25 * np.eye(2)) <= 1e-10


# ---------------------------------------------------------------- protocols


def test_ghz_protocol_perfect_on_live_branches():
    protocol = ghz_protocol()
    coefficients = protocol.coefficients
    np.testing.assert_allclose(coefficients[list(LIVE_GHZ)], 0.5, atol=1e-12)
    assert np.all(coefficients[[2, 3, 6, 7]] == 0.0)  # dead branches are exactly 0
    for psi in random_messages(20):
        result = run_teleport(psi, protocol)
        assert result.total_fidelity == pytest.approx(1.0, abs=1e-10)
        for k in LIVE_GHZ:
            assert result.outcomes[k].probability == pytest.approx(0.25, abs=1e-10)
            assert result.outcomes[k].branch_fidelity == pytest.approx(1.0, abs=1e-10)
        for k in (2, 3, 6, 7):
            assert result.outcomes[k].probability <= 1e-12
            assert result.outcomes[k].branch_fidelity is None


def test_w_like_protocol_perfect():
    rng = np.random.default_rng(12)
    for k in range(10):
        params = WLikeParams(*(float(x) for x in rng.uniform(-math.pi, math.pi, 3)))
        protocol = w_like_protocol(params)
        psi = haar_random_state(1, 700 + k)
        result = run_teleport(psi, protocol)
        assert result.total_fidelity == pytest.approx(1.0, abs=1e-10)


def test_w_like_live_basis_at_gamma_zero():
    protocol = w_like_protocol(WLikeParams(0.0, 0.0, 0.0))
    expected = np.zeros(8, dtype=complex)
    expected[1] = expected[4] = 1 / SQRT2
    assert max_abs(protocol.basis.rows[0] - expected) <= 1e-12


def test_w_like_live_gram_identity():
    protocol = w_like_protocol(WLikeParams(1.1, 0.4, -0.9))
    live = protocol.basis.rows[:4]
    gram = live.conj() @ live.T
    assert max_abs(gram - np.eye(4)) <= 1e-10


def test_bell_protocol_baseline():
    protocol = bell_protocol()
    result = run_teleport(bloch_qubit(0.0, 0.0), protocol)
    assert result.total_fidelity == pytest.approx(1.0, abs=1e-10)
    for outcome in result.outcomes:
        assert outcome.probability == pytest.approx(0.25, abs=1e-10)
    for psi in random_messages(5, start_seed=40):
        assert run_teleport(psi, protocol).total_fidelity == pytest.approx(1.0, abs=1e-10)


def test_bell_protocol_elements_are_the_bell_states():
    rows = bell_protocol().basis.rows
    for k, spec in enumerate(f"bell({m},{n})" for m in (0, 1) for n in (0, 1)):
        assert np.array_equal(rows[k], make_named_state(spec).amplitudes), spec


def test_bell_protocol_defaults_to_bell00_and_needs_a_mixed_receiver():
    default, explicit = bell_protocol(), bell_protocol(make_named_state("bell(0,0)"))
    assert np.array_equal(default.basis.rows, explicit.basis.rows)
    assert np.array_equal(default.corrections, explicit.corrections)
    for shared in (haar_random_state(2, 3), PureState(2, [1, 0, 0, 0])):
        with pytest.raises(ValueError, match="basis is not orthonormal"):
            bell_protocol(shared)


@pytest.mark.parametrize(
    "builder, shared, needed",
    [
        (ghz_protocol, "bell(0,0)", 3),
        (ghz_protocol, "one qubit", 3),
        (bell_protocol, "one qubit", 2),
    ],
)
def test_builders_reject_a_shared_state_too_small_for_their_live_outcomes(builder, shared, needed):
    state = bloch_qubit(1.0, 0.0) if shared == "one qubit" else make_named_state(shared)
    message = f"live outcomes need a shared state of at least {needed} qubits, got {state.n_qubits}"
    with pytest.raises(ValueError, match=message):
        builder(state)


def random_w_like_params(count: int, seed: int) -> list[WLikeParams]:
    rng = np.random.default_rng(seed)
    return [WLikeParams(*(float(x) for x in rng.uniform(-math.pi, math.pi, 3))) for _ in range(count)]


def one_ebit_shared(n: int, seed: int) -> PureState:
    """The n-qubit one-ebit state (U_sender (x) V_B)|0...0>|Phi+>, U_sender and V_B Haar from `seed`."""
    base = np.zeros(2**n, dtype=complex)
    base[0] = base[3] = 1.0 / SQRT2
    local = np.kron(haar_random_unitary(2 ** (n - 1), seed), haar_random_unitary(2, seed + 1))
    return PureState(n, local @ base)


@pytest.mark.parametrize("builder", ["basis_from_S", "bell", "ghz", "one_ebit", "w_like"])
def test_canonical_branch_operators_are_half_corrections(builder):
    """Every builder's branch operator is T_k = C_k/2 on a live outcome and 0 on a dead one."""
    protocols, live = {
        "bell": lambda: ([bell_protocol(make_named_state(f"bell({m},{n})")) for m in (0, 1) for n in (0, 1)], range(4)),
        "ghz": lambda: ([ghz_protocol()], LIVE_GHZ),
        "one_ebit": lambda: ([ghz_protocol(one_ebit_shared(n, 610 + 2 * n)) for n in range(3, 9)], LIVE_GHZ),
        "w_like": lambda: ([w_like_protocol(p) for p in random_w_like_params(10, 31)], range(4)),
        "basis_from_S": lambda: (
            [basis_from_S(p, haar_random_unitary(2, 600 + k)) for k, p in enumerate(random_w_like_params(10, 32))],
            range(4),
        ),
    }[builder]()
    for protocol in protocols:
        ops = branch_tensor(protocol.basis.rows, protocol.shared.amplitudes)
        for k, t in enumerate(ops):
            expected = protocol.corrections[k] / 2 if k in live else 0.0
            assert max_abs(t - expected) <= 1e-12, (builder, k)


def test_protocol_probabilities_sum_to_one():
    shared = haar_random_state(3, 9)
    basis = MeasurementBasis(haar_random_unitary(8, 77).T)
    protocol = protocol_from_basis(shared, basis)
    result = run_teleport(bloch_qubit(0.77, 0.1), protocol)
    assert sum(o.probability for o in result.outcomes) == pytest.approx(1.0, abs=1e-10)


def test_protocol_from_basis_coefficients_normalized():
    shared = make_named_state("w")
    basis = MeasurementBasis(haar_random_unitary(8, 3).T)
    protocol = protocol_from_basis(shared, basis)
    assert np.sum(protocol.coefficients**2) == pytest.approx(1.0, abs=1e-12)


def test_protocol_from_basis_rejects_a_basis_on_another_qubit_count():
    basis = MeasurementBasis(haar_random_unitary(4, 3).T)
    with pytest.raises(ValueError, match="^basis must act on as many qubits as the shared state$"):
        protocol_from_basis(make_named_state("w"), basis)


def test_run_teleport_rejects_multi_qubit_message():
    with pytest.raises(ValueError, match="single qubit"):
        run_teleport(haar_random_state(2, 1), ghz_protocol())


# ---------------------------------------------------------------- sigma twirl


def sigma_twirl_states(shared: PureState) -> tuple[tuple[PureState, ...], np.ndarray]:
    """The four states (I (x) sigma†)|shared>, sigma† on the receiver qubit in
    the Pauli index order, and their Gram matrix [tr(rho_B sigma_k sigma_l†)]:
    the entropy route in matrix form, the identity exactly at one ebit."""
    twirled = tuple(
        PureState(shared.n_qubits, (shared.amplitudes.reshape(-1, 2) @ sigma.conj()).reshape(-1))
        for sigma in protocols.SIGMA_BY_INDEX
    )
    amplitudes = np.array([state.amplitudes for state in twirled])
    return twirled, amplitudes.conj() @ amplitudes.T


def test_sigma_twirl_w_like_orthonormal():
    rng = np.random.default_rng(21)
    for _ in range(10):
        params = WLikeParams(*(float(x) for x in rng.uniform(-math.pi, math.pi, 3)))
        _, gram = sigma_twirl_states(w_like_from_params(params))
        assert max_abs(gram - np.eye(4)) <= 1e-10


def test_sigma_twirl_w_overlap_one_third():
    w = make_named_state("w")
    twirled, gram = sigma_twirl_states(w)
    assert abs(gram[3, 0] - (1.0 / 3.0)) <= 1e-12
    np.testing.assert_allclose(np.diag(gram).real, np.ones(4), atol=1e-12)
    # the twirled kets themselves, written out by hand
    expected_x = np.zeros(8, dtype=complex)
    expected_x[[0, 3, 5]] = 1 / SQRT3
    assert max_abs(twirled[1].amplitudes - expected_x) <= 1e-12
    expected_y = np.zeros(8, dtype=complex)
    expected_y[0] = -1j / SQRT3
    expected_y[3] = expected_y[5] = 1j / SQRT3
    assert max_abs(twirled[2].amplitudes - expected_y) <= 1e-12
    expected_z = np.zeros(8, dtype=complex)
    expected_z[1] = -1 / SQRT3
    expected_z[2] = expected_z[4] = 1 / SQRT3
    assert max_abs(twirled[3].amplitudes - expected_z) <= 1e-12


# the bell(0,0) corrections, I, X, Z, -iY, on outcomes 000..011
ONE_EBIT_CORRECTIONS = {0: IDENTITY, 1: PAULI_X, 2: PAULI_Z, 3: -1j * PAULI_Y}
SEEDS = st.integers(0, 2**32 - 1)


@given(sender_seed=SEEDS, receiver_seed=SEEDS, message_seed=SEEDS)
def test_one_ebit_is_sufficient_by_construction(sender_seed, receiver_seed, message_seed):
    """Every one-ebit state is U_sender (x) V_B applied to |0>|Phi+>, here V_B
    applied to one_ebit_state; each one teleports perfectly with the bell(0,0)
    corrections, and the entropy route and the twirl agree that it is feasible."""
    receiver = np.kron(np.eye(4), haar_random_unitary(2, receiver_seed))
    shared = PureState(3, receiver @ one_ebit_state(sender_seed).amplitudes)
    protocol = protocols._protocol_from_corrections(shared, ONE_EBIT_CORRECTIONS)
    assert run_teleport(haar_random_state(1, message_seed), protocol).total_fidelity >= 1.0 - 1e-12
    assert entropy_criterion(shared)[1]
    assert max_abs(sigma_twirl_states(shared)[1] - np.eye(4)) <= 1e-10


@given(seed=SEEDS)
def test_twirl_gram_is_the_receiver_state(seed):
    """On a Haar-random state the twirl Gram is [tr(rho_B sigma_k sigma_l†)],
    the entropy route says infeasible and the builder finds no basis."""
    shared = haar_random_state(3, seed)
    rho_b = partial_trace(shared.density(), keep=(2,)).matrix
    sigmas = protocols.SIGMA_BY_INDEX
    expected = np.array([[np.trace(rho_b @ sk @ dagger(sl)) for sl in sigmas] for sk in sigmas])
    assert max_abs(sigma_twirl_states(shared)[1] - expected) <= 1e-12
    assert not entropy_criterion(shared)[1]
    with pytest.raises(ValueError, match="basis is not orthonormal"):
        protocols._protocol_from_corrections(shared, ONE_EBIT_CORRECTIONS)


# ---------------------------------------------------------------- S-parameterized bases


def test_basis_from_identity_matches_canonical_live_elements():
    params = WLikeParams(math.pi / 4, 0.0, 0.0)
    generated = basis_from_S(params, IDENTITY)
    canonical = w_like_protocol(params)
    # slot map discovered by construction: I, X, Y, Z live slots land on the
    # canonical outcomes 000, 010, 011, 001
    slot_map = {0: 0, 1: 2, 2: 3, 3: 1}
    for src, dst in slot_map.items():
        assert_equal_up_to_phase(
            generated.basis.rows[src],
            canonical.basis.rows[dst],
        )


def test_basis_from_S_perfect_for_random_unitaries():
    rng = np.random.default_rng(4)
    for k in range(5):
        params = WLikeParams(*(float(x) for x in rng.uniform(-math.pi, math.pi, 3)))
        s = haar_random_unitary(2, 900 + k)
        protocol = basis_from_S(params, s)
        psi = haar_random_state(1, 500 + k)
        assert run_teleport(psi, protocol).total_fidelity == pytest.approx(1.0, abs=1e-10)


def test_basis_from_S_live_gram():
    protocol = basis_from_S(WLikeParams(0.5, 0.2, 0.9), haar_random_unitary(2, 8))
    live = protocol.basis.rows[:4]
    assert max_abs(live.conj() @ live.T - np.eye(4)) <= 1e-10


def test_basis_from_S_rejects_non_unitary():
    with pytest.raises(ValueError, match="S is not unitary"):
        basis_from_S(WLikeParams(0.5, 0.0, 0.0), np.diag([1.0, 2.0]))


# ---------------------------------------------------------------- builders skip the public checks

ANGLES = st.tuples(*[st.floats(-2 * math.pi, 2 * math.pi)] * 3)


def assert_public_checks_pass(protocol):
    """The builders store without TeleportProtocol's checks; the public
    constructor must accept what they built and store the same bits."""
    checked = TeleportProtocol(protocol.shared, protocol.basis, protocol.corrections)
    for stored in (protocol.corrections, checked.corrections):
        assert stored.dtype == complex and stored.shape == (len(protocol.basis.rows), 2, 2)
        assert stored.flags.c_contiguous and not stored.flags.writeable
    assert checked.corrections.tobytes() == protocol.corrections.tobytes()


@pytest.mark.parametrize("spec", ["ghz", "bell(0,0)", "bell(0,1)", "bell(1,0)", "bell(1,1)"])
def test_canonical_builds_pass_the_public_checks(spec):
    assert_public_checks_pass(ghz_protocol() if spec == "ghz" else bell_protocol(make_named_state(spec)))


@given(angles=ANGLES)
def test_w_like_builds_pass_the_public_checks(angles):
    assert_public_checks_pass(w_like_protocol(WLikeParams(*angles)))


@given(angles=ANGLES)
def test_w_like_protocol_is_built_over_the_state_of_its_angles(angles):
    params = WLikeParams(*angles)
    built = w_like_protocol(params).shared.amplitudes
    assert built.tobytes() == w_like_from_params(params).amplitudes.tobytes()


def test_w_like_protocol_takes_no_shared_state():
    # its angles are the one input, so a caller's state cannot disagree with them
    with pytest.raises(TypeError):
        w_like_protocol(WLikeParams(0.0, 0.0, 0.0), make_named_state("bell(0,0)"))


@given(angles=ANGLES, seed=SEEDS)
def test_basis_from_haar_S_passes_the_public_checks(angles, seed):
    assert_public_checks_pass(basis_from_S(WLikeParams(*angles), haar_random_unitary(2, seed)))


@given(angles=ANGLES, seed=SEEDS, ulps=st.integers(-8, 8))
# with OpenBLAS on x86-64 this S passes alone while its products with X and Y fail
@example(angles=(0.0, 0.0, 0.0), seed=489407190, ulps=0)
def test_basis_from_S_at_the_tolerance_edge_stores_only_checked_products(angles, seed, ulps):
    """S†S = diag(1 + ATOL + ulps * 2**-52, 1), so the isometry deviation of S
    sits within a few ulps of ATOL, where a product sigma S can round across
    it while S does not: basis_from_S raises exactly when a stored product fails."""
    s = haar_random_unitary(2, seed) @ np.diag([math.sqrt(1.0 + ATOL + ulps * 2.0**-52), 1.0])
    products = np.array([sigma @ s for sigma in protocols.SIGMA_BY_INDEX])
    try:
        protocol = basis_from_S(WLikeParams(*angles), s)
    except ValueError as exc:
        assert str(exc) == f"S is not unitary (2x2 within tolerance {ATOL:g} required)"
        assert not is_unitary(products).all()
        return
    assert is_unitary(products).all()
    assert_public_checks_pass(protocol)


@given(basis_seed=SEEDS, state_seed=st.one_of(st.none(), SEEDS))
def test_polar_factor_builds_pass_the_public_checks(basis_seed, state_seed):
    shared = make_named_state("w") if state_seed is None else haar_random_state(3, state_seed)
    basis = MeasurementBasis(haar_random_unitary(8, basis_seed).T)
    assert_public_checks_pass(protocol_from_basis(shared, basis))


# ---------------------------------------------------------------- the one orthonormality gate

BELLS = [f"bell({m},{n})" for m in (0, 1) for n in (0, 1)]


@st.composite
def gated_builds(draw):
    """A builder call whose live rows pass the gate, so its basis is stored unchecked: GHZ, the four
    bell(m,n), W-like angles, basis_from_S with a Haar or a named S, and GHZ corrections over a
    full-support one-ebit state V_B applied to one_ebit_state, (U_sender (x) V_B)|0>|Phi+>."""
    kind = draw(st.sampled_from(["ghz", "bell", "w_like", "basis_from_S", "one_ebit"]))
    if kind == "ghz":
        return ghz_protocol
    if kind == "bell":
        shared = make_named_state(draw(st.sampled_from(BELLS)))
        return lambda: bell_protocol(shared)
    params = WLikeParams(*draw(ANGLES))
    if kind == "w_like":
        return lambda: w_like_protocol(params)
    if kind == "basis_from_S":
        s = draw(st.one_of(st.sampled_from(NAMED_S), SEEDS.map(lambda seed: haar_random_unitary(2, seed))))
        return lambda: basis_from_S(params, s)
    receiver = np.kron(np.eye(4), haar_random_unitary(2, draw(SEEDS)))
    shared = PureState(3, receiver @ one_ebit_state(draw(SEEDS)).amplitudes)
    assume(np.all(shared.amplitudes != 0.0))
    return lambda: ghz_protocol(shared)


@settings(max_examples=300)
@given(build=gated_builds())
def test_gated_builds_pass_the_public_checks_with_their_bits(build):
    """The builder runs no MeasurementBasis check on these; MeasurementBasis and TeleportProtocol
    accept what it stored and store the same bytes, its full Gram matrix within ZERO_ATOL."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MeasurementBasis, "__post_init__", lambda self: pytest.fail("the basis was checked"))
        protocol = build()
    assert isometry_deviation(protocol.basis.rows.T) <= ZERO_ATOL
    basis = MeasurementBasis(protocol.basis.rows)
    assert basis.rows.tobytes() == protocol.basis.rows.tobytes()
    checked = TeleportProtocol(protocol.shared, basis, protocol.corrections)
    assert checked.corrections.tobytes() == protocol.corrections.tobytes()


@pytest.mark.parametrize(
    "build, deviation",
    [
        (lambda: ghz_protocol(make_named_state("w")), "3.333e-01"),
        (lambda: bell_protocol(PureState(2, [1, 0, 0, 0])), "1.000e+00"),
    ],
)
def test_a_receiver_without_one_ebit_fails_the_checked_basis(build, deviation):
    """The gate sends these to MeasurementBasis. The dead rows are orthonormal and orthogonal to the
    live ones, so the deviation is the live rows' own: tr(Z rho_B), the overlap of the I and Z elements,
    which is g = 1/3 for W and 1 for |00>, whose receiver is pure (Bell has no dead rows)."""
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == f"basis is not orthonormal: Gram deviation {deviation}"


@st.composite
def frame_builds(draw):
    """A builder call with dead outcomes and its live ones: w_like_protocol, basis_from_S with a Haar S,
    and GHZ corrections over a one-ebit state of 3 to 8 qubits, (U_sender (x) V_B)|0...0>|Phi+>."""
    kind = draw(st.sampled_from(["w_like", "basis_from_S", "one_ebit"]))
    if kind == "one_ebit":
        shared = one_ebit_shared(draw(st.integers(3, 8)), draw(SEEDS))
        return (lambda: ghz_protocol(shared)), LIVE_GHZ
    params = WLikeParams(*draw(ANGLES))
    if kind == "w_like":
        return (lambda: w_like_protocol(params)), range(4)
    s = haar_random_unitary(2, draw(SEEDS))
    return (lambda: basis_from_S(params, s)), range(4)


@settings(max_examples=200)
@given(case=frame_builds(), message_seed=SEEDS)
def test_frame_completed_bases_give_exactly_dead_branches(case, message_seed):
    """The dead elements |j> (x) f, f orthogonal to the range of the receiver cut, have branch operators
    zero to rounding; the printed protocol holds no -0.0, the basis passes MeasurementBasis with its bits,
    and a Haar message teleports perfectly."""
    build, live = case
    protocol = build()
    ops = branch_operators(protocol.basis, protocol.shared).ops
    assert max_abs(np.delete(ops, list(live), axis=0)) <= 1e-15
    # the canonical text puts each number on a line of its own
    assert not re.search(r"^ *-0\.0,?$", dumps_canonical(protocol_to_jsonable(protocol)), re.MULTILINE)
    assert MeasurementBasis(protocol.basis.rows).rows.tobytes() == protocol.basis.rows.tobytes()
    assert abs(run_teleport(haar_random_state(1, message_seed), protocol).total_fidelity - 1.0) <= 1e-12


# ---------------------------------------------------------------- bits of the builders' shortcuts


def scale_and_deviation_coefficients(protocol):
    """TeleportProtocol.coefficients from scale_and_deviation's scales of the branch family."""
    scales = scale_and_deviation(branch_operators(protocol.basis, protocol.shared).ops)[0]
    return np.where(scales > PROB_FLOOR, np.sqrt(scales), 0.0)


NAMED_S = (IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, HADAMARD)


def coefficient_cases():
    yield ghz_protocol()
    yield from (bell_protocol(make_named_state(f"bell({m},{n})")) for m in (0, 1) for n in (0, 1))
    params = random_w_like_params(8, 41) + [WLikeParams(0.0, 0.0, 0.0), WLikeParams(math.pi / 2, 0.3, 0.0)]
    yield from (w_like_protocol(p) for p in params)
    unitaries = [*NAMED_S, *(haar_random_unitary(2, 700 + k) for k in range(len(params) - len(NAMED_S)))]
    yield from (basis_from_S(p, s) for p, s in zip(params, unitaries))
    for k, shared in enumerate([make_named_state("w"), make_named_state("ghz"), haar_random_state(3, 5)]):
        yield protocol_from_basis(shared, MeasurementBasis(haar_random_unitary(8, 800 + k).T))
        # the GHZ basis leaves dead branches over GHZ and W
        yield protocol_from_basis(shared, ghz_protocol().basis)


def test_coefficients_are_bitwise_those_of_scale_and_deviation():
    dead = 0
    for protocol in coefficient_cases():
        coefficients = protocol.coefficients
        assert coefficients.tobytes() == scale_and_deviation_coefficients(protocol).tobytes()
        dead += np.count_nonzero(coefficients == 0.0)
    assert dead > 0


def computational_protocol(amplitude_2):
    """Amplitude 1 on |000> and `amplitude_2` on |010> under the computational basis with identity
    corrections: outcome 1's branch weight is amplitude_2 ** 2, with no rounding in between."""
    amps = np.zeros(8, dtype=complex)
    amps[0], amps[2] = 1.0, amplitude_2
    return TeleportProtocol(PureState(3, amps), MeasurementBasis(np.eye(8)), np.array([IDENTITY] * 8))


def test_a_branch_exactly_at_the_floor_is_dead():
    # 1e-12 * 1e-12 == 1e-24 exactly, so outcome 1's probability is PROB_FLOOR
    result = run_teleport(PureState(1, np.array([1.0, 0.0])), computational_protocol(1e-12))
    assert result.outcomes[1].probability == PROB_FLOOR
    assert result.outcomes[1].branch_fidelity is None


def test_a_coefficient_exactly_at_the_floor_is_zero():
    # 1.414213562373095e-12 squared is exactly 2e-24, so outcome 1's scale is exactly PROB_FLOOR
    protocol = computational_protocol(1.414213562373095e-12)
    ops = branch_tensor(protocol.basis.rows, protocol.shared.amplitudes)
    assert scale_and_deviation(ops)[0][1] == PROB_FLOOR
    assert protocol.coefficients[1] == 0.0


def test_a_basis_exactly_at_atol_is_orthonormal():
    # the Gram matrix's off-diagonal entry is the stray one, exactly ATOL; a squared norm cannot sit on the edge
    for stray, accepted in ((ATOL, True), (np.nextafter(ATOL, 1.0), False)):
        rows = np.eye(2, dtype=complex)
        rows[1, 0] = stray
        assert isometry_deviation(rows.T) == stray
        if accepted:
            assert MeasurementBasis(rows).rows.tobytes() == rows.tobytes()
        else:
            with pytest.raises(ValueError, match="^basis is not orthonormal: Gram deviation 1.000e-10$"):
                MeasurementBasis(rows)


def test_a_correction_exactly_at_atol_is_unitary():
    # u†u - I is [[0, stray], [stray, stray**2]] and 1 + stray**2 rounds to 1, so the deviation is the stray entry
    bell = bell_protocol()
    for stray, accepted in ((ATOL, True), (np.nextafter(ATOL, 1.0), False)):
        corrections = bell.corrections.copy()
        corrections[0] = [[1.0, stray], [0.0, 1.0]]
        assert isometry_deviation(corrections[0]) == stray
        if accepted:
            assert TeleportProtocol(bell.shared, bell.basis, corrections).corrections.tobytes() == corrections.tobytes()
        else:
            with pytest.raises(ValueError, match="^correction 0 is not a 2x2 unitary$"):
                TeleportProtocol(bell.shared, bell.basis, corrections)


def per_outcome_live_rows(shared, corrections):
    """_protocol_from_corrections's live basis elements, one product (A conj(C_k))ᵀ per outcome k."""
    a = shared.amplitudes.reshape(-1, 2)
    return np.reshape([(a @ corrections[k].conj()).T for k in sorted(corrections)], (len(corrections), -1))


@given(angles=ANGLES, s=st.one_of(st.sampled_from(NAMED_S), SEEDS.map(lambda seed: haar_random_unitary(2, seed))))
def test_live_rows_are_bitwise_the_per_outcome_products(angles, s):
    params = WLikeParams(*angles)
    shared = w_like_from_params(params)
    built = basis_from_S(params, s).basis.rows[:4]
    products = {k: sigma @ s for k, sigma in enumerate(protocols.SIGMA_BY_INDEX)}
    assert built.tobytes() == per_outcome_live_rows(shared, products).tobytes()
    canonical = {0: IDENTITY, 1: PAULI_Z, 2: PAULI_X, 3: 1j * PAULI_Y}
    built = w_like_protocol(params).basis.rows[:4]
    assert built.tobytes() == per_outcome_live_rows(shared, canonical).tobytes()


@pytest.mark.parametrize("spec", ["ghz", "bell(0,0)", "bell(0,1)", "bell(1,0)", "bell(1,1)"])
def test_canonical_live_rows_are_bitwise_the_per_outcome_products(spec):
    shared = make_named_state(spec)
    if spec == "ghz":
        protocol, live = ghz_protocol(shared), {0: IDENTITY, 1: PAULI_Z, 4: PAULI_X, 5: 1j * PAULI_Y}
    else:
        protocol, live = bell_protocol(shared), ONE_EBIT_CORRECTIONS
    built = protocol.basis.rows[sorted(live)]
    assert built.tobytes() == per_outcome_live_rows(shared, live).tobytes()


# ---------------------------------------------------------------- per-branch reference


def reference_corrections(basis, shared):
    """protocol_from_basis's corrections as a per-branch loop: one SVD each."""
    corrections = []
    for t in branch_operators(basis, shared).ops:
        if max_abs(t) < 1e-12:
            corrections.append(np.eye(2, dtype=complex))
        else:
            w, _, vh = np.linalg.svd(t)
            corrections.append(w @ vh)
    return np.array(corrections)


def reference_run(psi, protocol):
    """run_teleport as a per-branch loop: [(probability, fidelity)] and the total."""
    branches, total = [], 0.0
    for k, t in enumerate(branch_operators(protocol.basis, protocol.shared).ops):
        branch = t @ psi.amplitudes
        prob = float(np.sum(np.abs(branch) ** 2))
        if prob <= PROB_FLOOR:
            branches.append((prob, None))
            continue
        bob = dagger(protocol.corrections[k]) @ (branch / np.sqrt(prob))
        fid = float(abs(np.vdot(psi.amplitudes, bob)) ** 2)
        total += prob * fid
        branches.append((prob, fid))
    return branches, total


def one_ebit_state(seed):
    """Two orthonormal sender kets, each paired with one receiver ket:
    (U_sender (x) I)|0>|Phi+> for a Haar U_sender."""
    u = haar_random_unitary(4, seed)
    return PureState(3, (np.kron(u[:, 0], [1, 0]) + np.kron(u[:, 1], [0, 1])) / SQRT2)


REFERENCE_STATES = {
    "w": lambda: make_named_state("w"),
    "ghz": lambda: make_named_state("ghz"),
    "haar": lambda: haar_random_state(3, 17),
    "one-ebit": lambda: one_ebit_state(3),
}


@pytest.mark.parametrize("state", sorted(REFERENCE_STATES))
def test_array_execution_is_bitwise_the_per_branch_loop(state):
    shared = REFERENCE_STATES[state]()
    messages = [haar_random_state(1, 40 + m) for m in range(3)] + [bloch_qubit(0.0, 0.0)]
    for seed in range(4):
        basis = MeasurementBasis(haar_random_unitary(8, 100 * seed + 9).T)
        protocol = protocol_from_basis(shared, basis)
        assert protocol.corrections.tobytes() == reference_corrections(basis, shared).tobytes()
        for psi in messages:
            result = run_teleport(psi, protocol)
            branches, total = reference_run(psi, protocol)
            assert [(o.probability, o.branch_fidelity) for o in result.outcomes] == branches
            assert result.total_fidelity == total


@pytest.mark.parametrize(
    "builder", [ghz_protocol, bell_protocol, lambda: w_like_protocol(WLikeParams(0.7, 0.3, 1.1))]
)
def test_array_execution_is_bitwise_the_loop_with_dead_branches(builder):
    protocol = builder()
    for m in range(4):
        psi = haar_random_state(1, m)
        result = run_teleport(psi, protocol)
        branches = [(o.probability, o.branch_fidelity) for o in result.outcomes]
        assert (branches, result.total_fidelity) == reference_run(psi, protocol)


# ---------------------------------------------------------------- sampling


def test_sample_teleport_frequencies():
    protocol = ghz_protocol()
    psi = bloch_qubit(1.0, 0.3)
    exact = run_teleport(psi, protocol)
    sample = sample_teleport(exact, 100_000, seed=11)
    assert int(np.sum(sample.counts)) == 100_000
    for k in LIVE_GHZ:
        assert abs(sample.counts[k] / 100_000 - 0.25) <= 0.01
    assert sample.empirical_fidelity == pytest.approx(1.0, abs=1e-10)
    probs = np.array([o.probability for o in exact.outcomes])
    tv = 0.5 * np.sum(np.abs(sample.counts / 100_000 - probs))
    assert tv <= 0.02


def test_sample_teleport_single_trial():
    sample = sample_teleport(run_teleport(bloch_qubit(0.4, 0.0), ghz_protocol()), 1, seed=5)
    assert int(np.sum(sample.counts > 0)) == 1


def test_sample_teleport_deterministic():
    psi = bloch_qubit(2.0, -0.7)
    a = sample_teleport(run_teleport(psi, ghz_protocol()), 5000, seed=123)
    b = sample_teleport(run_teleport(psi, ghz_protocol()), 5000, seed=123)
    assert np.array_equal(a.counts, b.counts)
    assert a.empirical_fidelity == b.empirical_fidelity


@pytest.mark.parametrize("chunk", [1000, None])
def test_sample_teleport_draws_in_chunks_with_the_one_call_counts(monkeypatch, chunk):
    """Counts equal one rng.choice over every trial, and no draw exceeds the chunk."""
    one_call = np.random.Philox
    sizes = []

    class SpyPhilox(one_call):
        def random_raw(self, size=None, output=True):
            sizes.append(size)
            return super().random_raw(size, output)

    monkeypatch.setattr(np.random, "Philox", SpyPhilox)
    if chunk is not None:
        monkeypatch.setattr(protocols, "SAMPLE_CHUNK", chunk)
    chunk = protocols.SAMPLE_CHUNK
    psi = bloch_qubit(1.1, 0.4)
    basis = MeasurementBasis(haar_random_unitary(8, 2).T)
    protocol = protocol_from_basis(make_named_state("w"), basis)
    exact = run_teleport(psi, protocol)
    probs = np.array([o.probability for o in exact.outcomes])
    for trials in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 17):
        sizes.clear()
        sample = sample_teleport(exact, trials, seed=7)
        assert max(sizes) <= chunk and sum(sizes) == trials
        drawn = np.random.Generator(one_call(key=7)).choice(8, size=trials, p=probs / probs.sum())
        counts = np.bincount(drawn, minlength=8)
        assert sample.counts.tobytes() == counts.tobytes()


SMALL_CHUNK = 64
WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.just(1e-30), st.floats(1e-30, 1.0)), min_size=2, max_size=16
).filter(any)


def sample_weights(weights, trials, seed, chunk=SMALL_CHUNK):
    """sample_teleport over a stand-in exact run with branch probabilities
    `weights`: live branches have fidelity 1, dead ones None."""
    exact = TeleportResult(
        tuple(BranchOutcome(str(k), w, 1.0 if w > 0 else None) for k, w in enumerate(weights)), 1.0
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocols, "SAMPLE_CHUNK", chunk)
        return sample_teleport(exact, trials, seed)


@given(weights=WEIGHTS, trials=st.integers(1, 3 * SMALL_CHUNK), seed=st.integers(0, 2**64 - 1))
@example(weights=[0.0, 1.0, 0.0, 0.0], trials=SMALL_CHUNK + 1, seed=0)
@example(weights=[1e-30, 0.0, 1.0, 1e-30, 0.0, 0.0, 0.0, 0.5], trials=2 * SMALL_CHUNK + 17, seed=3)
@example(weights=[0.3, 0.0], trials=SMALL_CHUNK - 1, seed=2**64 - 1)
def test_sample_counts_equal_one_choice_over_all_trials(weights, trials, seed):
    """Counts are bitwise those of one rng.choice over every trial, for any
    distribution: zero, single live and tiny outcomes, across chunk ends."""
    sample = sample_weights(weights, trials, seed)
    probs = np.array(weights)
    p = probs / probs.sum()
    drawn = np.random.Generator(np.random.Philox(key=seed)).choice(len(p), size=trials, p=p)
    assert sample.counts.dtype == np.intp
    assert sample.counts.tobytes() == np.bincount(drawn, minlength=len(p)).tobytes()
    assert sample.empirical_fidelity == 1.0


@given(weights=WEIGHTS)
def test_sample_counts_uniforms_on_cdf_entries_as_choice_does(weights):
    """Random words almost never land on a CDF entry's bound; replayed ones that
    sit on each bound or one beside it are counted as rng.choice counts their
    uniforms (w >> 11) * 2**-53."""
    probs = np.array(weights)
    p = probs / probs.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    bounds = [_word_bound(c) for c in cdf.tolist()]
    grid = sorted({0} | {w for b in bounds for w in (b - 1, b, b + 1) if 0 <= w < 2**64})
    words = np.array(grid, dtype=np.uint64)
    uniforms = (words >> np.uint64(11)) * 2.0**-53

    class ReplayPhilox(np.random.Philox):
        fed = 0

        def random_raw(self, size=None, output=True):
            self.fed += size
            return words[self.fed - size : self.fed]

    class ReplayGenerator(np.random.Generator):
        fed = 0

        def random(self, size=None, *args, **kwargs):
            self.fed += size
            return uniforms[self.fed - size : self.fed]

    drawn = ReplayGenerator(np.random.Philox(key=0)).choice(len(p), size=len(uniforms), p=p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "Philox", ReplayPhilox)
        sample = sample_weights(weights, len(words), seed=0, chunk=5)
    assert sample.counts.tobytes() == np.bincount(drawn, minlength=len(p)).tobytes()


def test_generator_uniforms_are_the_top_53_bits_of_philox_words():
    """The numpy contract the sampler's word bounds rest on: Generator.random
    makes each double from one raw word w as (w >> 11) * 2**-53."""
    for key in (0, 7, 2**32 + 5, 2**64 - 1):
        uniforms = np.random.Generator(np.random.Philox(key=key)).random(1027)
        words = np.random.Philox(key=key).random_raw(1027)
        assert uniforms.tobytes() == ((words >> np.uint64(11)) * 2.0**-53).tobytes()


UNIT_GRID = st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53)


@given(
    c=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    | UNIT_GRID
    | UNIT_GRID.map(lambda c: math.nextafter(c, 0.0))
    | UNIT_GRID.map(lambda c: math.nextafter(c, 1.0)).filter(lambda c: c < 1.0),
    word=st.integers(0, 2**64 - 1),
)
@example(c=5e-324, word=0)
@example(c=5e-324, word=2**11)
@example(c=1 - 2**-53, word=2**64 - 1)
@example(c=1 - 2**-53, word=2**64 - 2**12)
def test_word_bound_splits_words_as_their_uniforms_split(c, word):
    """u < c exactly when w < _word_bound(c), for the bound's neighbours and any word."""
    bound = _word_bound(c)
    assert 0 <= bound < 2**64
    for w in (word, bound - 1, bound, bound + 1):
        if 0 <= w < 2**64:
            assert ((w >> 11) * 2.0**-53 < c) == (w < bound)


@pytest.mark.parametrize("chunk", [SMALL_CHUNK, None])
@pytest.mark.parametrize(
    "build", [ghz_protocol, lambda: w_like_protocol(WLikeParams(0.7, 0.3, 1.1))], ids=["ghz", "w-like"]
)
def test_sample_counts_with_dead_outcomes_equal_one_choice(monkeypatch, build, chunk):
    """A perfect protocol's four dead outcomes repeat CDF entries, and its last
    live outcome and the dead ones after it sit at exactly 1.0; the counts are
    still bitwise those of one rng.choice over every trial."""
    if chunk is not None:
        monkeypatch.setattr(protocols, "SAMPLE_CHUNK", chunk)
    chunk = protocols.SAMPLE_CHUNK
    exact = run_teleport(bloch_qubit(1.1, 0.4), build())
    probs = np.array([o.probability for o in exact.outcomes])
    p = probs / probs.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    assert np.count_nonzero(probs <= PROB_FLOOR) == 4
    assert np.count_nonzero(cdf == 1.0) >= 2 and len(set(cdf.tolist())) <= 5
    for trials in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 17):
        sample = sample_teleport(exact, trials, seed=7)
        drawn = np.random.Generator(np.random.Philox(key=7)).choice(8, size=trials, p=p)
        assert sample.counts.tobytes() == np.bincount(drawn, minlength=8).tobytes()


def test_no_draws_stops_the_sampler_at_its_first_draw(no_draws):
    # so the two tests below would fail if the trial checks came after a draw
    with pytest.raises(AssertionError, match="sampling started"):
        sample_teleport(run_teleport(bloch_qubit(0.4, 0.0), ghz_protocol()), 5, seed=1)


def test_sample_teleport_caps_trials_before_drawing(no_draws):
    with pytest.raises(ValueError, match=r"trials must be <= 2\*\*32"):
        sample_teleport(run_teleport(bloch_qubit(0.4, 0.0), ghz_protocol()), 2**32 + 1, seed=1)


@pytest.mark.parametrize("trials", [True, 2.5, 3.0])
def test_sample_teleport_trials_must_be_integers(no_draws, trials):
    with pytest.raises(ValueError, match="trials must be an integer"):
        sample_teleport(run_teleport(bloch_qubit(0.4, 0.0), ghz_protocol()), trials, seed=1)


def test_sample_teleport_stores_numpy_integer_trials_as_int():
    exact = run_teleport(bloch_qubit(0.4, 0.0), ghz_protocol())
    sample = sample_teleport(exact, np.int64(5), seed=1)
    assert type(sample.trials) is int
    assert sample.counts.tobytes() == sample_teleport(exact, 5, seed=1).counts.tobytes()


def test_sample_teleport_rejects_zero_trials():
    with pytest.raises(ValueError):
        sample_teleport(run_teleport(bloch_qubit(0.4, 0.0), ghz_protocol()), 0, seed=1)
