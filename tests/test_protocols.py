import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from teleport3q.linalg import (
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    dagger,
    haar_random_unitary,
    max_abs,
)
from teleport3q import protocols
from teleport3q.protocols import (
    PROB_FLOOR,
    BranchOutcome,
    MeasurementBasis,
    TeleportResult,
    basis_from_S,
    bell_protocol,
    branch_operators,
    branch_tensor,
    ghz_protocol,
    protocol_from_basis,
    run_teleport,
    sample_teleport,
    scale_and_deviation,
    sigma_twirl_states,
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
        basis = MeasurementBasis.from_unitary_columns(haar_random_unitary(8, seed))
        family = branch_operators(basis, shared)
        for k, element in enumerate(basis.rows):
            expected = oracle_branch_op(element, shared.amplitudes)
            assert max_abs(family.ops[k] - expected) <= 1e-12


def test_branch_completeness_over_haar_bases():
    for seed in range(20):
        shared = haar_random_state(3, 1000 + seed)
        basis = MeasurementBasis.from_unitary_columns(haar_random_unitary(8, seed))
        total = sum(dagger(t) @ t for t in branch_operators(basis, shared).ops)
        assert max_abs(total - np.eye(2)) <= 1e-10


def test_branch_reduced_state_identity():
    # sum over branches of T |psi><psi| T† equals the receiver's reduced state
    messages = random_messages(20, start_seed=300)
    for seed in range(20):
        shared = haar_random_state(3, 2000 + seed)
        rho_b = partial_trace(shared.density(), keep=(2,)).matrix
        basis = MeasurementBasis.from_unitary_columns(haar_random_unitary(8, 50 + seed))
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


def test_bell_protocol_defaults_to_bell00_and_needs_a_mixed_receiver():
    default, explicit = bell_protocol(), bell_protocol(make_named_state("bell(0,0)"))
    assert np.array_equal(default.basis.rows, explicit.basis.rows)
    assert np.array_equal(default.corrections, explicit.corrections)
    for shared in (haar_random_state(2, 3), PureState.from_array([1, 0, 0, 0])):
        with pytest.raises(ValueError, match="basis is not orthonormal"):
            bell_protocol(shared)


def random_w_like_params(count: int, seed: int) -> list[WLikeParams]:
    rng = np.random.default_rng(seed)
    return [WLikeParams(*(float(x) for x in rng.uniform(-math.pi, math.pi, 3))) for _ in range(count)]


# live outcome -> sign of T_k = ±C_k/2: minus exactly where the builder's P_k is ±iY
CANONICAL_SIGNS = {
    "bell": {0: 1, 1: 1, 2: 1, 3: -1},
    "ghz": {0: 1, 1: 1, 4: 1, 5: -1},
    "w_like": {0: 1, 1: 1, 2: 1, 3: -1},
    "basis_from_S": {0: 1, 1: 1, 2: 1, 3: 1},
}


@pytest.mark.parametrize("builder", sorted(CANONICAL_SIGNS))
def test_canonical_branch_operators_are_half_corrections(builder):
    protocols = {
        "bell": lambda: [bell_protocol(make_named_state(f"bell({m},{n})")) for m in (0, 1) for n in (0, 1)],
        "ghz": lambda: [ghz_protocol()],
        "w_like": lambda: [w_like_protocol(p) for p in random_w_like_params(10, 31)],
        "basis_from_S": lambda: [
            basis_from_S(p, haar_random_unitary(2, 600 + k)) for k, p in enumerate(random_w_like_params(10, 32))
        ],
    }[builder]()
    signs = CANONICAL_SIGNS[builder]
    for protocol in protocols:
        ops = branch_operators(protocol.basis, protocol.shared).ops
        for k, t in enumerate(ops):
            expected = signs[k] * protocol.corrections[k] / 2 if k in signs else 0.0
            assert max_abs(t - expected) <= 1e-12, (builder, k)


def test_protocol_probabilities_sum_to_one():
    shared = haar_random_state(3, 9)
    basis = MeasurementBasis.from_unitary_columns(haar_random_unitary(8, 77))
    protocol = protocol_from_basis(shared, basis)
    result = run_teleport(bloch_qubit(0.77, 0.1), protocol)
    assert sum(o.probability for o in result.outcomes) == pytest.approx(1.0, abs=1e-10)


def test_protocol_from_basis_coefficients_normalized():
    shared = make_named_state("w")
    basis = MeasurementBasis.from_unitary_columns(haar_random_unitary(8, 3))
    protocol = protocol_from_basis(shared, basis)
    assert np.sum(protocol.coefficients**2) == pytest.approx(1.0, abs=1e-12)


def test_run_teleport_rejects_multi_qubit_message():
    with pytest.raises(ValueError, match="single qubit"):
        run_teleport(haar_random_state(2, 1), ghz_protocol())


# ---------------------------------------------------------------- sigma twirl


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
    """Two orthonormal sender kets, each paired with one receiver ket."""
    u = haar_random_unitary(4, seed)
    return PureState.from_array((np.kron(u[:, 0], [1, 0]) + np.kron(u[:, 1], [0, 1])) / SQRT2)


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
        basis = MeasurementBasis.from_unitary_columns(haar_random_unitary(8, 100 * seed + 9))
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
    one_call = np.random.Generator
    sizes = []

    class SpyGenerator(one_call):
        def random(self, size=None, *args, **kwargs):
            sizes.append(size)
            return super().random(size, *args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", SpyGenerator)
    if chunk is not None:
        monkeypatch.setattr(protocols, "SAMPLE_CHUNK", chunk)
    chunk = protocols.SAMPLE_CHUNK
    psi = bloch_qubit(1.1, 0.4)
    basis = MeasurementBasis.from_unitary_columns(haar_random_unitary(8, 2))
    protocol = protocol_from_basis(make_named_state("w"), basis)
    exact = run_teleport(psi, protocol)
    probs = np.array([o.probability for o in exact.outcomes])
    for trials in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 17):
        sizes.clear()
        sample = sample_teleport(exact, trials, seed=7)
        assert max(sizes) <= chunk and sum(sizes) == trials
        drawn = one_call(np.random.Philox(key=7)).choice(8, size=trials, p=probs / probs.sum())
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
    """Random uniforms almost never land on a CDF entry; replayed ones that sit
    on each entry or one ulp beside it are counted as rng.choice counts them."""
    probs = np.array(weights)
    p = probs / probs.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    grid = np.concatenate([[0.0], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
    uniforms = grid[grid < 1.0]

    class ReplayGenerator(np.random.Generator):
        fed = 0

        def random(self, size=None, *args, **kwargs):
            self.fed += size
            return uniforms[self.fed - size : self.fed]

    drawn = ReplayGenerator(np.random.Philox(key=0)).choice(len(p), size=len(uniforms), p=p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "Generator", ReplayGenerator)
        sample = sample_weights(weights, len(uniforms), seed=0, chunk=5)
    assert sample.counts.tobytes() == np.bincount(drawn, minlength=len(p)).tobytes()


def test_sample_teleport_caps_trials_before_drawing(no_draws):
    with pytest.raises(ValueError, match=r"trials must be <= 2\*\*32"):
        sample_teleport(run_teleport(bloch_qubit(0.4, 0.0), ghz_protocol()), 2**32 + 1, seed=1)


def test_sample_teleport_rejects_zero_trials():
    with pytest.raises(ValueError):
        sample_teleport(run_teleport(bloch_qubit(0.4, 0.0), ghz_protocol()), 0, seed=1)
