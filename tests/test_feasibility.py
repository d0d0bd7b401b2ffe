import math
from types import SimpleNamespace

import numpy as np
import pytest

from teleport3q import feasibility
from teleport3q.feasibility import (
    SCAN_CHUNK,
    SCAN_TOL,
    ScanResult,
    build_feasibility_report,
    componentwise_disentangler,
    entropy_criterion,
    haar_scan,
    protocol_feasible,
    schmidt_disentangler,
    unitarity_verdict,
)
from teleport3q.linalg import (
    PAULI_X,
    _haar_from_rng,
    dagger,
    haar_random_unitary,
    is_unitary,
    max_abs,
    tensor_product,
)
from teleport3q.protocols import (
    MeasurementBasis,
    bell_protocol,
    branch_operators,
    branch_tensor,
    check_basis_rows,
    check_complete,
    ghz_protocol,
    w_like_protocol,
)
from teleport3q.states import (
    PureState,
    WLikeParams,
    entanglement_entropy,
    fidelity,
    haar_random_state,
    make_named_state,
    partial_trace,
    w_like_from_params,
)

SQRT2 = math.sqrt(2.0)


def haar_basis(seed: int) -> MeasurementBasis:
    return MeasurementBasis.from_unitary_columns(haar_random_unitary(8, seed))


def random_w_like(rng) -> PureState:
    return w_like_from_params(
        WLikeParams(*(float(x) for x in rng.uniform(-math.pi, math.pi, 3)))
    )


def sum_rule(shared: PureState, basis: MeasurementBasis) -> tuple[float, float]:
    """Row sums of |T entries|^2 over all branches. Each row is twice the
    matching diagonal entry of rho_B for any orthonormal basis, so the rows
    balance exactly when the receiver's qubit is maximally mixed."""
    weights = np.abs(branch_operators(basis, shared).ops) ** 2
    row0, row1 = weights.sum(axis=(0, 2)).tolist()
    return row0, row1


# ---------------------------------------------------------------- unitarity verdicts


def test_verdict_scaled_pauli():
    verdict = unitarity_verdict(0.5 * PAULI_X, 1e-10)
    assert verdict.is_proportional_unitary
    assert verdict.scale == pytest.approx(0.25, abs=1e-12)


def test_verdict_rank_deficient():
    verdict = unitarity_verdict(np.diag([1.0, 0.0]), 1e-10)
    assert not verdict.is_proportional_unitary


def test_verdict_zero_operator_is_dead_branch():
    verdict = unitarity_verdict(np.zeros((2, 2)), 1e-10)
    assert verdict.is_proportional_unitary
    assert verdict.scale == 0.0


def test_verdict_ghz_live_branches():
    protocol = ghz_protocol()
    ops = branch_operators(protocol.basis, protocol.shared).ops
    for k in (0, 1, 4, 5):
        verdict = unitarity_verdict(ops[k], 1e-10)
        assert verdict.is_proportional_unitary
        assert verdict.scale == pytest.approx(0.25, abs=1e-12)


def test_verdict_scale_covariance():
    rng = np.random.default_rng(6)
    base = 0.3 * haar_random_unitary(2, 17)
    generic = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for t in (base, generic):
        reference = unitarity_verdict(t, 1e-8)
        for _ in range(20):
            c = complex(rng.standard_normal(), rng.standard_normal())
            scaled = unitarity_verdict(c * t, 1e-8 * max(1.0, abs(c) ** 2))
            assert scaled.is_proportional_unitary == reference.is_proportional_unitary
            assert scaled.scale == pytest.approx(abs(c) ** 2 * reference.scale, rel=1e-9)


# ---------------------------------------------------------------- protocol feasibility


def test_ghz_basis_feasible_for_ghz():
    protocol = ghz_protocol()
    ok, _ = protocol_feasible(protocol.basis, protocol.shared, 1e-10)
    assert ok


def test_w_like_basis_feasible_for_matching_state():
    params = WLikeParams(0.8, -0.5, 2.2)
    protocol = w_like_protocol(params)
    ok, _ = protocol_feasible(protocol.basis, protocol.shared, 1e-10)
    assert ok


def test_haar_bases_never_feasible_for_w():
    w = make_named_state("w")
    for seed in range(25):
        ok, _ = protocol_feasible(haar_basis(seed), w, 1e-8)
        assert not ok


# ---------------------------------------------------------------- sum rule


def test_sum_rule_w_unbalanced():
    w = make_named_state("w")
    for seed in range(10):
        row0, row1 = sum_rule(w, haar_basis(seed))
        assert row0 == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert row1 == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_sum_rule_w_like_balanced():
    rng = np.random.default_rng(9)
    for seed in range(5):
        row0, row1 = sum_rule(random_w_like(rng), haar_basis(seed))
        assert row0 == pytest.approx(1.0, abs=1e-9)
        assert row1 == pytest.approx(1.0, abs=1e-9)


def test_sum_rule_ghz_balanced():
    row0, row1 = sum_rule(make_named_state("ghz"), haar_basis(2))
    assert row0 == pytest.approx(1.0, abs=1e-9)
    assert row1 == pytest.approx(1.0, abs=1e-9)


def test_sum_rule_basis_independent():
    state = haar_random_state(3, 55)
    rows = [sum_rule(state, haar_basis(seed)) for seed in range(50)]
    report = build_feasibility_report(state, "random", scan_trials=1, seed=0)
    for row0, row1 in [*rows[1:], (report.sum_rule_row0, report.sum_rule_row1)]:
        assert row0 == pytest.approx(rows[0][0], abs=1e-9)
        assert row1 == pytest.approx(rows[0][1], abs=1e-9)


# ---------------------------------------------------------------- entropy criterion


def test_entropy_criterion_values():
    entropy, feasible = entropy_criterion(make_named_state("ghz"))
    assert feasible and entropy == pytest.approx(1.0, abs=1e-10)
    entropy, feasible = entropy_criterion(make_named_state("w"))
    assert not feasible
    assert entropy == pytest.approx(0.91829583, abs=1e-6)
    rng = np.random.default_rng(44)
    for _ in range(10):
        entropy, feasible = entropy_criterion(random_w_like(rng))
        assert feasible and entropy == pytest.approx(1.0, abs=1e-10)


def test_criterion_agreement():
    # entropy feasibility, sum-rule balance, and maximal mixedness coincide
    rng = np.random.default_rng(10)
    states = [make_named_state("ghz"), make_named_state("w")]
    states += [random_w_like(rng) for _ in range(50)]
    states += [haar_random_state(3, 4000 + k) for k in range(50)]
    basis = haar_basis(1)
    for state in states:
        entropy_ok = entropy_criterion(state)[1]
        row0, row1 = sum_rule(state, basis)
        balanced = abs(row0 - row1) <= 1e-9
        rho_b = partial_trace(state.density(), keep=(2,)).matrix
        mixed = max_abs(rho_b - np.eye(2) / 2) <= 1e-9
        assert entropy_ok == balanced == mixed


# ---------------------------------------------------------------- disentanglers


def test_componentwise_ghz():
    result = componentwise_disentangler(make_named_state("ghz"))
    assert result.exists
    assert is_unitary(result.unitary, 1e-10)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / SQRT2
    assert fidelity(result.residual, PureState(2, bell)) == pytest.approx(1.0, abs=1e-10)


def test_componentwise_w_fails():
    assert not componentwise_disentangler(make_named_state("w")).exists


def test_componentwise_w_like_quarter_pi_fails():
    state = w_like_from_params(WLikeParams(math.pi / 4, 0.0, 0.0))
    assert not componentwise_disentangler(state).exists


def test_componentwise_w_like_half_pi():
    omega = 0.3
    state = w_like_from_params(WLikeParams(math.pi / 2, 0.0, omega))
    result = componentwise_disentangler(state)
    assert result.exists
    expected = np.zeros(4, dtype=complex)
    expected[1] = 1 / SQRT2
    expected[2] = np.exp(1j * omega) / SQRT2
    assert fidelity(result.residual, PureState(2, expected)) == pytest.approx(1.0, abs=1e-10)


def test_componentwise_reconstruction():
    for state in (
        make_named_state("ghz"),
        w_like_from_params(WLikeParams(math.pi / 2, 0.0, 1.9)),
    ):
        result = componentwise_disentangler(state)
        moved = tensor_product(result.unitary, np.eye(2)) @ state.amplitudes
        zero_then_residual = np.zeros(8, dtype=complex)
        zero_then_residual[:4] = result.residual.amplitudes
        overlap = abs(np.vdot(zero_then_residual, moved)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_componentwise_product_state_support_one():
    # |0>|0>|+> has a single sender-pair ket; the move exists and leaves no entanglement
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[1] = 1 / SQRT2
    result = componentwise_disentangler(PureState(3, amps))
    assert result.exists
    reduced = partial_trace(result.residual.density(), keep=(1,))
    assert entanglement_entropy(reduced) == pytest.approx(0.0, abs=1e-10)


def test_schmidt_disentangler_values():
    assert schmidt_disentangler(make_named_state("ghz")).residual_entropy == pytest.approx(
        1.0, abs=1e-10
    )
    assert schmidt_disentangler(make_named_state("w")).residual_entropy == pytest.approx(
        0.91829583, abs=1e-6
    )
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[1] = 1 / SQRT2  # |0>|0>|+>
    assert schmidt_disentangler(PureState(3, amps)).residual_entropy == pytest.approx(
        0.0, abs=1e-12
    )


def test_schmidt_disentangler_reconstruction_and_entropy_match():
    for k in range(10):
        state = haar_random_state(3, 6000 + k)
        result = schmidt_disentangler(state)
        assert is_unitary(result.unitary, 1e-10)
        moved = tensor_product(result.unitary, np.eye(2)) @ state.amplitudes
        target = np.zeros(8, dtype=complex)
        target[:4] = result.residual.amplitudes
        assert abs(np.vdot(target, moved)) ** 2 == pytest.approx(1.0, abs=1e-10)
        assert result.residual_entropy == pytest.approx(
            entropy_criterion(state)[0], abs=1e-10
        )


# ---------------------------------------------------------------- scans and reports


def test_haar_scan_w_negative():
    result = haar_scan(make_named_state("w"), 50, seed=1)
    assert result.feasible_count == 0


def test_haar_scan_injection_positive_control():
    params = WLikeParams(0.7, 0.0, 0.0)
    basis = w_like_protocol(params).basis
    result = haar_scan(w_like_from_params(params), 1, seed=0, inject=basis)
    assert result.feasible_count == 1
    assert result.injected
    ghz_result = haar_scan(make_named_state("ghz"), 1, seed=0, inject=ghz_protocol().basis)
    assert ghz_result.feasible_count == 1
    assert ghz_result.max_passing_branches == 8


def test_haar_scan_deterministic():
    w = make_named_state("w")
    a = haar_scan(w, 10, seed=3)
    b = haar_scan(w, 10, seed=3)
    assert a == b


def test_haar_scan_rejects_zero_trials():
    with pytest.raises(ValueError):
        haar_scan(make_named_state("w"), 0, seed=1)


def test_haar_scan_caps_trials_at_one_word_spawn_keys(monkeypatch):
    # checked before any work: a scan that started would fail here, not run for a day
    monkeypatch.setattr(feasibility, "spawned_pcg64_states", None)
    with pytest.raises(ValueError, match=r"trials must be <= 2\*\*32"):
        haar_scan(make_named_state("w"), 2**32 + 1, seed=0)


def test_feasibility_report_w():
    report = build_feasibility_report(make_named_state("w"), "w", scan_trials=20, seed=0)
    assert not report.entropy_feasible
    assert report.sum_rule_row0 == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert report.sum_rule_row1 == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert not report.sum_rule_balanced
    assert report.scan.feasible_count == 0
    assert not report.componentwise.exists
    assert report.schmidt.residual_entropy == pytest.approx(report.entropy_bits, abs=1e-10)
    np.testing.assert_allclose(
        report.bob_reduced_state.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12
    )


def test_feasibility_report_ghz():
    report = build_feasibility_report(make_named_state("ghz"), "ghz", scan_trials=5, seed=0)
    assert report.entropy_feasible
    assert report.sum_rule_balanced
    assert report.componentwise.exists


def test_feasibility_report_rejects_wrong_size():
    with pytest.raises(ValueError):
        build_feasibility_report(haar_random_state(2, 1), "pair", scan_trials=1, seed=0)


# ---------------------------------------------------------------- batched scan kernel


def reference_scan_ops(shared, trials, seed, inject):
    """Branch operators of each trial, from the per-trial loop the batched
    haar_scan replaced: one spawned child, Haar draw and MeasurementBasis per trial."""
    dim = 2**shared.n_qubits
    ops = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        if inject is not None and i == 0:
            basis = inject
        else:
            basis = MeasurementBasis.from_unitary_columns(_haar_from_rng(dim, np.random.default_rng(child)))
        ops.append(branch_operators(basis, shared).ops)
    return ops


def reference_passing(trial_ops, tol):
    """Per trial, how many branches pass a per-branch unitarity_verdict."""
    return [sum(unitarity_verdict(t, tol).is_proportional_unitary for t in ops) for ops in trial_ops]


def _w_like_case():
    protocol = w_like_protocol(WLikeParams(0.5, 0.2, 0.9))
    return protocol.shared, protocol.basis


SCAN_CASES = {
    "w": lambda: (make_named_state("w"), None),
    "random": lambda: (haar_random_state(3, 11), None),
    "ghz-injected": lambda: (make_named_state("ghz"), ghz_protocol().basis),
    "w-like-injected": _w_like_case,
    "bell00-injected": lambda: (make_named_state("bell(0,0)"), bell_protocol().basis),
}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_haar_scan_matches_per_trial_reference(case, seed):
    # The trial counts sit on both sides of the chunk boundaries. At SCAN_TOL
    # every random branch fails; 0.05 passes some random branches and 0.3
    # nearly all, so the feasible and max-passing counts are exercised too.
    # At 0 only exact zeros pass, such as the dead branches of injected bases.
    shared, inject = SCAN_CASES[case]()
    counts = sorted({1, SCAN_CHUNK - 1, SCAN_CHUNK, SCAN_CHUNK + 1, 255, 256, 257, 513})
    # spawn keys are indices, so a shorter scan uses a prefix of the trials
    trial_ops = reference_scan_ops(shared, max(counts), seed, inject)
    outcomes = len(trial_ops[0])
    for tol in (0.0, SCAN_TOL, 0.05, 0.3):
        passing = reference_passing(trial_ops, tol)
        for trials in counts:
            expected = ScanResult(
                trials=trials,
                feasible_count=passing[:trials].count(outcomes),
                max_passing_branches=max(passing[:trials]),
                tolerance=tol,
                injected=inject is not None,
            )
            assert haar_scan(shared, trials, seed, inject=inject, tol=tol) == expected


def test_kernel_checks_reject_bad_rows():
    rows = np.stack([haar_random_unitary(8, seed).T for seed in (1, 2)])
    check_basis_rows(rows)
    repeated = rows.copy()
    repeated[1, 3] = repeated[1, 2]
    with pytest.raises(ValueError, match="not orthonormal"):
        check_basis_rows(repeated)
    stretched = rows.copy()
    stretched[0, 5] *= 1.001
    with pytest.raises(ValueError, match="squared norm deviates"):
        check_basis_rows(stretched)
    broken = rows.copy()
    broken[1, 0, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        check_basis_rows(broken)


def test_kernel_checks_reject_unnormalised_state():
    rows = np.stack([haar_random_unitary(8, seed).T for seed in (1, 2)])
    w = make_named_state("w").amplitudes
    check_complete(branch_tensor(rows, w))
    with pytest.raises(ValueError, match="not complete"):
        check_complete(branch_tensor(rows, 1.001 * w))


def test_haar_scan_runs_the_checks(monkeypatch):
    w = make_named_state("w")
    with pytest.raises(ValueError, match="not complete"):
        haar_scan(SimpleNamespace(n_qubits=3, amplitudes=1.001 * w.amplitudes), 3, seed=0)

    def equal_rows(dim, rng, states):
        return np.full((len(states), dim, dim), 1.0 / math.sqrt(dim), dtype=complex)

    monkeypatch.setattr(feasibility, "_haar_from_states", equal_rows)
    with pytest.raises(ValueError, match="not orthonormal"):
        haar_scan(w, 3, seed=0)


def test_branch_tensor_matches_branch_operators_on_a_stack():
    shared = haar_random_state(3, 4)
    bases = [haar_basis(seed) for seed in range(3)]
    stacked = branch_tensor(np.stack([b.rows for b in bases]), shared.amplitudes)
    for basis, ops in zip(bases, stacked):
        assert np.array_equal(branch_operators(basis, shared).ops, ops)
