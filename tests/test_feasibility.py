import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from teleport3q import feasibility
from teleport3q.feasibility import (
    SCAN_CHUNK,
    SCAN_PEAK_BYTES,
    SCAN_TOL,
    SCREEN_BAND,
    SCREEN_DEFECT,
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
    ATOL,
    PAULI_X,
    _haar_from_rng,
    complex_gaussians,
    dagger,
    haar_from_gaussians,
    haar_random_unitary,
    haar_unitaries,
    is_unitary,
    isometry_deviation,
    max_abs,
)
from teleport3q.protocols import (
    MeasurementBasis,
    bell_protocol,
    branch_operators,
    branch_tensor,
    check_basis_rows,
    diagonal_deviation,
    ghz_protocol,
    scale_and_deviation,
    w_like_protocol,
)
from teleport3q.states import (
    PureState,
    WLikeParams,
    entanglement_entropy,
    fidelity,
    haar_random_state,
    make_named_state,
    make_w_like,
    partial_trace,
    w_like_from_params,
)

SQRT2 = math.sqrt(2.0)


def haar_basis(seed: int) -> MeasurementBasis:
    return MeasurementBasis(haar_random_unitary(8, seed).T)


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
@pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-5])
def test_entropy_feasible_implies_the_sum_rule_balances(eps):
    # 1 - S is quadratic in the Bloch length g, so the entropy tolerance admits
    # g up to about 3.7e-5, while the sum rule rejects a row gap above 1e-9
    state = make_w_like(math.sqrt(0.5 + eps), math.sqrt(0.5 - eps), 0.0)
    report = build_feasibility_report(state, "near one ebit", scan_trials=1, seed=0)
    assert report.sum_rule_balanced or not report.entropy_feasible


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
        moved = np.kron(result.unitary, np.eye(2)) @ state.amplitudes
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
        moved = np.kron(result.unitary, np.eye(2)) @ state.amplitudes
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


@pytest.mark.parametrize("trials", [True, 2.5, 3.0, "3"])
def test_haar_scan_trials_must_be_integers(trials):
    with pytest.raises(ValueError, match="trials must be an integer"):
        haar_scan(make_named_state("w"), trials, seed=0)


def test_haar_scan_stores_numpy_integer_trials_as_int():
    result = haar_scan(make_named_state("w"), np.int64(3), seed=0)
    assert type(result.trials) is int and result == haar_scan(make_named_state("w"), 3, seed=0)


def test_haar_scan_caps_trials_to_bound_run_time(monkeypatch):
    # checked before any work: a scan that started would fail here, not run for a day
    monkeypatch.setattr(feasibility, "complex_gaussians", None)
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
    with pytest.raises(ValueError, match="^analyze expects a 3-qubit shared state, got 2 qubits$"):
        build_feasibility_report(haar_random_state(2, 1), "pair", scan_trials=1, seed=0)


# ---------------------------------------------------------------- batched scan kernel


def reference_scan_ops(shared, trials, seed, inject):
    """Branch operators of each trial, from a per-trial loop over one
    default_rng(seed): a Haar draw and a MeasurementBasis per trial. Trial 0
    draws even when `inject` replaces its basis."""
    dim = 2**shared.n_qubits
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(trials):
        basis = MeasurementBasis(_haar_from_rng(dim, rng).T)
        if inject is not None and i == 0:
            basis = inject
        ops.append(branch_operators(basis, shared).ops)
    return ops


def reference_passing(trial_ops, tol):
    """Per trial, how many branches pass a per-branch unitarity_verdict."""
    return [sum(unitarity_verdict(t, tol).is_proportional_unitary for t in ops) for ops in trial_ops]


def scan_verdicts(shared, trials, seed, inject=None, tol=SCAN_TOL):
    """Each scan trial's branch verdicts, a (trials, outcomes) bool array."""
    return np.concatenate(list(feasibility._branch_verdicts(shared, trials, seed, inject, tol)))


def record_exact(monkeypatch):
    """The number of trials each exact-path call of the scan builds rows for."""
    sizes = []

    def recording(z):
        sizes.append(len(z))
        return haar_from_gaussians(z)

    monkeypatch.setattr(feasibility, "haar_from_gaussians", recording)
    return sizes


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
    # trials are drawn in order from one stream, so a shorter scan uses a prefix of them
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


@pytest.mark.parametrize("case", ["w", "random", "ghz-injected"])
def test_haar_scan_does_not_depend_on_the_chunk_size(monkeypatch, case):
    shared, inject = SCAN_CASES[case]()
    expected = {tol: haar_scan(shared, 300, 4, inject=inject, tol=tol) for tol in (0.05, 0.3, 0.5)}
    for chunk in (1, 7, 64, 128, 129, 1000):
        monkeypatch.setattr(feasibility, "SCAN_CHUNK", chunk)
        for tol, result in expected.items():
            assert haar_scan(shared, 300, 4, inject=inject, tol=tol) == result


def w_state(n: int) -> PureState:
    amps = np.zeros(2**n, dtype=complex)
    amps[[2**k for k in range(n)]] = 1.0 / math.sqrt(n)
    return PureState(n, amps)


@pytest.mark.parametrize("n", [3, 4])
def test_haar_scan_memory_is_flat_in_trials(n):
    """A scan allocates its workspace once, so the tracemalloc peak of a
    20 000-trial W scan is within 64 KB of a one-chunk scan's, and below the
    bound SCAN_PEAK_BYTES documents, at SCAN_TOL and at 0.3, where the screen
    rules out no trial and every chunk takes the exact path."""
    shared = w_state(n)

    def peak(trials, tol):
        tracemalloc.start()
        try:
            haar_scan(shared, trials, 1, tol=tol)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for tol in (SCAN_TOL, 0.3):
        # numpy's first calls build caches that later scans reuse
        haar_scan(shared, SCAN_CHUNK, 0, tol=tol)
        one_chunk, long = peak(SCAN_CHUNK, tol), peak(20_000, tol)
        assert abs(long - one_chunk) <= 64 * 1024, tol
        assert long < SCAN_PEAK_BYTES[n], tol


@pytest.mark.parametrize("seed", [0, 3, 2**40])
def test_haar_scan_trial_zero_measures_in_the_haar_seed_basis(seed):
    """Trial 0 of a scan with seed S is the basis `--basis haar:S` names."""
    shared = haar_random_state(3, 11)
    basis = MeasurementBasis(haar_random_unitary(8, seed).T)
    # the scan counts exactly the branches of that basis at or below each
    # branch's own deviation, and one ulp below it
    _, deviations = scale_and_deviation(branch_operators(basis, shared).ops)
    for tol in deviations.tolist():
        for below in (tol, np.nextafter(tol, 0.0)):
            expected = int(np.count_nonzero(deviations <= below))
            assert haar_scan(shared, 1, seed, tol=below).max_passing_branches == expected


SCREEN_CASES = {
    **SCAN_CASES,
    **{f"haar-{n}q": (lambda n=n: (haar_random_state(n, 30 + n), None)) for n in (1, 2, 4)},
}


@pytest.mark.parametrize("case", sorted(SCREEN_CASES))
def test_haar_scan_screen_decides_as_the_exact_path(monkeypatch, case):
    """With SCREEN_BAND infinite the screen rules no trial out, so every trial
    takes the exact path; the screened scan gives the same verdict for every
    branch of every trial."""
    shared, inject = SCREEN_CASES[case]()
    runs = [
        (seed, tol, trials)
        for seed in (0, 1, 7)
        for tol in (0.0, SCAN_TOL, 0.05, 0.3)
        for trials in (1, SCAN_CHUNK - 1, SCAN_CHUNK, SCAN_CHUNK + 1, 257)
    ]

    def scans():
        return [
            (
                haar_scan(shared, trials, seed, inject=inject, tol=tol),
                scan_verdicts(shared, trials, seed, inject, tol),
            )
            for seed, tol, trials in runs
        ]

    screened = scans()
    monkeypatch.setattr(feasibility, "SCREEN_BAND", math.inf)
    exact_sizes = record_exact(monkeypatch)
    for (result, verdicts), (exact_result, exact_verdicts) in zip(screened, scans(), strict=True):
        assert result == exact_result
        assert np.array_equal(verdicts, exact_verdicts)
    assert sum(exact_sizes) == 2 * sum(trials for _, _, trials in runs)


@pytest.mark.parametrize("shared", ["w", "ghz"])
def test_haar_scan_screen_decides_20000_trials_as_the_exact_path(monkeypatch, shared):
    state = make_named_state(shared)
    screened = scan_verdicts(state, 20_000, 3, tol=0.05)
    monkeypatch.setattr(feasibility, "SCREEN_BAND", math.inf)
    assert np.array_equal(scan_verdicts(state, 20_000, 3, tol=0.05), screened)


def screen_stack(shared, rng, count):
    """The stack [z | V] of _screen for a chunk of the next `count` draws from `rng`, with
    V[j d/2 + s, 2b + j] = A[s, b] built entry by entry."""
    dim = 2**shared.n_qubits
    half = shared.amplitudes.reshape(dim // 2, 2)
    stack = np.zeros((count, dim, dim + 4), dtype=complex)
    complex_gaussians(rng, count, dim, stack[..., :dim])
    for j in range(2):
        for s in range(dim // 2):
            for b in range(2):
                stack[:, j * dim // 2 + s, dim + 2 * b + j] = half[s, b]
    return stack


def screen(stack, floor=math.inf):
    """_screen's open trials in a conjugate and a Gram buffer filled with NaN and set up as haar_scan sets
    up its workspace; the NaN that stays in the Gram's strict upper block shows that the Cholesky never
    reads it. At the default floor every trial is open."""
    count, _, wide = stack.shape
    gram = np.full((count, wide, wide), np.nan, dtype=complex)
    feasibility._write_amplitude_gram(stack, gram)
    return feasibility._screen(stack, np.full_like(stack, np.nan), gram, floor)


def allocating_screen(stack):
    """The screened deviations and defects of every trial, and the diagonal deviations that bound them,
    formed with new arrays: the Hermitian Gram whose lower blocks are dagger(stack) @ z and
    dagger(V) @ V + I, and the branch operators as the copied dagger(L[d:, :d])."""
    count, dim = stack.shape[:2]
    gram = np.empty((count, dim + 4, dim + 4), dtype=complex)
    gram[..., :dim] = dagger(stack) @ stack[..., :dim]
    gram[:, :dim, dim:] = dagger(gram[:, dim:, :dim])
    gram[:, dim:, dim:] = dagger(stack[..., dim:]) @ stack[..., dim:] + np.eye(4)
    factor = np.linalg.cholesky(gram)
    ops = dagger(factor[:, dim:, :dim]).reshape(count, dim, 2, 2)
    _, deviations = scale_and_deviation(ops)
    return deviations, np.abs(factor[:, dim:, dim:] - np.eye(4)).max(axis=(-2, -1)), diagonal_deviation(ops)


def reference_open(stack, floor):
    """The trials the allocating screen leaves open at `floor`: all but those whose bound exceeds
    the floor on every branch with a defect below SCREEN_DEFECT."""
    _, defects, bounds = allocating_screen(stack)
    return ~((bounds > floor).all(axis=-1) & (defects < SCREEN_DEFECT))


@given(seed=st.integers(0, 2**64 - 1), case=st.sampled_from(["w", "ghz", "bell(0,0)", "haar"]))
def test_screen_deviations_are_the_exact_ones_to_1e_9(seed, case):
    """On a chunk of SCAN_CHUNK draws, every trial whose screen defect is below
    SCREEN_DEFECT has screened deviations within 1e-9 of the exact path's, and
    all but at most one trial have such a defect. Over 2 048 000 W trials one
    defect reached SCREEN_DEFECT (2.9e-9, cond(z) about 3e4, its error 3.1e-9),
    and no error exceeded 8 defects. A trial that _screen rules out at a floor
    has every exact deviation above the floor, to 1e-9."""
    shared = haar_random_state(3, seed % 1000) if case == "haar" else make_named_state(case)
    dim = 2**shared.n_qubits
    stack = screen_stack(shared, np.random.default_rng(seed), SCAN_CHUNK)
    screened, defects, _ = allocating_screen(stack)
    rows = haar_unitaries(np.random.default_rng(seed), SCAN_CHUNK, dim).swapaxes(-1, -2)
    _, deviations = scale_and_deviation(branch_tensor(rows, shared.amplitudes))
    decided = defects < SCREEN_DEFECT
    assert np.abs(screened - deviations)[decided].max() <= 1e-9
    assert np.count_nonzero(decided) >= SCAN_CHUNK - 1
    for tol in (SCAN_TOL, 0.05):
        floor = tol + SCREEN_BAND
        assert (deviations[~screen(stack, floor)] > floor - 1e-9).all()


@given(
    seed=st.integers(0, 2**64 - 1),
    count=st.integers(1, SCAN_CHUNK),
    case=st.sampled_from(["w", "ghz", "bell(0,0)", *(f"haar-{n}q" for n in range(1, 5))]),
)
def test_screen_in_its_buffers_gives_the_allocating_bits(seed, count, case):
    """_screen, from the Gram written into the given buffers and the branch
    operators read as the copy-free conj(T_k), opens exactly the trials the
    allocating reference opens: all but those whose every branch has a diagonal
    deviation above the floor and whose defect is below SCREEN_DEFECT."""
    shared = haar_random_state(int(case[5]), seed % 1000) if case.startswith("haar") else make_named_state(case)
    stack = screen_stack(shared, np.random.default_rng(seed), count)
    _, _, bounds = allocating_screen(stack)
    assert screen(stack).all()
    # the median floor rules out about half the trials
    for floor in (0.0, SCAN_TOL + SCREEN_BAND, float(np.median(bounds.min(axis=-1))), 0.3):
        assert np.array_equal(screen(stack, floor), reference_open(stack, floor))


def record_routing(monkeypatch):
    """The scan's exact-path row builds and 2x2-verdict calls in order, as ("exact", trials) and
    ("verdicts", trials)."""
    log = []

    def building(z):
        log.append(("exact", len(z)))
        return haar_from_gaussians(z)

    def deciding(ops):
        log.append(("verdicts", len(ops)))
        return scale_and_deviation(ops)

    monkeypatch.setattr(feasibility, "haar_from_gaussians", building)
    monkeypatch.setattr(feasibility, "scale_and_deviation", deciding)
    return log


def one_ebit_state(seed):
    """U_sender (x) V_B applied to |0>|Phi+>, as the benchmark's analyze workload builds it."""
    base = np.zeros(8, dtype=complex)
    base[0] = base[3] = 1.0 / SQRT2
    return PureState(3, np.kron(haar_random_unitary(4, seed), haar_random_unitary(2, seed + 1)) @ base)


# every state kind the benchmark's scan and analyze workloads scan
BENCHMARK_CASES = {
    **{case: SCAN_CASES[case] for case in ("w", "random", "ghz-injected", "w-like-injected")},
    "ghz": lambda: (make_named_state("ghz"), None),
    "w-like": lambda: (_w_like_case()[0], None),
    "one-ebit": lambda: (one_ebit_state(5), None),
    "w-4q": lambda: (w_state(4), None),
}


@pytest.mark.parametrize("case", sorted(BENCHMARK_CASES))
def test_haar_scan_at_the_default_tolerance_opens_no_trial(monkeypatch, case):
    """At SCAN_TOL the bound rules out every drawn trial of 20 000, so no
    2x2 verdict is formed outside the exact path, which the injected trial
    alone takes."""
    shared, inject = BENCHMARK_CASES[case]()
    log = record_routing(monkeypatch)
    result = haar_scan(shared, 20_000, 3, inject=inject)
    assert (result.feasible_count, result.max_passing_branches) == ((1, 2**shared.n_qubits) if inject else (0, 0))
    assert log == ([("exact", 1), ("verdicts", 1)] if inject else [])


@pytest.mark.parametrize("tol", [0.005, 0.02, 0.05, 0.3])
@pytest.mark.parametrize("case", ["w", "ghz-injected", "random"])
def test_haar_scan_sends_exactly_the_open_trials_exact(monkeypatch, case, tol):
    """Each chunk sends to the exact path exactly the trials the allocating
    screen leaves open, and the injected trial 0."""
    shared, inject = SCAN_CASES[case]()
    trials, rng = 2 * SCAN_CHUNK + 5, np.random.default_rng(3)
    expected = []
    for start in range(0, trials, SCAN_CHUNK):
        opened = reference_open(screen_stack(shared, rng, min(SCAN_CHUNK, trials - start)), tol + SCREEN_BAND)
        opened[0] |= inject is not None and start == 0
        expected.append(int(np.count_nonzero(opened)))
    exact_sizes = record_exact(monkeypatch)
    scan_verdicts(shared, trials, 3, inject, tol)
    assert exact_sizes == [size for size in expected if size]


@pytest.mark.parametrize(
    "shared, tol, exact_trials", [("w", 0.05, 19_841), ("ghz", 0.05, 19_866), ("w", 0.3, 20_000), ("ghz", 0.3, 20_000)]
)
def test_haar_scan_opens_nearly_every_trial_at_a_loose_tolerance(monkeypatch, shared, tol, exact_trials):
    """At a loose tolerance the bound rules out few trials, and every open
    trial takes the exact path: 159 W and 134 GHZ trials of 20 000 are ruled
    out at 0.05, none at 0.3."""
    exact_sizes = record_exact(monkeypatch)
    scan_verdicts(make_named_state(shared), 20_000, 3, tol=tol)
    assert sum(exact_sizes) == exact_trials


@pytest.mark.parametrize("seed", [0, 3, 2**40])
def test_haar_scan_decides_a_mid_chunk_trial_at_its_own_deviation(seed):
    """As trial 0 does in the test above, a trial in the middle of the second
    chunk passes each branch at that branch's exact deviation and fails it one
    ulp below, through the exact path; every other verdict is unchanged."""
    shared, trials, trial = haar_random_state(3, 11), 2 * SCAN_CHUNK + 5, SCAN_CHUNK + SCAN_CHUNK // 2
    deviations = np.array([scale_and_deviation(ops)[1] for ops in reference_scan_ops(shared, trials, seed, None)])
    for tol in deviations[trial].tolist():
        for below in (tol, np.nextafter(tol, 0.0)):
            assert np.array_equal(scan_verdicts(shared, trials, seed, tol=below), deviations <= below)


def test_haar_scan_sends_a_chunk_whose_cholesky_fails_exact(monkeypatch):
    """A Cholesky that raises sends its whole chunk to the exact path, with the
    same verdicts; at SCAN_TOL no other chunk has a trial there, and at 0.3
    every chunk has all its trials there."""
    shared, trials = make_named_state("w"), 2 * SCAN_CHUNK + 5
    expected = {
        tol: (haar_scan(shared, trials, 1, tol=tol), scan_verdicts(shared, trials, 1, tol=tol))
        for tol in (SCAN_TOL, 0.3)
    }
    exact = {SCAN_TOL: [SCAN_CHUNK], 0.3: [SCAN_CHUNK, SCAN_CHUNK, 5]}
    cholesky, chunks = np.linalg.cholesky, []

    def failing_on_the_second_chunk(a):
        chunks.append(len(a))
        if len(chunks) == 2:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", failing_on_the_second_chunk)
    exact_sizes = record_exact(monkeypatch)

    def with_the_second_chunk_exact(scan, tol):
        chunks.clear()
        exact_sizes.clear()
        out = scan()
        assert chunks == [SCAN_CHUNK, SCAN_CHUNK, 5] and exact_sizes == exact[tol]
        return out

    for tol, (result, verdicts) in expected.items():
        assert with_the_second_chunk_exact(lambda: haar_scan(shared, trials, 1, tol=tol), tol) == result
        scanned = with_the_second_chunk_exact(lambda: scan_verdicts(shared, trials, 1, tol=tol), tol)
        assert np.array_equal(scanned, verdicts)


@pytest.mark.parametrize("case", ["w", "ghz-injected"])
def test_haar_scan_with_no_defect_allowed_decides_every_trial_exactly(monkeypatch, case):
    """At SCAN_TOL the screen rules out every trial but the injected one; with
    SCREEN_DEFECT = 0 it rules out none, and every trial takes the exact path,
    with the same result."""
    shared, inject = SCAN_CASES[case]()
    trials = 2 * SCAN_CHUNK + 5
    exact_sizes = record_exact(monkeypatch)
    result = haar_scan(shared, trials, 2, inject=inject)
    assert sum(exact_sizes) == (inject is not None)
    monkeypatch.setattr(feasibility, "SCREEN_DEFECT", 0.0)
    exact_sizes.clear()
    assert haar_scan(shared, trials, 2, inject=inject) == result
    assert exact_sizes == [SCAN_CHUNK, SCAN_CHUNK, 5]


@pytest.mark.parametrize(
    "tol",
    [True, False, np.True_, 1j, 0.1 + 0j, math.nan, np.float32("nan"), math.inf, -1e-3, -1, "0.1", None, 10**400],
)
def test_haar_scan_rejects_a_tolerance_that_is_not_a_finite_non_negative_real(monkeypatch, tol):
    monkeypatch.setattr(feasibility, "complex_gaussians", None)
    with pytest.raises(ValueError, match="^tolerance must be finite and non-negative, got "):
        haar_scan(make_named_state("w"), 3, seed=0, tol=tol)


@pytest.mark.parametrize(
    "tol, stored", [(0, 0.0), (-0.0, 0.0), (np.int64(1), 1.0), (np.float32(0.5), 0.5), (Fraction(1, 4), 0.25)]
)
def test_haar_scan_stores_the_tolerance_as_a_float(tol, stored):
    result = haar_scan(make_named_state("w"), 3, seed=0, tol=tol)
    assert type(result.tolerance) is float and math.copysign(1.0, result.tolerance) == 1.0
    assert result == haar_scan(make_named_state("w"), 3, seed=0, tol=stored)


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


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
@given(seed=st.integers(0, 2**64 - 1))
def test_haar_draws_are_orthonormal_to_a_few_ulps(dim, seed):
    """The scan's exact path and the CLI's `haar:SEED` basis use QR rows
    without checking them; their isometry deviation stays far below ATOL (at
    most 8 eps seen over 400 chunks)."""
    drawn = haar_unitaries(np.random.default_rng(seed), 64, dim)
    assert isometry_deviation(drawn).max() <= 64 * np.finfo(float).eps


def test_haar_scan_accepts_inputs_that_pass_their_own_checks():
    """A shared state of squared norm 1 + 0.9 ATOL and an injected basis of
    Gram deviation 0.9 ATOL each pass their check; their branch family is
    complete only to 1.8 ATOL, which the scan does not re-check."""
    stretch = math.sqrt(1.0 + 0.9 * ATOL)
    w, basis = make_named_state("w"), ghz_protocol().basis
    result = haar_scan(
        PureState(3, stretch * w.amplitudes), 5, 1, inject=MeasurementBasis(stretch * basis.rows)
    )
    assert result == haar_scan(w, 5, 1, inject=basis)


def test_branch_tensor_matches_branch_operators_on_a_stack():
    shared = haar_random_state(3, 4)
    bases = [haar_basis(seed) for seed in range(3)]
    stacked = branch_tensor(np.stack([b.rows for b in bases]), shared.amplitudes)
    for basis, ops in zip(bases, stacked):
        assert np.array_equal(branch_operators(basis, shared).ops, ops)


def test_haar_scan_rejects_an_injected_basis_of_another_size(monkeypatch):
    # checked before any draw, with the message TeleportProtocol gives
    monkeypatch.setattr(feasibility, "complex_gaussians", None)
    with pytest.raises(ValueError, match="^basis must act on as many qubits as the shared state$"):
        haar_scan(make_named_state("w"), 3, seed=0, inject=bell_protocol().basis)


def textbook_haar(rng, dim):
    """One Haar unitary built as the textbook does (Mezzadri, math-ph/0609050):
    (re + 1j im) / sqrt(2) from two Gaussian matrices, QR, diagonal phases."""
    re = rng.standard_normal((dim, dim))
    im = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("seed", [0, 5, 2**40])
@pytest.mark.parametrize("shared", ["bell(0,0)", "w"])
def test_haar_draws_match_the_textbook_construction(seed, shared):
    """haar_unitaries and haar_random_unitary are, bit for bit, the textbook
    unitaries drawn in sequence from default_rng(seed), and each scan trial
    passes and fails each branch as its textbook unitary does."""
    state = make_named_state(shared)
    dim = 2**state.n_qubits
    counts = (1, 63, 64, 65, 257)
    rng = np.random.default_rng(seed)
    expected = np.stack([textbook_haar(rng, dim) for _ in range(max(counts))])
    assert haar_random_unitary(dim, seed).tobytes() == expected[0].tobytes()
    _, deviations = scale_and_deviation(branch_tensor(expected.swapaxes(-1, -2), state.amplitudes))
    for count in counts:
        drawn = haar_unitaries(np.random.default_rng(seed), count, dim)
        assert drawn.tobytes() == expected[:count].tobytes()
        for tol in (SCAN_TOL, 0.05, 0.3):
            assert np.array_equal(scan_verdicts(state, count, seed, tol=tol), deviations[:count] <= tol)


def test_kernel_checks_decide_near_misses_exactly():
    """Gram deviations between ATOL / 2 and ATOL pass, and just above ATOL
    fail, with the error of the exact check."""
    rows = np.stack([haar_random_unitary(8, seed).T for seed in (1, 2)])
    near = rows.copy()
    near[1, 6] *= 1.0 + 0.35 * ATOL
    check_basis_rows(near)
    over = rows.copy()
    over[1, 6] *= 1.0 + 0.6 * ATOL
    with pytest.raises(ValueError, match="squared norm deviates"):
        check_basis_rows(over)
