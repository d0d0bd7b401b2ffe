import contextlib
import io
import json
import math
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from teleport3q import cli, feasibility
from teleport3q.feasibility import (
    SCAN_CHUNK,
    SCAN_PEAK_BYTES,
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
    ATOL,
    PAULI_X,
    ZERO_ATOL,
    dagger,
    haar_isometries,
    haar_random_unitary,
    is_unitary,
    isometry_deviation,
    max_abs,
)
from teleport3q.protocols import (
    MeasurementBasis,
    bell_protocol,
    branch_operators,
    branch_tensor,
    ghz_protocol,
    scale_and_deviation,
    w_like_protocol,
)
from teleport3q.serialize import dumps_canonical, operator_to_jsonable, state_to_jsonable
from teleport3q.states import (
    DensityMatrix,
    PureState,
    WLikeParams,
    entanglement_entropy,
    fidelity,
    haar_random_state,
    make_named_state,
    make_w_like,
    partial_trace,
    shannon_entropy,
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


def near_one_ebit(eps: float) -> PureState:
    """x|001> + y|010> with x**2 = 0.5 + eps: its receiver's Bloch length g is 2 eps."""
    return make_w_like(math.sqrt(0.5 + eps), math.sqrt(0.5 - eps), 0.0)


@pytest.mark.parametrize("eps", [10.0**k for k in range(-12, -2)])
def test_entropy_feasible_implies_the_sum_rule_balances(eps):
    # a verdict on 1 - S, quadratic in g, admitted g up to about 3.7e-5 at a
    # tolerance of 1e-9, while the sum rule rejected a row gap above 1e-9
    report = build_feasibility_report(near_one_ebit(eps), "near one ebit", scan_trials=1, seed=0)
    assert report.sum_rule_balanced or not report.entropy_feasible


@pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-5])
def test_analyze_near_one_ebit_finds_neither_route_feasible(tmp_path, capsys, eps):
    """Such states were "one ebit" to analyze, exit 0 with entropyVerdict true and
    sumRuleBalanced false, while g = 2 eps is above BLOCH_TOL."""
    path = tmp_path / "near.json"
    path.write_text(json.dumps(state_to_jsonable(near_one_ebit(eps))))
    assert cli.main(["analyze", "--state-file", str(path), "--scan-trials", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["entropyVerdict"], report["sumRuleBalanced"]) == (False, False)


def test_state_only_routes_agree_and_flip_once_at_the_bloch_tolerance():
    """Over 400 log-spaced eps in [1e-12, 1e-3] the entropy verdict and the sum
    rule agree on every state, and both flip from feasible to not exactly once,
    between the last g at most BLOCH_TOL and the first above it."""
    lengths, entropy_ok, balanced = [], [], []
    for eps in np.logspace(-12, -3, 400).tolist():
        report = build_feasibility_report(near_one_ebit(eps), "near one ebit", scan_trials=1, seed=0)
        lengths.append(feasibility._bloch_length(report.bob_reduced_state))
        entropy_ok.append(report.entropy_feasible)
        balanced.append(report.sum_rule_balanced)
    assert entropy_ok == balanced
    flips = [i for i in range(399) if entropy_ok[i] != entropy_ok[i + 1]]
    assert len(flips) == 1 and entropy_ok[0]
    assert lengths[flips[0]] <= feasibility.BLOCH_TOL < lengths[flips[0] + 1]


def in_random_local_frames(state: PureState, seed: int) -> PureState:
    """The state under a Haar unitary on the sender pair and one on the receiver."""
    local = np.kron(haar_random_unitary(4, seed), haar_random_unitary(2, seed + 1))
    return PureState(3, local @ state.amplitudes)


@given(
    seed=st.integers(0, 2**32),
    angles=st.tuples(*[st.floats(-math.pi, math.pi)] * 3),
    kind=st.sampled_from(["haar", "one-ebit"]),
)
def test_bloch_length_is_the_eigenvalue_gap(seed, angles, kind):
    """g, from the entries of rho_B, is eigvalsh's lambda1 - lambda0 within 8 eps:
    Haar states, and one-ebit states in random local frames, where g is ~1e-16."""
    if kind == "haar":
        state = haar_random_state(3, seed)
    else:
        state = in_random_local_frames(w_like_from_params(WLikeParams(*angles)), seed)
    rho_b = feasibility.bob_reduced_state(state)
    low, high = np.linalg.eigvalsh(rho_b.matrix)
    assert feasibility._bloch_length(rho_b) == pytest.approx(high - low, rel=0, abs=8 * np.finfo(float).eps)


@given(n_qubits=st.integers(2, 8), seed=st.integers(0, 2**32), sparse=st.booleans())
def test_bob_reduced_state_has_the_bits_of_the_partial_trace(n_qubits, seed, sparse):
    """rho_B read from the receiver cut is partial_trace of the full density matrix byte for byte, signed
    zeros included: on Haar states, and on sparse states whose zero parts carry random signs."""
    amps = haar_random_state(n_qubits, seed).amplitudes.copy()
    if sparse:
        rng = np.random.default_rng(seed)
        zero = rng.random(amps.size) < 0.7
        zero[rng.integers(amps.size)] = False
        amps.view(float).reshape(-1, 2)[zero] = np.copysign(0.0, rng.standard_normal((np.count_nonzero(zero), 2)))
        amps /= np.linalg.norm(amps)
    state = PureState(n_qubits, amps)
    density = DensityMatrix(n_qubits, np.outer(state.amplitudes, state.amplitudes.conj()))
    reference = partial_trace(density, keep=(n_qubits - 1,))
    assert feasibility.bob_reduced_state(state).matrix.tobytes() == reference.matrix.tobytes()


def test_bob_reduced_state_needs_a_sender_qubit():
    with pytest.raises(ValueError, match=r"^the receiver's reduced state expects a shared state of at least 2 qubits"):
        feasibility.bob_reduced_state(haar_random_state(1, 0))


# ---------------------------------------------------------------- disentanglers


def test_componentwise_ghz():
    result = componentwise_disentangler(make_named_state("ghz"))
    assert result.unitary is not None
    assert is_unitary(result.unitary, 1e-10)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / SQRT2
    assert fidelity(result.residual, PureState(2, bell)) == pytest.approx(1.0, abs=1e-10)


def test_componentwise_w_fails():
    assert componentwise_disentangler(make_named_state("w")).unitary is None


def test_componentwise_w_like_quarter_pi_fails():
    state = w_like_from_params(WLikeParams(math.pi / 4, 0.0, 0.0))
    assert componentwise_disentangler(state).unitary is None


def test_componentwise_w_like_half_pi():
    omega = 0.3
    state = w_like_from_params(WLikeParams(math.pi / 2, 0.0, omega))
    result = componentwise_disentangler(state)
    assert result.unitary is not None
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
    assert result.unitary is not None
    reduced = partial_trace(result.residual.density(), keep=(1,))
    assert entanglement_entropy(reduced) == pytest.approx(0.0, abs=1e-10)


def test_componentwise_support_excludes_an_amplitude_of_exactly_zero_atol():
    # a sender ket counts only above ZERO_ATOL, so |100> at exactly ZERO_ATOL leaves a support of two
    amps = np.zeros(8, dtype=complex)
    amps[1] = amps[2] = 1 / SQRT2
    amps[4] = ZERO_ATOL
    assert componentwise_disentangler(PureState(3, amps)).unitary is not None


def test_schmidt_disentangler_values():
    assert shannon_entropy(schmidt_disentangler(make_named_state("ghz")).coefficients**2) == pytest.approx(
        1.0, abs=1e-10
    )
    assert shannon_entropy(schmidt_disentangler(make_named_state("w")).coefficients**2) == pytest.approx(
        0.91829583, abs=1e-6
    )
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[1] = 1 / SQRT2  # |0>|0>|+>
    assert shannon_entropy(schmidt_disentangler(PureState(3, amps)).coefficients**2) == pytest.approx(
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
        assert shannon_entropy(result.coefficients**2) == pytest.approx(
            entropy_criterion(state)[0], abs=1e-10
        )


@given(n_qubits=st.integers(3, 8), seed=st.integers(0, 2**32), support=st.integers(1, 3))
def test_disentanglers_act_on_a_sender_of_any_size(n_qubits, seed, support):
    """On n qubits, up to the JSON format's cap of 8, both disentanglers move the state to |0...0> (x) residual
    by a unitary on the sender's kets, each within 1e-12: the Schmidt one on a Haar state, whose residual
    entropy is the receiver's entropy, and the componentwise one on a state whose cut A has `support` nonzero
    rows, which exists iff that is at most 2."""
    def moved(unitary, state):
        assert is_unitary(unitary, 1e-12)
        return np.kron(unitary, np.eye(2)) @ state.amplitudes

    haar = haar_random_state(n_qubits, seed)
    schmidt = schmidt_disentangler(haar)
    assert shannon_entropy(schmidt.coefficients**2) == pytest.approx(entropy_criterion(haar)[0], rel=0, abs=1e-12)
    target = np.zeros(2**n_qubits, dtype=complex)
    target[:4] = schmidt.residual.amplitudes
    np.testing.assert_allclose(moved(schmidt.unitary, haar), target, rtol=0, atol=1e-12)
    rng = np.random.default_rng(seed)
    cut = np.zeros((2 ** (n_qubits - 1), 2), dtype=complex)
    cut[rng.choice(len(cut), support, replace=False)] = rng.standard_normal((support, 2, 2)) @ [1, 1j]
    sparse = PureState(n_qubits, cut.reshape(-1) / np.linalg.norm(cut))
    result = componentwise_disentangler(sparse)
    assert (result.unitary is not None) == (support <= 2)
    if result.unitary is not None:
        target[:4] = result.residual.amplitudes
        np.testing.assert_allclose(moved(result.unitary, sparse), target, rtol=0, atol=1e-12)


SCHMIDT_STATES = pytest.mark.parametrize(
    "state",
    [make_named_state("w"), make_named_state("ghz"), w_like_from_params(WLikeParams(math.pi / 2, 0.0, 0.3)),
     PureState(3, np.eye(8)[0]), haar_random_state(5, 2)],
    ids=["w", "ghz", "w-like", "product", "haar5"],
)


def printed_negative_zeros(jsonable) -> list[str]:
    """The numbers that the canonical JSON text of `jsonable` prints as -0.0."""
    floats = []
    json.loads(dumps_canonical(jsonable), parse_float=floats.append)
    return [text for text in floats if text == "-0.0"]


@SCHMIDT_STATES
def test_no_printed_schmidt_unitary_holds_a_negative_zero(state):
    """Conjugating U makes a -0.0 imaginary part wherever U's is 0.0; none of them is printed."""
    assert printed_negative_zeros(operator_to_jsonable(schmidt_disentangler(state).unitary)) == []


@SCHMIDT_STATES
def test_no_printed_schmidt_residual_holds_a_negative_zero(state):
    """diag(s) Vh keeps the sign LAPACK gives a zero entry of Vh, as W's does; none of them is printed."""
    assert printed_negative_zeros(state_to_jsonable(schmidt_disentangler(state).residual)) == []


def w_state(n_qubits: int) -> PureState:
    """W_n: amplitude 1/sqrt(n) on each ket with one excitation."""
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[[2**k for k in range(n_qubits)]] = 1 / math.sqrt(n_qubits)
    return PureState(n_qubits, amps)


def ghz_state(n_qubits: int) -> PureState:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = amps[-1] = 1 / SQRT2
    return PureState(n_qubits, amps)


@pytest.mark.parametrize("n_qubits", [3, 4, 5, 6])
def test_analyze_reads_the_receiver_cut_of_w_and_ghz_on_n_qubits(tmp_path, capsys, n_qubits):
    """W_n leaves the receiver excited with probability 1/n, so rho_B = diag((n - 1)/n, 1/n): entropy h(1/n),
    exit 1, and n rows of A with support, too many for a componentwise disentangler. GHZ_n holds one ebit
    on two rows of A: exit 0, and the componentwise disentangler exists. The printed rows carry 12
    significant digits, so they are within 1e-11."""
    p = 1 / n_qubits
    h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    cases = [(w_state(n_qubits), 1, h, (2 * (1 - p), 2 * p), False), (ghz_state(n_qubits), 0, 1.0, (1.0, 1.0), True)]
    for state, code, entropy, rows, componentwise in cases:
        path = tmp_path / f"{code}.json"
        path.write_text(json.dumps(state_to_jsonable(state)))
        assert cli.main(["analyze", "--state-file", str(path), "--scan-trials", "3"]) == code
        report = json.loads(capsys.readouterr().out)
        assert report["entropyBits"] == pytest.approx(entropy, rel=0, abs=1e-12)
        assert (report["sumRuleRow0"], report["sumRuleRow1"]) == pytest.approx(rows, rel=0, abs=1e-11)
        assert report["componentwiseDisentangler"]["exists"] is componentwise
        assert report["schmidtDisentangler"]["alphaEntropy"] == pytest.approx(entropy, rel=0, abs=1e-12)


def sparse_state(n_qubits: int, seed: int) -> PureState:
    """A random state on n qubits with about 60% of its amplitudes exactly zero, and one at least nonzero."""
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    amps = rng.standard_normal((dim, 2)) @ [1, 1j]
    zero = rng.random(dim) < 0.6
    zero[rng.integers(dim)] = False
    amps[zero] = 0.0
    return PureState(n_qubits, amps / np.linalg.norm(amps))


@given(n_qubits=st.integers(3, 6), seed=st.integers(0, 2**32))
# states whose eigvalsh and SVD entropies differ in the 12th digit
@example(n_qubits=3, seed=6)
@example(n_qubits=4, seed=173)
def test_analyze_prints_one_entropy(n_qubits, seed):
    """The report holds one entropy: the JSON prints it as entropyBits and alphaEntropy, and the text as the
    entropy and the Schmidt residual's entropy, with the same digits."""
    text, lines = analyze_outputs(sparse_state(n_qubits, seed))
    report = json.loads(text)
    assert report["entropyBits"] == report["schmidtDisentangler"]["alphaEntropy"]
    assert lines["entropy (bits)"] == lines["schmidt disentangler residual entropy"]


def test_a_pure_receiver_prints_an_entropy_of_zero():
    """|000>'s receiver qubit is pure: its entropy prints as 0.0 in JSON and 0 in text, with no minus sign."""
    report, lines = analyze_outputs(PureState(3, np.eye(8)[0]))
    assert '"entropyBits": 0.0,' in report
    assert '"alphaEntropy": 0.0,' in report
    assert lines["entropy (bits)"] == lines["schmidt disentangler residual entropy"] == "0"


def analyze_outputs(state: PureState) -> tuple[str, dict[str, str]]:
    """What analyze prints for `state`, read from a state file, at one scan trial: the JSON report, and the
    text report's lines as a dict from label to value."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        path.write_text(json.dumps(state_to_jsonable(state)))
        outputs = {}
        for output in ("json", "text"):
            with contextlib.redirect_stdout(out := io.StringIO()):
                cli.main(["analyze", "--state-file", str(path), "--scan-trials", "1", "--format", output])
            outputs[output] = out.getvalue()
    return outputs["json"], dict(line.split(": ", 1) for line in outputs["text"].splitlines())


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
    monkeypatch.setattr(feasibility, "haar_isometries", None)
    with pytest.raises(ValueError, match=r"trials must be <= 2\*\*32"):
        haar_scan(make_named_state("w"), 2**32 + 1, seed=0)


def test_feasibility_report_w():
    report = build_feasibility_report(make_named_state("w"), "w", scan_trials=20, seed=0)
    assert not report.entropy_feasible
    assert report.sum_rule_row0 == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert report.sum_rule_row1 == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert not report.sum_rule_balanced
    assert report.scan.feasible_count == 0
    assert report.componentwise.unitary is None
    assert shannon_entropy(report.schmidt.coefficients**2) == pytest.approx(report.entropy_bits, abs=1e-10)
    np.testing.assert_allclose(
        report.bob_reduced_state.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12
    )


def test_feasibility_report_ghz():
    report = build_feasibility_report(make_named_state("ghz"), "ghz", scan_trials=5, seed=0)
    assert report.entropy_feasible
    assert report.sum_rule_balanced
    assert report.componentwise.unitary is not None


def test_feasibility_report_rejects_wrong_size(monkeypatch):
    # checked before the scan runs
    monkeypatch.setattr(feasibility, "haar_scan", None)
    with pytest.raises(ValueError, match=r"^analyze expects a shared state of at least 3 qubits, got 2 qubits$"):
        build_feasibility_report(haar_random_state(2, 1), "pair", scan_trials=1, seed=0)


@pytest.mark.parametrize("disentangler", [componentwise_disentangler, schmidt_disentangler])
def test_disentanglers_refuse_a_sender_of_one_qubit(disentangler):
    with pytest.raises(ValueError, match=r"^disentangler expects a shared state of at least 3 qubits, got 2 qubits$"):
        disentangler(haar_random_state(2, 1))


# ---------------------------------------------------------------- batched scan kernel


def amplitude_frame(shared):
    """S W† of V's thin SVD V = Q S W†, with V[j d/2 + s, 2b + j] = A[s, b] built entry by entry."""
    dim = 2**shared.n_qubits
    half = shared.amplitudes.reshape(dim // 2, 2)
    v = np.zeros((dim, 4), dtype=complex)
    for j in range(2):
        for s in range(dim // 2):
            for b in range(2):
                v[j * dim // 2 + s, 2 * b + j] = half[s, b]
    _, s, wh = np.linalg.svd(v, full_matrices=False)
    return s[:, None] * wh


def reference_scan_ops(shared, trials, seed, inject):
    """Branch operators of each trial, from a per-trial loop over one default_rng(seed): one Haar
    isometry draw per trial times S W†, or the injected basis's branch_operators. Trial 0 draws
    even when `inject` replaces its operators."""
    dim = 2**shared.n_qubits
    right = amplitude_frame(shared)
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(trials):
        trial = (haar_isometries(rng, 1, dim, len(right))[0] @ right).reshape(dim, 2, 2)
        ops.append(branch_operators(inject, shared).ops if inject is not None and i == 0 else trial)
    return ops


def reference_passing(trial_ops, tol):
    """Per trial, how many branches pass a per-branch unitarity_verdict."""
    return [sum(unitarity_verdict(t, tol).is_proportional_unitary for t in ops) for ops in trial_ops]


def scan_verdicts(shared, trials, seed, inject=None, tol=SCAN_TOL):
    """Each scan trial's branch verdicts, a (trials, outcomes) bool array."""
    return np.concatenate(list(feasibility._branch_verdicts(shared, trials, seed, inject, tol)))


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


@pytest.mark.parametrize("case", ["ghz-injected", "w-like-injected", "bell00-injected"])
def test_haar_scan_injected_trial_zero_leaves_every_other_draw(case):
    """The injected basis replaces trial 0's operators only: trial 0's Gaussians are still drawn,
    so every later trial keeps the verdicts of the same scan without the injection."""
    shared, inject = SCAN_CASES[case]()
    for tol in (SCAN_TOL, 0.3):
        injected, drawn = scan_verdicts(shared, 300, 5, inject, tol), scan_verdicts(shared, 300, 5, tol=tol)
        assert injected[0].all() and np.array_equal(injected[1:], drawn[1:])


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_scan_operators_are_the_branch_operators_of_a_unitary_basis(case):
    """For a unitary U, (U†Q)(S W†) = U†V holds branch_tensor's operators of the basis whose element k
    is column k of U, to rounding: the identity that lets a trial draw U†Q alone."""
    shared, _ = SCAN_CASES[case]()
    dim = 2**shared.n_qubits
    v = np.zeros((dim, 4), dtype=complex)
    v[: dim // 2, 0::2] = v[dim // 2 :, 1::2] = shared.amplitudes.reshape(-1, 2)
    q = np.linalg.svd(v, full_matrices=False)[0]
    u = haar_isometries(np.random.default_rng(2), 500, dim, dim)
    ops = (dagger(u) @ q @ amplitude_frame(shared)).reshape(500, dim, 2, 2)
    assert np.abs(ops - branch_tensor(u.swapaxes(-1, -2), shared.amplitudes)).max() <= 1e-15


# the 0.999 quantile of the chi-square distribution with k degrees of freedom
CHI2_999 = {1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47, 5: 20.52, 6: 22.46, 7: 24.32, 8: 26.12}


@pytest.mark.parametrize("tol", [0.05, 0.1])
def test_isometry_scan_passes_branches_as_full_haar_unitaries_do(tol):
    """The passing-branch histogram of 20 000 isometry trials of W, and of 20 000 full Haar unitaries
    through branch_tensor, agree by a two-sample chi-square, sum (a - b)**2 / (a + b) over the bins with
    a + b >= 10, below the 0.999 quantile of its degrees of freedom (one fewer than those bins)."""
    shared, trials = make_named_state("w"), 20_000
    scanned = np.bincount(scan_verdicts(shared, trials, 1, tol=tol).sum(axis=-1), minlength=9)
    rng, full = np.random.default_rng(2), np.zeros(9, dtype=int)
    for _ in range(trials // 2000):
        rows = haar_isometries(rng, 2000, 8, 8).swapaxes(-1, -2)
        passing = (scale_and_deviation(branch_tensor(rows, shared.amplitudes))[1] <= tol).sum(axis=-1)
        full += np.bincount(passing, minlength=9)
    used = scanned + full >= 10
    a, b = scanned[used], full[used]
    chi2 = float(((a - b) ** 2 / (a + b)).sum())
    assert chi2 < CHI2_999[np.count_nonzero(used) - 1], (chi2, scanned.tolist(), full.tolist())


def w_state(n: int) -> PureState:
    amps = np.zeros(2**n, dtype=complex)
    amps[[2**k for k in range(n)]] = 1.0 / math.sqrt(n)
    return PureState(n, amps)


@pytest.mark.parametrize("n", [3, 4])
def test_haar_scan_memory_is_flat_in_trials(n):
    """A chunk holds only (count, d, 4) arrays, so the tracemalloc peak of a
    20 000-trial W scan is within 64 KB of a one-chunk scan's, and below the
    bound SCAN_PEAK_BYTES documents, at SCAN_TOL and at 0.3."""
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
def test_haar_scan_at_the_default_tolerance_passes_no_drawn_branch(case):
    """At SCAN_TOL no branch of 20 000 drawn trials passes, so only an injected trial 0 counts."""
    shared, inject = BENCHMARK_CASES[case]()
    result = haar_scan(shared, 20_000, 3, inject=inject)
    assert (result.feasible_count, result.max_passing_branches) == ((1, 2**shared.n_qubits) if inject else (0, 0))


@pytest.mark.parametrize("seed", [0, 3, 2**40])
def test_haar_scan_decides_a_mid_chunk_trial_at_its_own_deviation(seed):
    """A trial in the middle of the second chunk passes each branch at that
    branch's own deviation and fails it one ulp below; every other verdict is
    the reference's at each tolerance."""
    shared, trials, trial = haar_random_state(3, 11), 2 * SCAN_CHUNK + 5, SCAN_CHUNK + SCAN_CHUNK // 2
    deviations = np.array([scale_and_deviation(ops)[1] for ops in reference_scan_ops(shared, trials, seed, None)])
    for tol in deviations[trial].tolist():
        for below in (tol, np.nextafter(tol, 0.0)):
            assert np.array_equal(scan_verdicts(shared, trials, seed, tol=below), deviations <= below)


@pytest.mark.parametrize(
    "tol",
    [True, False, np.True_, 1j, 0.1 + 0j, math.nan, np.float32("nan"), math.inf, -1e-3, -1, "0.1", None, 10**400],
)
def test_haar_scan_rejects_a_tolerance_that_is_not_a_finite_non_negative_real(monkeypatch, tol):
    monkeypatch.setattr(feasibility, "haar_isometries", None)
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
    """MeasurementBasis rejects repeated, stretched and non-finite rows of a Haar basis, each with its own error."""
    rows = [haar_random_unitary(8, seed).T for seed in (1, 2)]
    for matrix in rows:
        MeasurementBasis(matrix)
    repeated = rows[1].copy()
    repeated[3] = repeated[2]
    with pytest.raises(ValueError, match="not orthonormal"):
        MeasurementBasis(repeated)
    stretched = rows[0].copy()
    stretched[5] *= 1.001
    with pytest.raises(ValueError, match="squared norm deviates"):
        MeasurementBasis(stretched)
    broken = rows[1].copy()
    broken[0, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        MeasurementBasis(broken)


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
@given(seed=st.integers(0, 2**64 - 1))
def test_haar_draws_are_orthonormal_to_a_few_ulps(dim, seed):
    """The scan's d x 4 isometries and the CLI's `haar:SEED` basis use QR
    columns without checking them; their isometry deviation stays far below
    ATOL (at most 8 eps seen over 400 chunks of unitaries)."""
    for cols in {min(4, dim), dim}:
        drawn = haar_isometries(np.random.default_rng(seed), 64, dim, cols)
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
    monkeypatch.setattr(feasibility, "haar_isometries", None)
    with pytest.raises(ValueError, match="^basis must act on as many qubits as the shared state$"):
        haar_scan(make_named_state("w"), 3, seed=0, inject=bell_protocol().basis)


def textbook_haar(rng, dim, cols):
    """One Haar dim x cols isometry built as the textbook does (Mezzadri, math-ph/0609050):
    (re + 1j im) / sqrt(2) from two Gaussian matrices, QR, diagonal phases."""
    re = rng.standard_normal((dim, cols))
    im = rng.standard_normal((dim, cols))
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("seed", [0, 5, 2**40])
@pytest.mark.parametrize("shared", ["bell(0,0)", "w"])
def test_haar_draws_match_the_textbook_construction(seed, shared):
    """haar_isometries and haar_random_unitary are, bit for bit, the textbook
    unitaries and d x 4 isometries drawn in sequence from default_rng(seed),
    and each scan trial passes and fails each branch as its textbook isometry
    times S W† does."""
    state = make_named_state(shared)
    dim = 2**state.n_qubits
    counts = (1, 63, 64, 65, 257)
    rng = np.random.default_rng(seed)
    unitaries = np.stack([textbook_haar(rng, dim, dim) for _ in range(max(counts))])
    assert haar_random_unitary(dim, seed).tobytes() == unitaries[0].tobytes()
    rng = np.random.default_rng(seed)
    isometries = np.stack([textbook_haar(rng, dim, 4) for _ in range(max(counts))])
    _, deviations = scale_and_deviation((isometries @ amplitude_frame(state)).reshape(-1, dim, 2, 2))
    for count in counts:
        for drawn in (unitaries, isometries):
            cols = drawn.shape[-1]
            assert haar_isometries(np.random.default_rng(seed), count, dim, cols).tobytes() == drawn[:count].tobytes()
        for tol in (SCAN_TOL, 0.05, 0.3):
            assert np.array_equal(scan_verdicts(state, count, seed, tol=tol), deviations[:count] <= tol)


def test_kernel_checks_decide_near_misses_exactly():
    """MeasurementBasis passes Gram deviations between ATOL / 2 and ATOL, and
    fails one just above ATOL with the error of the exact check."""
    rows = haar_random_unitary(8, 2).T
    near = rows.copy()
    near[6] *= 1.0 + 0.35 * ATOL
    MeasurementBasis(near)
    over = rows.copy()
    over[6] *= 1.0 + 0.6 * ATOL
    with pytest.raises(ValueError, match="squared norm deviates"):
        MeasurementBasis(over)
