"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a failed assertion surfaces as the usual pytest failure.
"""

import json
import math
import subprocess
import sys

import numpy as np

from teleport3q.feasibility import (
    componentwise_disentangler,
    entropy_criterion,
    haar_scan,
    schmidt_disentangler,
)
from teleport3q.linalg import IDENTITY, dagger, haar_random_unitary, max_abs
from teleport3q.protocols import (
    MeasurementBasis,
    basis_from_S,
    branch_operators,
    ghz_protocol,
    run_teleport,
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

LIVE_GHZ = (0, 1, 4, 5)


def _passed(number: int, text: str) -> None:
    print(f"criterion {number}: PASS ({text})")


def _random_params(rng) -> WLikeParams:
    return WLikeParams(*(float(x) for x in rng.uniform(-2 * math.pi, 2 * math.pi, 3)))


def sum_rule(shared: PureState, basis: MeasurementBasis) -> tuple[float, float]:
    """Row sums of |T entries|^2 over all branches. Each row is twice the
    matching diagonal entry of rho_B for any orthonormal basis, so the rows
    balance exactly when the receiver's qubit is maximally mixed."""
    weights = np.abs(branch_operators(basis, shared).ops) ** 2
    row0, row1 = weights.sum(axis=(0, 2)).tolist()
    return row0, row1


def test_criterion_01_ghz_perfect_teleportation():
    protocol = ghz_protocol()
    for k in range(100):
        psi = haar_random_state(1, 10_000 + k)
        result = run_teleport(psi, protocol)
        assert abs(result.total_fidelity - 1.0) <= 1e-10
        for slot in LIVE_GHZ:
            assert abs(result.outcomes[slot].probability - 0.25) <= 1e-10
    _passed(1, "100 random messages, fidelity 1 and live probabilities 1/4")


def test_criterion_02_w_like_perfect_teleportation():
    rng = np.random.default_rng(2)
    for k in range(50):
        protocol = w_like_protocol(_random_params(rng))
        for m in range(20):
            psi = haar_random_state(1, 20_000 + 20 * k + m)
            assert abs(run_teleport(psi, protocol).total_fidelity - 1.0) <= 1e-10
    _passed(2, "50 parameter triples x 20 messages, fidelity 1")


def test_criterion_03_free_unitary_generality():
    rng = np.random.default_rng(3)
    for k in range(20):
        params = _random_params(rng)
        s = haar_random_unitary(2, 30_000 + k)
        protocol = basis_from_S(params, s)
        live = protocol.basis.rows[:4]
        assert max_abs(live.conj() @ live.T - np.eye(4)) <= 1e-10
        psi = haar_random_state(1, 31_000 + k)
        assert abs(run_teleport(psi, protocol).total_fidelity - 1.0) <= 1e-10
    # with S = I the live elements coincide with the canonical builder's,
    # up to global phase, under the constructed slot correspondence
    params = _random_params(rng)
    generated = basis_from_S(params, IDENTITY)
    canonical = w_like_protocol(params)
    slot_map = {0: 0, 1: 2, 2: 3, 3: 1}
    for src, dst in slot_map.items():
        generated_row = PureState.from_array(generated.basis.rows[src])
        assert fidelity(generated_row, PureState.from_array(canonical.basis.rows[dst])) >= 1.0 - 1e-10
    _passed(3, "20 params x 20 Haar S orthonormal and perfect; S=I matches canonical")


def test_criterion_04_w_reduced_state_and_entropy():
    w = make_named_state("w")
    rho_b = partial_trace(w.density(), keep=(2,))
    assert max_abs(rho_b.matrix - np.diag([2 / 3, 1 / 3])) <= 1e-12
    entropy = entanglement_entropy(rho_b)
    closed_form = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
    assert abs(entropy - closed_form) <= 1e-12
    assert abs(entropy - 0.918296) <= 1e-6
    assert abs(entropy_criterion(make_named_state("ghz"))[0] - 1.0) <= 1e-10
    rng = np.random.default_rng(4)
    for _ in range(50):
        assert abs(entropy_criterion(w_like_from_params(_random_params(rng)))[0] - 1.0) <= 1e-10
    _passed(4, "rho_B(W)=diag(2/3,1/3), entropy 0.918296; GHZ and W-like give 1")


def test_criterion_05_sum_rule_contradiction():
    w = make_named_state("w")
    for seed in range(50):
        basis = MeasurementBasis.from_unitary_columns(haar_random_unitary(8, 50_000 + seed))
        row0, row1 = sum_rule(w, basis)
        assert abs(row0 - 4 / 3) <= 1e-9
        assert abs(row1 - 2 / 3) <= 1e-9
    rng = np.random.default_rng(5)
    for seed in range(5):
        basis = MeasurementBasis.from_unitary_columns(haar_random_unitary(8, 51_000 + seed))
        row0, row1 = sum_rule(w_like_from_params(_random_params(rng)), basis)
        assert abs(row0 - 1.0) <= 1e-9
        assert abs(row1 - 1.0) <= 1e-9
    _passed(5, "W rows (4/3, 2/3) across 50 Haar bases; W-like rows (1, 1)")


def test_criterion_06_impossibility_scan():
    result = haar_scan(make_named_state("w"), 1000, seed=6)
    assert result.feasible_count == 0
    params = WLikeParams(0.9, -0.4, 1.7)
    control = haar_scan(
        w_like_from_params(params), 1, seed=6, inject=w_like_protocol(params).basis
    )
    assert control.feasible_count == 1
    _passed(6, "1000 Haar bases over W all infeasible; injected basis passes")


def test_criterion_07_sigma_twirl_grams():
    from teleport3q.protocols import sigma_twirl_states

    rng = np.random.default_rng(7)
    for _ in range(10):
        _, gram = sigma_twirl_states(w_like_from_params(_random_params(rng)))
        assert max_abs(gram - np.eye(4)) <= 1e-10
    _, gram = sigma_twirl_states(make_named_state("w"))
    assert abs(abs(gram[3, 0]) - 1 / 3) <= 1e-12
    _passed(7, "W-like twirl Gram = I; W twirl entry (11,00) has magnitude 1/3")


def test_criterion_08_disentangler_suite():
    ghz = make_named_state("ghz")
    result = componentwise_disentangler(ghz)
    assert result.exists
    residual_reduced = partial_trace(result.residual.density(), keep=(1,))
    assert abs(entanglement_entropy(residual_reduced) - 1.0) <= 1e-10
    half_pi = w_like_from_params(WLikeParams(math.pi / 2, 0.0, 0.6))
    result = componentwise_disentangler(half_pi)
    assert result.exists
    residual_reduced = partial_trace(result.residual.density(), keep=(1,))
    assert abs(entanglement_entropy(residual_reduced) - 1.0) <= 1e-10
    assert not componentwise_disentangler(make_named_state("w")).exists
    quarter_pi = w_like_from_params(WLikeParams(math.pi / 4, 0.0, 0.0))
    assert not componentwise_disentangler(quarter_pi).exists
    for k in range(50):
        state = haar_random_state(3, 80_000 + k)
        assert abs(
            schmidt_disentangler(state).residual_entropy - entropy_criterion(state)[0]
        ) <= 1e-10
    _passed(8, "componentwise exists for GHZ and gamma=pi/2, not W or gamma=pi/4; Schmidt entropy matches")


def test_criterion_09_unconditional_identities():
    for k in range(100):
        shared = haar_random_state(3, 90_000 + k)
        basis = MeasurementBasis.from_unitary_columns(haar_random_unitary(8, 91_000 + k))
        psi = haar_random_state(1, 92_000 + k).amplitudes
        ops = branch_operators(basis, shared).ops
        completeness = sum(dagger(t) @ t for t in ops)
        assert max_abs(completeness - np.eye(2)) <= 1e-10
        rho_b = partial_trace(shared.density(), keep=(2,)).matrix
        pushed = sum(t @ np.outer(psi, psi.conj()) @ dagger(t) for t in ops)
        assert max_abs(pushed - rho_b) <= 1e-10
    _passed(9, "sum T†T = I and sum T|psi><psi|T† = rho_B over 100 random triples")


def test_criterion_10_cli_determinism(tmp_path):
    invocations = [
        ("teleport", "--shared", "ghz", "--theta", "1.0", "--phi", "0.5",
         "--sample", "--trials", "2000", "--seed", "3", "--format", "json"),
        ("analyze", "--shared", "w", "--scan-trials", "10", "--seed", "1"),
        ("scan", "--shared", "w", "--trials", "20", "--seed", "2", "--format", "json"),
        ("basis-gen", "--params", "0.5,0.2,0.9", "--S", "H"),
    ]
    for args in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "teleport3q", *args], capture_output=True
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout, f"non-deterministic output for {args}"
        json.loads(runs[0].stdout)  # every invocation above emits JSON
    _passed(10, "repeated CLI invocations emit byte-identical JSON")
