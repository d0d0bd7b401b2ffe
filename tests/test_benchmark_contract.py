"""The package names and calls that the benchmark under perfbench/ relies on.

perfbench/tracing.py finds the functions and validators it wraps by name, and
perfbench/workloads.py and perfbench/selftest.py call library entry points with
fixed signatures. Renaming or deleting one of them breaks every traced
benchmark run; these tests catch that in a plain test run.
"""

import importlib
from pathlib import Path

from teleport3q import feasibility, protocols
from teleport3q.feasibility import haar_scan
from teleport3q.protocols import ghz_protocol, w_like_protocol
from teleport3q.states import WLikeParams, make_named_state, w_like_from_params

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_resolves_every_span_target_and_installs_nothing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = (protocols.w_like_protocol, feasibility.haar_scan)
    tracer = tracing.Tracer()  # getattr on each (owner, attribute) of SPANS
    assert tracer.names[1:] == list(tracing.SPANS)
    assert (protocols.w_like_protocol, feasibility.haar_scan) == originals


def test_injected_scans_of_the_benchmark_find_their_known_basis():
    params = WLikeParams(0.7, 0.3, 1.1)
    controls = [
        (w_like_from_params(params), w_like_protocol(params).basis),
        (make_named_state("ghz"), ghz_protocol().basis),
    ]
    for shared, basis in controls:
        result = haar_scan(shared, 1, 1, inject=basis)
        assert (result.trials, result.feasible_count, result.max_passing_branches) == (1, 1, 8)


def test_uninjected_benchmark_scan_of_w_finds_nothing():
    result = haar_scan(make_named_state("w"), 1, 1, inject=None)
    assert (result.trials, result.feasible_count, result.injected) == (1, 0, False)
