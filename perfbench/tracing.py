"""Span tracer for the benchmark's traced run.

Wraps the package's public functions and validators at the module attributes
their callers resolve (every `teleport3q.*` module attribute bound to the
original function is swapped) and the dataclass `__post_init__` validators
on their classes. `restore()` puts every original back.

Spans are kept in memory (name, parent, start, end in ns) and written out at
the end; per-span call counts, self time and inclusive time are accumulated
as the spans close. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from importlib import import_module
from pathlib import Path

import numpy as np

ROOT_SPAN = "bench.op"

# span name -> (owner, attribute) pairs; the owner is a module or a class path
# under teleport3q. Spans that share a name add up.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "linalg.haar": (("linalg", "_haar_from_rng"),),
    "linalg.complete_orthonormal": (("linalg", "complete_orthonormal"),),
    "linalg.schmidt_decompose": (("linalg", "schmidt_decompose"),),
    "linalg.closest_unitary": (("linalg", "closest_unitary"),),
    "states.PureState.validate": (("states.PureState", "__post_init__"),),
    "states.DensityMatrix.validate": (("states.DensityMatrix", "__post_init__"),),
    "states.partial_trace": (("states", "partial_trace"),),
    "states.entanglement_entropy": (("states", "entanglement_entropy"),),
    "protocols.MeasurementBasis.validate": (("protocols.MeasurementBasis", "__post_init__"),),
    "protocols.BranchOperatorFamily.validate": (("protocols.BranchOperatorFamily", "__post_init__"),),
    "protocols.TeleportProtocol.validate": (("protocols.TeleportProtocol", "__post_init__"),),
    "protocols.build": tuple(
        ("protocols", name)
        for name in ("ghz_protocol", "w_like_protocol", "bell_protocol", "basis_from_S", "protocol_from_basis")
    ),
    "protocols.branch_operators": (("protocols", "branch_operators"),),
    "protocols.run_teleport": (("protocols", "run_teleport"),),
    "protocols.sample_teleport": (("protocols", "sample_teleport"),),
    "feasibility.haar_scan": (("feasibility", "haar_scan"),),
    "feasibility.protocol_feasible": (("feasibility", "protocol_feasible"),),
    "feasibility.unitarity_verdict": (("feasibility", "unitarity_verdict"),),
    "feasibility.build_feasibility_report": (("feasibility", "build_feasibility_report"),),
    "feasibility.entropy_criterion": (("feasibility", "entropy_criterion"),),
    "feasibility.disentanglers": (
        ("feasibility", "componentwise_disentangler"),
        ("feasibility", "schmidt_disentangler"),
    ),
    "serialize.to_jsonable": tuple(
        ("serialize", f"{kind}_to_jsonable") for kind in ("state", "operator", "matrix", "protocol", "report")
    ),
    "serialize.from_jsonable": tuple(
        ("serialize", f"{kind}_from_jsonable") for kind in ("state", "operator", "protocol")
    ),
    "serialize.dumps_canonical": (("serialize", "dumps_canonical"),),
    "serialize.state_input_hash": (("serialize", "state_input_hash"),),
    "cli.main": (("cli", "main"),),
}
VALIDATE_SPANS = tuple(name for name in SPANS if name.endswith(".validate"))
SCAN_SPAN = "feasibility.haar_scan"
TRIAL_SPAN = "feasibility.protocol_feasible"  # one call per scan trial; only haar_scan calls it


def _resolve(owner: str):
    module, _, cls = owner.partition(".")
    obj = import_module(f"teleport3q.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self) -> None:
        self.names = [ROOT_SPAN, *SPANS]
        self.ids = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.incl_ns = [0] * n
        # Calls made inside haar_scan spans of scans without an injected basis
        # (set `plain_scans` per operation).
        self.plain_scan_calls = [0] * n
        self.plain_scans = True
        self._scan_depth = 0
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._span_name = array("h")
        self._span_parent = array("i")
        self._span_start = array("q")
        self._span_end = array("q")
        self._patches = self._find_patches()

    def _wrap(self, name: str, fn):
        sid = self.ids[name]
        is_root = name == ROOT_SPAN
        is_scan = name == SCAN_SPAN
        stack = self._stack
        clock = time.perf_counter_ns
        names, parents, starts, ends = self._span_name, self._span_parent, self._span_start, self._span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and not is_root:  # outside a benchmark operation
                return fn(*args, **kwargs)
            index = len(names)
            names.append(sid)
            parents.append(stack[-1][0] if stack else -1)
            frame = [index, 0]
            stack.append(frame)
            if is_scan:
                self._scan_depth += 1
            start = clock()
            starts.append(start)
            ends.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                duration = end - start
                if is_scan:
                    self._scan_depth -= 1
                self.calls[sid] += 1
                self.self_ns[sid] += duration - frame[1]
                self.incl_ns[sid] += duration
                if stack:
                    stack[-1][1] += duration
                if self._scan_depth and self.plain_scans:
                    self.plain_scan_calls[sid] += 1

        return traced

    def root(self, fn):
        """Wrap one benchmark operation as a root span."""
        return self._wrap(ROOT_SPAN, fn)

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "teleport3q"]
        patches = []
        for name, targets in SPANS.items():
            for owner_path, attr in targets:
                owner = _resolve(owner_path)
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original)
                for target in [owner] if isinstance(owner, type) else modules:
                    for key, value in vars(target).items():
                        if value is original:
                            patches.append((target, key, original, wrapped))
        return patches

    def install(self) -> None:
        for target, key, _, wrapped in self._patches:
            setattr(target, key, wrapped)

    def restore(self) -> None:
        for target, key, original, _ in self._patches:
            setattr(target, key, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._span_name, dtype=np.int16),
            parent=np.frombuffer(self._span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self._span_start, dtype=np.int64),
            end_ns=np.frombuffer(self._span_end, dtype=np.int64),
        )
