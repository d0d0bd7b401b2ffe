"""Self-test of the benchmark's oracles: wrong expectations must count as failures.

    python3 perfbench/selftest.py

Runs each operation twice through the benchmark's own runner, once with the
expectation its input was built for and once with a deliberately wrong one,
plus a determinism probe pointed at a different operation and an operation
that raises. Exits 0 only if every right expectation passes and every wrong
one is counted as a failed operation.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    run.import_package()
    import workloads as wl
    from teleport3q import protocols, states

    w, ghz = states.make_named_state("w"), states.make_named_state("ghz")
    ghz_basis = protocols.ghz_protocol().basis
    teleport_w = ["teleport", "--shared", "w", "--theta", "1", "--basis", "haar:5",
                  "--expect-perfect", "--format", "json"]
    teleport_ghz = ["teleport", "--shared", "ghz", "--random", "--seed", "3", "--sample",
                    "--expect-perfect", "--format", "text"]
    analyze_w = ["analyze", "--shared", "w", "--scan-trials", "20", "--format", "text"]
    analyze_ghz = ["analyze", "--shared", "ghz", "--format", "json"]
    cases = [  # (operation with the right expectation, the same with a wrong one)
        (wl.scan_op(w, 50, 1, None, False, "scan-w"), wl.scan_op(w, 50, 1, None, True, "scan-w")),
        (wl.scan_op(ghz, 50, 1, ghz_basis, True, "scan-ghz"),
         wl.scan_op(ghz, 50, 1, ghz_basis, False, "scan-ghz")),
        (wl.analyze_op(analyze_ghz, True, "analyze-ghz"), wl.analyze_op(analyze_ghz, False, "analyze-ghz")),
        (wl.teleport_op(teleport_w, False, "teleport-w"), wl.teleport_op(teleport_w, True, "teleport-w")),
        (wl.teleport_op(teleport_ghz, True, "teleport-ghz"),
         wl.teleport_op(teleport_ghz, False, "teleport-ghz")),
    ]
    problems = []
    for right, wrong in cases:
        for op, expected_failures in ((right, 0), (wrong, 1)):
            tally = run.Tally()
            run.run_ops([op], tally)
            if tally.failed != expected_failures:
                problems.append(f"{op.label}: {tally.failed} failures, expected {expected_failures}")

    # analyze on W exits 1 with rows 4/3 vs 2/3: a right expectation, then the
    # text scan-trials oracle (200) catching a run at 20 trials.
    tally = run.Tally()
    run.run_ops([wl.analyze_op(analyze_w, False, "analyze-w")], tally)
    if tally.failed != 1 or "200" not in tally.failures[0]:
        problems.append(f"analyze-w at 20 trials: {tally.failures}")

    # A probe repeating a different operation, and an operation that raises.
    first = wl.teleport_op(teleport_w, False, "teleport-w")
    mismatched = wl.probe(wl.teleport_op(teleport_w[:4] + ["2"] + teleport_w[5:], False, "teleport-w"), 0)
    raising = wl.scan_op(w, 0, 1, None, False, "scan-zero-trials")
    tally = run.Tally()
    run.run_ops([first, mismatched, raising], tally)
    if tally.failed != 2 or tally.attempted != 3:
        problems.append(f"probe/raise: {tally.failed} of {tally.attempted} failed, expected 2 of 3")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
