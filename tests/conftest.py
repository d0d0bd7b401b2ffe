import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import teleport3q

# the src directory of the teleport3q under test, which a checkout's pytest imports without an install
SRC = str(Path(teleport3q.__file__).parents[1])

# Reproducible property tests: the same examples on every run, no time limit
# per example (a loaded host can stall one), and no example database.
settings.register_profile("teleport3q", derandomize=True, deadline=None, database=None)
settings.load_profile("teleport3q")


@pytest.fixture
def no_draws(monkeypatch):
    """Make np.random.Philox.random_raw and np.random.Generator.random raise,
    so a run that reaches sampling or a scan's draws fails at once instead of
    drawing for hours."""

    class NoDrawPhilox(np.random.Philox):
        def random_raw(self, *args, **kwargs):
            raise AssertionError("sampling started before the trial count was checked")

    class NoDrawGenerator(np.random.Generator):
        def random(self, *args, **kwargs):
            raise AssertionError("sampling started before the trial count was checked")

    monkeypatch.setattr(np.random, "Philox", NoDrawPhilox)
    monkeypatch.setattr(np.random, "Generator", NoDrawGenerator)


def run_cli(*args, stdout=subprocess.PIPE):
    """`python -m teleport3q *args` in a child process, with its stderr and, unless `stdout` names a file
    descriptor or an open file, its stdout captured as text. The child imports the teleport3q under
    test, installed or not: its PYTHONPATH starts with SRC."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "teleport3q", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=os.environ | {"PYTHONPATH": path},
    )
