import numpy as np
import pytest
from hypothesis import settings

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
