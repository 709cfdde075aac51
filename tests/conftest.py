import numpy as np
import pytest

from hecsim.signals import synth_bee_buzz


@pytest.fixture(scope="session")
def bee_clip():
    return synth_bee_buzz(duration_s=2.0, seed=0)


@pytest.fixture
def draws(monkeypatch):
    """The length of each normal draw into an array, in order, of every
    generator np.random.default_rng makes while the test runs."""
    lengths, default_rng = [], np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, *, out):
            lengths.append(len(out))
            return self.rng.standard_normal(out=out)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    return lengths
