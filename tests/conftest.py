"""Shared fixtures: a reproducible corpus of random probability vectors, one
hypothesis profile that draws the same examples on every run, and the
normalized-target strategy of the property tests."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from certbound import ProbVec
from certbound.rng import stream_rng

settings.register_profile("certbound", derandomize=True, database=None, deadline=None)
settings.load_profile("certbound")

# normalized probability arrays with zeros and ties, as flat and sparse targets have them
normalized_targets = (
    st.lists(st.one_of(st.just(0.0), st.sampled_from([1e-3, 0.1, 0.25]), st.floats(0.0, 1.0)), min_size=1, max_size=64)
    .map(np.array)
    .filter(lambda x: x.sum() > 0)
    .map(lambda x: x / x.sum())
)


def random_probvec(rng: np.random.Generator, dim: int) -> ProbVec:
    """One normalized vector with a randomly chosen shape family."""
    family = rng.integers(4)
    if family == 0:
        x = rng.dirichlet(np.ones(dim))
    elif family == 1:
        # spiky: few heavy entries over a flat floor
        x = rng.dirichlet(np.full(dim, 0.1))
    elif family == 2:
        # geometric decay, shuffled
        x = 0.5 ** np.arange(dim, dtype=float)
        rng.shuffle(x)
        x /= x.sum()
    else:
        # sparse support
        x = np.zeros(dim)
        k = int(rng.integers(1, dim + 1))
        idx = rng.choice(dim, size=k, replace=False)
        x[idx] = rng.dirichlet(np.ones(k))
    return ProbVec(x / x.sum())


def corpus(count: int, seed: int = 0, dims=(4, 16, 64, 256, 1024, 4096)):
    rng = stream_rng(seed, 0xC0)
    out = []
    for i in range(count):
        out.append(random_probvec(rng, int(dims[i % len(dims)])))
    return out


@pytest.fixture(scope="session")
def small_corpus():
    return corpus(200, seed=1, dims=(4, 16, 64, 256))
