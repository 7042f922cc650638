import numpy as np
import pytest
from hypothesis import settings

# example times swing on a loaded host; a per-example deadline only adds flakes
settings.register_profile("lab", deadline=None)
settings.load_profile("lab")


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)


def random_contraction(rng, m, n, norm_bound=1.0):
    """Random full-rank map with Euclidean operator norm <= norm_bound."""
    while True:
        G = rng.standard_normal((m, n))
        s = np.linalg.svd(G, compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            return G * (norm_bound * rng.uniform(0.3, 1.0) / s[0])
