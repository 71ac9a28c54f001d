import numpy as np
import pytest

from pcomb import custom_pvalue_distribution, distributions


@pytest.fixture(autouse=True)
def fresh_model_memo():
    """Each test builds its named-family models afresh, so a test that
    patches a kernel or a bound sees that build, not a stored model."""
    distributions._memo.clear()


def make_random_dists(count, seed, min_atoms=2, max_atoms=12, min_gap=1e-3):
    """Deterministic batch of random atom sequences with a minimum cell
    width, so quadrature cross-checks stay well conditioned."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        m = int(rng.integers(min_atoms, max_atoms + 1))
        interior = np.sort(rng.uniform(0.01, 0.99, m - 1))
        atoms = np.append(interior, 1.0)
        if np.min(np.diff(atoms, prepend=0.0)) < min_gap:
            continue
        out.append(custom_pvalue_distribution(atoms, "left"))
    return out


@pytest.fixture(scope="session")
def random_dists():
    return make_random_dists(200, seed=987654321)


def midpoint_w2(adjusted, quantile_fn, resolution=100_000):
    """Independent W2 oracle: both laws discretized to ``resolution``
    equal-mass atoms, matched by sorting (optimal in one dimension)."""
    order = np.argsort(adjusted.z, kind="stable")
    z = adjusted.z[order]
    cum = np.cumsum(adjusted.masses[order])
    cum[-1] = 1.0
    u = (np.arange(resolution) + 0.5) / resolution
    zz = z[np.searchsorted(cum, u, side="left")]
    return float(np.sqrt(np.mean((zz - quantile_fn(u)) ** 2)))
