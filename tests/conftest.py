from __future__ import annotations

import numpy as np
import pytest

from groupmix import groups


@pytest.fixture(scope="session")
def c4():
    return groups.build_group(groups.cyclic(4))


@pytest.fixture(scope="session")
def c6():
    return groups.build_group(groups.cyclic(6))


@pytest.fixture(scope="session")
def c12():
    return groups.build_group(groups.cyclic(12))


@pytest.fixture(scope="session")
def c30():
    return groups.build_group(groups.cyclic(30))


@pytest.fixture(scope="session")
def a5():
    return groups.build_group(groups.alt5())


@pytest.fixture(scope="session")
def sl2_3():
    return groups.build_group(groups.sl2(3))


@pytest.fixture(scope="session")
def sl2_5():
    return groups.build_group(groups.sl2(5))


@pytest.fixture(scope="session")
def sl2_7():
    return groups.build_group(groups.sl2(7))


@pytest.fixture(scope="session")
def irreps_cache():
    """Session memo so expensive irrep computations run once."""
    from groupmix import irreps as irr

    memo = {}

    def get(g, tol=1e-9, seed=2024):
        key = (g.fingerprint, tol, seed)
        if key not in memo:
            memo[key] = irr.compute_irreps(g, tol=tol, seed=seed)
        return memo[key]

    return get


def random_dist(space_size: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.random(space_size) + 1e-3
    return v / v.sum()
