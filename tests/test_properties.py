"""Property-based invariants on small spaces."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmix import fourier as fx
from groupmix import groups
from groupmix.boost import l2_sq_dist_to_uniform
from groupmix.groups import ProductGroup, flat_to_tuple, tuple_to_flat
from groupmix.irreps import get_irreps
from groupmix.uniformity import eps_k_uniform, eps_uniform

import oracles

settings.register_profile("groupmix", deadline=None, max_examples=25, derandomize=True)
settings.load_profile("groupmix")

SEED = 2024

_groups = {}


def small_group(n: int):
    if n not in _groups:
        _groups[n] = groups.build_group(groups.cyclic(n))
    return _groups[n]


@functools.lru_cache(maxsize=None)
def s3_irreps():
    return get_irreps(groups.build_group(groups.sl2(2)), seed=SEED)


def block_norm_sq(mat) -> float:
    """_block_norms_sq of a 2 x 2 matrix placed in S3's 2-dim irrep slot."""
    s = s3_irreps()
    slot = list(s.dims).index(2)
    blocks = [np.zeros((d, d)) for d in s.dims]
    blocks[slot] = mat
    return float(fx._block_norms_sq(np.concatenate([b.ravel() for b in blocks]), s)[slot])


def weights_to_dist(space, weights):
    v = np.asarray(weights, dtype=np.float64)
    return fx.make_dist(space, v / v.sum())


dist_weights = st.lists(st.integers(1, 1000), min_size=6, max_size=6)


@given(st.integers(1, 30))
def test_cyclic_tables_satisfy_axioms(n):
    g = small_group(n)
    assert groups.verify_group(g).all_passed


@given(st.integers(2, 12), st.data())
def test_flat_tuple_roundtrip(n, data):
    g = small_group(n)
    pg = ProductGroup(g, 3)
    t = tuple(data.draw(st.integers(0, n - 1)) for _ in range(3))
    assert flat_to_tuple(pg, tuple_to_flat(pg, t)) == t


@given(st.integers(2, 10), st.data())
def test_point_mass_convolution_is_group_product(n, data):
    g = small_group(n)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    out = fx.convolve_direct(oracles.point_mass(g, a), oracles.point_mass(g, b))
    assert out.values[g.mul[a, b]] == 1.0


@given(dist_weights)
def test_direct_convolution_matches_modular_oracle(weights):
    g = small_group(6)
    p = weights_to_dist(g, weights)
    q = fx.uniform(g)
    mine = fx.convolve_direct(p, q).values
    oracle = oracles.circular_convolve(p.values, q.values)
    assert np.max(np.abs(mine - oracle)) < 1e-14


@given(dist_weights)
def test_uniform_absorbs(weights):
    g = small_group(6)
    p = weights_to_dist(g, weights)
    u = fx.uniform(g)
    assert np.max(np.abs(fx.convolve_direct(p, u).values - u.values)) <= 1e-12


@given(dist_weights, dist_weights)
def test_eps_uniform_submultiplicative_under_convolution(w1, w2):
    g = small_group(6)
    p, q = weights_to_dist(g, w1), weights_to_dist(g, w2)
    conv = fx.convolve_direct(p, q)
    assert eps_uniform(conv) <= eps_uniform(p) * eps_uniform(q) + 1e-12


@given(dist_weights)
def test_l2_formulas_agree(weights):
    g = small_group(6)
    p = weights_to_dist(g, weights)
    assert abs(l2_sq_dist_to_uniform(p) - oracles.l2_sq_via_norm_identity(p.values)) <= 1e-12


@given(st.lists(st.integers(1, 1000), min_size=27, max_size=27))
def test_eps_k_monotone(weights):
    g = small_group(3)
    pg = ProductGroup(g, 3)
    p = weights_to_dist(pg, weights)
    e1 = eps_k_uniform(p, 1).eps
    e2 = eps_k_uniform(p, 2).eps
    e3 = eps_k_uniform(p, 3).eps
    assert e1 <= e2 + 1e-12 and e2 <= e3 + 1e-12


@given(st.lists(st.integers(1, 100), min_size=16, max_size=16),
       st.lists(st.integers(1, 100), min_size=16, max_size=16))
def test_marginal_commutes_with_convolution(w1, w2):
    g = small_group(4)
    pg = ProductGroup(g, 2)
    p, q = weights_to_dist(pg, w1), weights_to_dist(pg, w2)
    conv = fx.convolve_direct(p, q)
    for subset in ((0,), (1,)):
        lhs = fx.marginalize(conv, subset).values
        rhs = fx.convolve_direct(fx.marginalize(p, subset), fx.marginalize(q, subset)).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


@given(st.integers(2, 8), st.data())
def test_parseval_on_random_functions(n, data):
    g = small_group(n)
    s = get_irreps(g, seed=SEED)
    f = np.array([data.draw(st.integers(-50, 50)) for _ in range(n)], dtype=float) / 10.0
    fd = fx.product_fourier_forward(f, g, s)
    lhs = float(np.mean(np.abs(f) ** 2))
    blocks = oracles.irrep_blocks(fd)
    rhs = sum(r.dim * oracles.frobenius_norm_sq(c) for r, c in zip(s.irreps, blocks))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


@given(st.integers(2, 8), st.data())
def test_roundtrip_on_random_functions(n, data):
    g = small_group(n)
    s = get_irreps(g, seed=SEED)
    f = np.array([data.draw(st.integers(-50, 50)) for _ in range(n)], dtype=float) / 10.0
    back = fx.product_fourier_inverse(fx.product_fourier_forward(f, g, s))
    assert np.max(np.abs(back - f)) <= 1e-10


@given(st.lists(st.floats(0.1, 10, allow_nan=False), min_size=4, max_size=4),
       st.lists(st.floats(0.1, 10, allow_nan=False), min_size=4, max_size=4))
def test_frobenius_product_bound(r1, r2):
    a = np.array(r1).reshape(2, 2)
    b = np.array(r2).reshape(2, 2)
    fa, fb, fab = (block_norm_sq(x) for x in (a, b, a @ b))
    assert fab <= fa * fb * (1 + 1e-12)
    for x, got in ((a, fa), (b, fb), (a @ b, fab)):
        assert got == pytest.approx(oracles.frobenius_norm_sq(x), rel=1e-12)
