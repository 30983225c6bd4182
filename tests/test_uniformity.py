from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from groupmix import fourier as fx
from groupmix import groups, nof
from groupmix.groups import ProductGroup
from groupmix.irreps import get_irreps
from groupmix.repair import low_part
from groupmix.uniformity import (
    eps_k_uniform,
    eps_k_uniform_counts,
    is_k_uniform_fourier,
    report_to_text,
)

import oracles
from bounds import rep_bound_check

SEED = 2024


@pytest.fixture(scope="module")
def c3():
    return groups.build_group(groups.cyclic(3))


@pytest.fixture(scope="module")
def c3_irr(c3):
    return get_irreps(c3, seed=SEED)


def test_eps_uniform_of_uniform(a5):
    assert oracles.eps_uniform(fx.uniform(a5)) == 0.0


def test_eps_uniform_of_point_mass(a5, c6):
    for g in (a5, c6):
        assert abs(oracles.eps_uniform(oracles.point_mass(g, 0)) - (g.order - 1)) < 1e-12


def test_eps_uniform_of_mixture(a5):
    # (1-t) u + t delta_e deviates by exactly t (n-1)
    for t in (1e-1, 1e-3, 1e-6):
        v = (1 - t) * np.full(60, 1 / 60) + t * np.eye(60)[0]
        p = fx.make_dist(a5, v)
        direct = max(abs(float(x) * 60 - 1.0) for x in v)
        assert abs(oracles.eps_uniform(p) - t * 59) < 1e-12
        assert oracles.eps_uniform(p) == direct


def test_eps_k_uniform_of_uniform(a5):
    # floating marginals carry summation noise; exact zeros go through the
    # integer-count path instead
    pg = ProductGroup(a5, 3)
    for k in (1, 2, 3):
        assert eps_k_uniform(fx.uniform(pg), k).eps <= 1e-12


def test_eps_k_counts_path_on_box_dist(sl2_3):
    b = nof.exact_s(sl2_3, 2)
    rep3 = eps_k_uniform_counts(b.counts, sl2_3.order, 4, 3)
    assert rep3.eps == Fraction(0)
    rep4 = eps_k_uniform_counts(b.counts, sl2_3.order, 4, 4)
    assert rep4.eps > 0
    assert rep4.eps == Fraction(sl2_3.order - 1)


@pytest.mark.parametrize("k", [0, 3])
def test_eps_k_counts_rejects_k_outside_one_to_m(a5, k):
    pg = ProductGroup(a5, 2)
    with pytest.raises(ValueError, match="k must lie"):
        eps_k_uniform_counts(np.ones(25, dtype=np.int64), 5, 2, k)
    with pytest.raises(ValueError, match="k must lie"):
        eps_k_uniform(fx.uniform(pg), k)


def test_each_irrep_set_gets_its_own_low_weight_norm(sl2_3, irreps_cache):
    # two bases of one group's irreps round the norm differently in the last bits, so a memo
    # entry of one must not answer for the other
    pg, k = ProductGroup(sl2_3, 2), 2
    v = np.random.default_rng(SEED).random(pg.size) + 1e-3
    p = fx.make_dist(pg, v / v.sum())
    s0, s1 = irreps_cache(sl2_3, seed=0), irreps_cache(sl2_3, seed=1)
    want = [fx.max_low_weight_norm(fx.make_dist(pg, p.values.copy()), k, s) for s in (s0, s1)]
    assert want[0] != want[1]
    for _ in range(2):    # the first round walks the marginals, the second reads the memo
        assert [fx.max_low_weight_norm(p, k, s) for s in (s0, s1)] == want
    assert {key for key in vars(p)["_k_memo"][k] if key != "extremes"} == {id(s0), id(s1)}


@pytest.mark.parametrize("k", [0, 3])
def test_k_outside_one_to_m_records_nothing(sl2_3, irreps_cache, k):
    pg, s = ProductGroup(sl2_3, 2), irreps_cache(sl2_3)
    p = fx.uniform(pg)
    for filled in (False, True):
        if filled:
            eps_k_uniform(p, 1)
            fx.max_low_weight_norm(p, 2, s)
        before = {j: dict(entry) for j, entry in vars(p).get("_k_memo", {}).items()}
        with pytest.raises(ValueError, match="k must lie"):
            eps_k_uniform(p, k)
        with pytest.raises(ValueError, match="k must lie"):
            fx.max_low_weight_norm(p, k, s)
        assert {j: dict(entry) for j, entry in vars(p).get("_k_memo", {}).items()} == before
    assert set(before) == {1, 2}


def _with_nan(g) -> fx.Dist:
    """A Dist over g^3 with one NaN value, built directly: no ingestion check has seen it."""
    space = ProductGroup(g, 3)
    v = np.full(space.size, 1.0 / space.size)
    v[5] = np.nan
    return fx.Dist(space, v)


@pytest.mark.parametrize("reader", ["eps_k_uniform", "max_low_weight_norm", "is_k_uniform_fourier",
                                    "low_part"])
def test_every_marginal_reader_rejects_a_nan_value(reader):
    g = groups.build_group(groups.sl2(2))
    s = get_irreps(g, seed=SEED)
    read = {"eps_k_uniform": lambda p: eps_k_uniform(p, 2),
            "max_low_weight_norm": lambda p: fx.max_low_weight_norm(p, 2, s),
            "is_k_uniform_fourier": lambda p: is_k_uniform_fourier(p, 2, s),
            "low_part": lambda p: low_part(p, 2, s)}[reader]
    p = _with_nan(g)
    with pytest.raises(ValueError, match="nan"):
        read(p)
    # a walk abandoned at the bad marginal records nothing: the scan after it walks and raises
    assert "_k_memo" not in vars(p)
    with pytest.raises(ValueError, match="nan"):
        eps_k_uniform(p, 2)


def test_eps_k_reports_the_first_worst_subset():
    # every pair of a point mass on H^3 deviates alike: the scan keeps the first
    counts = np.zeros(27, dtype=np.int64)
    counts[0] = 1
    rep = eps_k_uniform_counts(counts, 3, 3, 2)
    assert rep.worst_subset == (0, 1) and rep.eps == Fraction(8)
    assert set(rep.per_subset.values()) == {Fraction(8)}
    rep = eps_k_uniform_counts(counts, 3, 3, 3)
    assert rep.worst_subset == (0, 1, 2) and rep.eps == Fraction(26)
    assert rep.per_subset == {(0, 1, 2): Fraction(26)}


def test_eps_k_monotone_in_k(a5):
    pg = ProductGroup(a5, 3)
    rng = np.random.default_rng(SEED)
    for _ in range(5):
        v = rng.random(pg.size)
        p = fx.make_dist(pg, v / v.sum())
        eps = [eps_k_uniform(p, k).eps for k in (1, 2, 3)]
        assert eps[0] <= eps[1] + 1e-12 and eps[1] <= eps[2] + 1e-12


def test_eps_k_report_fields(a5):
    pg = ProductGroup(a5, 2)
    d = oracles.point_mass(pg, groups.tuple_to_flat(pg, (3, 0)))
    rep = eps_k_uniform(d, 1)
    assert rep.worst_subset in ((0,), (1,))
    assert set(rep.per_subset) == {(0,), (1,)}
    text = report_to_text(rep)
    assert text.startswith("subset\teps")


def test_fourier_k_uniformity_on_uniform(a5, irreps_cache):
    pg = ProductGroup(a5, 3)
    ok, norm = is_k_uniform_fourier(fx.uniform(pg), 2, irreps_cache(a5))
    assert ok and norm <= 1e-15


def test_fourier_k_uniformity_on_box_dist(sl2_3, irreps_cache):
    s_irr = irreps_cache(sl2_3)
    p = nof.box_to_dist(nof.exact_s(sl2_3, 2))
    ok3, _ = is_k_uniform_fourier(p, 3, s_irr)
    ok4, norm4 = is_k_uniform_fourier(p, 4, s_irr)
    assert ok3 and not ok4
    assert norm4 > 1e-10 / p.size


def test_fourier_and_marginal_tests_agree_random(c3, c3_irr):
    pg = ProductGroup(c3, 4)
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        v = rng.random(pg.size)
        p = fx.make_dist(pg, v / v.sum())
        for k in (1, 2, 3):
            fou, _ = is_k_uniform_fourier(p, k, c3_irr)
            marg = eps_k_uniform(p, k).eps <= 1e-10
            assert fou == marg


def test_fourier_and_marginal_agree_on_subgroup_uniform(c3, c3_irr):
    # uniform on {x : sum x_i = 0 mod 3} is exactly 3-uniform, not 4-uniform
    pg = ProductGroup(c3, 4)
    v = np.zeros(pg.size)
    for flat in range(pg.size):
        if sum(groups.flat_to_tuple(pg, flat)) % 3 == 0:
            v[flat] = 1.0
    p = fx.make_dist(pg, v / v.sum())
    for k in (1, 2, 3):
        ok, _ = is_k_uniform_fourier(p, k, c3_irr)
        assert ok and eps_k_uniform(p, k).eps <= 1e-12
    ok4, _ = is_k_uniform_fourier(p, 4, c3_irr)
    assert not ok4 and eps_k_uniform(p, 4).eps > 0.5


def test_rep_bound_on_uniform(a5, irreps_cache):
    s = irreps_cache(a5)
    lhs, rhs, _ = rep_bound_check(fx.uniform(a5), s)
    assert lhs <= 1e-28 and rhs == 0.0


def test_rep_bound_on_mixtures(a5, irreps_cache):
    s = irreps_cache(a5)
    for t in (1e-1, 1e-4):
        v = (1 - t) * np.full(60, 1 / 60) + t * np.eye(60)[0]
        p = fx.make_dist(a5, v)
        lhs, rhs, key = rep_bound_check(p, s)
        assert lhs <= rhs + 1e-15 and key != (0,)


def test_rep_bound_random_perturbations(sl2_5, irreps_cache):
    s = irreps_cache(sl2_5)
    rng = np.random.default_rng(SEED)
    n = sl2_5.order
    for _ in range(20):
        noise = rng.random(n)
        noise /= noise.sum()
        t = rng.uniform(0, 1e-2)
        p = fx.make_dist(sl2_5, (1 - t) / n + t * noise)
        lhs, rhs, _ = rep_bound_check(p, s)
        assert lhs <= rhs + 1e-15


def test_rep_bound_all_on_product(a5, irreps_cache):
    s = irreps_cache(a5)
    pg = ProductGroup(a5, 2)
    rng = np.random.default_rng(SEED)
    v = rng.random(pg.size)
    p = fx.make_dist(pg, v / v.sum())
    lhs, rhs, key = rep_bound_check(p, s)
    assert lhs <= rhs + 1e-15
    assert isinstance(key, tuple)


def test_eps_product_bound_under_convolution(sl2_5, irreps_cache):
    s = irreps_cache(sl2_5)
    rng = np.random.default_rng(SEED)
    n = sl2_5.order
    for _ in range(20):
        a, b = rng.random(n), rng.random(n)
        ta, tb = rng.uniform(0, 0.5, size=2)
        p = fx.make_dist(sl2_5, (1 - ta) / n + ta * a / a.sum())
        q = fx.make_dist(sl2_5, (1 - tb) / n + tb * b / b.sum())
        conv = fx.convolve_direct(p, q)
        assert oracles.eps_uniform(conv) <= oracles.eps_uniform(p) * oracles.eps_uniform(q) + 1e-12
