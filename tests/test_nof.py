from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from groupmix import fourier as fx
from groupmix import boost, cli, groups, nof
from groupmix.irreps import get_irreps
from groupmix.uniformity import eps_k_uniform_counts

import oracles

SEED = 2024


@pytest.fixture(scope="module")
def sl2_2():
    return groups.build_group(groups.sl2(2))


@pytest.fixture(scope="module")
def c2():
    return groups.build_group(groups.cyclic(2))


@pytest.fixture(scope="module")
def c5():
    return groups.build_group(groups.cyclic(5))


def test_counts_match_bruteforce_oracle(c2, sl2_2):
    for g in (c2, sl2_2):
        b = nof.exact_s(g, 2)
        oracle = oracles.exact_box_counts_bruteforce(g.mul, g.inv, 2)
        mine = {i: int(c) for i, c in enumerate(b.counts) if c}
        assert mine == oracle
        assert int(b.counts.sum()) == g.order**4 == b.total


def test_gauge_counts_match_full_enumeration(a5, sl2_3):
    for g in (a5, sl2_3):
        b = nof.exact_s(g, 2)
        assert np.array_equal(b.counts, oracles.exact_box_counts_full(g.mul, 2))


def test_gauge_counts_three_parties_match_bruteforce(sl2_2):
    # sl2:2 is S3: the first non-abelian three-party case
    for g in (sl2_2, groups.build_group(groups.cyclic(4))):
        b = nof.exact_s(g, 3)
        oracle = oracles.exact_box_counts_bruteforce(g.mul, g.inv, 3)
        mine = {i: int(c) for i, c in enumerate(b.counts) if c}
        assert mine == oracle
        assert int(b.counts.sum()) == g.order**6 == b.total


def test_counts_sum_alt5(a5):
    b = nof.exact_s(a5, 2)
    assert int(b.counts.sum()) == 60**4
    # support is the n^3-point constraint surface, counts are 0 or n
    assert int(np.count_nonzero(b.counts)) == 60**3
    assert set(np.unique(b.counts)) == {0, 60}


def test_single_coordinate_marginals_exactly_uniform(a5):
    b = nof.exact_s(a5, 2)
    arr = b.counts.reshape((60,) * 4, order="F")
    for axis in range(4):
        other = tuple(i for i in range(4) if i != axis)
        marg = arr.sum(axis=other)
        assert np.all(marg == b.total // 60)


def test_exact_three_subset_marginals(sl2_3, a5):
    for g in (sl2_3, a5):
        b = nof.exact_s(g, 2)
        rep = eps_k_uniform_counts(b.counts, g.order, 4, 3, full_table=True)
        assert rep.eps == Fraction(0)
        assert all(v == Fraction(0) for v in rep.per_subset.values())


def test_four_wise_deviation_positive(sl2_2, sl2_3):
    for g in (sl2_2, sl2_3):
        rep = nof.verify_s_uniformity(g, 2)
        assert rep.is_3_uniform
        assert rep.four_wise_deviation == Fraction(g.order - 1)
        assert rep.identity_rate == 1.0
        assert np.array_equal(rep.box.values, nof.box_to_dist(nof.exact_s(g, 2)).values)


@pytest.mark.parametrize("group, parties", [("sl2_2", 2), ("c2", 3)])
def test_identity_rate_is_the_exact_mass_on_the_identity(request, monkeypatch, group, parties):
    # one support cell's counts moved to a point with w != e: the rate falls by exactly that
    # mass; on three parties it is read off the first four coordinates' marginal
    g = request.getfixturevalue(group)
    real = nof.exact_s(g, parties)
    n, m = g.order, real.arity
    digits = np.stack(np.unravel_index(np.arange(n**m), (n,) * m, order="F"), axis=1)
    off = np.flatnonzero(~oracles.cancellation_identity_holds(g, digits[:, :4]))
    counts = real.counts.copy()
    i = int(np.flatnonzero(counts)[0])
    moved = int(counts[i])
    counts[off[0]] += moved
    counts[i] = 0
    monkeypatch.setattr(nof, "exact_s", lambda h, k: nof.BoxDist(h, k, counts, real.total))
    rep = nof.verify_s_uniformity(g, parties)
    assert 0 < moved < real.total
    assert rep.identity_rate == (real.total - moved) / real.total


@pytest.mark.parametrize("group", ["a5", "sl2_3", "c5"])
def test_identity_cells_satisfy_the_cancellation_identity(request, group):
    g = request.getfixturevalue(group)
    n = g.order
    cells = nof._identity_cells(g)
    assert np.unique(cells).size == cells.size == n**3
    digits = np.stack(np.unravel_index(cells, (n,) * 4, order="F"), axis=1)
    assert np.all(oracles.cancellation_identity_holds(g, digits))
    # and they are the box's support
    assert np.array_equal(np.sort(cells), np.flatnonzero(nof.exact_s(g, 2).counts))


def test_three_parties_on_tiny_group(c2):
    b = nof.exact_s(c2, 3)
    assert b.arity == 8 and int(b.counts.sum()) == 2**6
    rep3 = eps_k_uniform_counts(b.counts, 2, 8, 3)
    assert rep3.eps == Fraction(0)
    rep4 = eps_k_uniform_counts(b.counts, 2, 8, 4)
    assert rep4.eps > 0


def test_sample_matches_exact_support(sl2_2):
    b = nof.exact_s(sl2_2, 2)
    draws = oracles.sample_s_many(sl2_2, 2, 10_000, SEED)
    flats = oracles.digits_to_flat(sl2_2.order, draws.T)
    assert np.all(b.counts[flats] > 0)


def test_cancellation_identity_on_samples(a5):
    draws = oracles.sample_s_many(a5, 2, 100_000, SEED)
    ok = oracles.cancellation_identity_holds(a5, draws)
    assert np.all(ok)


def test_sample_seed_determinism(a5):
    t1 = oracles.sample_s_many(a5, 2, 1, 99)[0]
    t2 = oracles.sample_s_many(a5, 2, 1, 99)[0]
    assert np.array_equal(t1, t2) and len(t1) == 4


def test_empirical_marginals_chi_square(sl2_2):
    # aggregate goodness-of-fit of sampled 3-coordinate marginals vs exact
    b = nof.exact_s(sl2_2, 2)
    n = sl2_2.order
    draws = oracles.sample_s_many(sl2_2, 2, 1_000_000, SEED)
    for subset in ((0, 1, 2), (0, 1, 3), (1, 2, 3)):
        flats = oracles.digits_to_flat(n, draws[:, subset].T)
        observed = np.bincount(flats, minlength=n**3)
        expected = len(draws) / n**3
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        df = n**3 - 1
        assert abs(chi2 - df) <= 5.0 * np.sqrt(2.0 * df)


def test_budget_errors(a5, sl2_5):
    with pytest.raises(groups.GroupConstructionError, match="above the supported"):
        nof.exact_s(a5, 3)       # dense-state budget, 60^8 states
    with pytest.raises(groups.GroupConstructionError, match="above the supported"):
        nof.exact_s(sl2_5, 2)    # dense-state budget
    with pytest.raises(ValueError, match="parties must be >= 1"):
        nof.exact_s(a5, 0)
    with pytest.raises(ValueError, match="parties >= 2"):
        nof.verify_s_uniformity(a5, 1)


def test_advantage_curve_monotone(sl2_2, irreps_cache):
    s_irr = irreps_cache(sl2_2)
    s_dist = nof.box_to_dist(nof.exact_s(sl2_2, 2))
    log = nof.advantage_curve(s_dist, 16, s_irr)
    tvs = [r.tv_dist for r in log.records]
    assert log.records[0].step == 1
    assert tvs[0] > 0
    assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))
    # t = 1 is s itself
    u = fx.uniform(s_dist.space)
    assert tvs[0] == pytest.approx(0.5 * float(np.sum(np.abs(s_dist.values - u.values))))


def test_advantage_curve_convolves_through_module_name(sl2_2, sl2_3, irreps_cache, monkeypatch):
    """perfbench times nof steps by patching `nof.convolve`; a loop that
    bypassed that name would silently turn step_s into run_s.  The sl2_2^4 box
    runs the direct engine, the sl2_3^4 box the fourier one."""
    calls = []
    real = nof.convolve

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(nof, "convolve", counted)
    t_max = 5
    for g, engine in ((sl2_2, "direct"), (sl2_3, "fourier")):
        box = nof.box_to_dist(nof.exact_s(g, 2))
        assert fx.resolve_engine(box.size, irreps_cache(g)) == engine
        calls.clear()
        log = nof.advantage_curve(box, t_max, irreps_cache(g))
        assert [r.step for r in log.records] == list(range(1, t_max + 1))
        assert len(calls) == t_max - 1, engine


def test_advantage_curve_in_coefficients_matches_dist_loop(sl2_3, irreps_cache):
    # the fourier engine carries coefficients from step to step; the oracle
    # re-transforms a Dist at every step, as the loop did before
    s = irreps_cache(sl2_3)
    box = nof.box_to_dist(nof.exact_s(sl2_3, 2))
    log = nof.advantage_curve(box, 4, s)
    assert box.size > 10_000 and len(log.records) == 4
    current = box
    for t, rec in enumerate(log.records, start=1):
        if t > 1:
            current = fx.convolve_fourier(current, box, s)
        want = boost._measure(current, t, "fresh-copy", None, True, 0.0)
        for field in ("l2_sq", "linf_rel", "tv_dist"):
            assert abs(getattr(rec, field) - getattr(want, field)) <= 1e-12, (t, field)


def test_experiment_nof_counts_the_box_once(tmp_path, monkeypatch, capsys):
    # the uniformity report and the advantage curve share one exact count
    calls = []
    real = nof.exact_s

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(nof, "exact_s", counted)
    code = cli.main([
        "experiment", "nof", "--group", "sl2:2", "--parties", "2", "--max-steps", "3",
        "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "nof.csv"),
    ])
    assert "3-uniform=true" in capsys.readouterr().out
    assert code == 0
    assert len(calls) == 1


def test_advantage_curve_reaches_target_on_alt5_like_group(sl2_2, irreps_cache):
    # S3 is not quasirandom, but the curve still decays toward its floor;
    # early stop works through target_eps
    box = nof.verify_s_uniformity(sl2_2, 2).box
    log = nof.advantage_curve(box, 64, irreps_cache(sl2_2), target_eps=10.0)
    assert log.records[-1].linf_rel <= 10.0


def test_box_to_dist_normalization(sl2_3):
    d = nof.box_to_dist(nof.exact_s(sl2_3, 2))
    assert abs(float(d.values.sum()) - 1.0) < 1e-12


@pytest.mark.parametrize("group, t_max, budget", [("a5", 3, 3.18), ("sl2_3", 4, 7.05)])
def test_advantage_curve_peak_memory(request, irreps_cache, group, t_max, budget):
    """Traced peak of the fourier-engine curve above its start, in real arrays
    of |G| doubles.  A5 runs in float64: s_hat, the product, the values and one
    chunk of the synthesis stack (about 1/6), the step measured in place.
    SL(2,3) runs in complex128, where s_hat, the product, the values and the
    chunk count twice each; the chunk goes before the values' real copy.
    Measured 3.172 and 7.033 (4.010 and 8.076 with a whole stack and a
    deviation array)."""
    g = request.getfixturevalue(group)
    s = irreps_cache(g)
    box = nof.box_to_dist(nof.exact_s(g, 2))
    tracemalloc.start()
    try:
        nof.advantage_curve(box, t_max, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (box.size * 8) <= budget
