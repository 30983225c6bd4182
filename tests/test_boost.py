from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from groupmix import boost, fourier as fx
from groupmix import groups, nof
from groupmix.boost import (
    ExperimentLog,
    PreconditionError,
    boost_pipeline,
    flatten_bound_check,
    l2_sq_dist_to_uniform,
    numerical_floor,
)
from groupmix.groups import ProductGroup
from groupmix.irreps import get_irreps, quasirandomness_degree
from groupmix.uniformity import eps_uniform

import oracles
from bounds import l2_to_linf_check, square_boost_check

SEED = 2024


@pytest.fixture(scope="module")
def c5():
    return groups.build_group(groups.cyclic(5))


def make_eps_k_uniform(space, k, rng, slack=0.9):
    """(|H|^-k, k)-uniform mixture: (1 - t) u + t r with t small enough."""
    n = space.base.order
    cells = float(n) ** k
    t = slack * (1.0 / cells) / (cells - 1.0)
    r = rng.random(space.size)
    r /= r.sum()
    return fx.make_dist(space, (1 - t) / space.size + t * r)


# ---------------------------------------------------------------------------
# distance helpers


def test_l2_sq_of_uniform(a5):
    assert l2_sq_dist_to_uniform(fx.uniform(a5)) == 0.0


def test_l2_sq_of_point_mass(a5, c6):
    for g in (a5, c6):
        n = g.order
        expected = (1 - 1 / n) ** 2 + (n - 1) / n**2   # equals 1 - 1/n
        got = l2_sq_dist_to_uniform(oracles.point_mass(g, 0))
        assert abs(got - expected) < 1e-14
        assert abs(got - (1 - 1 / n)) < 1e-14


def test_l2_identity_formulas_agree(a5):
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        v = rng.random(60)
        p = fx.make_dist(a5, v / v.sum())
        assert abs(l2_sq_dist_to_uniform(p) - oracles.l2_sq_via_norm_identity(p.values)) <= 1e-12


def test_distance_checks_hold_one_deviation_buffer(a5, irreps_cache):
    # traced peaks in arrays of |G| doubles on A5^3 (fourier engine): the l2 helper squares its
    # deviation in place, and the linf check takes |p*p - u| in place, so it holds the product
    # and one deviation, not three full-size arrays (3.06 before); the l2 sum runs over the
    # same squares in the same order as the two-temporary form
    v = np.random.default_rng(SEED).random(a5.order**3)
    p = fx.make_dist(ProductGroup(a5, 3), v / v.sum())
    s = irreps_cache(a5)
    peaks = []
    for check in (l2_sq_dist_to_uniform, lambda d: l2_to_linf_check(d, s)):
        tracemalloc.start()
        try:
            check(p)
            peaks.append(tracemalloc.get_traced_memory()[1] / (p.size * 8))
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.0625 and peaks[1] <= 2.5
    assert l2_sq_dist_to_uniform(p) == float(np.sum((p.values - 1.0 / p.size) ** 2))


def test_tv_to_uniform_matches_materialized_uniform(a5):
    # same elementwise subtraction as against a materialized uniform Dist, so
    # the tv_dist column is unchanged to the last bit
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        v = rng.random(60)
        p = fx.make_dist(a5, v / v.sum())
        assert oracles.tv_to_uniform(p) == oracles.tv_distance(p.values, fx.uniform(a5).values)
    assert abs(oracles.tv_to_uniform(oracles.point_mass(a5, 0)) - (1 - 1 / 60)) < 1e-15


def test_measure_matches_separate_metrics(a5, sl2_3):
    # the pipelines' one-pass measurement against the three separate passes
    pg = ProductGroup(a5, 2)
    rng = np.random.default_rng(SEED)
    cases = []
    for _ in range(10):
        v = rng.random(pg.size)
        cases.append(fx.make_dist(pg, v / v.sum()))
    cases += [oracles.point_mass(pg, 7), nof.box_to_dist(nof.exact_s(sl2_3, 2))]
    for p in cases:
        rec = boost._measure(p, 0, "self-square", None, True, 0.0)
        assert rec.l2_sq == pytest.approx(l2_sq_dist_to_uniform(p), rel=1e-12, abs=0)
        assert rec.linf_rel == pytest.approx(eps_uniform(p), rel=1e-12, abs=0)
        assert rec.tv_dist == oracles.tv_to_uniform(p)
    rec = boost._measure(fx.uniform(pg), 0, "self-square", None, True, 0.0)
    assert (rec.l2_sq, rec.linf_rel, rec.tv_dist) == (0.0, 0.0, 0.0)
    assert boost._measure(cases[0], 0, "self-square", None, False, 0.0).tv_dist is None


# ---------------------------------------------------------------------------
# flattening bound


def test_flatten_on_uniform(a5, irreps_cache):
    pg = ProductGroup(a5, 2)
    rec = flatten_bound_check(fx.uniform(pg), 1, 3, irreps_cache(a5))
    assert rec.lhs <= 1e-20 and rec.holds and rec.ratio is None


def test_flatten_on_synthetic_instances(c5, sl2_3, irreps_cache):
    rng = np.random.default_rng(SEED)
    cases = [(ProductGroup(c5, 3), 2, irreps_cache(c5)), (ProductGroup(sl2_3, 2), 1, irreps_cache(sl2_3))]
    for space, k, s in cases:
        d = quasirandomness_degree(s)
        for _ in range(5):
            p = make_eps_k_uniform(space, k, rng)
            rec = flatten_bound_check(p, k, d, s)
            assert rec.holds and rec.lhs <= rec.rhs + 1e-12


def test_flatten_on_box_mixtures(sl2_3, irreps_cache):
    # (1 - t) u + t q with q exactly 3-uniform stays (|H|^-3, 3)-uniform
    s_irr = irreps_cache(sl2_3)
    q = nof.box_to_dist(nof.exact_s(sl2_3, 2))
    rng = np.random.default_rng(SEED)
    for _ in range(5):
        t = rng.uniform(0, 0.5)
        p = fx.make_dist(q.space, (1 - t) * (1.0 / q.size) + t * q.values)
        rec = flatten_bound_check(p, 3, 1, s_irr)
        assert rec.holds


def test_flatten_precondition_reported(a5, irreps_cache):
    pg = ProductGroup(a5, 2)
    bad = oracles.point_mass(pg, 0)
    with pytest.raises(PreconditionError, match="eps_1"):
        flatten_bound_check(bad, 1, 3, irreps_cache(a5))


# ---------------------------------------------------------------------------
# square boost


def test_square_boost_on_uniform(a5, irreps_cache):
    pg = ProductGroup(a5, 2)
    u = fx.uniform(pg)
    rec = square_boost_check(u, u, 1, irreps_cache(a5))
    assert rec.eps_conv <= 1e-12


def test_square_boost_on_identity_mixture(a5, irreps_cache):
    pg = ProductGroup(a5, 2)
    t = 1e-3
    v = (1 - t) / pg.size + t * np.eye(pg.size)[0]
    p = fx.make_dist(pg, v)
    rec = square_boost_check(p, p, 1, irreps_cache(a5))
    assert rec.eps_conv <= rec.eps_p**2 + 1e-12


def test_square_boost_random_pairs(c5, irreps_cache):
    pg = ProductGroup(c5, 3)
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        p = make_eps_k_uniform(pg, 2, rng, slack=rng.uniform(0.1, 1.0))
        q = make_eps_k_uniform(pg, 2, rng, slack=rng.uniform(0.1, 1.0))
        rec = square_boost_check(p, q, 2, irreps_cache(c5))
        assert rec.holds


def test_square_boost_space_mismatch(a5, c5):
    with pytest.raises(fx.SpaceMismatchError):
        square_boost_check(fx.uniform(ProductGroup(a5, 2)), fx.uniform(ProductGroup(c5, 2)), 1)


# ---------------------------------------------------------------------------
# L2 -> Linf


def test_l2_linf_on_uniform(a5):
    rec = l2_to_linf_check(fx.uniform(a5))
    assert rec.linf <= rec.l2sq + 1e-15


def test_l2_linf_equality_at_point_mass(a5, c6):
    for g in (a5, c6):
        rec = l2_to_linf_check(oracles.point_mass(g, 0))
        assert abs(rec.linf - (1 - 1 / g.order)) < 1e-12
        assert rec.holds


def test_l2_linf_random(sl2_5):
    rng = np.random.default_rng(SEED)
    for _ in range(30):
        v = rng.random(sl2_5.order)
        p = fx.make_dist(sl2_5, v / v.sum())
        assert l2_to_linf_check(p).holds


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_uniform_stops_immediately(a5, irreps_cache):
    pg = ProductGroup(a5, 2)
    final, log = boost_pipeline(fx.uniform(pg), "self-square", 10, 1e-6, irreps_cache(a5))
    assert len(log.records) == 1 and log.records[0].step == 0


def test_pipeline_fresh_copy_matches_direct_convolution(sl2_3, irreps_cache):
    pg = ProductGroup(sl2_3, 3)
    rng = np.random.default_rng(SEED)
    v = rng.random(pg.size)
    p = fx.make_dist(pg, v / v.sum())
    final, log = boost_pipeline(p, "fresh-copy", 7, 0.0, irreps_cache(sl2_3), k=2)
    current = p
    for t in range(1, 8):
        current = fx.convolve_direct(current, p)
    assert np.max(np.abs(final.values - current.values)) <= 1e-9


def test_pipeline_self_square_doubles_copies(sl2_3, irreps_cache):
    pg = ProductGroup(sl2_3, 2)
    rng = np.random.default_rng(SEED)
    v = rng.random(pg.size)
    p = fx.make_dist(pg, v / v.sum())
    final, log = boost_pipeline(p, "self-square", 2, 0.0, irreps_cache(sl2_3))
    four_fold = fx.convolve_direct(p, p)
    four_fold = fx.convolve_direct(four_fold, four_fold)
    assert np.max(np.abs(final.values - four_fold.values)) <= 1e-10


@pytest.mark.parametrize("mode", ["self-square", "fresh-copy"])
def test_pipeline_convolves_through_module_name(sl2_3, irreps_cache, monkeypatch, mode):
    """perfbench times boost steps by patching `boost.convolve`; a pipeline
    loop that bypassed that name would silently turn step_s into run_s."""
    calls = []
    real = boost.convolve

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(boost, "convolve", counted)
    # sl2_3^2 runs the direct engine, sl2_3^3 the fourier one
    for m, engine in ((2, "direct"), (3, "fourier")):
        pg = ProductGroup(sl2_3, m)
        assert fx.resolve_engine(pg.size, irreps_cache(sl2_3)) == engine
        v = np.random.default_rng(SEED).random(pg.size)
        p = fx.make_dist(pg, v / v.sum())
        calls.clear()
        _, log = boost_pipeline(p, mode, 3, 0.0, irreps_cache(sl2_3))
        assert len(log.records) == 4
        assert len(calls) == len(log.records) - 1, engine


def test_pipeline_fresh_copy_in_coefficients_matches_dist_loop(sl2_3, irreps_cache):
    # the fourier engine carries coefficients from step to step; the oracle
    # re-transforms a Dist at every step, as the loop did before
    s = irreps_cache(sl2_3)
    box = nof.box_to_dist(nof.exact_s(sl2_3, 2))
    final, log = boost_pipeline(box, "fresh-copy", 3, 0.0, s, k=2)
    assert box.size > 10_000 and [r.step for r in log.records] == [0, 1, 2, 3]
    current = box
    for rec in log.records:
        if rec.step:
            current = fx.convolve_fourier(current, box, s)
        want = boost._measure(current, rec.step, "fresh-copy", 2, False, 0.0)
        for field in ("l2_sq", "linf_rel"):
            assert abs(getattr(rec, field) - getattr(want, field)) <= 1e-12, (rec.step, field)
        assert abs(rec.eps_k - want.eps_k) <= 1e-12
    assert np.max(np.abs(final.values - current.values)) <= 1e-12


def test_pipeline_rejects_unknown_mode(a5):
    with pytest.raises(ValueError, match="mode"):
        boost_pipeline(fx.uniform(ProductGroup(a5, 2)), "triple", 1, 0.1)


def test_pipeline_l2_monotone_in_contracting_regime(a5, irreps_cache):
    # m = k = 1 on a 3-quasirandom group: bound factor 2/d^2 = 2/9 < 1,
    # so l2_sq must decrease every step above the floor
    pg = ProductGroup(a5, 1)
    rng = np.random.default_rng(SEED)
    t = 0.9 / 60.0 / 59.0
    r = rng.random(pg.size)
    p = fx.make_dist(pg, (1 - t) / pg.size + t * r / r.sum())
    _, log = boost_pipeline(p, "self-square", 6, 0.0, irreps_cache(a5), k=1)
    l2s = [rec.l2_sq for rec in log.records]
    for prev, cur, rec in zip(l2s, l2s[1:], log.records[1:]):
        if not rec.at_floor:
            assert cur < prev


def test_pipeline_log_structure(sl2_3, irreps_cache):
    pg = ProductGroup(sl2_3, 2)
    p = nof.box_to_dist(nof.exact_s(sl2_3, 1))
    final, log = boost_pipeline(p, "self-square", 3, 0.0, irreps_cache(sl2_3), k=1)
    assert log.records[0].step == 0
    assert log.records[0].linf_rel == pytest.approx(
        float(np.max(np.abs(p.values * p.size - 1))), abs=1e-14
    )
    assert all(r.mode == "self-square" for r in log.records)
    assert all(r.eps_k is not None for r in log.records)


# ---------------------------------------------------------------------------
# CSV serialization


def test_csv_header_and_determinism(sl2_3, irreps_cache):
    pg = ProductGroup(sl2_3, 2)
    rng = np.random.default_rng(SEED)
    v = rng.random(pg.size)
    p = fx.make_dist(pg, v / v.sum())

    def run():
        _, log = boost_pipeline(p, "self-square", 3, 0.0, irreps_cache(sl2_3), k=1)
        return log.to_csv()

    csv1, csv2 = run(), run()
    assert csv1 == csv2
    assert csv1.splitlines()[0] == "step,mode,l2_sq,linf_rel,eps_k,tv_dist,seconds"
    # seconds column stays empty unless timing is requested
    assert csv1.splitlines()[1].endswith(",")


def test_csv_timing_column_opt_in():
    log = ExperimentLog()
    from groupmix.boost import StepRecord

    log.add(StepRecord(0, "fresh-copy", 1.0, 2.0, 0.5, 0.25, 1.5))
    with_timing = log.to_csv(include_timing=True)
    assert with_timing.splitlines()[1] == "0,fresh-copy,1.0,2.0,0.5,0.25,1.5"


def test_numerical_floor_flag():
    assert numerical_floor(100) == pytest.approx(10 * np.finfo(np.float64).eps * 100)


def test_pipeline_fresh_copy_peak_memory(a5, irreps_cache):
    # traced peak above the start, in real arrays of |G| doubles: p_hat, the
    # iterate and the inverse's two buffers, with the last step's Dist
    # released before the next inverse
    box = nof.box_to_dist(nof.exact_s(a5, 2))
    s = irreps_cache(a5)
    tracemalloc.start()
    try:
        boost_pipeline(box, "fresh-copy", 2, 0.0, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (box.size * 8) <= 4.25
