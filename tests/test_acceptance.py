"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Heavy shared objects (the A5 box distribution and irrep
sets) come from session fixtures so the suite stays inside its budgets.
"""

from __future__ import annotations

import resource
import time
from fractions import Fraction

import numpy as np
import pytest

from groupmix import boost, fourier as fx, groups, nof
from groupmix.cli import main as cli_main
from groupmix.repair import _low_data, repair as repair_dist
from groupmix.groups import ProductGroup
from groupmix.irreps import check_irrep_set, compute_irreps, quasirandomness_degree, verify_schur
from groupmix.uniformity import (
    eps_k_uniform,
    eps_k_uniform_counts,
    eps_uniform,
    is_k_uniform_fourier,
)

from bounds import l2_to_linf_check, rep_bound_check, square_boost_check

SEED = 2024


@pytest.fixture(scope="session")
def a5_box(a5):
    return nof.exact_s(a5, 2)


def _report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


# ---------------------------------------------------------------------------


def test_c01_representation_suite(c4, c12, a5, sl2_3, sl2_5, sl2_7):
    import oracles

    t0 = time.perf_counter()
    expected_degree = {"cyclic:4": 1, "cyclic:12": 1, "a5": 3, "sl2:3": 1, "sl2:5": 2, "sl2:7": 3}
    oracle_groups = {"a5", "sl2:3", "sl2:5", "sl2:7"}
    for g in (c4, c12, a5, sl2_3, sl2_5, sl2_7):
        s = compute_irreps(g, seed=SEED)
        assert sum(d * d for d in s.dims) == g.order
        report = check_irrep_set(g, s)
        assert report.homomorphism_residual <= 1e-8
        assert report.unitarity_residual <= 1e-8
        schur = verify_schur(s)
        assert schur.max_residual <= 1e-8
        name = str(g.spec)
        assert quasirandomness_degree(s) == expected_degree[name]
        if name in oracle_groups:
            dims_oracle, chars_oracle = oracles.characters_per_element(g.mul, g.inv)
            assert sorted(dims_oracle) == sorted(s.dims)
            oracle_degree = min(dims_oracle[1:]) if len(dims_oracle) > 1 else 1
            assert oracle_degree == expected_degree[name]
            used = set()
            for r in s.irreps:
                match = next(
                    i
                    for i, co in enumerate(chars_oracle)
                    if i not in used and np.linalg.norm(r.character - co) < 1e-6 * g.order
                )
                used.add(match)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    _report(1, f"irreps of 6 groups, residuals <= 1e-8, degrees 1,1,3,1,2,3, {elapsed:.1f}s")


def test_c02_fourier_suite(c4, c12, a5, sl2_3, sl2_5, irreps_cache):
    import oracles

    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for g in (c4, c12, a5, sl2_3, sl2_5):
        s = irreps_cache(g)
        for _ in range(20):
            f = rng.standard_normal(g.order)
            fd = fx.product_fourier_forward(f, g, s)
            back = fx.product_fourier_inverse(fd)
            assert np.max(np.abs(back - f)) <= 1e-10
            lhs = float(np.mean(np.abs(f) ** 2))
            blocks = oracles.irrep_blocks(fd)
            rhs = sum(r.dim * oracles.frobenius_norm_sq(c) for r, c in zip(s.irreps, blocks))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)
    s5 = irreps_cache(a5)
    pg2 = ProductGroup(a5, 2)
    f2 = rng.standard_normal(pg2.size)
    fd2 = fx.product_fourier_forward(f2, pg2, s5)
    assert np.max(np.abs(fx.product_fourier_inverse(fd2) - f2)) <= 1e-10
    worst = 0.0
    for space in (a5, pg2):
        size = space.size
        for _ in range(100):
            pv, qv = rng.random(size), rng.random(size)
            p = fx.make_dist(space, pv / pv.sum())
            q = fx.make_dist(space, qv / qv.sum())
            delta = np.max(
                np.abs(fx.convolve_direct(p, q).values - fx.convolve_fourier(p, q, s5).values)
            )
            worst = max(worst, float(delta))
    assert worst <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    _report(2, f"round-trip/Parseval <= 1e-10, engines agree <= 1e-9 (worst {worst:.1e}), {elapsed:.1f}s")


def test_c03_box_norm_distribution(sl2_3, a5, a5_box):
    import oracles

    t0 = time.perf_counter()
    for g, box in ((sl2_3, nof.exact_s(sl2_3, 2)), (a5, a5_box)):
        n = g.order
        rep3 = eps_k_uniform_counts(box.counts, n, 4, 3, full_table=True)
        assert rep3.eps == Fraction(0)
        assert all(v == Fraction(0) for v in rep3.per_subset.values())
        rep4 = eps_k_uniform_counts(box.counts, n, 4, 4)
        assert rep4.eps > 0
        draws = oracles.sample_s_many(g, 2, 100_000, SEED)
        ok = oracles.cancellation_identity_holds(g, draws)
        assert float(np.mean(ok)) == 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    _report(3, f"exact 3-uniformity, positive 4-wise deviation, identity on 10^5 samples, {elapsed:.1f}s")


def test_c04_flattening_bound(a5, a5_box, sl2_3, irreps_cache):
    t0 = time.perf_counter()
    s5 = irreps_cache(a5)
    p = nof.box_to_dist(a5_box)
    record = boost.flatten_bound_check(p, 3, 3, s5)
    base = boost.l2_sq_dist_to_uniform(p)
    assert record.rhs == pytest.approx(base * 2.0 * 60.0 * 3.0**-4)
    assert record.lhs <= record.rhs  # slack >= 0
    rng = np.random.default_rng(SEED)
    c5 = groups.build_group(groups.cyclic(5))
    cases = [
        (ProductGroup(c5, 3), 2, irreps_cache(c5)),
        (ProductGroup(sl2_3, 2), 1, irreps_cache(sl2_3)),
    ]
    for space, k, s in cases:
        n = space.base.order
        cells = float(n) ** k
        d = quasirandomness_degree(s)
        for _ in range(10):
            t = rng.uniform(0.1, 0.9) * (1.0 / cells) / (cells - 1.0)
            r = rng.random(space.size)
            r /= r.sum()
            inst = fx.make_dist(space, (1 - t) / space.size + t * r)
            rec = boost.flatten_bound_check(inst, k, d, s)
            assert rec.lhs <= rec.rhs + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed <= 900.0
    _report(
        4,
        f"flattening bound on A5^4 box dist (ratio {record.ratio:.3e} <= {record.rhs / base:.4f}) "
        f"and 20 synthetics, {elapsed:.1f}s",
    )


def test_c05_norm_claims(sl2_5, a5, irreps_cache):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    s_sl = irreps_cache(sl2_5)
    s_a5 = irreps_cache(a5)
    pg2 = ProductGroup(a5, 2)
    for space, s in ((sl2_5, s_sl), (pg2, s_a5)):
        size = space.size if isinstance(space, ProductGroup) else space.order
        for _ in range(100):
            v1, v2 = rng.random(size), rng.random(size)
            ta, tb = rng.uniform(0, 1, size=2)
            p = fx.make_dist(space, (1 - ta) / size + ta * v1 / v1.sum())
            q = fx.make_dist(space, (1 - tb) / size + tb * v2 / v2.sum())
            assert l2_to_linf_check(p, s).holds                     # conv bound, 1e-15 slack
            rep_bound_check(p, s)                                   # coefficient bound, 1e-15
            assert square_boost_check(p, q, 1, s).holds             # eps product bound, 1e-12
    for _ in s_sl.irreps[1:]:  # one larger-t draw per non-trivial irrep, each checked on all
        v = rng.random(sl2_5.order)
        t = rng.uniform(0, 0.2)
        p = fx.make_dist(sl2_5, (1 - t) / sl2_5.order + t * v / v.sum())
        lhs, rhs, _ = rep_bound_check(p, s_sl)
        assert lhs <= rhs + 1e-15
    elapsed = time.perf_counter() - t0
    _report(5, f"L2->Linf, coefficient, and eps-product bounds on 100 instances each, {elapsed:.1f}s")


def test_c06_boost_pipeline(a5, a5_box, sl2_3, irreps_cache):
    t0 = time.perf_counter()
    s5 = irreps_cache(a5)
    p = nof.box_to_dist(a5_box)
    target = 60.0**-4
    final, log = boost.boost_pipeline(p, "self-square", 6, target, s5, k=3)
    assert log.records[-1].linf_rel <= target
    assert len(log.records) - 1 <= 6
    l2s = [r.l2_sq for r in log.records]
    for prev, cur, rec in zip(l2s, l2s[1:], log.records[1:]):
        if not rec.at_floor:
            assert cur < prev
    # fresh-copy pipeline against the direct t-fold convolution oracle
    s3 = irreps_cache(sl2_3)
    pg3 = ProductGroup(sl2_3, 3)
    rng = np.random.default_rng(SEED)
    v = rng.random(pg3.size)
    q = fx.make_dist(pg3, v / v.sum())
    iterate = q
    direct = q
    for t in range(2, 9):
        iterate = fx.convolve(iterate, q, s3)
        direct = fx.convolve_direct(direct, q)
        assert np.max(np.abs(iterate.values - direct.values)) <= 1e-9
    finals, _ = boost.boost_pipeline(q, "fresh-copy", 7, 0.0, s3)
    assert np.max(np.abs(finals.values - direct.values)) <= 1e-9
    elapsed = time.perf_counter() - t0
    _report(
        6,
        f"A5^4 box dist reached eps <= 60^-4 in {len(log.records) - 1} self-squarings "
        f"(l2 strictly decreasing), sl2(3)^3 oracle equality <= 1e-9, {elapsed:.1f}s",
    )


def test_c07_repair_construction(a5, a5_box, irreps_cache):
    import oracles

    t0 = time.perf_counter()
    s5 = irreps_cache(a5)
    p0 = nof.box_to_dist(a5_box)
    de = oracles.point_mass(p0.space, 0)
    deltas = np.geomspace(1e-12, 1e-9, 20)
    for delta in deltas:
        p = fx.make_dist(p0.space, (1 - delta) * p0.values + delta * de.values)
        ell_c, max_norm = _low_data(p, 3, s5)
        assert float(np.max(np.abs(ell_c.imag))) <= 1e-12
        q, cert = repair_dist(p, 3, s5, mode="adaptive")
        assert cert.q_nonneg and cert.q_normalized
        assert cert.k_uniform_residual <= 1e-12
        assert cert.residual_ok  # tighter: <= 1e-12 / |G|
        assert cert.l1_distance <= 3.0 * (4 * 60.0) ** 6 * cert.eps_in + 1e-10
        assert cert.beta_adaptive <= cert.beta_paper
        del ell_c
    # paper-formula mode end to end at an eps scale where beta < 1
    tiny = 1e-16
    p = fx.make_dist(p0.space, (1 - tiny) * p0.values + tiny * de.values)
    q, cert = repair_dist(p, 3, s5, mode="paper-formula")
    assert cert.l1_within_bound and cert.q_nonneg and cert.residual_ok
    elapsed = time.perf_counter() - t0
    _report(
        7,
        f"20 adaptive repairs on A5^4 (residual <= 1e-12, L1 within paper bound, "
        f"beta_adaptive <= beta_paper) plus one paper-formula run (beta {cert.beta:.3f}), {elapsed:.1f}s",
    )


def test_c08_fourier_marginal_equivalence(sl2_3, irreps_cache):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    c3 = groups.build_group(groups.cyclic(3))
    s_c3 = irreps_cache(c3)
    s_sl = irreps_cache(sl2_3)
    disagreements = 0
    checks = 0
    pg = ProductGroup(c3, 4)
    for _ in range(200):
        v = rng.random(pg.size)
        p = fx.make_dist(pg, v / v.sum())
        for k in (1, 2, 3):
            fou, _ = is_k_uniform_fourier(p, k, s_c3, tol=1e-10)
            marg = eps_k_uniform(p, k).eps <= 1e-10
            disagreements += fou != marg
            checks += 1
    pg2 = ProductGroup(sl2_3, 2)
    for _ in range(50):
        v = rng.random(pg2.size)
        p = fx.make_dist(pg2, v / v.sum())
        for k in (1, 2):
            fou, _ = is_k_uniform_fourier(p, k, s_sl, tol=1e-10)
            marg = eps_k_uniform(p, k).eps <= 1e-10
            disagreements += fou != marg
            checks += 1
    assert disagreements == 0
    elapsed = time.perf_counter() - t0
    _report(8, f"fourier vs marginal k-uniformity: 0 disagreements in {checks} checks, {elapsed:.1f}s")


def test_c09_performance(a5, a5_box, irreps_cache):
    s5 = irreps_cache(a5)
    rng = np.random.default_rng(SEED)
    pg3 = ProductGroup(a5, 3)
    pv, qv = rng.random(pg3.size), rng.random(pg3.size)
    p3 = fx.make_dist(pg3, pv / pv.sum())
    q3 = fx.make_dist(pg3, qv / qv.sum())
    fx.convolve_fourier(p3, q3, s5)  # warm caches before timing
    t0 = time.perf_counter()
    fast = fx.convolve_fourier(p3, q3, s5)
    t_fourier = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow = fx.convolve_direct(p3, q3)
    t_direct = time.perf_counter() - t0
    assert np.max(np.abs(fast.values - slow.values)) <= 1e-9
    assert t_direct >= 10.0 * t_fourier

    p4 = nof.box_to_dist(a5_box)
    t0 = time.perf_counter()
    fx.convolve_fourier(p4, p4, s5)
    t_conv4 = time.perf_counter() - t0
    assert t_conv4 <= 300.0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024.0**2)
    assert peak_gb <= 2.0
    _report(
        9,
        f"A5^3 fourier {t_fourier:.2f}s vs direct {t_direct:.2f}s "
        f"({t_direct / t_fourier:.0f}x); A5^4 step {t_conv4:.0f}s, peak {peak_gb:.2f} GB",
    )


def test_c10_determinism(tmp_path):
    runs = {
        "flatten": ["experiment", "flatten", "--group", "sl2:3", "--m", "4", "--k", "3"],
        "boost": [
            "experiment", "boost", "--group", "sl2:3", "--m", "4", "--k", "3",
            "--mode", "self-square", "--max-steps", "4", "--target-eps", "2.5",
        ],
        "nof": ["experiment", "nof", "--group", "sl2:3", "--parties", "2", "--max-steps", "6"],
        "repair": [
            "experiment", "repair", "--group", "sl2:3", "--m", "4", "--k", "3",
            "--delta", "1e-9",
        ],
    }
    cache = str(tmp_path / "cache")
    for name, args in runs.items():
        outs = []
        for rep_i in (1, 2):
            out = str(tmp_path / f"{name}_{rep_i}.out")
            code = cli_main(args + ["--seed", "11", "--cache-dir", cache, "--out", out])
            assert code == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1], f"{name} logs differ between identical runs"
    _report(10, "identical seeds reproduce byte-identical experiment logs (4 experiments)")
