from __future__ import annotations

import dataclasses
import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from groupmix import fourier as fx
from groupmix import groups, nof
from groupmix.boost import boost_pipeline, flatten_bound_check
from groupmix.groups import ProductGroup
from groupmix.irreps import IrrepSet, get_irreps, quasirandomness_degree
from groupmix.repair import repair
from groupmix.uniformity import eps_k_uniform, eps_k_uniform_counts

import oracles
from bounds import rep_bound_check
from oracles import flat_digits

SEED = 2024


@pytest.fixture(scope="module")
def a5_irr(a5):
    return get_irreps(a5, seed=SEED)


@pytest.fixture(scope="module")
def c3():
    return groups.build_group(groups.cyclic(3))


@pytest.fixture(scope="module")
def c3_irr(c3):
    return get_irreps(c3, seed=SEED)


# ---------------------------------------------------------------------------
# Dist


def test_dist_validation(a5):
    with pytest.raises(ValueError, match="sum"):
        fx.make_dist(a5, np.full(60, 1.0 / 59))
    with pytest.raises(ValueError, match="negative"):
        v = np.full(60, 1.0 / 60)
        v[0] = -1e-3
        fx.make_dist(a5, v)
    v = np.full(60, 1.0 / 60)
    v[0] += 1e-16  # tiny negative elsewhere clamps
    v[1] = v[1] - 1e-16
    d = fx.make_dist(a5, v)
    assert np.all(d.values >= 0.0)


def test_no_write_reaches_dist_values_through_their_base(c4):
    # a write through the array that a Dist's values view would leave its k-marginal memo stale
    base = np.full(4, 0.25)
    p = fx.make_dist(c4, base[:])
    rows = np.full((2, 4), 0.125)
    q = fx.make_dist(c4, rows[1] * 2)    # a copy: rows stays writable
    for arr in (base, p.values):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    rows[1, 0] = 1.0
    assert q.values[0] == 0.25


def test_make_dist_rejects_wrong_length(c4):
    with pytest.raises(ValueError, match="expected 4 values"):
        fx.make_dist(c4, np.full(5, 0.2))


def test_make_dist_rejects_non_finite(c4):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="nan|inf"):
            fx.make_dist(c4, [0.25, 0.25, 0.25, bad])
    # inf and -inf in different slices of the sum: the clamp check still names -inf
    v = np.full(4**9, 4.0**-9)
    v[0], v[-1] = np.inf, -np.inf
    with pytest.raises(ValueError, match="negative probability -inf"):
        fx.make_dist(ProductGroup(c4, 9), v)


def test_dist_clamps_tiny_negatives(a5):
    v = np.full(60, 1.0 / 60)
    v[5] = -5e-16
    v[0] += 5e-16 + 1.0 / 60  # keep the sum at 1
    d = fx.make_dist(a5, v)
    assert d.values[5] == 0.0


# ---------------------------------------------------------------------------
# block norms: _block_norms_sq against the dict-form Frobenius norm


def frobenius_in_slot(irr, slot, mat) -> float:
    """_block_norms_sq of a single-group tensor holding mat in irrep slot's
    block and noise elsewhere."""
    blocks = [np.full((d, d), 7.0) for d in irr.dims]
    blocks[slot] = mat
    return float(fx._block_norms_sq(np.concatenate([b.ravel() for b in blocks]), irr)[slot])


def test_frobenius_identity_and_zero(a5_irr):
    assert frobenius_in_slot(a5_irr, 1, np.eye(3)) == 3.0 == oracles.frobenius_norm_sq(np.eye(3))
    zero = np.zeros((4, 4))
    assert frobenius_in_slot(a5_irr, 3, zero) == 0.0 == oracles.frobenius_norm_sq(zero)


def test_frobenius_two_formulas_agree(a5_irr):
    rng = np.random.default_rng(SEED)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    entry_sum = frobenius_in_slot(a5_irr, 3, m)
    trace_form = float(np.trace(m @ m.conj().T).real)
    assert abs(entry_sum - trace_form) <= 1e-12 * max(1.0, entry_sum)
    assert abs(entry_sum - oracles.frobenius_norm_sq(m)) <= 1e-12 * max(1.0, entry_sum)


def test_frobenius_submultiplicative(a5_irr):
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        fa, fb, fab = (frobenius_in_slot(a5_irr, 3, x) for x in (a, b, a @ b))
        assert fab <= fa * fb + 1e-12
        for x, got in ((a, fa), (b, fb), (a @ b, fab)):
            assert abs(got - oracles.frobenius_norm_sq(x)) <= 1e-12 * max(1.0, got)


# ---------------------------------------------------------------------------
# single-group transform


def test_uniform_coefficients(a5, a5_irr):
    fd = fx.product_fourier_forward(fx.uniform(a5).values, a5, a5_irr)
    blocks = oracles.irrep_blocks(fd)
    assert abs(blocks[0][0, 0] - 1.0 / 60) < 1e-15
    for i in range(1, len(a5_irr.irreps)):
        assert np.max(np.abs(blocks[i])) < 1e-12
    # and back: those coefficients reconstruct the constant 1/|G|
    back = fx.product_fourier_inverse(fd)
    assert np.max(np.abs(back - 1.0 / 60)) < 1e-12


def test_point_mass_coefficients(a5, a5_irr):
    blocks = oracles.irrep_blocks(fx.product_fourier_forward(oracles.point_mass(a5, 0).values, a5, a5_irr))
    for i, r in enumerate(a5_irr.irreps):
        assert np.max(np.abs(blocks[i] - np.eye(r.dim) / 60)) < 1e-15


def test_parseval_random_functions(a5, a5_irr):
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        f = rng.standard_normal(60)
        fd = fx.product_fourier_forward(f, a5, a5_irr)
        lhs = float(np.mean(np.abs(f) ** 2))
        rhs = sum(r.dim * oracles.frobenius_norm_sq(c)
                  for r, c in zip(a5_irr.irreps, oracles.irrep_blocks(fd)))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


def test_roundtrip_matches_bruteforce(a5, a5_irr):
    rng = np.random.default_rng(SEED)
    f = rng.standard_normal(60)
    fd = fx.product_fourier_forward(f, a5, a5_irr)
    blocks = oracles.irrep_blocks(fd)
    for i, r in enumerate(a5_irr.irreps):
        oracle = oracles.fourier_forward_bruteforce(f, r.matrices)
        assert np.max(np.abs(blocks[i] - oracle)) < 1e-12
    back = fx.product_fourier_inverse(fd)
    oracle_back = oracles.fourier_inverse_bruteforce(
        [(blocks[i], r.matrices) for i, r in enumerate(a5_irr.irreps)]
    )
    assert np.max(np.abs(back - f)) < 1e-10
    assert np.max(np.abs(back - oracle_back)) < 1e-10


def test_forward_of_inverse_is_identity(a5, a5_irr):
    rng = np.random.default_rng(SEED)
    coeffs = {}
    for i, r in enumerate(a5_irr.irreps):
        coeffs[i] = rng.standard_normal((r.dim, r.dim)) + 1j * rng.standard_normal((r.dim, r.dim))
    # slot layout: each irrep's block in row-major order, trivial irrep first
    dense = np.concatenate([coeffs[i].ravel() for i in range(len(a5_irr.irreps))])
    fd = fx.FourierData(a5_irr, 1, dense)
    f = fx.product_fourier_inverse(fd)
    again = oracles.irrep_blocks(fx.product_fourier_forward(f, a5, a5_irr))
    for i in coeffs:
        assert np.max(np.abs(again[i] - coeffs[i])) < 1e-10


def test_missing_coefficient_rejected(a5, a5_irr):
    fd = fx.product_fourier_forward(fx.uniform(a5).values, a5, a5_irr)
    broken = fx.FourierData(a5_irr, 1, fd.dense[:-25])  # no 5-dim irrep
    with pytest.raises(ValueError, match="shape"):
        fx.product_fourier_inverse(broken)


def test_size_mismatch_rejected(a5, a5_irr):
    with pytest.raises(ValueError, match="length"):
        fx.product_fourier_forward(np.ones(59), a5, a5_irr)


# ---------------------------------------------------------------------------
# product transform


def test_product_transform_matches_bruteforce_cyclic(c3, c3_irr):
    pg = ProductGroup(c3, 2)
    rng = np.random.default_rng(SEED)
    f = rng.standard_normal(9)
    fd = fx.product_fourier_forward(f, pg, c3_irr)
    digs = flat_digits(pg, np.arange(9))
    mats = [r.matrices for r in c3_irr.irreps]
    tups = list(itertools.product(range(3), repeat=2))
    oracle = oracles.product_fourier_bruteforce(f, mats, tups, digs)
    blocks = oracles.coefficient_blocks(fd)
    for t in tups:
        assert np.max(np.abs(blocks[t] - oracle[t])) < 1e-12


def test_product_transform_matches_bruteforce_alt5_sq(a5, a5_irr):
    pg = ProductGroup(a5, 2)
    rng = np.random.default_rng(SEED)
    f = rng.standard_normal(pg.size)
    fd = fx.product_fourier_forward(f, pg, a5_irr)
    digs = flat_digits(pg, np.arange(pg.size))
    mats = [r.matrices for r in a5_irr.irreps]
    sample_tuples = [(0, 0), (1, 0), (0, 4), (2, 3), (4, 4), (1, 2)]
    oracle = oracles.product_fourier_bruteforce(f, mats, sample_tuples, digs)
    blocks = oracles.coefficient_blocks(fd)
    for t in sample_tuples:
        assert np.max(np.abs(blocks[t] - oracle[t])) < 1e-9


def test_product_transform_matches_bruteforce_sl2_3_sq(sl2_3):
    # complex-type irreps and mixed dimensions 1, 2, 3 exercise the slot
    # layout where A5's real-type irreps cannot
    s = get_irreps(sl2_3, seed=SEED)
    pg = ProductGroup(sl2_3, 2)
    f = np.random.default_rng(SEED).standard_normal(pg.size)
    fd = fx.product_fourier_forward(f, pg, s)
    digs = flat_digits(pg, np.arange(pg.size))
    tups = list(itertools.product(range(len(s)), repeat=2))
    oracle = oracles.product_fourier_bruteforce(f, [r.matrices for r in s.irreps], tups, digs)
    blocks = oracles.coefficient_blocks(fd)
    assert sorted(blocks) == tups
    for t in tups:
        assert np.max(np.abs(blocks[t] - oracle[t])) <= 1e-12


def test_real_irreps_give_real_transform_a5_sq(a5, a5_irr, sl2_3):
    # A5's irreps are all of real type, so its coefficients are float64;
    # SL(2,3) has complex- and quaternionic-type irreps and stays complex
    pg = ProductGroup(a5, 2)
    f = np.random.default_rng(SEED).standard_normal(pg.size)
    fd = fx.product_fourier_forward(f, pg, a5_irr)
    assert fd.dense.dtype == np.float64
    digs = flat_digits(pg, np.arange(pg.size))
    tups = list(itertools.product(range(len(a5_irr)), repeat=2))
    oracle = oracles.product_fourier_bruteforce(f, [r.matrices for r in a5_irr.irreps], tups, digs)
    blocks = oracles.coefficient_blocks(fd)
    for t in tups:
        assert np.max(np.abs(blocks[t] - oracle[t])) <= 1e-12
    pg3 = ProductGroup(sl2_3, 2)
    g = np.random.default_rng(SEED).standard_normal(pg3.size)
    assert fx.product_fourier_forward(g, pg3, get_irreps(sl2_3, seed=SEED)).dense.dtype == np.complex128


@pytest.mark.parametrize("case", ["c3^4 k=2", "c3^4 k=4", "sl2_3^3 k=2"])
def test_low_weight_transforms_match_full_tensor_marginals(case, c3, c3_irr, sl2_3):
    # one tensor per top k-subset, read against the full transform: where a top
    # keeps an entry it equals the full tensor's entry with slot 0 off top, and
    # every weight-1..k entry is kept in exactly one top, no other entry in any
    g, s = (c3, c3_irr) if case.startswith("c3") else (sl2_3, get_irreps(sl2_3, seed=SEED))
    m, k = int(case[case.index("^") + 1]), int(case[-1])
    pg = ProductGroup(g, m)
    v = np.random.default_rng(SEED).random(pg.size) + 1e-3
    p = fx.make_dist(pg, v / v.sum())
    full = fx.product_fourier_forward(p.values, pg, s).dense
    got = list(fx._low_weight_transforms(p, k, s))
    assert [top for top, _ in got] == list(itertools.combinations(range(m), k))
    kept = np.zeros(full.shape, dtype=int)
    for top, coeffs in got:
        # axis j holds coordinate m-1-j, so the sub-tensor's axes run down top as coeffs' do
        at = tuple(slice(None) if c in top else 0 for c in reversed(range(m)))
        live = coeffs != 0     # a random p has no coefficient that is exactly 0
        assert np.max(np.abs(coeffs - full[at])[live], initial=0.0) <= 1e-12
        kept[at] += live
    # slot 0 of every axis is the trivial irrep, so an entry's weight is the
    # number of axes where its slot is not 0
    nontrivial = (np.arange(s.order) != 0).astype(int)
    weight = sum(np.expand_dims(nontrivial, [a for a in range(m) if a != j]) for j in range(m))
    assert np.array_equal(kept, ((weight >= 1) & (weight <= k)).astype(int))


def test_product_function_factorizes(c3, c3_irr, a5, a5_irr):
    rng = np.random.default_rng(SEED)
    for g, s in ((c3, c3_irr), (a5, a5_irr)):
        n = g.order
        pg = ProductGroup(g, 2)
        fa, fb = rng.standard_normal(n), rng.standard_normal(n)
        fprod = np.zeros(pg.size)
        for x1 in range(n):
            for x0 in range(n):
                fprod[x0 + n * x1] = fa[x0] * fb[x1]
        blocks = oracles.coefficient_blocks(fx.product_fourier_forward(fprod, pg, s))
        ca = oracles.irrep_blocks(fx.product_fourier_forward(fa, g, s))
        cb = oracles.irrep_blocks(fx.product_fourier_forward(fb, g, s))
        for t in blocks:
            expected = np.kron(cb[t[1]], ca[t[0]])
            assert np.max(np.abs(blocks[t] - expected)) < 1e-10


def test_product_roundtrip_and_storage(a5, a5_irr):
    rng = np.random.default_rng(SEED)
    for m in (1, 2, 3):
        pg = ProductGroup(a5, m)
        f = rng.standard_normal(pg.size)
        fd = fx.product_fourier_forward(f, pg, a5_irr)
        assert fd.dense.size == pg.size
        back = fx.product_fourier_inverse(fd)
        assert np.max(np.abs(back - f)) < 1e-10


def test_inconsistent_base_set_rejected(a5, sl2_3):
    s_wrong = get_irreps(sl2_3, seed=SEED)
    with pytest.raises(fx.SpaceMismatchError):
        fx.product_fourier_forward(np.ones(3600) / 3600, ProductGroup(a5, 2), s_wrong)


# ---------------------------------------------------------------------------
# convolution


def test_delta_convolution(c6):
    s = get_irreps(c6, seed=SEED)
    for a, b in ((2, 5), (1, 1), (0, 4)):
        da, db = oracles.point_mass(c6, a), oracles.point_mass(c6, b)
        out = fx.convolve_direct(da, db)
        expected = oracles.point_mass(c6, int(c6.mul[a, b]))
        assert np.array_equal(out.values, expected.values)


def test_uniform_absorbs(a5, a5_irr):
    rng = np.random.default_rng(SEED)
    v = rng.random(60)
    p = fx.make_dist(a5, v / v.sum())
    u = fx.uniform(a5)
    for conv in (fx.convolve_direct, lambda x, y: fx.convolve_fourier(x, y, a5_irr)):
        out = conv(p, u)
        assert np.max(np.abs(out.values - u.values)) < 1e-12


def test_cyclic_convolution_matches_modular_oracle(c6):
    rng = np.random.default_rng(SEED)
    pv, qv = rng.random(6), rng.random(6)
    pv, qv = pv / pv.sum(), qv / qv.sum()
    p, q = fx.make_dist(c6, pv), fx.make_dist(c6, qv)
    out = fx.convolve_direct(p, q)
    oracle = oracles.circular_convolve(pv, qv)
    assert np.max(np.abs(out.values - oracle)) < 1e-14


def test_engines_agree_on_alt5_squared(a5, a5_irr):
    pg = ProductGroup(a5, 2)
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        pv, qv = rng.random(pg.size), rng.random(pg.size)
        p = fx.make_dist(pg, pv / pv.sum())
        q = fx.make_dist(pg, qv / qv.sum())
        direct = fx.convolve_direct(p, q)
        fourier = fx.convolve_fourier(p, q, a5_irr)
        assert np.max(np.abs(direct.values - fourier.values)) < 1e-9


def test_convolution_coefficient_inequality(a5, a5_irr):
    # |(p*q)^(a)|_2^2 <= G^2 |p^(a)|_2^2 |q^(a)|_2^2
    rng = np.random.default_rng(SEED)
    g_size = 60.0
    for _ in range(20):
        pv, qv = rng.random(60), rng.random(60)
        p = fx.make_dist(a5, pv / pv.sum())
        q = fx.make_dist(a5, qv / qv.sum())
        conv = fx.convolve_direct(p, q)
        cp, cq, cc = (oracles.irrep_blocks(fx.product_fourier_forward(d.values, a5, a5_irr))
                      for d in (p, q, conv))
        for i in range(len(cp)):
            lhs = oracles.frobenius_norm_sq(cc[i])
            rhs = g_size**2 * oracles.frobenius_norm_sq(cp[i]) * oracles.frobenius_norm_sq(cq[i])
            assert lhs <= rhs + 1e-12


def test_identity_delta_under_fourier_engine(a5, a5_irr):
    rng = np.random.default_rng(SEED)
    v = rng.random(60)
    p = fx.make_dist(a5, v / v.sum())
    de = oracles.point_mass(a5, 0)
    out = fx.convolve_fourier(de, p, a5_irr)
    assert np.max(np.abs(out.values - p.values)) < 1e-12


def test_space_mismatch_rejected(a5, c6):
    with pytest.raises(fx.SpaceMismatchError):
        fx.convolve_direct(fx.uniform(a5), fx.uniform(c6))


def test_base_group_and_first_power_are_one_space(a5, a5_irr):
    c60 = groups.build_group(groups.cyclic(60))
    h1 = ProductGroup(a5, 1)
    assert groups.same_space(a5, h1) and groups.same_space(h1, a5)
    assert not groups.same_space(a5, c60) and not groups.same_space(h1, ProductGroup(a5, 2))
    rng = np.random.default_rng(SEED)
    v, w = rng.dirichlet(np.ones(60)), rng.dirichlet(np.ones(60))
    p = fx.make_dist(a5, v)
    for conv in (fx.convolve_direct, lambda x, y: fx.convolve_fourier(x, y, a5_irr)):
        mixed = conv(p, fx.make_dist(h1, w))
        assert np.array_equal(mixed.values, conv(p, fx.make_dist(a5, w)).values)
        with pytest.raises(fx.SpaceMismatchError):
            conv(p, fx.make_dist(c60, w))
        with pytest.raises(fx.SpaceMismatchError):
            conv(p, fx.uniform(ProductGroup(a5, 2)))


def test_convolve_on_dists_needs_irreps(c4, a5, sl2_3):
    # convolve takes convolve_fourier at every size: on 16 states as on A5^3
    for pg in (ProductGroup(c4, 2), ProductGroup(a5, 3)):
        p = fx.uniform(pg)
        with pytest.raises(ValueError, match="irreps"):
            fx.convolve(p, p)
    big = fx.uniform(ProductGroup(sl2_3, 4))
    with pytest.raises(ValueError, match="13824x13824 index table; use convolve_fourier"):
        fx.convolve_direct(big, big)


def test_convolve_on_one_state_at_any_arity(irreps_cache):
    # a power of the trivial group is one state at every arity, also past the 32 axes NumPy's
    # iterators take, so convolve_fourier answers it without a transform
    g = groups.build_group(groups.cyclic(1))
    for m in (1, 33, 64):
        u = fx.uniform(ProductGroup(g, m))
        assert fx.convolve(u, u, irreps_cache(g)).values.tolist() == [1.0]


@pytest.mark.parametrize("m", [1, 2, 4])
def test_point_mass_squares_to_itself(sl2_3, m):
    # SL(2,3)'s synthesis rounds the exact zeros of e * e to about -5 eps, below make_dist's
    # -1e-15 for a caller's values (with the CLI's seed-0 irreps); the convolution absorbs its
    # own rounding
    s = get_irreps(sl2_3, seed=0)
    e = oracles.point_mass(sl2_3 if m == 1 else ProductGroup(sl2_3, m))
    got = fx.convolve(e, e, s)
    assert got.values.min() >= 0.0 and np.allclose(got.values, e.values, rtol=0, atol=1e-14)
    if m <= 2:
        direct = fx.convolve_direct(e, e)
        assert np.array_equal(direct.values, e.values)
        assert np.allclose(got.values, direct.values, rtol=0, atol=1e-14)
    # rounding grows with the steps: the second square is within 1.2e-14 on SL(2,3)^4
    final, log = boost_pipeline(e, "self-square", 2, 0.0, s)
    assert len(log.records) == 3 and np.allclose(final.values, e.values, rtol=0, atol=1e-13)


def test_negative_values_beyond_rounding_still_fail(sl2_3):
    s = get_irreps(sl2_3, seed=SEED)
    with pytest.raises(ValueError, match="negative probability -2e-15"):
        fx.make_dist(sl2_3, np.r_[1.0 + 2e-15, -2e-15, np.zeros(sl2_3.order - 2)])
    # a caller's coefficients of a function that dips to -1e-9 are refused on synthesis
    v = np.full(sl2_3.order, 1.0 / sl2_3.order)
    v[1], v[2] = -1e-9, v[2] + v[1] + 1e-9
    with pytest.raises(ValueError, match="negative probability"):
        fx.dist_from_fourier(fx.dist_fourier(fx.Dist(sl2_3, v), s), sl2_3)


def _random_pair(pg, seed=SEED):
    rng = np.random.default_rng(seed)
    return [fx.make_dist(pg, v / v.sum()) for v in (rng.random(pg.size), rng.random(pg.size))]


@pytest.mark.parametrize("group", ["a5", "sl2_3"])
def test_coefficient_product_matches_convolve_fourier(request, group):
    # a5^2 runs the real path, sl2_3^2 the complex one
    g = request.getfixturevalue(group)
    s = get_irreps(g, seed=SEED)
    pg = ProductGroup(g, 2)
    p, q = _random_pair(pg)
    fp, fq = fx.dist_fourier(p, s), fx.dist_fourier(q, s)
    assert fp.dense.dtype == (np.float64 if group == "a5" else np.complex128)
    for a, b, fa, fb in ((p, q, fp, fq), (p, p, fp, fp)):
        got = fx.convolve(fa, fb, s)
        assert isinstance(got, fx.FourierData) and got.arity == 2
        want = fx.dist_fourier(fx.convolve_fourier(a, b, s), s).dense
        assert np.max(np.abs(got.dense - want)) <= 1e-12
        # the definitional sum is independent of the block loop both share
        back = fx.dist_from_fourier(got, pg)
        assert np.max(np.abs(back.values - fx.convolve_direct(a, b).values)) <= 1e-12


def test_coefficient_chain_zeroes_rounding_level_blocks(sl2_3):
    # carried for 40 fresh copies, blocks that decay would reach subnormal
    # entries; those below eps/|G| times the mean value are zeroed instead.
    # SL(2,3) has two nontrivial 1-dim irreps r, r_bar, and only the tuples
    # (r, r_bar, r_bar, r) of the box keep radius 1, beside the trivial one.
    s = get_irreps(sl2_3, seed=SEED)
    box = nof.box_to_dist(nof.exact_s(sl2_3, 2))
    s_hat = x = fx.dist_fourier(box, s)
    for _ in range(39):
        x = fx.convolve(x, s_hat, s)
    live = np.abs(x.dense[x.dense != 0])
    assert live.min() >= np.finfo(np.float64).tiny
    norms = fx._block_norms_sq(x.dense, s)
    one_dim = [a for a in range(1, len(s)) if s.dims[a] == 1]
    assert len(one_dim) == 2
    r, r_bar = one_dim
    want = {(0, 0, 0, 0), (r, r_bar, r_bar, r), (r_bar, r, r, r_bar)}
    assert {tuple(int(a) for a in t[::-1]) for t in zip(*np.nonzero(norms))} == want
    assert norms[0, 0, 0, 0] == pytest.approx(box.size ** -2.0, rel=1e-12)


@pytest.fixture(scope="module")
def sl2_3_box(sl2_3):
    """SL(2,3)'s irreps and the SL(2,3)^4 box distribution."""
    return get_irreps(sl2_3, seed=SEED), nof.box_to_dist(nof.exact_s(sl2_3, 2))


def test_products_match_all_tuples_oracle_on_box(sl2_3_box):
    # skipping the tuples whose block norms put the product under the floor
    # changes no bit against the loop over every tuple
    s, box = sl2_3_box
    assert np.array_equal(fx.convolve(box, box, s).values,
                          oracles.convolve_all_tuples(box, box, s).values)
    s_hat = x = want = fx.dist_fourier(box, s)
    for _ in range(39):
        x, want = fx.convolve(x, s_hat, s), oracles.convolve_all_tuples(want, s_hat, s)
        assert np.array_equal(x.dense, want.dense)
        # the norms the product hands on agree with the ones read off its tensor
        norms = fx._block_norms_sq(x.dense, s)
        assert np.array_equal(x.block_norms_sq > 0, norms > 0)
        assert np.allclose(x.block_norms_sq, norms, rtol=1e-12, atol=0)


@pytest.mark.parametrize("group", ["a5", "sl2_3", "c12"])
def test_products_match_all_tuples_oracle_on_random_pairs(request, group):
    # a5^2 runs the real path, sl2_3^2 and c12^2 (one class of 144 tuples) the complex one
    g = request.getfixturevalue(group)
    s = get_irreps(g, seed=SEED)
    p, q = _random_pair(ProductGroup(g, 2))
    fp, fq = fx.dist_fourier(p, s), fx.dist_fourier(q, s)
    for a, b in ((p, q), (p, p)):
        got, want = fx.convolve_fourier(a, b, s), oracles.convolve_all_tuples(a, b, s)
        assert np.array_equal(got.values, want.values)
    for a, b in ((fp, fq), (fp, fp)):
        got, want = fx.convolve(a, b, s), oracles.convolve_all_tuples(a, b, s)
        assert np.array_equal(got.dense, want.dense)
    # an operand in Fortran order is read in C order, as every block view reads it
    fortran = fx.FourierData(s, 2, np.asfortranarray(fp.dense))
    assert np.array_equal(fx.convolve(fortran, fq).dense, fx.convolve(fp, fq).dense)


def test_box_product_multiplies_only_live_tuples(sl2_3_box, monkeypatch):
    s, box = sl2_3_box
    s_hat = fx.dist_fourier(box, s)
    seen = set()
    class_blocks = fx._class_blocks

    def counting_blocks(tuples, *layout):
        # norm-array indices: axis j holds coordinate m-1-j
        seen.update(tuple(int(a) for a in t[::-1]) for t in tuples)
        return class_blocks(tuples, *layout)

    monkeypatch.setattr(fx, "_class_blocks", counting_blocks)
    fx.convolve(s_hat, s_hat, s)
    assert seen == conjugate_tuples(s)


@pytest.mark.parametrize("group, arity, classes", [("c12", 4, 1), ("a5", 2, 16)])
def test_block_products_multiply_once_per_dimension_class(request, monkeypatch, group, arity,
                                                          classes):
    # a product makes one batched matmul per class of tuples with equal dims, then one per real
    # part for the batched norms, however many tuples a class holds: C12^4's 20,736 tuples of
    # 1 x 1 complex blocks are one class, A5^2's 25 real blocks sixteen
    g = request.getfixturevalue(group)
    s = get_irreps(g, seed=SEED)
    fp, fq = (fx.dist_fourier(d, s) for d in _random_pair(ProductGroup(g, arity)))
    fp.block_norms_sq, fq.block_norms_sq    # cached before the count starts
    calls, matmul = [], np.matmul

    def recording(a, b, **kwargs):
        calls.append((a.shape, b.shape))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    x = fx.convolve(fp, fq)
    parts = 2 if np.iscomplexobj(x.dense) else 1
    products = calls[:: 1 + parts]
    assert len(calls) == classes * (1 + parts)
    assert all(a == b and a[1] == a[2] for a, b in products)
    assert sum(a[0] for a, _ in products) == np.count_nonzero(x.block_norms_sq) == len(s) ** arity


def test_block_products_read_the_slot_layout_once_per_call(c12, monkeypatch):
    # C12^2 multiplies 144 blocks of 1 x 1: the slot offsets are computed once per product
    # and the irrep dims once per irrep set, not once per block
    counts = {"dims": 0, "offsets": 0}
    dims, slot_offsets = IrrepSet.dims.func, fx._slot_offsets

    def counting_dims(irreps):
        counts["dims"] += 1
        return dims(irreps)

    def counting_offsets(irreps):
        counts["offsets"] += 1
        return slot_offsets(irreps)

    cached = functools.cached_property(counting_dims)
    cached.__set_name__(IrrepSet, "dims")
    monkeypatch.setattr(IrrepSet, "dims", cached)
    monkeypatch.setattr(fx, "_slot_offsets", counting_offsets)
    s = dataclasses.replace(get_irreps(c12, seed=SEED))    # a fresh set, no dims cached
    fp, fq = (fx.dist_fourier(d, s) for d in _random_pair(ProductGroup(c12, 2)))
    fp.block_norms_sq, fq.block_norms_sq    # cached before the count starts
    counts["offsets"] = 0
    x = fx.convolve(fp, fq)
    assert np.count_nonzero(x.block_norms_sq) == 144
    assert counts == {"dims": 1, "offsets": 1}


def conjugate_tuples(s) -> set:
    """The tuples (a, a_bar, a_bar, a), a_bar the irrep of conjugate character."""
    chars = [np.trace(r.matrices, axis1=1, axis2=2) for r in s.irreps]
    bar = [next(b for b in range(len(s)) if np.allclose(chars[b], chars[a].conj()))
           for a in range(len(s))]
    return {(a, bar[a], bar[a], a) for a in range(len(s))}


def test_box_coefficients_live_only_on_conjugate_tuples(sl2_3_box):
    # each party's u_i^b is averaged over H, so the box transform vanishes
    # off (a, a_bar, a_bar, a); the rest is forward-transform rounding
    # (measured: live norms >= 1.0e-6, all others <= 6.4e-22)
    s, box = sl2_3_box
    s_hat = fx.dist_fourier(box, s)
    norms = np.sqrt(fx._block_norms_sq(s_hat.dense, s))
    live = norms > np.finfo(np.float64).eps * abs(s_hat.dense.flat[0])
    want = conjugate_tuples(s)
    assert len(want) == len(s) == 7
    assert {tuple(int(a) for a in t[::-1]) for t in np.argwhere(live)} == want


def test_block_norms_make_no_full_size_temporary(a5_irr):
    dense = np.random.default_rng(SEED).standard_normal((60,) * 3)
    tracemalloc.start()
    try:
        got = fx._block_norms_sq(dense, a5_irr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense.nbytes / 8
    # the same sums, in the same order, as one reduceat per axis over |dense|^2, fastest first
    want = np.abs(dense) ** 2
    for axis in reversed(range(3)):
        want = np.add.reduceat(want, fx._slot_offsets(a5_irr), axis=axis)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# synthesis from the live blocks


@pytest.fixture(scope="module")
def c5():
    return groups.build_group(groups.cyclic(5))


def _count_axis_passes(monkeypatch) -> list:
    calls = []
    axis_passes = fx._axis_passes

    def counting(*args, **kwargs):
        calls.append(1)
        return axis_passes(*args, **kwargs)

    monkeypatch.setattr(fx, "_axis_passes", counting)
    return calls


def _live_synthesis_error(x, space) -> float:
    """Largest |value| difference between dist_from_fourier of x and the dense synthesis,
    in units of 1/|G|."""
    got = fx.dist_from_fourier(x, space).values
    want = oracles.synthesize_dense(x.dense.reshape(-1), x.irreps, x.arity).real
    return float(np.max(np.abs(got - want))) * space.size


def _trivial_only(g, s, arity):
    """The coefficients of the uniform distribution on H^arity, exactly 0 off the trivial entry."""
    dense = np.zeros((g.order,) * arity)
    dense.flat[0] = float(g.order) ** -arity
    return fx.FourierData(s, arity, dense)


@pytest.mark.parametrize("group, t_max", [("a5", 7), ("sl2_3", 12), ("c5", 7)])
def test_live_synthesis_matches_dense_on_box_chains(request, monkeypatch, group, t_max):
    # A5 runs the real path, SL(2,3) the complex one and C5 has only 1-dim irreps; in each
    # the box's live tuples (a, a_bar, a_bar, a) have coordinate-0 irreps of total d^2 = n
    g = request.getfixturevalue(group)
    s = get_irreps(g, seed=SEED)
    space = ProductGroup(g, 4)
    s_hat = x = fx.dist_fourier(nof.box_to_dist(nof.exact_s(g, 2)), s)
    calls = _count_axis_passes(monkeypatch)
    for _ in range(2, t_max + 1):
        x = fx.convolve(x, s_hat, s)
        before = len(calls)
        assert _live_synthesis_error(x, space) <= 1e-12
        assert len(calls) == before + 1    # the oracle's, none in dist_from_fourier


@pytest.mark.parametrize("arity", [1, 2])
def test_live_synthesis_with_only_the_trivial_block(a5, a5_irr, arity):
    # uniform * p in coefficients, uniform's tensor zero off its trivial entry; arity 1 takes
    # the dense path, arity 2 the live one
    pg = ProductGroup(a5, arity)
    p, _ = _random_pair(pg)
    x = fx.convolve(_trivial_only(a5, a5_irr, arity), fx.dist_fourier(p, a5_irr))
    assert np.count_nonzero(x.block_norms_sq) == 1 and x.block_norms_sq.flat[0] != 0
    assert _live_synthesis_error(x, pg) <= 1e-12
    assert np.max(np.abs(fx.dist_from_fourier(x, pg).values - 1 / pg.size)) <= 1e-12 / pg.size


def test_synthesis_with_every_block_live_stays_dense(a5, a5_irr):
    pg = ProductGroup(a5, 2)
    fp, fq = (fx.dist_fourier(d, a5_irr) for d in _random_pair(pg))
    x = fx.convolve(fp, fq)
    assert np.all(x.block_norms_sq != 0)
    assert np.array_equal(fx.dist_from_fourier(x, pg).values,
                          oracles.synthesize_dense(x.dense.reshape(-1), a5_irr, 2))


def test_synthesis_with_no_live_block_fails_make_dist(a5, a5_irr):
    with pytest.raises(ValueError, match="sum to 0.0"):
        fx.dist_from_fourier(fx.FourierData(a5_irr, 2, np.zeros((60, 60))), ProductGroup(a5, 2))


@pytest.mark.parametrize("tuple_", [(0, 0), (1, 2)])
def test_nan_block_stays_live(a5, a5_irr, monkeypatch, tuple_):
    # once in the live trivial block and once in an otherwise-dead block, on the live path
    # each time: a liveness test of norms > 0 would drop the second and return uniform values
    pg = ProductGroup(a5, 2)
    clean = _trivial_only(a5, a5_irr, 2)
    dense = clean.dense.copy()
    corner = tuple(fx._slot_offsets(a5_irr)[list(tuple_[::-1])])    # the block's (0, 0) entry
    dense[corner] = np.nan
    assert np.isnan(oracles.coefficient_block(dense, a5_irr.dims, tuple_)[0, 0])
    bad = fx.FourierData(a5_irr, 2, dense)
    calls = _count_axis_passes(monkeypatch)
    with pytest.raises(ValueError, match="nan"):
        fx.dist_from_fourier(bad, pg)
    with pytest.raises(ValueError, match="nan"):
        fx.dist_from_fourier(fx.convolve(bad, clean), pg)
    assert not calls
    block_products = fx._block_products

    def nan_products(dx, dy, nx, ny, s, out):
        norms = block_products(dx, dy, nx, ny, s, out)
        out[corner] = np.nan
        norms[tuple_[::-1]] = np.nan
        return norms

    monkeypatch.setattr(fx, "_block_products", nan_products)
    u = fx.uniform(pg)
    with pytest.raises(ValueError, match="nan"):
        fx.convolve_fourier(u, u, a5_irr)
    assert len(calls) == 1    # the forward transform's


@pytest.mark.parametrize("group, budget", [("a5", 2.125), ("sl2_3", 4.125)])
def test_live_synthesis_peak_memory(request, monkeypatch, group, budget):
    """Traced peak of dist_from_fourier on the box's square, in real arrays of |G| doubles:
    the values and one chunk of the stack, both complex on SL(2,3); the chunk goes before the
    real copy.  These budgets held a whole stack (2.010 and 4.048); with chunks of about 1/6
    it measures 1.171 and 3.004, which `test_advantage_curve_peak_memory` bounds."""
    g = request.getfixturevalue(group)
    s = get_irreps(g, seed=SEED)
    space = ProductGroup(g, 4)
    s_hat = fx.dist_fourier(nof.box_to_dist(nof.exact_s(g, 2)), s)
    x = fx.convolve(s_hat, s_hat)
    del s_hat
    calls = _count_axis_passes(monkeypatch)
    tracemalloc.start()
    try:
        fx.dist_from_fourier(x, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not calls
    assert peak / (space.size * 8) <= budget


def _coordinate0_sorted(live: np.ndarray) -> np.ndarray:
    return live[np.argsort(live[:, -1], kind="stable")]


@pytest.mark.parametrize("case", ["a5^4 box", "sl2_3^4 box", "a5^2 p, q", "a5^3 p, q"])
def test_chunked_stack_matches_one_chunk(request, monkeypatch, case):
    """`_live_passes` builds its stack one chunk of axis-0 rows at a time; every chunking gives
    the bits of one chunk (_STACK_SHARE 1).  The box's t-fold products, t = 2..4, run the real
    (A5) and complex (SL(2,3)) paths with a middle pass; the random two-operand products on H^2
    and H^3 have none, and take one random live tuple per coordinate-0 irrep, so that the stack
    fits one chunk.  Shares 6, 7 and n give chunks of n/6 rows, uneven ones and two rows each."""
    group, m = case.split("^")[0], int(case.split("^")[1][0])
    g = request.getfixturevalue(group)
    s = get_irreps(g, seed=SEED)
    if "box" in case:
        s_hat = x = fx.dist_fourier(nof.box_to_dist(nof.exact_s(g, 2)), s)
        products = []
        for _ in range(2, 5):
            x = fx.convolve(x, s_hat)
            products.append((x, _coordinate0_sorted(np.argwhere(x.block_norms_sq != 0))))
    else:
        x = fx.convolve(*(fx.dist_fourier(d, s) for d in _random_pair(ProductGroup(g, m))))
        rng = np.random.default_rng(SEED)
        live = [list(rng.integers(len(s), size=m - 1)) + [a] for a in range(len(s))]
        products = [(x, np.array(live))]
    syn = fx._stacked(s)[1]
    for x, live in products:
        assert np.square(s.dims)[live[:, -1]].sum() == g.order
        flat = x.dense.reshape(-1)
        monkeypatch.setattr(fx, "_STACK_SHARE", 1)
        want = fx._live_passes(flat, syn, s, m, live)
        for share in (6, 7, g.order):
            monkeypatch.setattr(fx, "_STACK_SHARE", share)
            assert np.array_equal(fx._live_passes(flat, syn, s, m, live), want), share


def test_self_square_synthesis_keeps_one_chunk(monkeypatch, a5_box):
    # the values overwrite the product they are synthesized from, so the stack is built whole
    # before they are written: a chunk bound of one axis-0 row changes no bit
    s, box = a5_box
    want = fx.convolve_fourier(box, box, s).values
    monkeypatch.setattr(fx, "_STACK_SHARE", box.space.base.order)
    assert np.array_equal(fx.convolve_fourier(box, box, s).values, want)


# ---------------------------------------------------------------------------
# the pruned forward transform of p * p


@pytest.fixture(scope="module")
def a5_box(a5, a5_irr):
    """A5's irreps and the A5^4 box distribution."""
    return a5_irr, nof.box_to_dist(nof.exact_s(a5, 2))


def _pruning_calls(monkeypatch) -> list:
    """(floor, norms) of every `_axis_passes` call that is given a floor."""
    calls = []
    axis_passes = fx._axis_passes

    def recording(*args, **kwargs):
        out = axis_passes(*args, **kwargs)
        if args[5:] and args[5] is not None:
            calls.append((args[5], out[1]))
        return out

    monkeypatch.setattr(fx, "_axis_passes", recording)
    return calls


@pytest.mark.parametrize("case", ["a5 box", "a5 box square", "a5 box-uniform mixture", "c5 box"])
def test_pruned_self_products_match_all_tuples_oracle(request, monkeypatch, a5_box, case):
    # the live synthesis is the oracle's too (the dense one differs in the last bits on A5^4);
    # the products and the forward are all-tuples and dense there
    if case == "c5 box":
        c5 = request.getfixturevalue("c5")
        s, x = get_irreps(c5, seed=SEED), nof.box_to_dist(nof.exact_s(c5, 2))
    else:
        s, x = a5_box
        if case == "a5 box square":
            x = fx.convolve_fourier(x, x, s)
        elif case == "a5 box-uniform mixture":
            x = fx.make_dist(x.space, 0.5 * x.values + 0.5 / x.size)
    calls = _pruning_calls(monkeypatch)
    got = fx.convolve_fourier(x, x, s)
    assert len(calls) == 1 and np.count_nonzero(calls[0][1]) < calls[0][1].size
    want = oracles.convolve_all_tuples(x, x, s, live_synthesis=True)
    assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("group", ["a5", "sl2_3"])
def test_two_operand_products_match_all_tuples_oracle(request, monkeypatch, group):
    # A5^3 real, SL(2,3)^3 complex; two operands are not pruned, one random operand prunes
    # nothing
    g = request.getfixturevalue(group)
    s = get_irreps(g, seed=SEED)
    p, q = _random_pair(ProductGroup(g, 3))
    calls = _pruning_calls(monkeypatch)
    for a, b in ((p, q), (p, p)):
        assert np.array_equal(fx.convolve_fourier(a, b, s).values,
                              oracles.convolve_all_tuples(a, b, s).values)
    assert len(calls) == 1 and np.all(calls[0][1] != 0)


@pytest.mark.parametrize("irreps_and_box", ["a5_box", "sl2_3_box"])
def test_pruned_tuples_fail_the_block_products_test(request, monkeypatch, irreps_and_box):
    # every tuple the forward dropped is one `_block_products` would skip on the dense forward's
    # norms, and every kept tuple's norm is the dense one, bit for bit
    s, box = request.getfixturevalue(irreps_and_box)
    calls = _pruning_calls(monkeypatch)
    fx.convolve_fourier(box, box, s)
    (floor, norms), = calls
    dense = fx._forward(box.values, s, box.space.arity)
    want = fx._block_norms_sq(dense, s)
    final = np.finfo(np.float64).eps * abs(dense.flat[0] * dense.flat[0])
    assert floor <= final
    dropped = norms == 0
    assert np.count_nonzero(~dropped) == len(s) ** 2    # under the kept (a, a_bar, a_bar)
    assert np.all(box.size * np.sqrt(want[dropped]) * np.sqrt(want[dropped]) * (1 + 1e-9) <= final)
    assert np.array_equal(norms[~dropped], want[~dropped])


def test_pruning_floor_above_the_product_floor_raises(monkeypatch, sl2_3_box):
    s, box = sl2_3_box
    axis_passes = fx._axis_passes

    def doubled(t, mat, m, bufs=None, s=None, floor=None):
        return axis_passes(t, mat, m, bufs, s, None if floor is None else 2 * floor)

    monkeypatch.setattr(fx, "_axis_passes", doubled)
    with pytest.raises(fx.BoundViolation, match="pruning floor"):
        fx.convolve_fourier(box, box, s)


def _forward_matmuls(monkeypatch) -> list:
    """The operand shapes and the output of every np.matmul inside an `_axis_passes` call
    given a floor, in the order of the calls (on the pool, the order of a pass's calls)."""
    shapes, pruning = [], [False]
    matmul, axis_passes = np.matmul, fx._axis_passes

    def recording_matmul(a, b, **kwargs):
        if pruning[0]:
            shapes.append((a.shape, b.shape, kwargs.get("out")))
        return matmul(a, b, **kwargs)

    def recording_passes(*args, **kwargs):
        pruning[0] = len(args) > 5 and args[5] is not None
        try:
            return axis_passes(*args, **kwargs)
        finally:
            pruning[0] = False

    monkeypatch.setattr(np, "matmul", recording_matmul)
    monkeypatch.setattr(fx, "_axis_passes", recording_passes)
    return shapes


def test_pruned_last_pass_transforms_only_kept_rows(monkeypatch, a5_box):
    # the rows of the kept (a, a_bar, a_bar), 9.8% of the 216,000, summed over the last pass's
    # GEMM pieces (its trailing matrix-by-matrix calls; earlier passes multiply stacks)
    s, box = a5_box
    shapes = _forward_matmuls(monkeypatch)
    for workers in (1, 2):
        monkeypatch.setattr(fx, "_WORKERS", workers)
        monkeypatch.setattr(fx, "_pool", None)
        shapes.clear()
        try:
            fx.convolve_fourier(box, box, s)
        finally:
            if fx._pool is not None:
                fx._pool[1].shutdown()
        last = list(itertools.takewhile(lambda c: len(c[0]) == len(c[1]) == 2, shapes[::-1]))
        assert len(last) == workers and all(b == (60, 60) for _, b, _ in last)
        assert sum(a[0] for a, _, _ in last) <= sum(d**6 for d in s.dims) == 21_180


def test_unpruned_passes_are_one_matmul_each(monkeypatch, a5, a5_irr):
    monkeypatch.setattr(fx, "_WORKERS", 1)
    p, _ = _random_pair(ProductGroup(a5, 3))
    shapes = _forward_matmuls(monkeypatch)
    fx.convolve_fourier(p, p, a5_irr)
    assert [(a, b) for a, b, _ in shapes] == [
        ((60, 60), (1, 60, 3600)), ((60, 60), (60, 60, 60)), ((3600, 60), (60, 60))]


def _root(a: np.ndarray) -> np.ndarray:
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("pool_min", [0, fx._POOL_MIN])
def test_split_passes_tile_the_tensor_once(monkeypatch, a5, a5_irr, pool_min):
    """On two workers each dense pass is two matmuls whose outputs cover the pass's buffer
    exactly once: pass 0 splits its GEMM's columns, pass 1 its batch, pass 2 its GEMM's rows.
    A5^3 has 216,000 entries, under _POOL_MIN: at the real threshold each pass stays whole."""
    monkeypatch.setattr(fx, "_WORKERS", 2)
    monkeypatch.setattr(fx, "_POOL_MIN", pool_min)
    monkeypatch.setattr(fx, "_pool", None)
    p, _ = _random_pair(ProductGroup(a5, 3))
    calls = _forward_matmuls(monkeypatch)
    try:
        fx.convolve_fourier(p, p, a5_irr)
    finally:
        if fx._pool is not None:
            fx._pool[1].shutdown()
    passes = [[out for _, _, out in group]
              for _, group in itertools.groupby(calls, key=lambda c: id(_root(c[2])))]
    assert [len(outs) for outs in passes] == [2 if pool_min == 0 else 1] * 3
    for outs in passes:
        buf = _root(outs[0])
        cover = np.zeros(buf.size, dtype=np.int64)
        for out in outs:
            offset = (out.ctypes.data - buf.ctypes.data) // out.itemsize
            view = np.lib.stride_tricks.as_strided(
                cover[offset:], out.shape, [st // out.itemsize * 8 for st in out.strides])
            view += 1
        assert buf.size == 60**3 and np.all(cover == 1)


def test_checks_read_each_array_once(monkeypatch, a5, sl2_3):
    """Every full-size reduction is one `_run` over the array's size: `make_dist` reads an
    unclamped array once, for its least value and its sum (twice once a value is clamped), and
    a k-marginal walk and an exact count scan each read every marginal once, for its check or
    total and its extremes."""
    sizes, run = [], fx._run
    monkeypatch.setattr(fx, "_run", lambda jobs, size: sizes.append(size) or run(jobs, size))
    space = ProductGroup(a5, 3)
    v = np.random.default_rng(SEED).random(space.size)
    p = fx.make_dist(space, v / v.sum())
    assert sizes == [space.size]
    sizes.clear()
    v = p.values.copy()
    v[1] += v[0]
    v[0] = -1e-17
    fx.make_dist(space, v)
    assert sizes == [space.size] * 2
    sizes.clear()
    eps_k_uniform(p, 2)
    assert sizes.count(a5.order**2) == 3    # C(3, 2) marginals
    counts = nof.exact_s(sl2_3, 2).counts
    sizes.clear()
    eps_k_uniform_counts(counts, sl2_3.order, 4, 3)
    assert sizes.count(sl2_3.order**3) == 4    # C(4, 3) marginals


@pytest.mark.parametrize("group, operands, budget", [
    ("a5", "box", 2.061), ("sl2_3", "box", 5.027), ("a5", "p, q", 3.31), ("sl2_3", "p, q", 7.36),
    ("c30", "p, q on H^4", 10.1), ("c12", "p, q on H^5", 13.8),
])
def test_convolve_fourier_peak_memory(request, group, operands, budget):
    """Traced peak of convolve_fourier in real arrays of |G| doubles, the least of three calls
    (the first ones also fill caches that outlive them).  A box self-product on H^4 keeps the
    unpruned forward's peak (2.0608 and 5.0261 before the pruning, rounded up); two random
    operands on H^3 stay under the 3.31 and 7.36 measured when the product took a third buffer.
    On C30^4 and C12^5 every block is 1 x 1, so the block norms are |G| entries each: the
    product reads its tuples in chunks of axis-0 rows, and the synthesis counts live tuples
    without listing them (10.08 and 13.78 measured; 20.25 and 22.13 listing all at once)."""
    if operands == "box":
        s, p = request.getfixturevalue(f"{group}_box")
        q = p
    else:
        g = request.getfixturevalue(group)
        s = get_irreps(g, seed=SEED)
        p, q = _random_pair(ProductGroup(g, int(operands[-1]) if "^" in operands else 3))
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            fx.convolve_fourier(p, q, s)
            peaks.append(tracemalloc.get_traced_memory()[1] / (p.size * 8))
        finally:
            tracemalloc.stop()
    assert min(peaks) <= budget


def test_coefficient_product_rejects_bad_operands(a5, a5_irr, sl2_3, irreps_cache):
    pg = ProductGroup(a5, 2)
    p, q = _random_pair(pg)
    fp = fx.dist_fourier(p, a5_irr)
    same_basis = irreps_cache(a5, seed=SEED)   # another object, equal matrices
    assert same_basis is not a5_irr
    fx.convolve(fp, fx.dist_fourier(q, same_basis), a5_irr)
    with pytest.raises(TypeError):
        fx.convolve(fp, q, a5_irr)
    with pytest.raises(TypeError):
        fx.convolve(p, fp, a5_irr)
    with pytest.raises(fx.SpaceMismatchError):
        fx.convolve(fp, fx.dist_fourier(fx.uniform(ProductGroup(a5, 3)), a5_irr), a5_irr)
    other_basis = get_irreps(a5, seed=SEED + 1)
    assert not np.array_equal(other_basis.irreps[1].matrices, a5_irr.irreps[1].matrices)
    with pytest.raises(fx.SpaceMismatchError):
        fx.convolve(fp, fx.dist_fourier(q, other_basis))
    with pytest.raises(fx.SpaceMismatchError):
        fx.dist_from_fourier(fp, ProductGroup(sl2_3, 2))


# ---------------------------------------------------------------------------
# marginals


def test_marginal_of_uniform_is_uniform(a5):
    pg = ProductGroup(a5, 3)
    m = oracles.marginalize(fx.uniform(pg), (0, 2))
    assert np.max(np.abs(m.values - 1.0 / m.size)) < 1e-15


def test_marginal_of_point_mass(a5):
    pg = ProductGroup(a5, 2)
    idx = groups.tuple_to_flat(pg, (7, 11))
    d = oracles.point_mass(pg, idx)
    m0 = oracles.marginalize(d, (0,))
    m1 = oracles.marginalize(d, (1,))
    assert m0.values[7] == 1.0 and m1.values[11] == 1.0


def test_marginalization_commutes_with_convolution(a5, a5_irr):
    pg = ProductGroup(a5, 3)
    rng = np.random.default_rng(SEED)
    pv, qv = rng.random(pg.size), rng.random(pg.size)
    p = fx.make_dist(pg, pv / pv.sum())
    q = fx.make_dist(pg, qv / qv.sum())
    conv = fx.convolve_fourier(p, q, a5_irr)
    for subset in ((0,), (1, 2), (0, 2)):
        lhs = oracles.marginalize(conv, subset)
        rhs = fx.convolve_direct(oracles.marginalize(p, subset),
                                 oracles.marginalize(q, subset))
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-10


def test_bad_subset_rejected(a5):
    pg = ProductGroup(a5, 2)
    u = fx.uniform(pg)
    for bad in ((0, 0), (2,), (-1,)):
        with pytest.raises(ValueError, match="bad coordinate subset"):
            oracles.marginalize(u, bad)
    # the empty marginal is rejected by its space, H^0, before any values are read
    with pytest.raises(groups.GroupConstructionError, match="arity must be >= 1"):
        oracles.marginalize(u, ())


# ---------------------------------------------------------------------------
# low-weight coefficients


def test_low_weight_matches_full_transform(a5, a5_irr):
    pg = ProductGroup(a5, 3)
    rng = np.random.default_rng(SEED)
    v = rng.random(pg.size)
    p = fx.make_dist(pg, v / v.sum())
    full = oracles.coefficient_blocks(fx.product_fourier_forward(p.values, pg, a5_irr))
    low = oracles.low_weight_blocks(p, 1, a5_irr)
    assert set(low) == {t for t in full if sum(a != 0 for a in t) == 1}
    for t, mat in low.items():
        assert np.max(np.abs(mat - full[t])) < 1e-10


def test_low_weight_rejects_k_outside_1_to_m(a5, a5_irr):
    u = fx.uniform(ProductGroup(a5, 2))
    for k in (0, 3):
        with pytest.raises(ValueError, match=r"k must lie in \[1, 2\]"):
            fx.max_low_weight_norm(u, k, a5_irr)


def test_low_weight_of_uniform_vanishes(a5, a5_irr):
    u = fx.uniform(ProductGroup(a5, 3))
    assert fx.max_low_weight_norm(u, 2, a5_irr) <= 1e-15
    assert oracles.max_block_norm(oracles.low_weight_blocks(u, 2, a5_irr)) <= 1e-15


def perturbed_a5_box(a5, delta=1e-9):
    """The A5^4 box distribution moved delta toward the identity point mass,
    as `groupmix experiment repair` builds its input."""
    p0 = nof.box_to_dist(nof.exact_s(a5, 2))
    v = (1 - delta) * p0.values
    v[0] += delta
    return fx.make_dist(p0.space, v)


@pytest.mark.parametrize(
    "case", ["a5^2 k=1", "a5^2 k=2", "c3^3 k=2", "sl2_3^2 k=1", "a5^4 box k=3"]
)
def test_max_low_weight_norm_matches_block_dict(case, a5, c3, sl2_3):
    # the dense block-norm maximum against the maximum over the dict of
    # copied low-weight blocks, each normed entry by entry
    g = {"a5": a5, "c3": c3, "sl2_3": sl2_3}[case.split("^")[0]]
    s, k = get_irreps(g, seed=SEED), int(case[-1])
    if "box" in case:
        p = perturbed_a5_box(a5)
    else:
        pg = ProductGroup(g, int(case[case.index("^") + 1]))
        v = np.random.default_rng(SEED).random(pg.size)
        p = fx.make_dist(pg, v / v.sum())
    got = fx.max_low_weight_norm(p, k, s)
    ref = oracles.max_block_norm(oracles.low_weight_blocks(p, k, s))
    assert ref > 0
    assert abs(got - ref) <= 1e-15 * ref


@pytest.mark.parametrize("group", ["sl2_3", "a5"])
def test_base_group_is_its_first_power(request, group):
    # H and H^1 hold the same values, so every function on a Dist gives the
    # same result on both: the arithmetic is the same, so equality is exact
    g = request.getfixturevalue(group)
    s = get_irreps(g, seed=SEED)
    rng = np.random.default_rng(SEED)
    # eps_1 <= 1e-3 < 1/|H|, flatten_bound_check's precondition at k = 1
    v = 1e-3 * rng.dirichlet(np.ones(g.order)) + (1 - 1e-3) / g.order
    w = rng.dirichlet(np.ones(g.order))
    for space in (g, ProductGroup(g, 1)):
        assert space.base is g and space.arity == 1 and space.size == g.order
    (p, q), (p1, q1) = ([fx.make_dist(sp, x) for x in (v, w)] for sp in (g, ProductGroup(g, 1)))

    assert np.array_equal(oracles.marginalize(p, (0,)).values,
                          oracles.marginalize(p1, (0,)).values)
    assert eps_k_uniform(p, 1) == eps_k_uniform(p1, 1)
    assert fx.max_low_weight_norm(p, 1, s) == fx.max_low_weight_norm(p1, 1, s)
    assert rep_bound_check(p, s) == rep_bound_check(p1, s)
    (r, cert), (r1, cert1) = repair(p, 1, s), repair(p1, 1, s)
    assert np.array_equal(r.values, r1.values) and cert == cert1
    d = quasirandomness_degree(s)
    assert flatten_bound_check(p, 1, d, s) == flatten_bound_check(p1, 1, d, s)
    assert np.array_equal(fx.dist_fourier(p, s).dense, fx.dist_fourier(p1, s).dense)
    assert np.array_equal(fx.convolve_direct(p, q).values, fx.convolve_direct(p1, q1).values)
