from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from groupmix import fourier as fx
from groupmix import groups, nof
from groupmix.groups import ProductGroup
from groupmix.irreps import get_irreps
from groupmix.repair import (
    RepairInfeasibleError,
    low_part,
    repair,
    verify_repair,
)
from groupmix.uniformity import eps_k_uniform, eps_k_uniform_counts, is_k_uniform_fourier

import oracles

SEED = 2024


@pytest.fixture(scope="module")
def c3():
    return groups.build_group(groups.cyclic(3))


@pytest.fixture(scope="module")
def c3_irr(c3):
    return get_irreps(c3, seed=SEED)


@pytest.fixture(scope="module")
def c3_4(c3):
    return ProductGroup(c3, 4)


def perturbed(space, rng, delta):
    u = np.full(space.size, 1.0 / space.size)
    noise = rng.random(space.size)
    noise /= noise.sum()
    return fx.make_dist(space, (1 - delta) * u + delta * noise)


def test_low_part_of_uniform_vanishes(c3_4, c3_irr):
    ell = low_part(fx.uniform(c3_4), 2, c3_irr)
    assert np.max(np.abs(ell)) <= 1e-15


def test_low_part_of_exactly_k_uniform_vanishes(sl2_3, irreps_cache):
    p = nof.box_to_dist(nof.exact_s(sl2_3, 2))
    ell = low_part(p, 3, irreps_cache(sl2_3))
    assert np.max(np.abs(ell)) <= 1e-12


def test_low_part_zero_sum_and_subtraction(c3_4, c3_irr):
    rng = np.random.default_rng(SEED)
    p = perturbed(c3_4, rng, 1e-3)
    ell = low_part(p, 2, c3_irr)
    assert abs(float(ell.sum())) <= 1e-10
    # p - ell has no low-weight coefficients left
    residual = fx.Dist(c3_4, p.values - ell)
    assert oracles.max_block_norm(oracles.low_weight_blocks(residual, 2, c3_irr)) <= 1e-16


def test_low_part_sup_norm_bound(c3_4, c3_irr):
    # |ell|_inf <= (m |H|)^(2k) eps / |G| with eps the measured scale
    rng = np.random.default_rng(SEED)
    for delta in (1e-2, 1e-5, 1e-8):
        p = perturbed(c3_4, rng, delta)
        for k in (1, 2):
            ell = low_part(p, k, c3_irr)
            eps = p.size * oracles.max_block_norm(oracles.low_weight_blocks(p, k, c3_irr))
            bound = float(4 * 3) ** (2 * k) * eps / p.size
            assert np.max(np.abs(ell)) <= bound + 1e-15


def test_repair_identity_on_exactly_k_uniform(sl2_3, irreps_cache):
    p = nof.box_to_dist(nof.exact_s(sl2_3, 2))
    q, cert = repair(p, 3, irreps_cache(sl2_3), mode="adaptive")
    assert cert.beta == 0.0
    assert np.max(np.abs(q.values - p.values)) <= 1e-12


def test_repair_modes_on_perturbed_inputs(c3_4, c3_irr):
    rng = np.random.default_rng(SEED)
    for delta in (1e-4, 1e-6):
        p = perturbed(c3_4, rng, delta)
        for k in (1, 2):
            for mode in ("adaptive", "paper-formula"):
                q, cert = repair(p, k, c3_irr, mode=mode)
                assert cert.q_nonneg and cert.q_normalized
                assert cert.residual_ok
                assert cert.l1_within_bound
                ok, _ = is_k_uniform_fourier(q, k, c3_irr, tol=1e-12)
                assert ok
                assert eps_k_uniform(q, k).eps <= 1e-10
                assert cert.beta_adaptive <= cert.beta_paper


def test_adaptive_beta_is_minimal_feasible(c3_4, c3_irr):
    rng = np.random.default_rng(SEED)
    p = perturbed(c3_4, rng, 1e-3)
    q, cert = repair(p, 2, c3_irr, mode="adaptive")
    if cert.beta > 0:
        # any smaller mixing weight leaves a negative entry
        ell = low_part(p, 2, c3_irr)
        p_prime = p.values - ell
        smaller = (1 - 0.9 * cert.beta) * p_prime + 0.9 * cert.beta / p.size
        assert float(smaller.min()) < 0.0


def test_repair_infeasible_carries_eps(c3_4, c3_irr):
    # a large perturbation makes the paper-formula weight land at >= 1
    rng = np.random.default_rng(SEED)
    p = perturbed(c3_4, rng, 0.5)
    with pytest.raises(RepairInfeasibleError) as exc:
        repair(p, 2, c3_irr, mode="paper-formula")
    assert exc.value.eps_in > 0


def test_verify_repair_self_consistency(c3_4, c3_irr):
    rng = np.random.default_rng(SEED)
    p = perturbed(c3_4, rng, 1e-5)
    q, cert = repair(p, 2, c3_irr, mode="paper-formula")
    check = verify_repair(p, q, 2, c3_irr)
    assert check.eps_in == pytest.approx(cert.eps_in, rel=1e-12)
    assert check.l1_distance == pytest.approx(cert.l1_distance, rel=1e-12)
    assert check.residual_ok and check.q_nonneg and check.l1_within_bound


def test_verify_repair_against_uniform(c3_4, c3_irr):
    rng = np.random.default_rng(SEED)
    p = perturbed(c3_4, rng, 1e-2)
    u = fx.uniform(c3_4)
    cert = verify_repair(p, u, 2, c3_irr)
    assert cert.k_uniform_residual <= 1e-15
    assert cert.l1_distance == pytest.approx(float(np.sum(np.abs(p.values - u.values))))


def count_marginal_sums(monkeypatch) -> list[int]:
    """Patch `fourier._marginal_values` to count its calls; returns the one-item counter."""
    calls, inner = [0], fx._marginal_values

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(fx, "_marginal_values", counted)
    return calls


def test_integer_scans_sum_marginals_in_one_place(sl2_3, monkeypatch):
    # the box's exact scans and its identity-rate marginal all run `fourier._marginal_values`:
    # C(4, 3) 3-marginals, one 4-marginal for k = 4 and one for the rate
    calls = count_marginal_sums(monkeypatch)
    nof.verify_s_uniformity(sl2_3, 2)
    assert calls[0] == math.comb(4, 3) + 1 + 1
    calls[0] = 0
    eps_k_uniform_counts(nof.exact_s(sl2_3, 2).counts, sl2_3.order, 4, 2)
    assert calls[0] == math.comb(4, 2)


def bits(record) -> list[str]:
    # repr is exact for floats and tells -0.0 from 0.0, which == does not
    return [repr(getattr(record, f.name)) for f in dataclasses.fields(record)]


def fresh(p: fx.Dist) -> fx.Dist:
    return fx.make_dist(p.space, p.values.copy())


def test_repair_flow_walks_each_distribution_once(sl2_3, irreps_cache, monkeypatch):
    # the CLI's flow: repair walks p's k-marginals in its low part and q's in its certificate;
    # verify_repair and eps_k_uniform(q) read the memos
    m, k, s = 3, 2, irreps_cache(sl2_3)
    p = perturbed(ProductGroup(sl2_3, m), np.random.default_rng(SEED), 1e-3)
    calls = count_marginal_sums(monkeypatch)
    q, cert = repair(p, k, s)
    check = verify_repair(p, q, k, s)
    report = eps_k_uniform(q, k)
    assert calls[0] == 2 * math.comb(m, k)
    # each memo holds numbers only, C(m, k) pairs and one norm: no marginal outlives its walk
    for d in (p, q):
        memo = vars(d)["_k_memo"]
        assert set(memo) == {k} and set(memo[k]) == {"extremes", id(s)}
        extremes = memo[k]["extremes"]
        assert len(extremes) == math.comb(m, k)
        assert all(type(x) is float for pair in extremes.values() for x in pair)
        assert memo[k][id(s)][0] is s and type(memo[k][id(s)][1]) is float
    assert cert.residual_ok and check.residual_ok and report.eps <= 1e-10


def test_memo_reads_equal_fresh_walks(sl2_3, irreps_cache):
    # every field read from a memo has the bits of the same call on a Dist with no memo
    m, k, s = 3, 2, irreps_cache(sl2_3)
    p = perturbed(ProductGroup(sl2_3, m), np.random.default_rng(SEED), 1e-3)
    q, cert = repair(p, k, s)
    check = verify_repair(p, q, k, s)
    assert bits(cert) == bits(repair(fresh(p), k, s)[1])
    assert bits(check) == bits(verify_repair(fresh(p), fresh(q), k, s))
    for d in (p, q):
        assert bits(eps_k_uniform(d, k)) == bits(eps_k_uniform(fresh(d), k))
        assert repr(fx.max_low_weight_norm(d, k, s)) == repr(fx.max_low_weight_norm(fresh(d), k, s))


def test_verify_repair_rejects_another_space(sl2_3, irreps_cache):
    rng = np.random.default_rng(SEED)
    p = perturbed(ProductGroup(sl2_3, 3), rng, 1e-3)
    q = perturbed(ProductGroup(sl2_3, 2), rng, 1e-3)
    with pytest.raises(fx.SpaceMismatchError):
        verify_repair(p, q, 2, irreps_cache(sl2_3))


@pytest.mark.parametrize(
    "case, budget",
    [("a5^3 k=2", 2.5)] + [(f"a5^3 k=2 seed+{i}", 2.5) for i in (1, 2, 3)]
    + [("sl2_3^4 box k=2", 2.5), ("sl2_3^4 box k=3", 2.5)],
)
def test_repair_peak_memory(request, case, budget):
    """Traced peak of repair in real arrays of |G| doubles, the input excluded, the least of
    two calls (the first also fills caches that outlive it).  Beside p it holds one buffer for
    ell, p - ell and q, and the certificate's difference array, complex irreps (SL(2,3)) or
    not.  q's least entry lands at 0 give or take an ulp, so the four A5 seeds take the in-place
    clamp both ways."""
    group, k = case.split("^")[0], int(case.split("k=")[1][0])
    g = request.getfixturevalue(group)
    s = get_irreps(g, seed=SEED)
    if "box" in case:
        p0 = nof.box_to_dist(nof.exact_s(g, 2))
        v = (1 - 1e-9) * p0.values
        v[0] += 1e-9
        p = fx.make_dist(p0.space, v)
        del p0
    else:
        seed = SEED + int(case.partition("seed+")[2] or 0)
        p = perturbed(ProductGroup(g, 3), np.random.default_rng(seed), 1.0)
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            repair(p, k, s)
            peaks.append(tracemalloc.get_traced_memory()[1] / (p.size * 8))
        finally:
            tracemalloc.stop()
    assert min(peaks) <= budget


@pytest.mark.parametrize(
    "case, repair_budget, verify_budget",
    [("a5^3 k=2", 1.45, 0.45)] + [(f"a5^3 k=2 seed+{i}", 1.45, 0.45) for i in (1, 2, 3)]
    + [("sl2_3^4 box k=2", 1.25, 0.25), ("sl2_3^4 box k=3", 1.52, 0.52)],
)
def test_sliced_certificate_peak_memory(request, case, repair_budget, verify_budget):
    """The inputs of `test_repair_peak_memory`, whose test ids carry its looser budgets, held
    to the budgets of a certificate that sums |p - q| over slices of 2^16 entries: beside p,
    repair holds its one buffer and a slice, and verify_repair a slice, reading the low-weight
    norms from the memos repair left (with none, it also holds the low-weight transforms).
    Measured 1.306, 1.200 and 1.384 for repair and 0.305, 0.198 and 0.198 for verify_repair
    (0.306, 0.200 and 0.298 with no memo; 2.002 and 1.001 with one difference array of |G|
    entries)."""
    group, k = case.split("^")[0], int(case.split("k=")[1][0])
    g = request.getfixturevalue(group)
    s = get_irreps(g, seed=SEED)
    if "box" in case:
        p0 = nof.box_to_dist(nof.exact_s(g, 2))
        v = (1 - 1e-9) * p0.values
        v[0] += 1e-9
        p = fx.make_dist(p0.space, v)
        del p0
    else:
        seed = SEED + int(case.partition("seed+")[2] or 0)
        p = perturbed(ProductGroup(g, 3), np.random.default_rng(seed), 1.0)
    q = repair(p, k, s)[0]
    for run, budget in ((lambda: repair(p, k, s), repair_budget),
                        (lambda: verify_repair(p, q, k, s), verify_budget)):
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] / (p.size * 8))
            finally:
                tracemalloc.stop()
        assert min(peaks) <= budget


@pytest.mark.parametrize("group, budget", [("a5", 2.05), ("sl2_3", 5.15)])
def test_low_data_at_k_equal_m_peak_memory(request, group, budget):
    """Traced peak of `low_part` at k = m = 3 in real arrays of |G| doubles, the input
    excluded, the least of two calls.  The one top's inverse runs in the forward's coefficient
    tensor and one more buffer, both complex on SL(2,3), which then takes ell's real copy.
    Measured 2.035 and 5.114-5.119 (3.019 and 6.116 with two fresh buffers for the inverse)."""
    g = request.getfixturevalue(group)
    s = get_irreps(g, seed=SEED)
    p = perturbed(ProductGroup(g, 3), np.random.default_rng(SEED), 1.0)
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            low_part(p, 3, s)
            peaks.append(tracemalloc.get_traced_memory()[1] / (p.size * 8))
        finally:
            tracemalloc.stop()
    assert min(peaks) <= budget


def test_verify_repair_flags_negative_entry(c3_4, c3_irr):
    p = fx.uniform(c3_4)
    bad_vals = np.full(c3_4.size, 1.0 / c3_4.size)
    bad_vals[0] = -1e-3
    bad_vals[1] += 1e-3 + 1.0 / c3_4.size   # keep the total at 1
    bad = fx.Dist(c3_4, bad_vals)   # bypasses ingestion on purpose
    cert = verify_repair(p, bad, 1, c3_irr)
    assert not cert.q_nonneg


def test_certificate_serialization(tmp_path, c3_4, c3_irr):
    rng = np.random.default_rng(SEED)
    p = perturbed(c3_4, rng, 1e-5)
    q, cert = repair(p, 1, c3_irr)
    path = tmp_path / "cert.txt"
    path.write_text(cert.to_text())
    text = path.read_text()
    assert "beta_paper" in text and "l1_within_bound True" in text


def test_repair_rejects_bad_mode(c3_4, c3_irr):
    with pytest.raises(ValueError, match="mode"):
        repair(fx.uniform(c3_4), 1, c3_irr, mode="magic")


@pytest.mark.parametrize("group, m, k", [("c3", 4, 2), ("sl2_3", 2, 1), ("a5", 3, 2), ("c3", 4, 4)],
                         ids=["c3^4", "sl2_3^2", "a5^3 k=2", "c3^4 k=4"])
def test_low_part_equals_masked_full_transform(request, group, m, k):
    # subset-marginal route against the full transform with every weight-0
    # and weight->k block zeroed: at k < m the subsets are summed on several
    # top k-subsets, at k = m on the one that is the whole tensor
    g = request.getfixturevalue(group)
    space, s = ProductGroup(g, m), get_irreps(g, seed=SEED)
    p = perturbed(space, np.random.default_rng(SEED), 0.3)
    full = fx.product_fourier_forward(p.values, space, s)
    # slot 0 of every axis is the trivial irrep, so an entry's weight is the
    # number of axes where its slot is not 0
    nontrivial = (np.arange(s.order) != 0).astype(int)
    weight = sum(np.expand_dims(nontrivial, [a for a in range(space.arity) if a != j])
                 for j in range(space.arity))
    masked = np.where((weight >= 1) & (weight <= k), full.dense, 0.0)
    expected = fx.product_fourier_inverse(fx.FourierData(s, space.arity, masked))
    assert np.max(np.abs(low_part(p, k, s) - expected)) <= 1e-12


def test_residuals_match_block_dict_on_perturbed_a5_box(a5):
    # the certificates' dense low-weight norms against the dict of copied
    # blocks, on the input `groupmix experiment repair --group a5` builds
    s = get_irreps(a5, seed=SEED)
    p0 = nof.box_to_dist(nof.exact_s(a5, 2))
    p = fx.make_dist(p0.space, (1 - 1e-9) * p0.values + 1e-9 * oracles.point_mass(p0.space, 0).values)
    del p0
    q, cert = repair(p, 3, s)
    check = verify_repair(p, q, 3, s)
    ref_p = oracles.max_block_norm(oracles.low_weight_blocks(p, 3, s))
    ref_q = oracles.max_block_norm(oracles.low_weight_blocks(q, 3, s))
    assert ref_p > 0 and ref_q > 0
    for c in (cert, check):
        assert abs(c.eps_in - p.size * ref_p) <= 1e-15 * p.size * ref_p
        assert abs(c.k_uniform_residual - ref_q) <= 1e-15 * ref_q
