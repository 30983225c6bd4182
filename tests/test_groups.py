from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from groupmix import groups
from groupmix.groups import (
    GroupConstructionError,
    ProductGroup,
    build_group,
    flat_to_tuple,
    tuple_to_flat,
    verify_group,
)

import oracles


def test_cyclic_modular_addition(c6):
    assert c6.order == 6
    assert c6.mul[2, 5] == 1


@pytest.mark.parametrize("q,expected", [(2, 6), (3, 24), (5, 120), (7, 336), (13, 2184)])
def test_sl2_order_matches_formula_and_enumeration(q, expected):
    g = build_group(groups.sl2(q))
    assert g.order == q * (q * q - 1) == expected
    if q <= 5:
        assert oracles.sl2_count_bruteforce(q) == g.order


def test_alt5_order():
    g = build_group(groups.alt5())
    assert g.order == 60
    assert oracles.even_permutations_count(5) == 60


def test_identity_at_index_zero(sl2_3, sl2_5, a5, c4, c6):
    for g in (sl2_3, sl2_5, a5, c4, c6):
        n = g.order
        assert np.array_equal(g.mul[0], np.arange(n))
        assert np.array_equal(g.mul[:, 0], np.arange(n))


def test_sl2_identity_label(sl2_5):
    # element 0 of SL(2,5) is the identity matrix [[1,0],[0,1]]
    assert groups._sl2_elements(5)[0] == (1, 0, 0, 1)
    assert np.array_equal(sl2_5.mul[0], np.arange(sl2_5.order))
    assert sl2_5.inv[0] == 0


def test_nonprime_q_rejected():
    with pytest.raises(GroupConstructionError, match="prime"):
        build_group(groups.sl2(4))
    with pytest.raises(GroupConstructionError, match="prime"):
        groups.parse_group_spec("sl2:9")


def test_cyclic_requires_positive_order():
    with pytest.raises(GroupConstructionError):
        groups.cyclic(0)


def test_parse_group_spec():
    assert groups.parse_group_spec("cyclic:12") == groups.cyclic(12)
    assert groups.parse_group_spec("sl2:5") == groups.sl2(5)
    assert groups.parse_group_spec("a5") == groups.alt5()
    with pytest.raises(GroupConstructionError):
        groups.parse_group_spec("dihedral:8")
    with pytest.raises(GroupConstructionError, match="bad group parameter"):
        groups.parse_group_spec("cyclic:x")


def test_verify_group_passes_on_builtins(sl2_5, a5, c12):
    for g in (sl2_5, a5, c12):
        assert verify_group(g).all_passed


def test_verify_trivial_group():
    g = build_group(groups.cyclic(1))
    rep = verify_group(g)
    assert rep.all_passed and g.order == 1


def test_verify_detects_corruption(c6):
    mul = c6.mul.copy()
    mul[2, 3] = 0  # 2+3 is not 0 mod 6
    bad = groups.GroupTable(c6.spec, c6.order, mul, c6.inv.copy())
    assert not verify_group(bad).associativity_ok


def test_associativity_exact_on_sl2_7(sl2_7):
    assert verify_group(sl2_7).all_passed
    rng = np.random.default_rng(3)
    for _ in range(3):
        x, y = rng.integers(1, sl2_7.order, size=2)
        mul = sl2_7.mul.copy()
        mul[x, y] = mul[x, y - 1]
        assert not oracles.is_associative(mul)
        bad = groups.GroupTable(sl2_7.spec, sl2_7.order, mul, sl2_7.inv.copy())
        assert not verify_group(bad).associativity_ok


def test_every_generator_is_checked():
    # C2 x L5, L5 the loop below: identities and inverses (x x = e) hold,
    # the first generator (1, e) is in the nucleus, and L5 is no group
    loop = np.array(
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    )
    c2, l5 = np.arange(10) % 2, np.arange(10) // 2
    mul = ((c2[:, None] + c2[None, :]) % 2 + 2 * loop[l5[:, None], l5[None, :]]).astype(np.int32)
    g = groups.GroupTable(groups.cyclic(10), 10, mul, np.arange(10, dtype=np.int32))
    gens, _ = groups.generators(g)
    assert gens[0] == 1 and len(gens) > 1
    assert not oracles.is_associative(mul)
    rep = verify_group(g)
    assert rep.identity_ok and rep.inverse_ok and not rep.associativity_ok


def test_corrupted_sl2_13_fails_associativity():
    # one wrong entry among 2184^2: a scan of 10^6 random triples misses it
    g = build_group(groups.sl2(13))
    mul = g.mul.copy()
    mul[5, 7] = mul[5, 8]
    rep = verify_group(groups.GroupTable(g.spec, g.order, mul, g.inv.copy()))
    assert not rep.associativity_ok


@pytest.mark.parametrize(
    "fixture,expected",
    [("c12", ([1], 11)), ("a5", ([1, 3, 12], 7)), ("sl2_3", ([1, 2], 5)), ("sl2_7", ([1, 2], 13))],
)
def test_generators_reach_every_element_within_l(request, fixture, expected):
    g = request.getfixturevalue(fixture)
    gens, length = groups.generators(g)
    assert (gens.tolist(), length) == expected
    lengths = oracles.word_lengths(g.mul, gens.tolist())
    assert None not in lengths
    assert max(lengths[1:]) == length


def test_fingerprint_stable_and_distinct(a5, sl2_3):
    again = build_group(groups.alt5())
    assert again.fingerprint == a5.fingerprint
    assert a5.fingerprint != sl2_3.fingerprint


def test_fingerprint_covers_whole_table(c12):
    def table(mul):
        return groups.GroupTable(c12.spec, c12.order, mul, c12.inv.copy())

    changed = c12.mul.copy()
    changed.flat[100] = changed.flat[101]       # only past the first 64 entries
    assert table(c12.mul.copy()).fingerprint == c12.fingerprint
    assert table(changed).fingerprint != c12.fingerprint


def test_tuple_flat_basics(a5):
    pg = ProductGroup(a5, 4)
    assert tuple_to_flat(pg, (0, 0, 0, 0)) == 0
    assert tuple_to_flat(pg, (1, 0, 0, 0)) == 1
    assert tuple_to_flat(pg, (0, 1, 0, 0)) == 60
    with pytest.raises(ValueError):
        tuple_to_flat(pg, (60, 0, 0, 0))
    with pytest.raises(ValueError):
        flat_to_tuple(pg, pg.size)


def test_tuple_flat_roundtrip(a5):
    pg = ProductGroup(a5, 3)
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        t = tuple(rng.integers(0, 60, size=3))
        assert flat_to_tuple(pg, tuple_to_flat(pg, t)) == t


def test_product_mul_matches_coordinatewise(sl2_3):
    pg = ProductGroup(sl2_3, 3)
    rng = np.random.default_rng(11)
    xs = rng.integers(0, pg.size, size=10_000)
    ys = rng.integers(0, pg.size, size=10_000)
    zs = oracles.product_mul(sl2_3.mul, 3, xs, ys)
    for x, y, z in zip(xs, ys, zs):
        tx, ty = flat_to_tuple(pg, int(x)), flat_to_tuple(pg, int(y))
        tz = tuple(int(sl2_3.mul[a, b]) for a, b in zip(tx, ty))
        assert flat_to_tuple(pg, int(z)) == tz
    # identities through flat arithmetic
    assert np.all(oracles.product_mul(sl2_3.mul, 3, xs, oracles.product_inv(sl2_3.inv, 3, xs)) == 0)


def test_dense_budget_rejected(a5):
    with pytest.raises(GroupConstructionError, match="dense"):
        groups.check_dense_budget(ProductGroup(a5, 5))
    groups.check_dense_budget(ProductGroup(a5, 4))  # supported maximum


@pytest.mark.parametrize("spec", [groups.cyclic(10_001), groups.sl2(23)])
def test_over_cap_group_rejected_before_its_table_is_built(spec):
    # the order follows from the spec (sl2:23 has 12,144 elements), so the
    # n x n table and its temporaries, 0.6-0.8 GB here, are never allocated
    tracemalloc.start()
    try:
        with pytest.raises(GroupConstructionError, match="above supported base-group maximum"):
            build_group(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
