from __future__ import annotations

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
    assert c6.labels[3] == "3"


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
    assert g.labels[0] == "e"


def test_identity_at_index_zero(sl2_3, a5, c4):
    for g in (sl2_3, a5, c4):
        n = g.order
        assert np.array_equal(g.mul[0], np.arange(n))
        assert np.array_equal(g.mul[:, 0], np.arange(n))


def test_sl2_identity_label(sl2_5):
    assert sl2_5.labels[0] == "[[1,0],[0,1]]"


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
    bad = groups.GroupTable(c6.spec, c6.order, mul, c6.inv.copy(), c6.labels)
    assert not verify_group(bad).associativity_ok


def test_sampled_associativity_path():
    g = build_group(groups.sl2(7))  # order 336 > full-scan cutoff
    rep = verify_group(g)
    assert rep.associativity_mode == "sampled"
    assert rep.all_passed


def test_fingerprint_stable_and_distinct(a5, sl2_3):
    again = build_group(groups.alt5())
    assert again.fingerprint == a5.fingerprint
    assert a5.fingerprint != sl2_3.fingerprint


def test_fingerprint_covers_whole_table(c12):
    def table(mul):
        return groups.GroupTable(c12.spec, c12.order, mul, c12.inv.copy(), c12.labels)

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
