from __future__ import annotations

import hashlib
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
    assert tuple(groups._FAMILIES["sl2"].elements(5)[0]) == (1, 0, 0, 1)
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


def test_alt5_takes_no_parameter():
    # a parameter would give the same group a second fingerprint and irrep cache
    with pytest.raises(GroupConstructionError, match="alt5 takes no parameter, got 7"):
        groups.GroupSpec("alt5", 7)


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


# SHA-256 of mul.tobytes() and inv.tobytes(), and the fingerprint: a change of element order
# would move every irrep cache key and every CSV
PINNED_TABLES = {
    "a5": ("8141c7184b318a79863bde81c1ca1610d15630a20eb23c44ad75ff126395107c",
           "5b0e46409a1150a0a0705234b9fb287e4b98bf178cf3edbfb267d45c96a088ec",
           "0e95fbeb2ad944668b202d8137d782fba8ed428a34562fb6aad34898f19fd2c9"),
    "cyclic:12": ("95e853c042436f11d7eda0d1883c5880debefaefde06702c2d26b1cecdf395bb",
                  "026a1137950ec2fec0c074bfacacf07057e72a6dab463958d82fae36535ceb81",
                  "0ad4bf597f2ae5cc34531ff4652535656dac8d314d5ca49de52124b18e3f8740"),
    "sl2:2": ("888524f5c831695e7652e95f33742bade8fbbc8ecbca308ec955172398d9dc03",
              "d34e425a9af53dc3036267310bd320203f4f1da1afdd07ad77312f01e3e5846b",
              "a05542e56da6bd1086daafa7ffa91609b451b63ad230f2230604fb356d2b4650"),
    "sl2:3": ("22a13c2e322172a6f26331c73580c465fae8ddcd2f106fe2b761a29cb04da0c7",
              "86f73065e23f8828d757600ec82bb28308d73e7755a0954036aa26f1803e01f1",
              "e462ad5751257192e5df8d58e67a8894e32df617b2c976bc648180eab2673833"),
    "sl2:5": ("99247a05e9a858cdc68da3d93af9e94c0afebf8f7055851c4161a5830f961837",
              "4b36b476c360e1267a531ce6adaa7a108e8e814021f9cbdea3d4b52f72841e11",
              "f9edfcccb2122e889bbe27cb6b3dcf80c753da291f37e5dbe008bb978bcb1b40"),
    "sl2:7": ("0ed10ad71a408b7c667b35cbf9b4b19649c5f277e0cd90f776ccc3582720d7a9",
              "576dc34dc965909cf2414258bd6ea6696bb4ca03efdd6358cc9462c38beb4174",
              "854391d7f9a2e0020e338712ed6829a7d12d0bacb7c442d26128b705679a2c50"),
}


@pytest.mark.parametrize("text", list(PINNED_TABLES))
def test_builtin_tables_are_pinned(text):
    g = build_group(groups.parse_group_spec(text))
    assert g.mul.dtype == np.int32 and g.inv.dtype == np.int32
    digests = (hashlib.sha256(g.mul.tobytes()).hexdigest(),
               hashlib.sha256(g.inv.tobytes()).hexdigest(), g.fingerprint)
    assert digests == PINNED_TABLES[text]


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
    # 60^4096 has 7,283 digits, more than Python prints of an int
    with pytest.raises(GroupConstructionError, match="maximum of 13500000"):
        groups.check_dense_budget(ProductGroup(a5, 4096))
    groups.check_dense_budget(ProductGroup(build_group(groups.cyclic(1)), 2**24))


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
