from __future__ import annotations

import numpy as np
import pytest

from groupmix import groups
from groupmix import irreps as irr
from groupmix.irreps import (
    Irrep,
    IrrepCacheError,
    IrrepComputationError,
    IrrepSet,
    check_irrep_set,
    compute_irreps,
    frobenius_schur,
    get_irreps,
    load_irreps,
    quasirandomness_degree,
    save_irreps,
    verify_schur,
)

import oracles

SEED = 2024


def test_cyclic4_all_one_dimensional(c4, irreps_cache):
    s = irreps_cache(c4)
    assert s.dims == (1, 1, 1, 1)
    roots = np.exp(2j * np.pi * np.arange(4) / 4)
    # each character is x -> w^(jx) for some power j; match up to permutation
    expected = {tuple(np.round(roots**j, 9)) for j in range(4)}
    got = {tuple(np.round(r.character, 9)) for r in s.irreps}
    assert got == expected


def test_trivial_rep_first(a5, sl2_5, c12, irreps_cache):
    for g in (a5, sl2_5, c12):
        s = irreps_cache(g)
        assert np.allclose(s.irreps[0].character, 1.0)


@pytest.mark.parametrize(
    "fixture,dims",
    [
        ("a5", (1, 3, 3, 4, 5)),
        ("sl2_5", (1, 2, 2, 3, 3, 4, 4, 5, 6)),
        ("sl2_3", (1, 1, 1, 2, 2, 2, 3)),
        ("sl2_7", (1, 3, 3, 4, 4, 6, 6, 6, 7, 8, 8)),
    ],
)
def test_dims_match_character_table_oracle(request, fixture, dims, irreps_cache):
    g = request.getfixturevalue(fixture)
    s = irreps_cache(g)
    assert s.dims == dims
    assert sum(d * d for d in s.dims) == g.order
    dims_oracle, chars_oracle = oracles.characters_per_element(g.mul, g.inv)
    assert sorted(dims_oracle) == sorted(s.dims)
    used = set()
    for r in s.irreps:
        match = next(
            i
            for i, co in enumerate(chars_oracle)
            if i not in used and np.linalg.norm(r.character - co) < 1e-6 * g.order
        )
        used.add(match)
    assert len(used) == len(s.irreps)


def test_completeness_and_residuals(a5, sl2_5, sl2_3, c4, c12, irreps_cache):
    for g in (a5, sl2_5, sl2_3, c4, c12):
        s = irreps_cache(g)
        rep = check_irrep_set(g, s)
        assert rep.completeness_ok
        assert rep.homomorphism_residual <= 1e-8
        assert rep.unitarity_residual <= 1e-8
        assert rep.identity_residual <= 1e-10


def test_entry_second_moment_is_inverse_dim(a5, sl2_3, sl2_5, c4, c12, irreps_cache):
    for g in (a5, sl2_3, sl2_5, c4, c12):
        for r in irreps_cache(g).irreps:
            moments = np.mean(np.abs(r.matrices) ** 2, axis=0)
            assert np.max(np.abs(moments - 1.0 / r.dim)) <= 1e-8


def test_schur_on_cyclic(c4, irreps_cache):
    rep = verify_schur(irreps_cache(c4))
    assert rep.max_residual < 1e-12


def test_schur_on_alt5(a5, irreps_cache):
    rep = verify_schur(irreps_cache(a5))
    assert rep.max_residual <= 1e-8
    assert rep.passed


def test_schur_fails_on_duplicated_irrep(a5, irreps_cache):
    s = irreps_cache(a5)
    dup = IrrepSet(s.group_fingerprint, (s.irreps[1], s.irreps[1]), s.tol)
    rep = verify_schur(dup)
    # diagonal value 1/d shows up where 0 is expected
    assert rep.max_residual > 0.9 / s.irreps[1].dim


@pytest.mark.parametrize(
    "fixture,degree",
    [("c4", 1), ("c12", 1), ("a5", 3), ("sl2_3", 1), ("sl2_5", 2)],
)
def test_quasirandomness_degree(request, fixture, degree, irreps_cache):
    s = irreps_cache(request.getfixturevalue(fixture))
    assert quasirandomness_degree(s) == degree


def test_seed_invariance_up_to_equivalence(a5, irreps_cache):
    s1 = irreps_cache(a5)
    s2 = compute_irreps(a5, seed=777)
    assert s1.dims == s2.dims
    for r1, r2 in zip(s1.irreps, s2.irreps):
        assert np.linalg.norm(r1.character - r2.character) < 1e-8 * a5.order


def test_determinism_given_seed(sl2_3):
    s1 = compute_irreps(sl2_3, seed=5)
    s2 = compute_irreps(sl2_3, seed=5)
    for r1, r2 in zip(s1.irreps, s2.irreps):
        assert np.array_equal(r1.matrices, r2.matrices)


def test_one_extraction_per_irrep(sl2_7, monkeypatch):
    extract = irr._extract_subrep
    dims = []

    def counted(u, left_action):
        dims.append(u.shape[1])
        return extract(u, left_action)

    monkeypatch.setattr(irr, "_extract_subrep", counted)
    s = compute_irreps(sl2_7)
    assert len(dims) == len(s.irreps)
    assert sorted(dims) == sorted(s.dims)


def _perturbed(s: IrrepSet, k: int, x: int) -> IrrepSet:
    """s with one entry of irrep k's matrix at element x moved by 1e-3."""
    mats = np.array(s.irreps[k].matrices)
    mats[x, 0, -1] += 1e-3
    broken = Irrep(s.irreps[k].dim, mats, s.irreps[k].character.copy())
    return IrrepSet(s.group_fingerprint, s.irreps[:k] + (broken,) + s.irreps[k + 1 :], s.tol)


def _all_pairs_residual(g, s: IrrepSet) -> float:
    pair_x, pair_y = oracles.homomorphism_pairs(g.order)
    return oracles.homomorphism_residual(g.mul, [r.matrices for r in s.irreps], pair_x, pair_y)


@pytest.mark.parametrize("fixture", ["a5", "c12", "sl2_7"])
def test_homomorphism_check_matches_per_pair_reference(request, fixture, irreps_cache):
    g = request.getfixturevalue(fixture)
    s = irreps_cache(g)
    s = _perturbed(s, len(s) // 2, 7)
    rep = check_irrep_set(g, s)
    expected = _all_pairs_residual(g, s)
    _, length = groups.generators(g)
    c = np.sqrt(1.0 + rep.unitarity_residual)
    assert expected > 1e-4
    # certified over every pair, and within a factor that keeps it useful
    assert expected <= rep.homomorphism_residual
    assert rep.homomorphism_residual <= 2 * (length + 1) * c ** (length + 1) * max(
        expected, rep.identity_residual
    )
    assert not rep.all_passed


@pytest.mark.parametrize("where", ["identity", "generator", "non-generator"])
@pytest.mark.parametrize("fixture", ["a5", "c12", "sl2_3"])
def test_homomorphism_bound_covers_perturbed_sets(request, fixture, where, irreps_cache):
    g = request.getfixturevalue(fixture)
    gens = groups.generators(g)[0].tolist()
    x = {
        "identity": 0,
        "generator": gens[-1],
        "non-generator": min(set(range(1, g.order)) - set(gens)),
    }[where]
    s = irreps_cache(g)
    s = _perturbed(s, len(s) - 1, x)
    rep = check_irrep_set(g, s)
    expected = _all_pairs_residual(g, s)
    assert expected > 1e-4
    assert expected <= rep.homomorphism_residual
    assert not rep.all_passed


def _archive_parts(s: IrrepSet):
    """The head and member arrays of s's cache archive, as lists to edit."""
    return ["groupmix-irreps v2", s.group_fingerprint, repr(s.tol)], [r.matrices for r in s.irreps]


def _write_archive(path, head, stacks):
    """An archive laid out as save_irreps lays it out, from raw parts."""
    with open(path, "wb") as fh:
        np.savez(fh, *stacks, head=np.array(head))


def test_save_load_roundtrip(tmp_path, a5, irreps_cache):
    s = irreps_cache(a5)
    path = tmp_path / "a5.npz"
    save_irreps(s, path)
    with np.load(path, allow_pickle=False) as z:
        assert z.files == ["head"] + [f"arr_{i}" for i in range(len(s))]
        assert z["head"].tolist() == _archive_parts(s)[0]
    loaded = load_irreps(path, a5)
    assert (loaded.group_fingerprint, loaded.tol) == (s.group_fingerprint, s.tol)
    for r1, r2 in zip(s.irreps, loaded.irreps, strict=True):
        assert r1.dim == r2.dim
        assert np.array_equal(r1.matrices, r2.matrices)
        assert np.array_equal(r1.character, r2.character)


def test_load_wrong_group_fingerprint(tmp_path, a5, sl2_3, irreps_cache):
    path = tmp_path / "a5.npz"
    save_irreps(irreps_cache(a5), path)
    with pytest.raises(IrrepCacheError, match="fingerprint"):
        load_irreps(path, sl2_3)


def test_load_truncated_file(tmp_path, c4, irreps_cache):
    path = tmp_path / "c4.npz"
    save_irreps(irreps_cache(c4), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(IrrepCacheError):
        load_irreps(path, c4)


@pytest.mark.parametrize("at", [0.3, 0.6, 0.9])
def test_load_rejects_flipped_byte(tmp_path, a5, irreps_cache, at):
    path = tmp_path / "a5.npz"
    save_irreps(irreps_cache(a5), path)
    data = bytearray(path.read_bytes())
    data[int(at * len(data))] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(IrrepCacheError, match="Bad CRC-32"):
        load_irreps(path, a5)


@pytest.mark.parametrize(
    "field, offset, bit, message",
    [
        ("encryption flag", 8, 0x01, "encrypted"),
        ("compression method", 10, 0x01, "compression method"),
    ],
)
def test_load_rejects_flipped_zip_header_field(tmp_path, c4, irreps_cache, field, offset, bit, message):
    # zipfile raises RuntimeError or NotImplementedError here, not BadZipFile
    path = tmp_path / "c4.npz"
    save_irreps(irreps_cache(c4), path)
    data = bytearray(path.read_bytes())
    central = data.find(b"PK\x01\x02")      # the first member's central directory entry
    data[central + offset] ^= bit
    path.write_bytes(bytes(data))
    with pytest.raises(IrrepCacheError, match=message):
        load_irreps(path, c4)


@pytest.mark.parametrize("case", ["complex64", "2-D", "non-square", "wrong order"])
def test_load_rejects_malformed_member(tmp_path, c12, irreps_cache, case):
    head, stacks = _archive_parts(irreps_cache(c12))
    m = stacks[1]
    stacks[1] = {
        "complex64": m.astype(np.complex64),
        "2-D": m[:, 0, :],
        "non-square": np.concatenate([m, m], axis=2),
        "wrong order": m[:-1],
    }[case]
    path = tmp_path / "c12.npz"
    _write_archive(path, head, stacks)
    with pytest.raises(IrrepCacheError, match=r"irrep 1 is .*not complex128 \(12, d, d\)"):
        load_irreps(path, c12)


@pytest.mark.parametrize(
    "case, message",
    [
        ("v1 magic", "not a groupmix irrep cache"),
        ("text cache", "pickled"),         # neither zip nor .npy, and pickles are refused
        ("bare array", "not an .npz archive"),
    ],
)
def test_load_rejects_foreign_file(tmp_path, c4, irreps_cache, case, message):
    s = irreps_cache(c4)
    head, stacks = _archive_parts(s)
    path = tmp_path / "c4.npz"
    if case == "v1 magic":
        _write_archive(path, ["groupmix-irreps v1"] + head[1:], stacks)
    elif case == "text cache":
        path.write_text(f"groupmix-irreps v1\nfingerprint {s.group_fingerprint}\n")
    else:
        with open(path, "wb") as fh:
            np.save(fh, stacks[0])
    with pytest.raises(IrrepCacheError, match=message):
        load_irreps(path, c4)


_unpickled = []


def _record_unpickling():
    _unpickled.append(True)
    return 0


class _Tripwire:
    """Unpickling it calls _record_unpickling."""

    def __reduce__(self):
        return (_record_unpickling, ())


def test_load_refuses_object_member_without_unpickling(tmp_path, c4, irreps_cache):
    head, stacks = _archive_parts(irreps_cache(c4))
    stacks[2] = np.array([_Tripwire()], dtype=object)
    path = tmp_path / "c4.npz"
    _write_archive(path, head, stacks)
    with pytest.raises(IrrepCacheError, match="allow_pickle=False"):
        load_irreps(path, c4)
    assert _unpickled == []
    # the tripwire works: loading with pickles allowed does run it
    with np.load(path, allow_pickle=True) as z:
        z["arr_2"]
    assert _unpickled == [True]


def test_get_irreps_disk_cache(tmp_path, c12):
    s1 = get_irreps(c12, cache_dir=str(tmp_path), use_cache=False)
    files = list(tmp_path.iterdir())
    assert len(files) == 1 and files[0].name.endswith("_seed0.npz")
    s2 = get_irreps(c12, cache_dir=str(tmp_path), use_cache=True)
    assert s1.dims == s2.dims


def test_tol_range_rejected(c4):
    with pytest.raises(ValueError):
        compute_irreps(c4, tol=1e-3)


@pytest.mark.parametrize("fixture", ["a5", "sl2_3", "sl2_5"])
def test_real_type_irreps_are_real(request, fixture, irreps_cache):
    g = request.getfixturevalue(fixture)
    s = irreps_cache(g)
    indicators = [frobenius_schur(g, r.character) for r in s.irreps]
    if fixture == "a5":
        assert indicators == [1] * len(s)
    for r, nu in zip(s.irreps, indicators):
        # exactly zero for real type; no real form exists for the other types
        assert (not r.matrices.imag.any()) == (nu == 1)
    assert check_irrep_set(g, s).all_passed
    assert verify_schur(s).passed


@pytest.mark.parametrize("fixture", ["a5", "sl2_3", "sl2_5"])
def test_indicator_matches_character_table_oracle(request, fixture, irreps_cache):
    g = request.getfixturevalue(fixture)
    s = irreps_cache(g)
    _, chars_oracle = oracles.characters_per_element(g.mul, g.inv)
    squares = g.mul[np.arange(g.order), np.arange(g.order)]
    got = []
    for r in s.irreps:
        co = next(c for c in chars_oracle if np.linalg.norm(r.character - c) < 1e-6 * g.order)
        nu = np.mean(co[squares])
        assert abs(nu - round(nu.real)) < 1e-6
        assert frobenius_schur(g, r.character) == round(nu.real)
        got.append(frobenius_schur(g, r.character))
    if fixture == "sl2_3":
        assert {0, -1} <= set(got)


def test_indicator_off_the_lattice_rejected(a5, irreps_cache):
    chi = irreps_cache(a5).irreps[1].character
    with pytest.raises(IrrepComputationError, match="indicator"):
        frobenius_schur(a5, 0.5 * chi)


def _with_nan(s: IrrepSet) -> IrrepSet:
    mats = np.array(s.irreps[1].matrices)
    mats[5, 0, 1] = np.nan          # off the diagonal: the character stays finite
    broken = Irrep(s.irreps[1].dim, mats, s.irreps[1].character.copy())
    return IrrepSet(s.group_fingerprint, (s.irreps[0], broken) + s.irreps[2:], s.tol)


def test_check_irrep_set_propagates_nan(a5, irreps_cache):
    rep = check_irrep_set(a5, _with_nan(irreps_cache(a5)))
    assert np.isnan(rep.homomorphism_residual) and np.isnan(rep.unitarity_residual)
    assert not rep.all_passed


def _with_irrep(s: IrrepSet, at: int, r: Irrep) -> IrrepSet:
    return IrrepSet(s.group_fingerprint, s.irreps[:at] + (r,) + s.irreps[at + 1 :], s.tol)


def _chars(s: IrrepSet) -> np.ndarray:
    return np.array([r.character for r in s.irreps])


@pytest.mark.parametrize("fixture", ["a5", "c12", "sl2_7"])
def test_inequivalence_gap_matches_pairwise_reference(request, fixture, irreps_cache):
    g = request.getfixturevalue(fixture)
    s = irreps_cache(g)
    rep = check_irrep_set(g, s)
    assert rep.inequivalence_ok and rep.all_passed
    # inequivalent characters are orthogonal with squared norm n
    assert rep.min_character_gap == pytest.approx(np.sqrt(2 * g.order), rel=1e-9)
    assert rep.min_character_gap == pytest.approx(oracles.min_character_gap(_chars(s)), rel=1e-9)


@pytest.mark.parametrize("fixture", ["a5", "c12", "sl2_7"])
def test_inequivalence_check_fails_on_repeated_irrep(request, fixture, irreps_cache):
    # a copy of irrep i in place of another irrep j of the same dimension keeps
    # completeness (the dimensions are unchanged) but repeats a character
    g = request.getfixturevalue(fixture)
    s = irreps_cache(g)
    i = 1
    j = next(j for j in range(i + 1, len(s)) if s.dims[j] == s.dims[i])
    twin = _with_irrep(s, j, s.irreps[i])
    rep = check_irrep_set(g, twin)
    assert rep.completeness_ok
    assert rep.min_character_gap == 0.0 == oracles.min_character_gap(_chars(twin))
    assert not rep.inequivalence_ok and not rep.all_passed
    # a near-copy (gap tol sqrt(n), under the required 10 tol n) is taken by
    # exact difference, as the pairwise loop takes it
    near = Irrep(s.dims[i], s.irreps[i].matrices, s.irreps[i].character + s.tol)
    rep = check_irrep_set(g, _with_irrep(s, j, near))
    want = oracles.min_character_gap(_chars(_with_irrep(s, j, near)))
    assert 0.0 < want < rep.inequivalence_gap_required
    assert rep.min_character_gap == pytest.approx(want, rel=1e-9)
    assert not rep.inequivalence_ok


@pytest.mark.parametrize("fixture", ["a5", "c12", "sl2_7"])
def test_inequivalence_check_fails_on_nan_character(request, fixture, irreps_cache):
    g = request.getfixturevalue(fixture)
    s = irreps_cache(g)
    chi = s.irreps[2].character.copy()
    chi[3] = np.nan
    rep = check_irrep_set(g, _with_irrep(s, 2, Irrep(s.dims[2], s.irreps[2].matrices, chi)))
    assert np.isnan(rep.min_character_gap)
    assert not rep.inequivalence_ok and not rep.all_passed


def test_verify_schur_propagates_nan(a5, irreps_cache):
    rep = verify_schur(_with_nan(irreps_cache(a5)))
    assert np.isnan(rep.max_residual)
    assert not rep.passed


def test_load_rejects_non_finite_entry(tmp_path, a5, irreps_cache):
    head, stacks = _archive_parts(irreps_cache(a5))
    stacks[1] = np.array(stacks[1])
    stacks[1][5, 0, 1] = np.nan
    path = tmp_path / "a5.npz"
    _write_archive(path, head, stacks)
    with pytest.raises(IrrepCacheError, match=r"a5\.npz: non-finite matrix entry in irrep 1"):
        load_irreps(path, a5)


def test_cache_file_per_exact_tol(tmp_path, c12):
    get_irreps(c12, tol=1e-9, cache_dir=str(tmp_path), use_cache=False)
    get_irreps(c12, tol=1.4e-9, cache_dir=str(tmp_path), use_cache=False)
    assert len(list(tmp_path.iterdir())) == 2


class _DiskFullFile:
    """A binary file whose first write stores half its bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __getattr__(self, name):
        # tell, seek, flush and the rest that zipfile uses
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_failed_save_leaves_no_file(tmp_path, monkeypatch, c4, irreps_cache):
    import groupmix.irreps as irreps_module

    monkeypatch.setattr(
        irreps_module, "open", lambda *a, **kw: _DiskFullFile(open(*a, **kw)), raising=False
    )
    path = tmp_path / "c4.npz"
    with pytest.raises(OSError, match="disk full"):
        save_irreps(irreps_cache(c4), path)
    assert list(tmp_path.iterdir()) == []


class _ConstantFirstDraw:
    """A generator whose first standard_normal draw is all ones.

    The first h is then a real constant, so T = h J has two eigenvalue
    clusters: the trivial irrep and the other n - 1 dimensions together.
    """

    def __init__(self, rng):
        self._rng = rng
        self._first = True

    def standard_normal(self, size=None):
        if self._first:
            self._first = False
            return np.ones(size)
        return self._rng.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("fixture", ["a5", "sl2_5"])
def test_merged_cluster_is_split_recursively(request, fixture, monkeypatch):
    g = request.getfixturevalue(fixture)
    default_rng = np.random.default_rng
    split = irr._split
    bases = []

    def counted(g, u, rng):
        bases.append(None if u is None else u.shape[1])
        return split(g, u, rng)

    with monkeypatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda seed: _ConstantFirstDraw(default_rng(seed)))
        mp.setattr(irr, "_split", counted)
        s = compute_irreps(g, seed=SEED)
    assert bases[0] is None and bases[1] == g.order - 1
    dims_oracle, _ = oracles.characters_per_element(g.mul, g.inv)
    assert sorted(s.dims) == sorted(dims_oracle)
    assert check_irrep_set(g, s).all_passed
    assert verify_schur(s).passed


@pytest.mark.parametrize("fixture", ["a5", "sl2_5"])
def test_reducible_cluster_is_not_extracted(request, fixture, monkeypatch):
    g = request.getfixturevalue(fixture)
    default_rng = np.random.default_rng
    extract = irr._extract_subrep
    dims = []

    def counted(u, left_action):
        dims.append(u.shape[1])
        return extract(u, left_action)

    with monkeypatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda seed: _ConstantFirstDraw(default_rng(seed)))
        mp.setattr(irr, "_extract_subrep", counted)
        s = compute_irreps(g, seed=SEED)
    assert sorted(dims) == sorted(s.dims)
