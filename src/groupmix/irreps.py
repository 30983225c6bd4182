"""Numerical computation of complete unitary irrep sets from group tables.

The decomposition works on the regular representation.  A random Hermitian
group-algebra element T[x, y] = h(x^-1 y), with h(g^-1) = conj h(g), commutes
with the left-regular action (Dixon 1970), so its eigenspaces are invariant
subspaces; building T takes O(n^2).  A generic h gives one irreducible
subrepresentation per eigenvalue cluster, and each irrep rho appears in
d_rho clusters.  Characters are class functions, so every cluster is first
screened by its character on one element per conjugacy class, in
O(#classes n d).  The screen gives the character norm and the distance to
every character seen so far, so only the first copy of each irrep has its
matrices extracted, in O(n^2 d^2).  The rare cluster whose character norm
shows it is reducible is not extracted but split by the same routine, with
a fresh h compressed onto the cluster's basis.  Every irrep of real type
(Frobenius-Schur indicator +1) is then rotated into a real orthogonal basis,
so a group whose irreps are all real gets real matrices throughout.
Everything is deterministic given (group, tol, seed).
"""

from __future__ import annotations

import functools
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from groupmix.groups import GroupTable, generators

DEFAULT_TOL = 1e-9
_CLUSTER_REL_GAP = 1e-8      # eigenvalue clustering threshold
_MAX_SPLIT_ATTEMPTS = 8
_CHUNK = 256
_INDICATOR_TOL = 1e-6        # Frobenius-Schur indicators must sit this close to -1, 0, 1
_RESEED = "retry with get_irreps(..., seed=N) for another N; every CLI command uses seed 0"


class IrrepComputationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Irrep:
    """One unitary irreducible representation as a stacked matrix array."""

    dim: int
    matrices: np.ndarray     # (n, d, d) complex128
    character: np.ndarray    # (n,) complex128

    def __post_init__(self):
        self.matrices.setflags(write=False)
        self.character.setflags(write=False)


@dataclass(frozen=True)
class IrrepSet:
    """Complete inequivalent unitary irreps, trivial first then by dimension."""

    group_fingerprint: str
    irreps: tuple[Irrep, ...]
    tol: float

    @functools.cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.irreps)

    @property
    def order(self) -> int:
        return self.irreps[0].matrices.shape[0]

    def __len__(self):
        return len(self.irreps)


def quasirandomness_degree(s: IrrepSet) -> int:
    """Minimum dimension over non-trivial irreps (1 for abelian groups)."""
    nontrivial = [r.dim for r in s.irreps[1:]]
    return min(nontrivial) if nontrivial else 1


# ---------------------------------------------------------------------------
# decomposition


def _cluster_boundaries(eigvals: np.ndarray) -> list[np.ndarray]:
    scale = max(float(np.max(np.abs(eigvals))), 1.0)
    gaps = np.diff(eigvals)
    cuts = np.nonzero(gaps > _CLUSTER_REL_GAP * scale)[0]
    pieces = np.split(np.arange(len(eigvals)), cuts + 1)
    return pieces


def _extract_subrep(u: np.ndarray, left_action: np.ndarray) -> np.ndarray:
    """rho(g) = U^* R(g) U for an orthonormal invariant basis U (n, d)."""
    n, d = u.shape
    uh = u.conj().T
    out = np.empty((n, d, d), dtype=np.complex128)
    for lo in range(0, n, _CHUNK):
        sl = left_action[lo : lo + _CHUNK]
        prod = uh @ u[sl.T].reshape(n, len(sl) * d)
        out[lo : lo + _CHUNK] = prod.reshape(d, len(sl), d).transpose(1, 0, 2)
    return out


def _conjugacy_classes(g: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """One representative per conjugacy class and the class sizes."""
    n = g.order
    allg = np.arange(n)
    seen = np.zeros(n, dtype=bool)
    reps, sizes = [], []
    for x in range(n):
        if not seen[x]:
            orbit = np.unique(g.mul[g.mul[allg, x], g.inv])
            seen[orbit] = True
            reps.append(x)
            sizes.append(len(orbit))
    return np.array(reps), np.array(sizes)


def _split(g: GroupTable, u: np.ndarray | None, rng: np.random.Generator) -> list[np.ndarray]:
    """Orthonormal (n, d) bases of the eigen-clusters of a random element on span(u).

    u is an orthonormal (n, d) basis of an invariant subspace, or None for
    the whole regular representation.  u^* T u commutes with the action on
    span(u), so each cluster spans an invariant subspace.
    """
    n = g.order
    left_action = g.mul[g.inv, :]
    for _ in range(_MAX_SPLIT_ATTEMPTS):
        a = rng.standard_normal((2, n))
        h = a[0] + 1j * a[1]
        t = (h + h[g.inv].conj())[left_action]
        if u is not None:
            t = u.conj().T @ (t @ u)
        eigvals, eigvecs = np.linalg.eigh(t)
        clusters = _cluster_boundaries(eigvals)
        if len(clusters) > 1:
            break
    else:
        raise IrrepComputationError(f"failed to split a reducible invariant subspace; {_RESEED}")
    return [eigvecs[:, idx] if u is None else u @ eigvecs[:, idx] for idx in clusters]


def _irreducible_stacks(g: GroupTable, rng: np.random.Generator, gap: float) -> list[np.ndarray]:
    """One (n, d, d) stack per distinct irreducible character among the eigen-clusters.

    Each cluster is screened by its character on one representative per
    conjugacy class, chi(c) = sum_{x,i} conj V[x,i] V[c^-1 x, i].  Weighted
    by sqrt(class size), the distance between two screens is the distance
    between the full characters and the squared norm of a screen is
    n mean|chi|^2.  So a cluster whose screen is within `gap` of one already
    seen (here or anywhere in the recursion) repeats that character and is
    skipped, a cluster whose character norm is not 1 is split again with a
    fresh h, and only the rest are extracted.
    """
    n = g.order
    # left_action[g, x] = g^{-1} x, so (R(g) f)[x] = f[left_action[g, x]]
    left_action = g.mul[g.inv, :]
    reps, sizes = _conjugacy_classes(g)
    rep_action = left_action[reps]
    weights = np.sqrt(sizes)
    # one row per irrep; the rows double if reducible clusters need more
    seen = np.empty((len(reps), len(reps)), dtype=np.complex128)
    n_seen = 0
    out: list[np.ndarray] = []
    # depth first: a reducible cluster is split as soon as it is met
    pending = [iter(_split(g, None, rng))]
    while pending:
        v = next(pending[-1], None)
        if v is None:
            pending.pop()
            continue
        d = v.shape[1]
        step = max(1, _CHUNK // d)
        screen = weights * np.concatenate([
            np.take(v, rep_action[lo : lo + step], axis=0).reshape(-1, n * d) @ v.conj().ravel()
            for lo in range(0, len(reps), step)
        ])
        delta = (seen[:n_seen] - screen).view(np.float64)
        if n_seen and np.min(np.einsum("ji,ji->j", delta, delta)) < gap**2:
            continue
        if n_seen == len(seen):
            seen = np.concatenate([seen, np.empty_like(seen)])
        seen[n_seen] = screen
        n_seen += 1
        if abs(float(np.vdot(screen, screen).real) / n - 1.0) < 0.1:
            out.append(_extract_subrep(v, left_action))
        else:
            pending.append(iter(_split(g, v, rng)))
    return out


def frobenius_schur(g: GroupTable, character: np.ndarray) -> int:
    """Indicator mean_g chi(g^2): +1 real, 0 complex, -1 quaternionic type."""
    nu = complex(np.mean(character[g.mul[np.arange(g.order), np.arange(g.order)]]))
    nearest = int(round(nu.real))
    if nearest not in (-1, 0, 1) or abs(nu - nearest) > _INDICATOR_TOL:
        raise IrrepComputationError(f"Frobenius-Schur indicator {nu} is not -1, 0 or 1")
    return nearest


def _real_form(rho: np.ndarray, tol: float, rng: np.random.Generator) -> np.ndarray:
    """An equivalent real orthogonal form of a unitary irrep of real type.

    J = E_g rho(g) A rho(g)^T for a complex symmetric A intertwines conj(rho)
    with rho, so it is a multiple of a symmetric unitary; then Re J and Im J
    commute and one real orthogonal V diagonalizes both.  With
    W = V diag(sqrt(diag(V^T J V))), J = W W^T and W^* rho(g) W is real.
    """
    n, d, _ = rho.shape
    if d == 1:
        return rho.real.astype(np.complex128)
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    j = np.einsum("gij,jk,glk->il", rho, b + b.T, rho) / n
    j /= np.sqrt(np.trace(j @ j.conj().T).real / d)
    _, v = np.linalg.eigh(j.real + rng.standard_normal() * j.imag)
    phases = np.einsum("ji,jk,ki->i", v, j, v)
    w = v * np.sqrt(phases / np.abs(phases))
    sigma = w.conj().T @ rho @ w
    worst_imag = float(np.max(np.abs(sigma.imag)))
    if not worst_imag <= tol:
        raise IrrepComputationError(
            f"real form of a real-type irrep has imaginary residual {worst_imag}; {_RESEED}"
        )
    return sigma.real.astype(np.complex128)


def compute_irreps(g: GroupTable, tol: float = DEFAULT_TOL, seed: int = 0) -> IrrepSet:
    """Compute a complete set of inequivalent unitary irreps of g.

    Raises IrrepComputationError when eigenvalue clusters cannot be resolved
    at the working precision; a different seed almost always fixes that.
    An incomplete set is never returned silently.
    """
    if not 1e-12 <= tol <= 1e-6:
        raise ValueError(f"tol must lie in [1e-12, 1e-6], got {tol}")
    n = g.order
    rng = np.random.default_rng(seed)

    if n == 1:
        triv = np.ones((1, 1, 1), dtype=np.complex128)
        irrep = Irrep(1, triv, np.ones(1, dtype=np.complex128))
        return IrrepSet(g.fingerprint, (irrep,), tol)

    dedupe_gap = max(10.0 * tol * n, 1e-6)
    stacks = _irreducible_stacks(g, rng, dedupe_gap)

    kept = [(stack, np.einsum("gii->g", stack)) for stack in stacks]
    total = sum(s.shape[1] ** 2 for s, _ in kept)
    if total != n:
        raise IrrepComputationError(
            f"irrep dimensions {sorted(s.shape[1] for s, _ in kept)} give "
            f"sum of squares {total} != {n}; {_RESEED}"
        )

    def sort_key(item):
        stack, chi = item
        trivial = bool(np.allclose(chi, 1.0, atol=1e-6))
        rounded = tuple(np.round(chi.real, 6)) + tuple(np.round(chi.imag, 6))
        return (not trivial, stack.shape[1], rounded)

    kept.sort(key=sort_key)
    irreps = []
    for stack, chi in kept:
        if frobenius_schur(g, chi) == 1:
            stack = _real_form(stack, tol, rng)
            chi = np.einsum("gii->g", stack)
        irreps.append(Irrep(stack.shape[1], stack, chi))
    return IrrepSet(g.fingerprint, tuple(irreps), tol)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class IrrepSetReport:
    completeness_ok: bool
    identity_residual: float
    homomorphism_residual: float
    unitarity_residual: float
    min_character_gap: float
    inequivalence_gap_required: float
    tol: float

    @property
    def inequivalence_ok(self) -> bool:
        return self.min_character_gap >= self.inequivalence_gap_required

    @property
    def all_passed(self) -> bool:
        bound = max(self.tol, 1e-8)
        return (
            self.completeness_ok
            and self.identity_residual <= bound
            and self.homomorphism_residual <= bound
            and self.unitarity_residual <= bound
            and self.inequivalence_ok
        )


def check_irrep_set(g: GroupTable, s: IrrepSet) -> IrrepSetReport:
    """Residuals for the defining properties of a computed irrep set.

    homomorphism_residual certifies ||rho(x) rho(y) - rho(xy)||_F <= it for
    every pair (x, y) and every irrep.  Over all irreps it takes
    delta = max ||rho(x) rho(s) - rho(xs)||_F over all x and each s in
    generators(g), iota = ||rho(e) - I||_F, and u, the unitarity residual,
    so that every ||rho(x)||_2 <= c = sqrt(1 + u).  If y = y's with s a
    generator, then rho(x)rho(y) - rho(xy) = [rho(x)rho(y') - rho(xy')] rho(s)
    + [rho(xy')rho(s) - rho(xy)] - rho(x)[rho(y')rho(s) - rho(y)], so the error
    e_k for words of length k obeys e_k <= c e_{k-1} + (1 + c) delta, with
    e_0 <= c iota for y = e.  Every y is a word of length at most L, hence
    the bound c^(L+1) iota + (1 + c) delta sum_{j<L} c^j.
    """
    n = g.order
    gens, length = generators(g)
    ident_res = 0.0
    hom_res = 0.0
    unit_res = 0.0
    # np.maximum/np.min propagate NaN, where max(x, nan) would return x
    for r in s.irreps:
        m = r.matrices
        eye = np.eye(r.dim)
        ident_res = np.maximum(ident_res, np.linalg.norm(m[0] - eye))
        u = m @ m.conj().transpose(0, 2, 1) - eye
        unit_res = np.maximum(unit_res, np.max(np.linalg.norm(u, axis=(1, 2))))
        delta = m[:, None] @ m[gens] - m[g.mul[:, gens]]
        hom_res = np.maximum(hom_res, np.max(np.linalg.norm(delta, axis=(2, 3))))
    c = np.sqrt(1.0 + unit_res)
    hom_bound = c ** (length + 1) * ident_res + (1.0 + c) * hom_res * np.sum(c ** np.arange(length))

    # |chi_i - chi_j|^2 by one Gram matrix; inequivalent pairs sit at 2n, pairs below n by difference
    chars = np.array([r.character for r in s.irreps]).view(np.float64)
    sq = np.einsum("ij,ij->i", chars, chars)
    i, j = np.triu_indices(len(chars), 1)
    d2 = (sq[:, None] + sq[None, :] - 2.0 * (chars @ chars.T))[i, j]
    near = d2 < n
    d2[near] = np.sum(np.square(chars[j[near]] - chars[i[near]]), axis=1)
    min_gap = np.sqrt(np.min(d2, initial=np.inf))
    complete = sum(r.dim**2 for r in s.irreps) == n
    required_gap = 10.0 * s.tol * n
    return IrrepSetReport(
        complete, float(ident_res), float(hom_bound), float(unit_res), float(min_gap), required_gap, s.tol
    )


@dataclass(frozen=True)
class SchurReport:
    max_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def verify_schur(s: IrrepSet) -> SchurReport:
    """Orthogonality residual of matrix entries across the whole set.

    E_x rho(x)_{k,h} conj(psi(x)_{i,j}) must vanish except on the diagonal
    case rho == psi, k == i, h == j, where it equals 1/d_rho.  It passes within max(s.tol, 1e-8).
    """
    n = s.order
    worst = 0.0
    for a, ra in enumerate(s.irreps):
        for b, rb in enumerate(s.irreps):
            got = np.einsum("xkh,xij->khij", ra.matrices, rb.matrices.conj()) / n
            if a == b:
                d = ra.dim
                expected = np.einsum("ki,hj->khij", np.eye(d), np.eye(d)) / d
                got = got - expected
            worst = np.maximum(worst, np.max(np.abs(got)))    # NaN propagates
    return SchurReport(float(worst), max(s.tol, 1e-8))


# ---------------------------------------------------------------------------
# disk cache

_MAGIC = "groupmix-irreps v2"


class IrrepCacheError(RuntimeError):
    pass


def save_irreps(s: IrrepSet, path: str | os.PathLike):
    """One .npz archive: `head` = [magic, fingerprint, repr(tol)], then each
    irrep's (n, d, d) complex128 matrices as arr_0, arr_1, ... in set order.

    Written under a temporary name of its own, random in every call, and renamed into place,
    so neither an interrupted write nor a concurrent one leaves a broken cache at `path`.
    """
    head = np.array([_MAGIC, s.group_fingerprint, repr(float(s.tol))])
    tmp = f"{os.fspath(path)}.{os.getpid()}.{os.urandom(8).hex()}.tmp"
    try:
        # a handle, since savez given a name would append .npz to it
        with open(tmp, "wb") as fh:
            np.savez(fh, *(r.matrices for r in s.irreps), head=head)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_irreps(path: str | os.PathLike, g: GroupTable) -> IrrepSet:
    """Load a cached set, validate its fingerprint and arrays, and re-check invariants.

    allow_pickle=False refuses object arrays without unpickling them, and the
    archive's CRC-32 turns a truncated or bit-flipped member into an error.
    """
    try:
        z = np.load(path, allow_pickle=False)
        if not isinstance(z, np.lib.npyio.NpzFile):
            raise ValueError("a bare array, not an .npz archive")
        with z:
            head = [str(x) for x in z["head"].ravel()]
            stacks = [z[f"arr_{i}"] for i in range(len(z.files) - 1)]
        magic, fp, tol = head
        tol = float(tol)
    # RuntimeError: zipfile's answer to a flipped encryption, method or version field
    except (OSError, EOFError, KeyError, ValueError, RuntimeError, zipfile.BadZipFile) as exc:
        raise IrrepCacheError(f"{path}: unreadable cache ({exc})") from exc
    if magic != _MAGIC:
        raise IrrepCacheError(f"{path}: not a groupmix irrep cache")
    if fp != g.fingerprint:
        raise IrrepCacheError(
            f"{path}: fingerprint mismatch (cache {fp[:12]}..., group {g.fingerprint[:12]}...)"
        )

    irreps = []
    for i, mats in enumerate(stacks):
        square = mats.ndim == 3 and mats.shape[1] == mats.shape[2]
        if not (mats.dtype == np.complex128 and square and mats.shape[0] == g.order):
            raise IrrepCacheError(
                f"{path}: irrep {i} is {mats.dtype} {mats.shape}, not complex128 ({g.order}, d, d)"
            )
        if not np.isfinite(mats).all():
            raise IrrepCacheError(f"{path}: non-finite matrix entry in irrep {i}")
        irreps.append(Irrep(mats.shape[1], mats, np.einsum("gii->g", mats)))
    s = IrrepSet(fp, tuple(irreps), tol)
    report = check_irrep_set(g, s)
    if not report.all_passed:
        raise IrrepCacheError(f"{path}: cached data fails invariant checks: {report}")
    return s


_memo: dict[tuple, IrrepSet] = {}


def get_irreps(
    g: GroupTable,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    cache_dir: str | None = None,
    use_cache: bool = True,
) -> IrrepSet:
    """Memoized irreps, optionally backed by a fingerprint-keyed disk cache."""
    key = (g.fingerprint, tol, seed)
    path = None
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        # repr gives the exact tol, so distinct tols never share a file
        path = os.path.join(cache_dir, f"{g.fingerprint[:24]}_tol{float(tol)!r}_seed{seed}.npz")
    if use_cache and key in _memo:
        s = _memo[key]
        if path is not None and not os.path.exists(path):
            save_irreps(s, path)
        return s
    if path is not None and use_cache and os.path.exists(path):
        s = load_irreps(path, g)
    else:
        s = compute_irreps(g, tol=tol, seed=seed)
        if path is not None:
            save_irreps(s, path)
    if use_cache:
        _memo[key] = s
    return s
