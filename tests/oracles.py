"""Independent oracles used to cross-check the library.

Everything here is deliberately written from first principles (brute-force
enumeration, the class-algebra character method, direct definition sums) and
shares no code path with groupmix itself.  The one exception is the last
section, which reads groupmix types: the point-mass Dist, and reference dict
forms of groupmix's dense coefficient tensors, which read blocks out of those
tensors by their documented slot layout.
"""

from __future__ import annotations

import collections
import itertools
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# group enumeration oracles


def sl2_count_bruteforce(q: int) -> int:
    """Count 2x2 matrices over F_q with determinant 1 by exhaustion."""
    return sum(
        1
        for a, b, c, d in itertools.product(range(q), repeat=4)
        if (a * d - b * c) % q == 1
    )


def even_permutations_count(n: int) -> int:
    count = 0
    for p in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
        if inv % 2 == 0:
            count += 1
    return count


def digits_to_flat(n: int, digs) -> np.ndarray:
    """Flat index sum_i digs[i] n^i of an (arity, ...) digit array."""
    flat = np.zeros(np.shape(digs[0]), dtype=np.int64)
    for d in reversed(list(digs)):
        flat = flat * n + np.asarray(d, dtype=np.int64)
    return flat


def flat_digits(pg, flat) -> np.ndarray:
    """Digits (arity, ...) of flat indices of pg = H^arity, coordinate 0 first."""
    n = pg.base.order
    flat = np.asarray(flat, dtype=np.int64)
    return np.stack([flat // n**i % n for i in range(pg.arity)])


def product_mul(mul, arity: int, x, y) -> np.ndarray:
    """Coordinatewise product of flat indices of H^arity, by digit arithmetic."""
    n = mul.shape[0]
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    return digits_to_flat(n, [mul[x // n**i % n, y // n**i % n] for i in range(arity)])


def product_inv(inv, arity: int, x) -> np.ndarray:
    n = inv.shape[0]
    x = np.asarray(x, dtype=np.int64)
    return digits_to_flat(n, [inv[x // n**i % n] for i in range(arity)])


def is_associative(mul) -> bool:
    """(x y) z == x (y z) for all n^3 triples, one z at a time."""
    return all(np.array_equal(mul[mul, z], mul[:, mul[:, z]]) for z in range(len(mul)))


def word_lengths(mul, gens) -> list:
    """Shortest k with x = s_1 s_2 ... s_k, each s_i in gens and k >= 1, for
    every element x; None where no such word exists.  Breadth-first search
    over right multiplication, one element at a time."""
    length = [None] * len(mul)
    queue = collections.deque()
    for s in gens:
        if length[s] is None:
            length[s] = 1
            queue.append(s)
    while queue:
        x = queue.popleft()
        for s in gens:
            y = int(mul[x][s])
            if length[y] is None:
                length[y] = length[x] + 1
                queue.append(y)
    return length


def l2_sq_via_norm_identity(values) -> float:
    """|p|_2^2 - 1/|G|; equals sum_x (p(x) - 1/|G|)^2 for a probability vector."""
    values = np.asarray(values)
    return float(np.sum(values**2) - 1.0 / values.size)


# ---------------------------------------------------------------------------
# character table via the class algebra (Burnside/Dixon style)


def conjugacy_classes(mul: np.ndarray, inv: np.ndarray) -> list[np.ndarray]:
    """Conjugacy classes as sorted index arrays, identity's class first."""
    n = mul.shape[0]
    class_id = np.full(n, -1, dtype=np.int64)
    classes = []
    for g in range(n):
        if class_id[g] >= 0:
            continue
        orbit = np.unique(mul[mul[:, g], inv[np.arange(n)]])
        class_id[orbit] = len(classes)
        classes.append(orbit)
    assert classes[0][0] == 0 and len(classes[0]) == 1
    return classes


def character_table(mul: np.ndarray, inv: np.ndarray, seed: int = 12345):
    """Irreducible characters from simultaneous class-sum eigenvectors.

    Returns (dims, chars, classes) where chars[r, c] is the value of the
    r-th irreducible character on class c.  Works purely from the
    multiplication table through the class multiplication coefficients.
    """
    n = mul.shape[0]
    classes = conjugacy_classes(mul, inv)
    r = len(classes)
    sizes = np.array([len(c) for c in classes], dtype=np.int64)
    class_id = np.empty(n, dtype=np.int64)
    for ci, members in enumerate(classes):
        class_id[members] = ci
    reps = np.array([c[0] for c in classes], dtype=np.int64)

    # a[i, j, k] = #{(g, h) in C_i x C_j : g*h = z_k} for a fixed z_k in C_k
    a = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        gi_inv = inv[classes[i]]
        for k in range(r):
            h = mul[gi_inv, reps[k]]
            a[i, :, k] = np.bincount(class_id[h], minlength=r)

    rng = np.random.default_rng(seed)
    for _ in range(32):
        combo = np.tensordot(rng.standard_normal(r), a, axes=(0, 0))
        eigvals, eigvecs = np.linalg.eig(combo.astype(np.complex128))
        if np.min(np.abs(np.subtract.outer(eigvals, eigvals) + np.eye(r))) > 1e-6:
            break
    else:
        raise RuntimeError("could not separate class-algebra eigenvalues")

    dims = []
    chars = []
    for col in range(r):
        v = eigvecs[:, col]
        v = v / v[0]                       # identity-class component is 1
        denom = np.sum(np.abs(v) ** 2 / sizes)
        d = np.sqrt(n / denom.real)
        d_int = int(round(d))
        assert abs(d - d_int) < 1e-6, f"non-integer irrep dimension {d}"
        dims.append(d_int)
        chars.append(d_int * v / sizes)
    order = np.argsort(dims, kind="stable")
    dims = [dims[i] for i in order]
    chars = np.array([chars[i] for i in order])
    assert sum(d * d for d in dims) == n
    return dims, chars, classes


def characters_per_element(mul, inv, seed: int = 12345):
    """Character table expanded to length-n vectors (one row per irrep)."""
    n = mul.shape[0]
    dims, chars, classes = character_table(mul, inv, seed)
    class_id = np.empty(n, dtype=np.int64)
    for ci, members in enumerate(classes):
        class_id[members] = ci
    return dims, chars[:, class_id]


# ---------------------------------------------------------------------------
# irrep-set oracles


def homomorphism_pairs(n: int):
    """All n^2 pairs (x, y), x first."""
    return np.repeat(np.arange(n), n), np.tile(np.arange(n), n)


def homomorphism_residual(mul, stacks, pair_x, pair_y) -> float:
    """max over irreps and pairs of ||rho(x) rho(y) - rho(xy)||_F, pair by pair."""
    pair_xy = mul[pair_x, pair_y]
    worst = 0.0
    for m in stacks:
        for lo in range(0, len(pair_x), 8192):
            hi = lo + 8192
            delta = m[pair_x[lo:hi]] @ m[pair_y[lo:hi]] - m[pair_xy[lo:hi]]
            res = np.sqrt(np.sum(np.abs(delta) ** 2, axis=(1, 2)))
            worst = np.maximum(worst, np.max(res))
    return float(worst)


def min_character_gap(chars) -> float:
    """min over pairs i < j of ||chi_i - chi_j||_2, row by row (NaN propagates)."""
    chars = np.asarray(chars)
    gap = np.inf
    for i in range(len(chars) - 1):
        delta = (chars[i + 1 :] - chars[i]).view(np.float64)
        gap = np.minimum(gap, np.sqrt(np.min(np.einsum("ji,ji->j", delta, delta))))
    return float(gap)


# ---------------------------------------------------------------------------
# direct-definition Fourier oracles


def fourier_forward_bruteforce(values, matrices):
    """E_x f(x) * conj(rho(x)) summed element by element."""
    n = len(values)
    d = matrices[0].shape[0]
    acc = np.zeros((d, d), dtype=np.complex128)
    for x in range(n):
        acc += values[x] * np.conj(matrices[x])
    return acc / n


def fourier_inverse_bruteforce(coeffs_and_mats):
    """sum_rho d_rho * tr(c_rho @ rho(x)^T) evaluated pointwise."""
    n = next(iter(coeffs_and_mats))[1].shape[0]
    out = None
    for coeff, mats in coeffs_and_mats:
        d = coeff.shape[0]
        vals = np.array([d * np.trace(coeff @ mats[x].T) for x in range(mats.shape[0])])
        out = vals if out is None else out + vals
    return out


def product_irrep_matrices(base_mats_by_index, tup, pg_digits):
    """Stacked kron matrices of the tuple irrep over all product elements.

    Coordinate 0 is the least significant kron factor; pg_digits is the
    (arity, N) digit array of every flat element.
    """
    m = len(tup)
    stack = base_mats_by_index[tup[0]][pg_digits[0]]
    for i in range(1, m):
        nxt = base_mats_by_index[tup[i]][pg_digits[i]]
        da, db = nxt.shape[1], stack.shape[1]
        stack = np.einsum("xij,xkl->xikjl", nxt, stack).reshape(-1, da * db, da * db)
    return stack


def product_fourier_bruteforce(values, base_mats_by_index, tuples, pg_digits):
    """Direct product-group transform: one definition sum per irrep tuple."""
    N = len(values)
    out = {}
    for tup in tuples:
        mats = product_irrep_matrices(base_mats_by_index, tup, pg_digits)
        out[tup] = np.einsum("x,xij->ij", values, np.conj(mats)) / N
    return out


# ---------------------------------------------------------------------------
# convolution oracles


def circular_convolve(p, q):
    """Cyclic-group convolution through modular index arithmetic only."""
    n = len(p)
    out = np.zeros(n)
    for x in range(n):
        out[x] = sum(p[y] * q[(x - y) % n] for y in range(n))
    return out


def convolve_bruteforce(p, q, mul_flat, inv_flat):
    """sum_y p(y) q(y^{-1} x) with explicit flat product maps."""
    n = len(p)
    out = np.zeros(n)
    for y in range(n):
        out[mul_flat(y, np.arange(n))] += p[y] * q
        # out[y*z] += p[y]*q[z] is the same sum reindexed by z = y^{-1}x
    return out


def tv_distance(p, q) -> float:
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def exact_box_counts_bruteforce(mul, inv, parties: int):
    """Exact box-distribution counts by pure-python enumeration (tiny groups)."""
    n = mul.shape[0]
    m = 2**parties
    counts = {}
    for us in itertools.product(range(n), repeat=2 * parties):
        point = []
        for j in range(m):
            acc = 0  # identity
            for i in range(parties):
                bit = (j >> i) & 1
                acc = mul[acc, us[2 * i + bit]]
            point.append(int(acc))
        key = 0
        for c in reversed(point):
            key = key * n + c
        counts[key] = counts.get(key, 0) + 1
    return counts


def exact_box_counts_full(mul, parties: int) -> np.ndarray:
    """Exact box-distribution counts over all n^(2k) tuples, as a dense int64
    vector: the last party's two slots vectorized, the rest looped."""
    n = mul.shape[0]
    k = parties
    m = 2**k
    counts = np.zeros(n**m, dtype=np.int64)
    u0 = np.repeat(np.arange(n), n)
    u1 = np.tile(np.arange(n), n)
    powers = np.array([n**j for j in range(m)], dtype=np.int64)
    for prefix_us in itertools.product(range(n), repeat=2 * (k - 1)):
        prefix = np.zeros(m, dtype=np.int64)
        for j in range(m):
            acc = 0
            for i in range(k - 1):
                bit = (j >> i) & 1
                acc = mul[acc, prefix_us[2 * i + bit]]
            prefix[j] = acc
        flat = np.zeros(n * n, dtype=np.int64)
        for j in range(m):
            last = u0 if ((j >> (k - 1)) & 1) == 0 else u1
            flat += mul[prefix[j], last].astype(np.int64) * powers[j]
        np.add.at(counts, flat, 1)
    return counts


def sample_s_many(h, parties: int, size: int, seed: int) -> np.ndarray:
    """(size, m) array of box draws over the GroupTable h, each coordinate the product of its
    parties' u_i^{x_i} by h.mul; fixed seed reproduces identical tuples."""
    n = h.order
    k = parties
    m = 2**k
    rng = np.random.default_rng(seed)
    us = rng.integers(0, n, size=(size, 2 * k))
    out = np.zeros((size, m), dtype=np.int64)
    for j in range(m):
        acc = np.zeros(size, dtype=np.int64)
        for i in range(k):
            bit = (j >> i) & 1
            acc = h.mul[acc, us[:, 2 * i + bit]].astype(np.int64)
        out[:, j] = acc
    return out


def cancellation_identity_holds(h, points: np.ndarray) -> np.ndarray:
    """Check s(00) s(10)^-1 s(11) s(01)^-1 = e on (size, 4) coordinate rows.

    Coordinate order is (s(00), s(10), s(01), s(11)) per the bit indexing,
    so the chain reads columns 0, 1, 3, 2.
    """
    mul, inv = h.mul, h.inv
    acc = mul[points[:, 0], inv[points[:, 1]]]
    acc = mul[acc, points[:, 3]]
    acc = mul[acc, inv[points[:, 2]]]
    return acc == 0


def exact_marginal_fraction_dev(counts_vec, n: int, m: int, subset) -> Fraction:
    """Exact max relative deviation of a marginal of an integer-count vector."""
    total = int(np.sum(counts_vec))
    arr = np.asarray(counts_vec, dtype=np.int64).reshape((n,) * m, order="F")
    other = tuple(i for i in range(m) if i not in subset)
    marg = arr.sum(axis=other) if other else arr
    cells = n ** len(subset)
    worst = Fraction(0)
    for c in marg.ravel():
        dev = abs(Fraction(int(c) * cells, total) - 1)
        if dev > worst:
            worst = dev
    return worst


# ---------------------------------------------------------------------------
# groupmix types: the point mass, and coefficient blocks as a dict of matrices


def point_mass(space, index: int = 0):
    """The groupmix Dist over space with all its mass on flat index `index`."""
    from groupmix import fourier as fx

    v = np.zeros(space.size)
    v[index] = 1.0
    return fx.make_dist(space, v)


def frobenius_norm_sq(m) -> float:
    """Sum of squared entry magnitudes, equal to tr(M M*)."""
    return float(np.sum(np.abs(np.asarray(m)) ** 2))


def tv_to_uniform(p) -> float:
    """Statistical distance 1/2 sum_x |p(x) - 1/|G|| of a groupmix Dist."""
    return 0.5 * float(np.sum(np.abs(p.values - 1.0 / p.size)))


def coefficient_block(dense, dims, t) -> np.ndarray:
    """The matrix of product irrep t in a dense coefficient tensor.

    Axis j of the tensor lists coordinate m-1-j; base irrep a fills the d_a^2
    slots from sum_{b<a} d_b^2 in row-major order.  Coordinate 0 is the least
    significant kron factor of the block's rows and columns.
    """
    m = len(t)
    offs = np.concatenate(([0], np.cumsum(np.square(dims))[:-1]))
    sub = dense
    for axis, a in enumerate(t[::-1]):
        sub = np.take(sub, np.arange(offs[a], offs[a] + dims[a] ** 2), axis=axis)
    sub = sub.reshape([dims[a] for a in t[::-1] for _ in (0, 1)])
    sub = sub.transpose(list(range(0, 2 * m, 2)) + list(range(1, 2 * m, 2)))
    d = int(np.prod([dims[a] for a in t]))
    return sub.reshape(d, d)


def coefficient_blocks(fd) -> dict:
    """Every block of a FourierData, keyed by arity-tuple of base-irrep indices."""
    dims = fd.irreps.dims
    tuples = itertools.product(range(len(dims)), repeat=fd.arity)
    return {t: coefficient_block(fd.dense, dims, t) for t in tuples}


def irrep_blocks(fd) -> list:
    """The blocks of a single-group FourierData, indexed by irrep."""
    return [coefficient_block(fd.dense, fd.irreps.dims, (a,)) for a in range(len(fd.irreps))]


def low_weight_blocks(p, k: int, s) -> dict:
    """Every weight-1..k block of p, keyed by m-tuple, read out of the top
    k-subset tensors of groupmix's low-weight transforms: each block from the
    first top that holds its support, where it is kept."""
    from groupmix.fourier import _low_weight_transforms

    out = {}
    for top, coeffs in _low_weight_transforms(p, k, s):
        for tau in itertools.product(range(len(s)), repeat=k):
            full = dict(zip(top, tau))
            t = tuple(full.get(i, 0) for i in range(p.space.arity))
            if any(t) and t not in out:
                out[t] = coefficient_block(coeffs, s.dims, tau)
    return out


def max_block_norm(blocks: dict) -> float:
    """Largest Frobenius norm among a dict of blocks (0 when empty)."""
    return max((float(np.sqrt(frobenius_norm_sq(b))) for b in blocks.values()), default=0.0)


def block_products_all_tuples(dx, dy, s, out):
    """groupmix's coefficient product visiting every tuple: out's block at t becomes
    |G| x(t) y(t), zero x blocks are skipped, and a product block of norm at most
    eps/|G| times |G| x[0] y[0] becomes 0.  out is dx or zeros."""
    from groupmix.fourier import _block_view, _slot_offsets

    floor = np.finfo(np.float64).eps * abs(dx.flat[0] * dy.flat[0])
    offs = _slot_offsets(s)
    for t in itertools.product(range(len(s)), repeat=dx.ndim):
        view = _block_view(dx, t, offs, s.dims)
        a = view.reshape(-1, int(np.prod([s.dims[r] for r in t])))
        if not a.any():
            continue
        prod = a @ (a if dy is dx else _block_view(dy, t, offs, s.dims).reshape(a.shape))
        prod *= 0.0 if np.linalg.norm(prod) * dx.size <= floor else float(dx.size)
        _block_view(out, t, offs, s.dims)[...] = prod.reshape(view.shape)


def convolve_all_tuples(p, q, s, live_synthesis=False):
    """p * q for two groupmix FourierData (the FourierData of the product) or two
    Dists (the Dist, through groupmix's dense forward and inverse transforms), with the
    coefficient product of `block_products_all_tuples`.  With live_synthesis the Dist
    is synthesized by `_synthesize`'s rule from the blocks the loop kept, as
    `convolve_fourier` synthesizes its product."""
    from groupmix import fourier as fx

    if isinstance(p, fx.FourierData):
        out = np.zeros(p.dense.shape, dtype=np.result_type(p.dense, q.dense))
        block_products_all_tuples(p.dense, q.dense, p.irreps, out)
        return fx.FourierData(p.irreps, p.arity, out)
    m = p.space.arity
    dp = fx._forward(p.values, s, m)
    dq = dp if q is p else fx._forward(q.values, s, m)
    block_products_all_tuples(dp, dq, s, dp)
    norms = fx._block_norms_sq(dp, s) if live_synthesis else None
    return fx.make_dist(p.space, fx._synthesize(dp.reshape(-1), s, m, norms=norms))


def synthesize_dense(flat, s, m):
    """The values of the flat (n,)*m coefficient tensor by groupmix's dense synthesis, one
    pass per axis over every block, whatever the block norms say."""
    from groupmix import fourier as fx

    return fx._axis_passes(flat, fx._stacked(s)[1], m)
