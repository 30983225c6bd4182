"""Fourier analysis on a group and tensor-structured transforms on powers H^m.

Normalization follows the expectation convention: a coefficient is
c(rho) = E_x f(x) conj(rho(x)), inversion is f(x) = sum_rho d_rho
tr(c(rho) rho(x)^T), and convolution is the plain sum p*q(x) =
sum_y p(y) q(y^{-1} x), so the convolution theorem carries the explicit
|G| factor: (p*q)^(rho) = |G| p_hat(rho) q_hat(rho).  `convolve` applies it
to two FourierData block by block, with no transform.

Irreps of H^m are tensor products of base irreps, indexed by m-tuples of
base-irrep indices with coordinate 0 as the least significant kron factor.
A base group H is read as H^1 throughout, so every function on a Dist takes
either kind of space.
The transform is separable (Diaconis & Rockmore 1990): all base irreps are
stacked into one n x n matrix, applied along each coordinate axis of the
(n,)*m tensor with one batched matmul, m * n^(m+1) scalar work in all.

The stacked matrices, and so the coefficient tensor of a real function, are
real exactly when every base irrep matrix is real-valued.  That is decided
when the irreps are built: `compute_irreps` writes every irrep of
Frobenius-Schur indicator +1 in a real orthogonal basis, so a group whose
irreps are all of real type (A5 among the built-in groups) transforms in
float64 arithmetic, and any other group in complex128.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass

import numpy as np

from groupmix.groups import GroupTable, ProductGroup, Space, check_dense_budget, same_space
from groupmix.irreps import IrrepSet

DIST_SUM_TOL = 1e-9
NEG_CLAMP = -1e-15
_REAL_TOL = 1e-9
_DIRECT_ENGINE_MAX = 10_000       # above this many states convolve() uses fourier
_DIRECT_REST_MAX = 4096           # direct product engine builds an R x R index table
_STACK_SHARE = 6                  # a chunked synthesis stack holds about 1/6 of the entries
_POOL_MIN = 1 << 18               # jobs on a tensor with fewer entries run one after another
_GEMM_MIN = 1 << 21               # least multiply-adds of a GEMM piece: BLAS rounds small ones apart
_GEMM_ALIGN = 64                  # GEMM pieces start at multiples of this many rows or columns
_pool = None                      # ((pid, workers), executor), made on first use


class SpaceMismatchError(ValueError):
    pass


class BoundViolation(AssertionError):
    """A checked inequality failed on concrete numbers.

    Raised explicitly rather than by `assert`, so the checks also run under
    `python -O`.
    """


@dataclass(frozen=True)
class Dist:
    """Dense probability vector over a group or product group."""

    space: Space
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def size(self) -> int:
        return self.space.size

    def __repr__(self):
        return f"Dist({self.space!r}, {self.size} states)"


def make_dist(space: Space, values) -> Dist:
    """Validate and ingest a probability vector (tiny negatives clamp to 0)."""
    check_dense_budget(space)
    v = np.asarray(values, dtype=np.float64)
    n = space.size
    if v.shape != (n,):
        raise ValueError(f"expected {n} values for {space!r}, got shape {v.shape}")
    low = float(v.min()) if n else 0.0
    if low < NEG_CLAMP:
        raise ValueError(f"negative probability {low} below clamp threshold {NEG_CLAMP}")
    if low < 0.0:
        v = np.where(v < 0.0, 0.0, v)
    total = float(v.sum())
    # negated so that NaN fails too; -inf fails the clamp check, +inf the sum
    if not abs(total - 1.0) <= DIST_SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1 within {DIST_SUM_TOL}")
    return Dist(space, v)


def uniform(space: Space) -> Dist:
    n = space.size
    return make_dist(space, np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# job pool
#
# Work is cut into independent jobs whose results do not depend on how it is cut: matmuls of a
# batch, the groups of a pruned pass, synthesis rows and norm rows.  A GEMM is cut only into
# pieces that start at a multiple of _GEMM_ALIGN rows (or columns) and hold at least _GEMM_MIN
# multiply-adds, so BLAS runs each piece with the kernels of the whole.  So every output is
# the same bits at any worker count; numpy and BLAS release the GIL in the jobs.


def _pool_workers(cpus: int, env) -> int:
    """Threads of the job pool on `cpus` usable CPUs: the CPUs over the threads of one BLAS call,
    read as OpenBLAS reads them at load (OPENBLAS_NUM_THREADS, else GOTO_NUM_THREADS, else
    OMP_NUM_THREADS, else one per CPU).  So the pool runs only where BLAS is pinned below the
    CPU count: an unpinned BLAS already runs each GEMM on every CPU, and pooling its calls is
    slower."""
    blas = cpus
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = env.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            blas = min(int(value), cpus)
            break
    return max(1, cpus // blas)


_WORKERS = _pool_workers(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                         else os.cpu_count() or 1, os.environ)


def _run(jobs: list, size: int) -> list:
    """The results of `jobs`, callables on a tensor of `size` entries, in order.  They run on
    the pool when it has more than one worker and the tensor at least _POOL_MIN entries, else
    one after another.  Every job ends before the first error is raised.  A job must not call
    `_run`: waiting on the pool from inside it can leave no worker free."""
    global _pool
    if len(jobs) < 2 or _pieces(size) < 2:
        return [job() for job in jobs]
    if _pool is None or _pool[0] != (os.getpid(), _WORKERS):
        from concurrent.futures import ThreadPoolExecutor    # not imported by serial runs

        _pool = (os.getpid(), _WORKERS), ThreadPoolExecutor(_WORKERS)
    futures = [_pool[1].submit(job) for job in jobs]
    for f in futures:
        f.exception()    # waits for the job
    return [f.result() for f in futures]


def _pieces(size: int) -> int:
    """The pieces work on a tensor of `size` entries is cut into: one per worker on the pool."""
    return _WORKERS if size >= _POOL_MIN else 1


def _spans(count: int, size: int, least: int = 1, align: int = 1) -> list[tuple[int, int]]:
    """range(count) cut into `_pieces(size)` contiguous pieces, or fewer: each starts at a
    multiple of `align` and holds at least `least` multiples of it."""
    units = count // align
    pieces = max(1, min(_pieces(size), units // least))
    edges = [units * i // pieces * align for i in range(pieces)] + [count]
    return list(zip(edges, edges[1:]))


def _gemm_spans(rows: int, inner: int, cols: int, size: int) -> list[tuple[int, int]]:
    """`_spans` of the rows of a (rows, inner) @ (inner, cols) GEMM (or its columns, transposed)."""
    least = -(-_GEMM_MIN // max(1, _GEMM_ALIGN * inner * cols))
    return _spans(rows, size, least, _GEMM_ALIGN)


# ---------------------------------------------------------------------------
# dense transform core
#
# One axis of a coefficient tensor lists the n = sum d^2 entries of all base
# irreps slot by slot: irrep a occupies the d_a^2 slots from offset
# off_a = sum_{b<a} d_b^2, its (i, j) entry at off_a + i d_a + j.  A tensor
# over H^m has shape (n,)*m in C order, so axis j holds coordinate m-1-j and
# the flat C index equals the flat element index sum_i x_i n^i.


def _stacked(s: IrrepSet) -> tuple[np.ndarray, np.ndarray]:
    """Analysis F[x, (a,i,j)] = conj(rho_a(x)_ij) / n and synthesis
    S[(a,i,j), x] = d_a rho_a(x)_ij, float64 when every irrep is real-valued."""
    rows = np.concatenate([r.matrices.reshape(s.order, -1) for r in s.irreps], axis=1)
    if not rows.imag.any():
        rows = rows.real
    return rows.conj() / s.order, (rows * np.repeat(s.dims, np.square(s.dims))).T


def _axis_passes(t: np.ndarray, mat: np.ndarray, m: int, bufs: list[np.ndarray] | None = None,
                 s: IrrepSet | None = None, floor: float | None = None):
    """Contract mat[in, out] with every axis of the flat (n,)*m tensor t.

    Pass k views the tensor as (n^k, n, n^(m-1-k)) and multiplies its middle
    axis with one batched matmul, so no pass transposes; the fastest axis is
    a single (n^(m-1), n) @ mat.  Passes alternate between two flat buffers
    of the result dtype of t and mat (t may be one of them) and return the
    one holding the result.

    Given the irreps s and a floor, mat being the analysis matrix, t is transformed for the
    product t * t and comes back with its squared block norms.  After each pass `_kept_groups`
    drops the prefix groups under which the floor would zero every product, and the next pass
    runs over the kept ones: one batched matmul per group, and in the last pass one GEMM over
    the kept rows, gathered into the front of the free buffer (a GEMM per group would change
    bits: BLAS multiplies few rows with other kernels).  A pass that keeps every group is the
    dense one.  Under a dropped prefix the norms read 0 and the tensor holds stale values.
    """
    n = mat.shape[0]
    bufs = bufs or [np.empty(t.size, dtype=np.result_type(t, mat)) for _ in range(2)]
    mat = mat.astype(bufs[0].dtype, copy=False)
    src = t
    if src.dtype != bufs[0].dtype:
        bufs[1][...] = src
        src = bufs[1]
    keep = np.ones((), dtype=bool)    # the kept prefix groups: before pass 0 the empty prefix
    if floor is not None:
        cuts = _slot_offsets(s)
        slots = [slice(lo, lo + d * d) for lo, d in zip(cuts, s.dims)]
        irrep_of_slot = np.repeat(np.arange(len(s)), np.square(s.dims))
    for k in range(m):
        dst = bufs[1] if src is bufs[0] else bufs[0]
        b, a = n**k, n ** (m - 1 - k)
        if keep.all() and a == 1:
            sv, dv = src.reshape(b, n), dst.reshape(b, n)
            _run([functools.partial(np.matmul, sv[lo:hi], mat, out=dv[lo:hi])
                  for lo, hi in _gemm_spans(b, n, n, t.size)], t.size)
        elif keep.all():
            # the batch split, or the columns of the one GEMM of pass 0
            sv, dv = src.reshape(b, n, a), dst.reshape(b, n, a)
            cut = ([np.s_[lo:hi] for lo, hi in _spans(b, t.size)] if b > 1 else
                   [np.s_[..., lo:hi] for lo, hi in _gemm_spans(a, n, n, t.size)])
            _run([functools.partial(np.matmul, mat.T, sv[c], out=dv[c]) for c in cut], t.size)
        elif a > 1:
            # each group's batch split: the pool balances groups of unlike sizes
            sv, dv = src.reshape((n,) * k + (n, a)), dst.reshape((n,) * k + (n, a))
            groups = [tuple(slots[i] for i in g) for g in np.argwhere(keep)]
            views = [(sv[sl], dv[sl]) for sl in groups]
            _run([functools.partial(np.matmul, mat.T, x[lo:hi], out=y[lo:hi])
                  for x, y in views for lo, hi in _spans(len(x), t.size)], t.size)
        else:
            rows = np.flatnonzero(keep[np.ix_(*[irrep_of_slot] * k)])
            sv, dv = src.reshape(b, n), dst.reshape(b, n)
            live, prod = dv[: rows.size], sv[: rows.size]
            spans = _gemm_spans(rows.size, n, n, t.size)
            # mode="raise" would buffer the whole gather; rows are in range
            _run([functools.partial(np.take, sv, rows[lo:hi], axis=0, out=live[lo:hi], mode="clip")
                  for lo, hi in spans], t.size)
            # src is spent: its front takes the product, scattered into place
            _run([functools.partial(np.matmul, live[lo:hi], mat, out=prod[lo:hi])
                  for lo, hi in spans], t.size)
            _run([functools.partial(dv.__setitem__, rows[lo:hi], prod[lo:hi]) for lo, hi in spans],
                 t.size)
        src = dst
        if floor is not None:
            keep, norms = _kept_groups(src, cuts, slots, keep, m, floor)
    if floor is None:
        return src
    if floor > np.finfo(np.float64).eps * abs(src[0] * src[0]):
        raise BoundViolation(f"pruning floor {floor} above the product floor of {src[0]}")
    return src, norms


def _kept_groups(y: np.ndarray, cuts: np.ndarray, slots: list[slice], keep: np.ndarray, m: int,
                 floor: float):
    """After pass k = keep.ndim of the forward transform for y * y (irrep a in slots[a], from
    cuts[a]): the groups of irreps on axes 0..k under a kept prefix that the floor may not zero,
    and the energies summed.  After the last pass these are the squared block norms, 0 under a
    dropped prefix.

    A group's energy E sums |y|^2 over its slots and the n^j values of the j = m-1-k axes not
    yet transformed.  By Parseval (E_x |f|^2 = sum_rho d_rho |c(rho)|_F^2) every block under it
    ends with squared norm at most E/n^j, so once |G| E/n^j (1 + 1e-9) <= floor, at most the
    floor of `_block_products`, that test skips all of them.  Before the last pass the first n
    values of each group's first row bound E from below; only prefixes with a group that bound
    does not keep are summed, so a pass that keeps every group reads one short row per group."""
    n, k = slots[-1].stop, keep.ndim
    j = m - 1 - k
    y = y.reshape((n,) * (k + 1) + (n**j,) * bool(j))
    live = np.repeat(keep[..., None], len(cuts), axis=-1)
    scale = y.size / float(n) ** j * (1 + 1e-9)    # a group is dropped at scale E <= floor
    todo = live
    if j:
        head = np.abs(y[np.ix_(*[cuts] * (k + 1), np.arange(n))])
        todo = live & (scale * np.sum(np.square(head, out=head), axis=-1) <= floor)    # NaN: kept
    energy = np.zeros(live.shape)
    if todo.all():
        energy = _segment_norms_sq(y, [cuts] * (k + 1) + [[0]] * bool(j)).reshape(live.shape)
    else:
        children = [[0]] * k + [cuts] + [[0]] * bool(j)    # all of a prefix's groups at once
        for g in np.argwhere(todo.any(axis=-1)):
            energy[tuple(g)] = _segment_norms_sq(y[tuple(slots[i] for i in g)], children).reshape(-1)
    return live & ~(todo & (scale * energy <= floor)), energy


def _slot_offsets(s: IrrepSet) -> np.ndarray:
    return np.cumsum((0,) + tuple(d * d for d in s.dims[:-1]))


def _block_view(dense: np.ndarray, t: tuple[int, ...], offs, dims) -> np.ndarray:
    """Tuple t's block as a view with axes (r_{m-1}, ..., r_0, c_{m-1}, ..., c_0), given the
    slot offsets and dims of the irreps."""
    m = len(t)
    view = dense[tuple(slice(offs[a], offs[a] + dims[a] ** 2) for a in t[::-1])]
    view = view.reshape([dims[a] for a in t[::-1] for _ in (0, 1)])
    return view.transpose(list(range(0, 2 * m, 2)) + list(range(1, 2 * m, 2)))


def _segment_norms_sq(x: np.ndarray, cuts: list) -> np.ndarray:
    """Sums of |x|^2 over every product of segments, cuts[j] the reduceat starts on axis j.

    x is walked one axis-0 row at a time: each row is squared into a row buffer and summed with
    reduceat, fastest axis first, and axis 0 is summed last, so no temporary is larger than a
    row.  The caller allocates each job's buffer, so no pool thread keeps row-sized memory."""
    part = np.empty(x.shape[:1] + tuple(len(c) for c in cuts[1:]))
    spans = _spans(len(x), x.size)

    def rows(lo, hi, buf):
        for i in range(lo, hi):
            sq = np.square(np.abs(x[i : i + 1], out=buf) if np.iscomplexobj(x) else x[i : i + 1],
                           out=buf)
            for axis in range(x.ndim - 1, 0, -1):
                sq = np.add.reduceat(sq, cuts[axis], axis=axis)
            part[i] = sq[0]

    _run([functools.partial(rows, lo, hi, np.empty((1,) + x.shape[1:])) for lo, hi in spans],
         x.size)
    return np.add.reduceat(part, cuts[0], axis=0)


def _block_norms_sq(dense: np.ndarray, s: IrrepSet) -> np.ndarray:
    """Squared Frobenius norm of every block, an (n_irreps,)*m array whose axis j, like the
    tensor's, holds coordinate m-1-j."""
    return _segment_norms_sq(dense, [_slot_offsets(s)] * dense.ndim)


@dataclass(frozen=True)
class FourierData:
    """Coefficients of a function as one dense (n,)*arity tensor in the slot layout."""

    irreps: IrrepSet
    arity: int
    dense: np.ndarray

    def __post_init__(self):
        self.dense.setflags(write=False)

    @functools.cached_property
    def block_norms_sq(self) -> np.ndarray:
        """`_block_norms_sq` of the tensor; `convolve` sets its product's norms (to rounding)."""
        return _block_norms_sq(self.dense, self.irreps)


def _check_base(s: IrrepSet, space: Space):
    if s.group_fingerprint != space.base.fingerprint:
        raise SpaceMismatchError("irrep set does not belong to this space's base group")


def _forward(values, s: IrrepSet, m: int) -> np.ndarray:
    return _axis_passes(np.asarray(values), _stacked(s)[0], m).reshape((s.order,) * m)


def product_fourier_forward(f, pg: Space, s: IrrepSet) -> FourierData:
    """Transform on H^m: one batched-matmul pass per coordinate."""
    _check_base(s, pg)
    check_dense_budget(pg)
    f = np.asarray(f)
    if f.shape != (pg.size,):
        raise ValueError(f"function length {f.shape} does not match {pg!r}")
    return FourierData(s, pg.arity, _forward(f, s, pg.arity))


def product_fourier_inverse(fd: FourierData) -> np.ndarray:
    shape = (fd.irreps.order,) * fd.arity
    if fd.dense.shape != shape:
        raise ValueError(f"expected a coefficient tensor of shape {shape}, got {fd.dense.shape}")
    return _axis_passes(fd.dense.reshape(-1), _stacked(fd.irreps)[1], fd.arity)


def dist_fourier(p: Dist, s: IrrepSet) -> FourierData:
    return product_fourier_forward(p.values, p.space, s)


# ---------------------------------------------------------------------------
# convolution engines


def convolve_direct(p: Dist, q: Dist) -> Dist:
    """Definitionally exact sum p*q(x) = sum_y p(y) q(y^{-1} x)."""
    if not same_space(p.space, q.space):
        raise SpaceMismatchError("convolution across different spaces")
    return make_dist(p.space, _convolve_direct_product(p.space, p.values, q.values))


def _rest_inverse_table(g: GroupTable, m_rest: int) -> np.ndarray:
    """Index table L[Y, X] = flat(Y^{-1} X) over H^{m_rest}; over H^0 it is the
    1x1 zero table.  Coordinate i enters as the most significant digit so far:
    L[(y_i, Y), (x_i, X)] = flat(y_i^{-1} x_i) n^i + L[Y, X]."""
    n = g.order
    r = n**m_rest
    if r > _DIRECT_REST_MAX:
        raise ValueError(
            f"direct product convolution would build a {r}x{r} index table; "
            "use convolve_fourier for spaces this large"
        )
    acc = np.zeros((1, 1), dtype=np.int64)
    for i in range(m_rest):
        # in the loop, so a base group (rest H^0) builds no n x n table; m_rest >= 2 means n <= 64
        linv = g.mul[g.inv, :].astype(np.int64) * n**i
        acc = (linv[:, None, :, None] + acc[None, :, None, :]).reshape(n ** (i + 1), -1)
    return acc


def _convolve_direct_product(pg: Space, pv, qv) -> np.ndarray:
    """H^m as H times H^(m-1): pair coordinate 0 through the base table, the rest
    through the index table of H^(m-1).  np.dot, unlike matmul, multiplies by a
    1x1 matrix as a scalar, so on a base group a step costs what p * q[c] does."""
    n = pg.base.order
    rest = _rest_inverse_table(pg.base, pg.arity - 1)
    r = rest.shape[0]
    pmat = pv.reshape(n, r, order="F")
    qmat = qv.reshape(n, r, order="F")
    out = np.zeros((n, r))
    for c in range(n):
        out[pg.base.mul[:, c]] += pmat.dot(qmat[c][rest])
    return out.ravel(order="F")


def _block_products(dx: np.ndarray, dy: np.ndarray, nx: np.ndarray, ny: np.ndarray, s: IrrepSet,
                    out: np.ndarray) -> np.ndarray:
    """Set out's block at every tuple t to |G| x(t) y(t) and return out's squared block norms; out
    is zeroed and is neither operand, and nx, ny are the squared block norms of dx and dy.  A block
    of norm <= eps/|G| times the mean value (the trivial block, |G| x[0] y[0]) stays 0: all such move
    no value by over eps times the mean (|d tr(c rho)| <= d^2 |c|_F, sum d^2 = |G|), and carried on
    they would decay into subnormals, on which BLAS is ~20x slower.  As |x(t) y(t)|_F <= |x(t)|_F
    |y(t)|_F, nx and ny tell which products it zeroes (1 + 1e-9 covers rounding; entries below
    1e-162 square to 0): only the others are multiplied."""
    floor = np.finfo(np.float64).eps * abs(dx.flat[0] * dy.flat[0])
    dead = dx.size * np.sqrt(nx) * np.sqrt(ny) * (1 + 1e-9) <= floor    # NaN stays live
    nout = np.zeros_like(nx)
    offs, dims = _slot_offsets(s), s.dims
    for idx in np.argwhere(~dead):
        t = tuple(idx[::-1])
        view = _block_view(dx, t, offs, dims)
        a = view.reshape(-1, int(np.prod([dims[r] for r in t])))
        prod = a @ (a if dy is dx else _block_view(dy, t, offs, dims).reshape(a.shape))
        norm = np.linalg.norm(prod) * dx.size
        prod *= 0.0 if norm <= floor else float(dx.size)
        _block_view(out, t, offs, dims)[...] = prod.reshape(view.shape)
        nout[tuple(idx)] = 0.0 if norm <= floor else norm * norm
        del a, prod
    return nout


def _live_passes(flat: np.ndarray, syn: np.ndarray, s: IrrepSet, m: int, live: np.ndarray,
                 bufs: list[np.ndarray] | None = None) -> np.ndarray:
    """Synthesis of the flat (n,)*m tensor whose blocks are zero off `live`, an array of
    norm-array indices (axis j the irrep of coordinate m-1-j) sorted by coordinate 0.

    For each live tuple and each slot r of its coordinate-0 irrep, the d^2 x n rows of syn
    of axes 0..m-2 are applied, in `_axis_passes`' order, to the block's slab at r; the result
    is one row of a (width, n^(m-1)) stack, and one GEMM with the syn rows of those slots
    gives every value.  Given bufs, the values go to bufs[1], which may be flat itself, and the
    stack to the front of bufs[0], in one chunk: it is complete before the values are written.
    Otherwise both are fresh, and the stack is built for one chunk of axis-0 rows at a time,
    about 1/_STACK_SHARE of flat's entries: a slab's axis-0 pass runs whole (fewer rows would
    change bits), the later passes and the GEMM run on the chunk's rows.
    """
    n, offs, sq = s.order, _slot_offsets(s), np.square(s.dims)
    syn = syn.astype(np.result_type(flat, syn), copy=False)
    dense = flat.reshape((n,) * m)
    slabs = [(t, r) for t in live for r in range(offs[t[-1]], offs[t[-1]] + sq[t[-1]])]
    # at least two rows a chunk: BLAS takes a one-row product as a GEMV, which rounds otherwise
    chunks = 1 if bufs else max(1, min(n // 2, -(-_STACK_SHARE * len(slabs) // n)))
    edges = [n * i // chunks for i in range(chunks + 1)]
    rest = n ** (m - 2)
    scratch, vals = bufs or (np.empty(len(slabs) * -(-n // chunks) * rest, dtype=syn.dtype),
                             np.empty(flat.size, dtype=syn.dtype))
    gemm = syn[[r for _, r in slabs]]

    def fill(rows, lo, hi):
        for row, (t, r) in rows:
            sl = [slice(offs[a], offs[a] + sq[a]) for a in t[:-1]]
            src = dense[tuple(sl) + (r,)]
            if m == 2:    # the axis-0 pass is the only one
                row[...] = np.matmul(src.reshape(1, -1), syn[sl[0]])[0, lo:hi]
                continue
            src = np.matmul(syn[sl[0]].T, src.reshape(1, sq[t[0]], -1))[0, lo:hi]
            for k in range(1, m - 2):
                src = np.matmul(syn[sl[k]].T, src.reshape((hi - lo) * n ** (k - 1), sq[t[k]], -1))
            np.matmul(src.reshape(-1, sq[t[-2]]), syn[sl[-1]], out=row.reshape(-1, n))

    pieces = _pieces(flat.size)
    for lo, hi in zip(edges, edges[1:]):
        stack = scratch[: len(slabs) * (hi - lo) * rest].reshape(len(slabs), (hi - lo) * rest)
        rows = list(zip(stack, slabs))
        # every pieces-th slab to a job: slabs ascend in size with their coordinate-0 irrep
        _run([functools.partial(fill, rows[j::pieces], lo, hi) for j in range(pieces)], flat.size)
        out, st = vals.reshape(n, -1)[lo:hi].reshape(-1, n), stack.T
        _run([functools.partial(np.matmul, st[a:b], gemm, out=out[a:b])
              for a, b in _gemm_spans(len(st), len(slabs), n, flat.size)], flat.size)
    return vals


def _synthesize(flat: np.ndarray, s: IrrepSet, m: int, bufs=None,
                norms: np.ndarray | None = None) -> np.ndarray:
    """The real values with coefficients `flat`, writable: synthesis and imaginary residual.

    Given flat's squared block norms, a block is live iff its norm is not 0, so a NaN block
    stays live and fails make_dist.  When m >= 2 and the live tuples' coordinate-0 irreps
    have d^2 summing to at most n, `_live_passes` synthesizes from the live blocks alone: its
    stack then fits in one buffer and its final GEMM costs at most one of the m dense passes.
    Otherwise `_axis_passes` runs."""
    syn = _stacked(s)[1]
    live = np.argwhere(norms != 0) if norms is not None and m >= 2 else None
    if live is not None and np.square(s.dims)[live[:, -1]].sum() <= s.order:
        # ascending coordinate-0 slots: the final GEMM sums them in _axis_passes' order
        vals = _live_passes(flat, syn, s, m, live[np.argsort(live[:, -1], kind="stable")], bufs)
    else:
        vals = _axis_passes(flat, syn, m, bufs)
    if np.iscomplexobj(vals):
        worst_imag = max(float(vals.imag.max()), -float(vals.imag.min()))
        if worst_imag > _REAL_TOL:
            raise ValueError(f"synthesized values have imaginary residual {worst_imag}")
        vals = np.ascontiguousarray(vals.real)
    return vals


def dist_from_fourier(fd: FourierData, space: Space) -> Dist:
    """The distribution on `space` whose coefficients are fd (one inverse transform, from the
    live blocks alone where `_synthesize` finds few enough)."""
    _check_base(fd.irreps, space)
    return make_dist(space, _synthesize(fd.dense.reshape(-1), fd.irreps, fd.arity,
                                        norms=fd.block_norms_sq))


def _pruned_forward(p: Dist, s: IrrepSet) -> tuple[FourierData, np.ndarray, np.ndarray]:
    """p's coefficients for p * p, block norms set, the flat buffer they fill and a spare one.

    The forward drops the prefix groups whose products the floor would zero (`_axis_passes`),
    against eps/|G|^2 (sum p)^2 less 1e-6: at most the floor `_block_products` takes from the
    trivial coefficient sum p/|G|.  A dropped block's norm reads 0, so no product reads it."""
    m = p.space.arity
    ana = _stacked(s)[0]
    bufs = [np.empty(p.size, dtype=ana.dtype) for _ in range(2)]
    floor = np.finfo(np.float64).eps * float(p.values.sum()) ** 2 / p.size**2 * (1 - 1e-6)
    cp, norms = _axis_passes(p.values, ana, m, bufs, s, floor)
    fd = FourierData(s, m, cp.reshape((s.order,) * m))
    vars(fd)["block_norms_sq"] = norms     # the cached_property's slot
    return fd, cp, bufs[1] if cp is bufs[0] else bufs[0]


def convolve_fourier(p: Dist, q: Dist, s: IrrepSet) -> Dist:
    """Convolution through coefficient products: (p*q)^ = |G| p_hat q_hat.

    Two operands go through `dist_fourier`, `convolve` on the two FourierData and
    `dist_from_fourier`.  p * p takes `_pruned_forward`; its product fills the spare buffer,
    the values overwrite the product, and the stack the spent coefficients."""
    if not same_space(p.space, q.space):
        raise SpaceMismatchError("convolution across different spaces")
    _check_base(s, p.space)
    if q is not p and q.values is not p.values:
        return dist_from_fourier(convolve(dist_fourier(p, s), dist_fourier(q, s)), p.space)
    fd, cp, free = _pruned_forward(p, s)
    dp, norms = fd.dense, fd.block_norms_sq
    free.fill(0)
    nout = _block_products(dp, dp, norms, norms, s, free.reshape(dp.shape))
    return make_dist(p.space, _synthesize(free, s, fd.arity, [cp, free], nout))


def resolve_engine(size: int, s: IrrepSet | None = None) -> str:
    """The engine `convolve` uses on `size` states: direct up to 10^4, fourier above."""
    if size <= _DIRECT_ENGINE_MAX:
        return "direct"
    if s is None:
        raise ValueError("fourier engine needs the base group's irreps")
    return "fourier"


def convolve(p: Dist | FourierData, q: Dist | FourierData,
             s: IrrepSet | None = None) -> Dist | FourierData:
    """p * q for two Dists, on the engine `resolve_engine` picks.  For two FourierData
    it is the FourierData |G| p_hat q_hat, with no transform (s is not read)."""
    if isinstance(p, FourierData) is not isinstance(q, FourierData):
        raise TypeError("convolve needs two Dists or two FourierData, not one of each")
    if isinstance(p, FourierData):
        same = q.irreps is p.irreps or np.array_equal(_stacked(q.irreps)[0], _stacked(p.irreps)[0])
        if p.arity != q.arity or not same:
            raise SpaceMismatchError("coefficient product across different arities or irrep sets")
        out = np.zeros(p.dense.shape, dtype=np.result_type(p.dense, q.dense))
        norms = _block_products(p.dense, q.dense, p.block_norms_sq, q.block_norms_sq, p.irreps, out)
        fd = FourierData(p.irreps, p.arity, out)
        vars(fd)["block_norms_sq"] = norms     # the cached_property's slot
        return fd
    if resolve_engine(p.size, s) == "direct":
        return convolve_direct(p, q)
    return convolve_fourier(p, q, s)


# ---------------------------------------------------------------------------
# marginals and low-weight coefficients


def _marginal_values(values: np.ndarray, pg: Space, coords: tuple[int, ...]) -> np.ndarray:
    m = pg.arity
    if len(set(coords)) != len(coords) or not all(0 <= c < m for c in coords):
        raise ValueError(f"bad coordinate subset {coords} for arity {m}")
    n = pg.base.order
    arr = values.reshape((n,) * m, order="F")
    other = tuple(i for i in range(m) if i not in coords)
    marg = arr.sum(axis=other) if other else arr
    kept_sorted = sorted(coords)
    marg = marg.transpose([kept_sorted.index(c) for c in coords])
    return np.ravel(marg, order="F")


def marginalize(p: Dist, coords) -> Dist:
    """Exact coordinate-sum marginal onto the listed coordinates, in order."""
    coords = tuple(int(c) for c in coords)
    out_space = ProductGroup(p.space.base, len(coords))
    return make_dist(out_space, _marginal_values(p.values, p.space, coords))


def _low_weight_transforms(p: Dist, k: int, s: IrrepSet):
    """Yield (top, coefficients) for every k-subset `top` of the coordinates, in
    `itertools.combinations` order.

    A coefficient supported on S equals n^(k-m) times the matching coefficient
    of the marginal onto any k-subset holding S, so one |H|^k-sized transform
    per top holds every weight-1..k coefficient.  Each is kept only in the
    first top that holds its support: the all-trivial entry is zeroed, and for
    every earlier top t the sub-block with slot 0 (the trivial irrep) on the
    coordinates of top outside t.
    """
    _check_base(s, p.space)
    m = p.space.arity
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in [1, {m}], got {k}")
    n = p.space.base.order
    tops = list(itertools.combinations(range(m), k))
    for i, top in enumerate(tops):
        coeffs = _forward(_marginal_values(p.values, p.space, top), s, k)
        coeffs *= float(n) ** (k - m)
        coeffs[(0,) * k] = 0.0
        for t in tops[:i]:
            # axis j of the tensor holds coordinate top[k-1-j]
            coeffs[tuple(slice(None) if c in t else 0 for c in reversed(top))] = 0.0
        yield top, coeffs


def max_low_weight_norm(p: Dist, k: int, s: IrrepSet) -> float:
    """Largest Frobenius norm of a weight-1..k coefficient block of p."""
    return max(
        float(np.sqrt(_block_norms_sq(coeffs, s).max()))
        for _, coeffs in _low_weight_transforms(p, k, s)
    )
