"""The number-on-forehead box distribution and its uniformity properties.

For k parties draw u_i^0, u_i^1 uniformly from H (i < k).  The distribution
s lives on H^m with m = 2^k; the coordinate indexed by the bit pattern
x in [2]^k holds the product u_0^{x_0} u_1^{x_1} ... u_{k-1}^{x_{k-1}},
with coordinate index sum_i x_i 2^i.

Counting is exact 64-bit integer arithmetic throughout: s's 3-uniformity is
an exact-zero property that floating point cannot certify.  exact_s counts
one tuple per gauge orbit (see its docstring), n^(k+1) tuples instead of
n^(2k), and weights each by the orbit size n^(k-1).  The k = 2
cancellation identity s(00) s(10)^-1 s(11) s(01)^-1 = e pins the support
and is the concrete witness that s is not 4-uniform.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from groupmix.boost import ExperimentLog, _measure
from groupmix.fourier import (BoundViolation, Dist, _each_marginal, _pruned_forward, _reduce,
                              _split, convolve, dist_from_fourier, make_dist)
from groupmix.groups import GroupTable, ProductGroup, check_dense_budget
from groupmix.irreps import IrrepSet
from groupmix.uniformity import eps_k_uniform_counts


@dataclass(frozen=True)
class BoxDist:
    """Exact integer counts of the box distribution over H^(2^parties)."""

    base: GroupTable
    parties: int
    counts: np.ndarray        # int64, length |H|^m
    total: int                # |H|^(2*parties)

    def __post_init__(self):
        self.counts.setflags(write=False)

    @property
    def arity(self) -> int:
        return 2**self.parties

    @property
    def space(self) -> ProductGroup:
        return ProductGroup(self.base, self.arity)


def exact_s(h: GroupTable, parties: int) -> BoxDist:
    """Exact counts by enumerating one tuple per gauge orbit.

    Replacing u_i^b by g_{i-1}^-1 u_i^b g_i (g_{-1} = g_{k-1} = e) leaves every
    coordinate product unchanged, since the g's telescope.  H^(k-1) acts freely,
    so each orbit has n^(k-1) tuples and exactly one with u_i^0 = e for i < k-1:
    count those n^(k+1) tuples once each and weight every count by n^(k-1).
    """
    if parties < 1:
        raise ValueError("parties must be >= 1")
    check_dense_budget(ProductGroup(h, 2**parties))
    n = h.order
    k = parties
    m = 2**k
    half = m // 2
    mul = h.mul.astype(np.int64)
    elems = np.arange(n)

    # prefix[j] for j < 2^(k-1): the first k-1 parties' product over the free
    # u_i^1, with u_i^0 = e; one flat axis of length n^i after party i
    prefix = [np.zeros(1, dtype=np.int64)]
    for _ in range(k - 1):
        prefix = [np.repeat(a, n) for a in prefix] + [mul[a[:, None], elems].ravel() for a in prefix]
    # the last party's u^0 and u^1 are the two trailing axes
    flat = np.zeros((n ** (k - 1), n, n), dtype=np.int64)
    for j, a in enumerate(prefix):
        last = mul[a[:, None], elems]
        flat += last[:, :, None] * n**j
        flat += last[:, None, :] * n ** (j + half)
    counts = np.bincount(flat.ravel(), minlength=n**m)
    _split(np.multiply, counts, counts, n ** (k - 1))
    total = n ** (2 * k)
    [counted] = _reduce(counts, np.sum)
    if counted != total:
        raise BoundViolation(f"box counts sum to {counted}, not |H|^(2k) = {total}")
    return BoxDist(h, k, counts, total)


def box_to_dist(b: BoxDist) -> Dist:
    """Normalized-doubles export for the fourier/boost pipelines."""
    return make_dist(b.space, _split(np.divide, np.empty(b.counts.size), b.counts, float(b.total)))


def _identity_cells(h: GroupTable) -> np.ndarray:
    """Flat indices over H^4 of the n^3 points with x_0 x_1^-1 x_3 x_2^-1 = e, the cancellation
    identity s(00) s(10)^-1 s(11) s(01)^-1 = e: each (x_1, x_2, x_3) fixes x_0 = x_2 x_3^-1 x_1."""
    n = h.order
    x = np.arange(n, dtype=np.int64)
    x3, x2, x1 = x[:, None, None], x[None, :, None], x[None, None, :]
    x0 = h.mul[h.mul[x2, h.inv[x3]], x1]
    return (x0 + n * x1 + n**2 * x2 + n**3 * x3).ravel()


@dataclass(frozen=True)
class BoxUniformityReport:
    is_3_uniform: bool
    four_wise_deviation: Fraction
    identity_rate: float


def verify_s_uniformity(h: GroupTable, parties: int) -> tuple[BoxUniformityReport, Dist]:
    """Exact 3-uniformity, 4-wise deviation and cancellation-identity rate of s, and s itself
    (`box_to_dist`), from one count.  The rate is the mass of the first four coordinates'
    marginal on `_identity_cells`."""
    if parties < 2:
        raise ValueError("verify_s_uniformity needs parties >= 2 (arity >= 4)")
    b = exact_s(h, parties)
    n, m = h.order, b.arity
    rep3 = eps_k_uniform_counts(b.counts, n, m, 3)
    rep4 = eps_k_uniform_counts(b.counts, n, m, 4)
    [(_, marg)] = _each_marginal(b.counts, n, m, [(0, 1, 2, 3)])
    report = BoxUniformityReport(
        is_3_uniform=rep3.eps == 0,
        four_wise_deviation=rep4.eps,
        identity_rate=int(marg[_identity_cells(h)].sum()) / b.total,
    )
    return report, box_to_dist(b)


def advantage_curve(
    s_dist: Dist,
    t_max: int,
    s_irreps: IrrepSet,
    target_eps: float | None = None,
) -> ExperimentLog:
    """Distance metrics of the t-fold convolution s_dist * ... * s_dist, t = 1..t_max.

    s_dist is transformed once with the base irreps (`_pruned_forward`) and then released: a
    step is one coefficient product and one inverse (`dist_from_fourier`), measured in slices,
    so it holds the coefficients, the product, the values and one chunk of the synthesis stack.
    s_dist is freed there only if the caller holds no reference to it either.  tv_dist is the
    statistical distance to uniform; a rise in t raises BoundViolation.  Stops once linf_rel
    reaches target_eps.  seconds times a step t >= 2 from before the product to after the
    inverse; t = 1 is 0.
    """
    log, space, point = ExperimentLog(), s_dist.space, s_dist
    del s_dist    # point is this frame's one reference to s
    for t in range(1, t_max + 1):
        t0 = time.perf_counter()
        if t == 2:
            x = factor = _pruned_forward(point, s_irreps)[0]
        if t > 1:
            # drops s after its forward, then each step's values: the next product needs the room
            del point
            x = convolve(x, factor, s_irreps)
            point = dist_from_fourier(x, space)
        secs = time.perf_counter() - t0 if t > 1 else 0.0
        rec = _measure(point, t, "fresh-copy", None, True, secs)
        if log.records:
            prev = log.records[-1].tv_dist
            if not rec.tv_dist <= prev + 1e-12:
                raise BoundViolation(f"tv distance increased at t={t}: {rec.tv_dist} > {prev}")
        log.add(rec)
        if target_eps is not None and rec.linf_rel <= target_eps:
            break
    return log
