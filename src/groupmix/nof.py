"""The number-on-forehead box distribution and its uniformity properties.

For k parties draw u_i^0, u_i^1 uniformly from H (i < k).  The distribution
s lives on H^m with m = 2^k; the coordinate indexed by the bit pattern
x in [2]^k holds the product u_0^{x_0} u_1^{x_1} ... u_{k-1}^{x_{k-1}},
with coordinate index sum_i x_i 2^i.

Counting is exact 64-bit integer arithmetic throughout: s's 3-uniformity is
an exact-zero property that floating point cannot certify.  The k = 2
cancellation identity s(00) s(10)^-1 s(11) s(01)^-1 = e pins the support
and is the concrete witness that s is not 4-uniform.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from groupmix.boost import ExperimentLog, StepRecord, l2_sq_dist_to_uniform, numerical_floor, tv_to_uniform
from groupmix.fourier import BoundViolation, Dist, convolve, make_dist
from groupmix.groups import MAX_DENSE_STATES, GroupTable, ProductGroup
from groupmix.irreps import IrrepSet
from groupmix.uniformity import eps_k_uniform_counts, eps_uniform

_ENUM_BUDGET = 10**9


class BudgetError(ValueError):
    pass


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


def _check_budgets(h: GroupTable, parties: int):
    if parties < 1:
        raise ValueError("parties must be >= 1")
    n = h.order
    m = 2**parties
    if n ** (2 * parties) > _ENUM_BUDGET:
        raise BudgetError(
            f"enumerating |H|^{2 * parties} = {n ** (2 * parties)} tuples is above the "
            f"{_ENUM_BUDGET} budget; use sample_s instead"
        )
    if n**m > MAX_DENSE_STATES:
        raise BudgetError(
            f"dense counts over H^{m} need {n**m} states, above the supported "
            f"{MAX_DENSE_STATES}; use sample_s instead"
        )


def exact_s(h: GroupTable, parties: int) -> BoxDist:
    """Exact counts by full enumeration of all (u_i^0, u_i^1) assignments."""
    _check_budgets(h, parties)
    n = h.order
    k = parties
    m = 2**k
    mul = h.mul
    counts = np.zeros(n**m, dtype=np.int64)

    # vectorize the last party's two slots, loop over the first k-1 parties
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
    total = n ** (2 * k)
    if int(counts.sum()) != total:
        raise BoundViolation(f"box counts sum to {int(counts.sum())}, not |H|^(2k) = {total}")
    return BoxDist(h, k, counts, total)


def box_to_dist(b: BoxDist) -> Dist:
    """Normalized-doubles export for the fourier/boost pipelines."""
    return make_dist(b.space, b.counts / float(b.total))


def sample_s_many(h: GroupTable, parties: int, size: int, seed: int) -> np.ndarray:
    """(size, m) array of draws; fixed seed reproduces identical tuples."""
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


def sample_s(h: GroupTable, parties: int, seed: int) -> tuple[int, ...]:
    """One draw of the box distribution as an m-tuple of element indices."""
    return tuple(int(v) for v in sample_s_many(h, parties, 1, seed)[0])


def cancellation_identity_holds(h: GroupTable, points: np.ndarray) -> np.ndarray:
    """Check s(00) s(10)^-1 s(11) s(01)^-1 = e on (size, 4) coordinate rows.

    Coordinate order is (s(00), s(10), s(01), s(11)) per the bit indexing,
    so the chain reads columns 0, 1, 3, 2.
    """
    mul, inv = h.mul, h.inv
    acc = mul[points[:, 0], inv[points[:, 1]]]
    acc = mul[acc, points[:, 3]]
    acc = mul[acc, inv[points[:, 2]]]
    return acc == 0


@dataclass(frozen=True)
class BoxUniformityReport:
    is_3_uniform: bool
    four_wise_deviation: Fraction
    identity_sample_rate: float


def verify_s_uniformity(h: GroupTable, parties: int, identity_samples: int = 100_000,
                        seed: int = 0) -> BoxUniformityReport:
    """Exact 3-uniformity and 4-wise deviation of s by integer counting."""
    if parties < 2:
        raise ValueError("verify_s_uniformity needs parties >= 2 (arity >= 4)")
    b = exact_s(h, parties)
    n, m = h.order, b.arity
    rep3 = eps_k_uniform_counts(b.counts, n, m, 3)
    rep4 = eps_k_uniform_counts(b.counts, n, m, 4)
    draws = sample_s_many(h, parties, identity_samples, seed)
    ok = cancellation_identity_holds(h, draws[:, :4])
    return BoxUniformityReport(
        is_3_uniform=rep3.eps == 0,
        four_wise_deviation=rep4.eps,
        identity_sample_rate=float(np.mean(ok)),
    )


def advantage_curve(
    h: GroupTable,
    parties: int,
    t_max: int,
    s_irreps: IrrepSet | None = None,
    target_eps: float | None = None,
    engine: str | None = None,
) -> ExperimentLog:
    """Distance metrics of the t-fold convolution s * ... * s, t = 1..t_max.

    tv_dist is the statistical distance to uniform; BoundViolation is raised
    if it increases in t.  Stops early once eps_uniform reaches target_eps.
    """
    s_dist = box_to_dist(exact_s(h, parties))
    log = ExperimentLog(eps_ks=())
    current = s_dist
    for t in range(1, t_max + 1):
        if t > 1:
            current = convolve(current, s_dist, s_irreps, engine=engine)
        tv = tv_to_uniform(current)
        linf = eps_uniform(current)
        rec = StepRecord(
            step=t,
            mode="fresh-copy",
            l2_sq=l2_sq_dist_to_uniform(current),
            linf_rel=linf,
            tv_dist=tv,
            at_floor=linf < numerical_floor(current.size),
        )
        if log.records:
            prev = log.records[-1].tv_dist
            if not tv <= prev + 1e-12:
                raise BoundViolation(f"tv distance increased at t={t}: {tv} > {prev}")
        log.add(rec)
        if target_eps is not None and linf <= target_eps:
            break
    return log
