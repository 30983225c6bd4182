"""Uniformity measurement: relative L-infinity deviation, k-coordinate
marginal scans, and the low-weight Fourier characterization of exact
k-uniformity.

eps_uniform is the relative scale: a distribution p over S is eps-uniform
when |p(x) - 1/|S|| <= eps/|S| everywhere, so the reported value is
max_x |p(x)*|S| - 1|.  All C(m, k) subsets are scanned exactly; desk-scale
spaces make sampling unnecessary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from groupmix.fourier import (Dist, _each_marginal, _k_subsets, _marginal_values, _memo, _remember,
                              make_dist, max_low_weight_norm)
from groupmix.groups import ProductGroup
from groupmix.irreps import IrrepSet

FOURIER_UNIFORMITY_TOL = 1e-10


@dataclass(frozen=True)
class UniformityReport:
    eps: float
    worst_subset: tuple[int, ...]
    per_subset: dict


def _eps(low: float, high: float, size: int) -> float:
    return max(abs(low * size - 1.0), abs(high * size - 1.0))


def eps_uniform(p: Dist) -> float:
    """Exact max of |p(x)*|S| - 1| over the space, read off the least and largest p(x): the
    rounded p(x)*|S| - 1 is monotone in p(x), so no full-size temporary is needed."""
    return _eps(float(p.values.min()), float(p.values.max()), p.size)


def _worst_subset(table: dict) -> UniformityReport:
    """The largest value of a {subset: dev} table, at the first subset reaching it."""
    arg = max(table, key=table.__getitem__)
    return UniformityReport(table[arg], arg, table)


def eps_k_uniform(p: Dist, k: int) -> UniformityReport:
    """Worst eps_uniform over all k-coordinate marginals, read off each marginal's least and
    largest value: from p's memo (`fourier._memo`) when a walk over its k-marginals completed,
    else from one pass over the marginals, summed on the pool and validated by make_dist here,
    which fills the memo."""
    tops = _k_subsets(p.space.arity, k)
    known = _memo(p, k).get("extremes")
    if known is not None:
        size = p.space.base.order ** k
        return _worst_subset({subset: _eps(*known[subset], size) for subset in tops})
    found, table, space = {}, {}, ProductGroup(p.space.base, k)
    job = functools.partial(_marginal_values, p.values, p.space)
    for subset, values in _each_marginal(job, tops, p.size):
        marg = make_dist(space, values)
        found[subset] = float(marg.values.min()), float(marg.values.max())
        table[subset] = eps_uniform(marg)
    _remember(p, k, "extremes", found)
    return _worst_subset(table)


def eps_k_uniform_counts(counts: np.ndarray, n: int, m: int, k: int) -> UniformityReport:
    """Exact-rational eps_k for an integer-count vector over H^m.

    Used where the distribution is a normalized counting measure, so exact
    zero can be certified without floating point.  Each marginal's sum and extremes run in
    one job on the pool.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    arr = counts.reshape((n,) * m, order="F")

    def extremes(subset):
        other = tuple(i for i in range(m) if i not in subset)
        marg = arr.sum(axis=other) if other else arr    # arr.sum(axis=()) would copy arr
        return int(marg.min()), int(marg.max())

    cells = n**k
    return _worst_subset({
        subset: max(abs(Fraction(high * cells, total) - 1), abs(Fraction(low * cells, total) - 1))
        for subset, (low, high) in _each_marginal(extremes, _k_subsets(m, k), counts.size)})


def is_k_uniform_fourier(
    p: Dist, k: int, s: IrrepSet, tol: float = FOURIER_UNIFORMITY_TOL
) -> tuple[bool, float]:
    """Exact k-uniformity test through weight-1..k coefficients.

    Returns (verdict, max coefficient Frobenius norm).  The verdict is true
    when every low-weight coefficient norm is at most tol/|space|, the
    natural coefficient scale of an eps = tol deviation.
    """
    worst = max_low_weight_norm(p, k, s)
    return worst <= tol / p.size, worst


def report_to_text(report: UniformityReport) -> str:
    """Tabular (subset, eps) serialization for the CLI."""
    lines = ["subset\teps"]
    for subset, e in sorted(report.per_subset.items()):
        lines.append(f"{','.join(map(str, subset))}\t{float(e)!r}")
    lines.append(f"worst:{','.join(map(str, report.worst_subset))}\t{float(report.eps)!r}")
    return "\n".join(lines)
