"""Uniformity measurement: relative L-infinity deviation, k-coordinate
marginal scans, and the low-weight Fourier characterization of exact
k-uniformity.

eps_uniform is the relative scale: a distribution p over S is eps-uniform
when |p(x) - 1/|S|| <= eps/|S| everywhere, so the reported value is
max_x |p(x)*|S| - 1|.  All C(m, k) subsets are scanned exactly; desk-scale
spaces make sampling unnecessary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from groupmix.fourier import Dist, marginalize, max_low_weight_norm
from groupmix.irreps import IrrepSet

FOURIER_UNIFORMITY_TOL = 1e-10


@dataclass(frozen=True)
class UniformityReport:
    eps: float
    worst_subset: tuple[int, ...]
    per_subset: dict | None = None


def eps_uniform(p: Dist) -> float:
    """Exact max of |p(x)*|S| - 1| over the space, read off the least and largest p(x): the
    rounded p(x)*|S| - 1 is monotone in p(x), so no full-size temporary is needed."""
    return max(abs(float(p.values.min()) * p.size - 1.0), abs(float(p.values.max()) * p.size - 1.0))


def _worst_subset(m: int, k: int, dev, full_table: bool) -> UniformityReport:
    """The largest dev(subset) over the k-subsets of range(m), at the first subset reaching it."""
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in [1, {m}], got {k}")
    table = {c: dev(c) for c in itertools.combinations(range(m), k)}
    arg = max(table, key=table.__getitem__)
    return UniformityReport(table[arg], arg, table if full_table else None)


def eps_k_uniform(p: Dist, k: int, full_table: bool = False) -> UniformityReport:
    """Worst eps_uniform over all k-coordinate marginals."""
    return _worst_subset(p.space.arity, k, lambda subset: eps_uniform(marginalize(p, subset)),
                         full_table)


def eps_k_uniform_counts(counts: np.ndarray, n: int, m: int, k: int, full_table: bool = False):
    """Exact-rational eps_k for an integer-count vector over H^m.

    Used where the distribution is a normalized counting measure, so exact
    zero can be certified without floating point.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    arr = counts.reshape((n,) * m, order="F")

    def dev(subset):
        other = tuple(i for i in range(m) if i not in subset)
        marg = arr.sum(axis=other) if other else arr    # arr.sum(axis=()) would copy arr
        cells = n ** len(subset)
        return max(abs(Fraction(int(marg.max()) * cells, total) - 1),
                   abs(Fraction(int(marg.min()) * cells, total) - 1))

    return _worst_subset(m, k, dev, full_table)


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
    if report.per_subset:
        for subset, e in sorted(report.per_subset.items()):
            lines.append(f"{','.join(map(str, subset))}\t{float(e)!r}")
    lines.append(f"worst:{','.join(map(str, report.worst_subset))}\t{float(report.eps)!r}")
    return "\n".join(lines)
