"""Uniformity measurement: k-coordinate marginal scans and the low-weight Fourier
characterization of exact k-uniformity.

A distribution p over S is eps-uniform when |p(x) - 1/|S|| <= eps/|S| everywhere, so the
reported eps of a marginal is max_x |p(x)*|S| - 1|.  All C(m, k) subsets are scanned exactly;
desk-scale spaces make sampling unnecessary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from groupmix.fourier import Dist, _each_marginal, _extremes, _k_subsets, max_low_weight_norm
from groupmix.irreps import IrrepSet

FOURIER_UNIFORMITY_TOL = 1e-10


@dataclass(frozen=True)
class UniformityReport:
    eps: float
    worst_subset: tuple[int, ...]
    per_subset: dict


def _worst_subset(table: dict) -> UniformityReport:
    """The largest value of a {subset: dev} table, at the first subset reaching it."""
    arg = max(table, key=table.__getitem__)
    return UniformityReport(table[arg], arg, table)


def eps_k_uniform(p: Dist, k: int) -> UniformityReport:
    """Worst eps over all k-coordinate marginals, read off each marginal's least and largest
    value (`fourier._extremes`): the rounded p(x)*|S| - 1 is monotone in p(x)."""
    size = p.space.base.order ** k
    return _worst_subset({subset: max(abs(low * size - 1.0), abs(high * size - 1.0))
                          for subset, (low, high) in _extremes(p, k).items()})


def eps_k_uniform_counts(counts: np.ndarray, n: int, m: int, k: int) -> UniformityReport:
    """Exact-rational eps_k for an integer-count vector over H^m.

    Used where the distribution is a normalized counting measure, so exact
    zero can be certified without floating point.  The marginals are summed on the pool
    (`fourier._each_marginal`).
    """
    counts = np.asarray(counts, dtype=np.int64)
    total, cells, table = int(counts.sum()), n**k, {}
    for subset, marg in _each_marginal(counts, n, m, _k_subsets(m, k)):
        low, high = int(marg.min()), int(marg.max())
        table[subset] = max(abs(Fraction(high * cells, total) - 1),
                            abs(Fraction(low * cells, total) - 1))
    return _worst_subset(table)


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
