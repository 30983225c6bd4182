"""The paper's inequalities, checked on concrete inputs.

Each check computes both sides with groupmix, raises BoundViolation when the
inequality fails, and returns the numbers it compared:

- `square_boost_check`: eps_k(p * q) <= eps_k(p) eps_k(q);
- `l2_to_linf_check`: |p * p - u|_inf <= |p - u|_2^2;
- `rep_bound_check`: |p_hat(rho)|_2^2 <= d_rho eps^2 / |G|^2 for every
  non-trivial irrep rho of H^m (H read as H^1), eps = eps_uniform(p).

`numerical_floor` is the relative deviation below which a decrease is not
required of a pipeline step: it is indistinguishable from rounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from groupmix.boost import l2_sq_dist_to_uniform
from groupmix.fourier import BoundViolation, Dist, convolve, dist_fourier
from groupmix.irreps import IrrepSet
from groupmix.uniformity import eps_k_uniform

from oracles import eps_uniform


def numerical_floor(size: int) -> float:
    """10 eps |G|: relative deviations below this are indistinguishable from rounding."""
    return 10.0 * float(np.finfo(np.float64).eps) * size


@dataclass(frozen=True)
class SquareBoostRecord:
    eps_p: float
    eps_q: float
    eps_conv: float
    holds: bool


def square_boost_check(p: Dist, q: Dist, k: int, s: IrrepSet) -> SquareBoostRecord:
    """eps_k of a convolution is at most the product of the inputs' eps_k."""
    eps_p = eps_k_uniform(p, k).eps
    eps_q = eps_k_uniform(q, k).eps
    conv = convolve(p, q, s)
    eps_c = eps_k_uniform(conv, k).eps
    holds = eps_c <= eps_p * eps_q + 1e-12
    if not holds:
        raise BoundViolation(f"square boost violated: {eps_c} > {eps_p} * {eps_q}")
    return SquareBoostRecord(eps_p, eps_q, eps_c, holds)


@dataclass(frozen=True)
class L2LinfRecord:
    linf: float
    l2sq: float
    holds: bool


def l2_to_linf_check(p: Dist, s: IrrepSet) -> L2LinfRecord:
    """|p*p - u|_inf <= |p - u|_2^2 (Cauchy-Schwarz on the convolution sum)."""
    conv = convolve(p, p, s)
    dev = conv.values - 1.0 / p.size
    linf = float(np.max(np.abs(dev, out=dev)))
    del dev
    l2sq = l2_sq_dist_to_uniform(p)
    holds = linf <= l2sq + 1e-15
    if not holds:
        raise BoundViolation(f"L2-to-Linf bound violated: {linf} > {l2sq}")
    return L2LinfRecord(linf, l2sq, holds)


def rep_bound_check(p: Dist, s: IrrepSet) -> tuple[float, float, tuple]:
    """Worst-margin coefficient bound over every non-trivial (product) irrep.

    Returns the (lhs, rhs) pair of the tightest instance together with its
    irrep key, the tuple of base-irrep indices (a 1-tuple on a base group).
    """
    eps = eps_uniform(p)
    lhs = dist_fourier(p, s).block_norms_sq
    rhs = functools.reduce(np.multiply.outer, [np.asarray(s.dims)] * p.space.arity) * eps**2
    rhs /= float(p.size) ** 2
    margin = lhs - rhs
    margin.flat[0] = -np.inf  # the trivial irrep carries no bound
    idx = np.unravel_index(np.argmax(margin), margin.shape)
    key = tuple(int(a) for a in idx[::-1])
    if not lhs[idx] <= rhs[idx] + 1e-15:
        raise BoundViolation(f"coefficient bound violated at {key}: {lhs[idx]} > {rhs[idx]}")
    return float(lhs[idx]), float(rhs[idx]), key
