"""Repairing an almost-k-uniform distribution into an exactly k-uniform one.

Subtract the low-degree part ell (the inverse transform of all weight-1..k
coefficients), then mix with uniform to restore non-negativity:

    q = (1 - beta) * (p - ell) + beta / |G|

Removing a fixed-weight slice of coefficients keeps the function real
(conjugation permutes irreps without changing weight), ell sums to zero
(the trivial coefficient is untouched), and the mixture has no low-weight
coefficients at all, so q is exactly k-uniform.  With eps the measured
coefficient scale (|p_hat| <= eps/|G| for all low weights), the formula
beta = (m|H|)^(2k) * eps guarantees q >= 0 and an L1 repair distance of at
most 3 (m|H|)^(2k) eps; adaptive mode instead uses the smallest beta that
makes q non-negative, which is what desk-scale eps values call for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from groupmix.fourier import (
    NEG_CLAMP,
    BoundViolation,
    Dist,
    SpaceMismatchError,
    _axis_passes,
    _deviation_slices,
    _low_weight_transforms,
    _reduce,
    _split,
    _stacked,
    make_dist,
    max_low_weight_norm,
)
from groupmix.groups import same_space
from groupmix.irreps import IrrepSet

_IMAG_TOL = 1e-12
_SUM_TOL = 1e-10


class RepairInfeasibleError(ValueError):
    def __init__(self, message: str, eps_in: float):
        super().__init__(message)
        self.eps_in = eps_in


def low_part(p: Dist, k: int, s: IrrepSet) -> np.ndarray:
    """The low-degree part ell of p, real, zero-sum and full size.

    ell sums one |H|^k inverse per top k-subset, broadcast to all m axes.  A
    top's mask depends only on which coordinates are trivial, a pattern that
    conjugation keeps, so each inverse is real up to rounding.  The walk records p's largest
    low-weight block norm (`max_low_weight_norm`).
    """
    m = p.space.arity
    n = p.space.base.order
    synth = _stacked(s)[1]
    ell = np.zeros((n,) * m) if k < m else None
    for top, coeffs in _low_weight_transforms(p, k, s):
        flat = coeffs.reshape(-1)    # spent: the inverse's first buffer
        lifted = _axis_passes(flat, synth, k, [flat, np.empty_like(flat)])
        if np.iscomplexobj(lifted):
            low, high = _reduce(lifted.imag, np.min, np.max)
            worst_imag = max(high, -low)
            if worst_imag > _IMAG_TOL:
                raise ValueError(
                    f"low-degree part has imaginary residual {worst_imag} > {_IMAG_TOL}; "
                    "coefficients do not pair into a real function"
                )
            lifted = lifted.real
        if ell is None:
            ell = np.ascontiguousarray(lifted)    # k = m: the one top is the whole tensor
        else:
            # axis j of a tensor holds its last-but-j coordinate; the pool cuts ell along axis 0
            lifted = lifted.reshape([n if c in top else 1 for c in reversed(range(m))])
            _split(np.add, ell, ell, lifted)
    ell = ell.reshape(-1)
    [total] = _reduce(ell, np.sum)
    if abs(total) > _SUM_TOL:
        raise ValueError(f"low-degree part sums to {total}, expected 0")
    return ell


@dataclass(frozen=True)
class RepairCertificate:
    k: int
    eps_in: float
    beta: float | None
    mode: str
    l1_distance: float
    bound: float
    k_uniform_residual: float
    beta_paper: float
    beta_adaptive: float | None
    q_min: float
    q_sum: float
    space_size: int

    @property
    def l1_within_bound(self) -> bool:
        return self.l1_distance <= self.bound + 1e-10

    @property
    def q_nonneg(self) -> bool:
        return self.q_min >= NEG_CLAMP

    @property
    def q_normalized(self) -> bool:
        return abs(self.q_sum - 1.0) <= 1e-10

    @property
    def residual_ok(self) -> bool:
        return self.k_uniform_residual <= 1e-12 / self.space_size

    def to_text(self) -> str:
        lines = [
            f"k {self.k}",
            f"mode {self.mode}",
            f"eps_in {self.eps_in!r}",
            f"beta {'' if self.beta is None else repr(self.beta)}",
            f"beta_paper {self.beta_paper!r}",
            f"beta_adaptive {'' if self.beta_adaptive is None else repr(self.beta_adaptive)}",
            f"l1_distance {self.l1_distance!r}",
            f"bound {self.bound!r}",
            f"k_uniform_residual {self.k_uniform_residual!r}",
            f"q_min {self.q_min!r}",
            f"q_sum {self.q_sum!r}",
            f"q_nonneg {self.q_nonneg}",
            f"q_normalized {self.q_normalized}",
            f"l1_within_bound {self.l1_within_bound}",
            f"residual_ok {self.residual_ok}",
        ]
        return "\n".join(lines) + "\n"


def _paper_beta(m: int, n: int, k: int, eps: float) -> float:
    return float(m * n) ** (2 * k) * eps


def repair(p: Dist, k: int, s: IrrepSet, mode: str = "adaptive") -> tuple[Dist, RepairCertificate]:
    """Remove the low-degree part and mix with uniform; returns (q, certificate).

    paper-formula mode uses beta = (m|H|)^(2k) * eps with eps measured from
    the low-weight coefficients; adaptive mode uses the smallest feasible
    beta.  Raises RepairInfeasibleError when the chosen beta reaches 1.
    """
    if mode not in ("paper-formula", "adaptive"):
        raise ValueError(f"unknown repair mode {mode!r}")
    m = p.space.arity
    n = p.space.base.order
    g_size = float(p.size)

    # one buffer holds ell, then p' = p - ell, then q
    buf = low_part(p, k, s)
    eps_in = g_size * max_low_weight_norm(p, k, s)    # recorded by the walk
    _split(np.subtract, buf, p.values, buf)

    # -x / (1/|G| - x) falls as x rises, so the least entry sets beta.  Dips
    # within the ingestion clamp are already treated as zero, so only a
    # genuinely negative one forces mixing; this keeps beta exactly 0 on
    # exactly-k-uniform inputs where ell is pure rounding noise
    [low] = _reduce(buf, np.min)
    beta_adaptive = -low / (1.0 / g_size - low) if low < -1e-16 else 0.0
    beta_paper = _paper_beta(m, n, k, eps_in)
    beta = beta_paper if mode == "paper-formula" else beta_adaptive
    if beta >= 1.0:
        raise RepairInfeasibleError(
            f"{mode} mixing weight {beta} >= 1: input too far from {k}-uniform "
            f"(measured eps = {eps_in})",
            eps_in,
        )

    _split(np.multiply, buf, buf, 1.0 - beta)
    _split(np.add, buf, buf, beta / g_size)
    # the certificate reports q before the ingestion clamp, which runs in place
    q_min, q_sum = _reduce(buf, np.min)[0], float(buf.sum())
    if NEG_CLAMP <= q_min < 0.0:
        _split(np.maximum, buf, buf, 0.0)
    q = make_dist(p.space, buf)
    cert = _certify(p, q, (q_min, q_sum), k, s, eps_in, mode, beta, beta_adaptive)
    if mode == "paper-formula" and not cert.l1_within_bound:
        raise BoundViolation(f"repair distance {cert.l1_distance} above bound {cert.bound}")
    return q, cert


def verify_repair(p: Dist, q: Dist, k: int, s: IrrepSet) -> RepairCertificate:
    """Recompute every certificate field from (p, q, k) for an arbitrary q.

    eps_in and the residual are the largest low-weight block norms of p and q, read from their
    memos where a walk over their k-marginals recorded them (`repair` leaves both): those are
    the bits a new walk would give, since a Dist's values are read-only.  The l1 pass, q's least
    entry and sum, and every threshold run again."""
    if not same_space(p.space, q.space):
        raise SpaceMismatchError("repair check across different spaces")
    eps_in = float(p.size) * max_low_weight_norm(p, k, s)
    q_stats = _reduce(q.values, np.min)[0], float(q.values.sum())
    return _certify(p, q, q_stats, k, s, eps_in, "verify", None, None)


def _certify(p, q, q_stats, k, s, eps_in, mode, beta, beta_adaptive) -> RepairCertificate:
    """The certificate of q against p; q_stats is (min, sum) of q before the ingestion clamp."""
    beta_paper = _paper_beta(p.space.arity, p.space.base.order, k, eps_in)
    l1_distance = math.fsum(_deviation_slices(p.values, q.values,
                                              lambda d: float(np.abs(d, out=d).sum())))
    return RepairCertificate(
        k=k,
        eps_in=eps_in,
        beta=beta,
        mode=mode,
        l1_distance=l1_distance,
        bound=3.0 * beta_paper,
        k_uniform_residual=max_low_weight_norm(q, k, s),
        beta_paper=beta_paper,
        beta_adaptive=beta_adaptive,
        q_min=q_stats[0],
        q_sum=q_stats[1],
        space_size=p.size,
    )
