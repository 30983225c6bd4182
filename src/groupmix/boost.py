"""Convolution-boosting checks and pipelines.

The quantities tracked per step: the un-normalized squared L2 distance to
uniform sum_x (p(x) - 1/|G|)^2, the relative L-infinity deviation, and
eps_k for at most one configured k.  Repeated convolution flattens
(H^-k, k)-uniform distributions at a rate governed by the quasirandomness
degree of the base group; `flatten_bound_check` asserts that rate on a
concrete input.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from groupmix.fourier import (BoundViolation, Dist, _deviation_slices, _pruned_forward, convolve,
                              dist_from_fourier)
from groupmix.irreps import IrrepSet
from groupmix.uniformity import eps_k_uniform

class PreconditionError(ValueError):
    pass


def l2_sq_dist_to_uniform(p: Dist) -> float:
    """sum_x (p(x) - 1/|G|)^2, un-normalized: `_measure`'s l2_sq, so every output sums it alike."""
    return _measure(p, 0, "", None, False, 0.0).l2_sq


# ---------------------------------------------------------------------------
# step records


@dataclass
class StepRecord:
    step: int
    mode: str
    l2_sq: float
    linf_rel: float
    eps_k: float | None = None
    tv_dist: float | None = None
    seconds: float = 0.0


@dataclass
class ExperimentLog:
    records: list[StepRecord] = field(default_factory=list)

    def add(self, record: StepRecord):
        self.records.append(record)

    def csv_header(self) -> list[str]:
        return ["step", "mode", "l2_sq", "linf_rel", "eps_k", "tv_dist", "seconds"]

    def to_csv(self, include_timing: bool = False) -> str:
        """Deterministic CSV; wall-clock is written only when asked for,
        so identical runs produce byte-identical logs by default."""

        def fmt(x) -> str:
            return "" if x is None else repr(float(x))

        lines = [",".join(self.csv_header())]
        for r in self.records:
            row = [
                str(r.step),
                r.mode,
                fmt(r.l2_sq),
                fmt(r.linf_rel),
                fmt(r.eps_k),
                fmt(r.tv_dist),
                fmt(r.seconds) if include_timing else "",
            ]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path, include_timing: bool = False):
        with open(path, "w") as fh:
            fh.write(self.to_csv(include_timing=include_timing))


# ---------------------------------------------------------------------------
# inequality checks


@dataclass(frozen=True)
class FlattenRecord:
    lhs: float
    rhs: float
    ratio: float | None


def flatten_bound_check(p: Dist, k: int, d: int, s: IrrepSet) -> FlattenRecord:
    """Self-convolution flattening bound for an (|H|^-k, k)-uniform input.

    lhs = |p*p - u|_2^2, rhs = |p - u|_2^2 * 2 * |H|^(m-k) * d^-(k+1).
    """
    n = p.space.base.order
    m = p.space.arity
    eps_in = eps_k_uniform(p, k).eps
    required = float(n) ** (-k)
    if eps_in > required * (1 + 1e-9) + 1e-12:
        raise PreconditionError(
            f"input is not (|H|^-{k}, {k})-uniform: eps_{k} = {eps_in} > {required}"
        )
    base = l2_sq_dist_to_uniform(p)
    conv = convolve(p, p, s)
    lhs = l2_sq_dist_to_uniform(conv)
    rhs = base * 2.0 * float(n) ** (m - k) * float(d) ** (-(k + 1))
    if not lhs <= rhs + 1e-12:
        raise BoundViolation(f"flattening bound violated: {lhs} > {rhs}")
    ratio = lhs / base if base > 0 else None
    return FlattenRecord(lhs, rhs, ratio)


# ---------------------------------------------------------------------------
# pipeline


def _measure(p: Dist, step: int, mode: str, k: int | None, track_tv: bool,
             secs: float) -> StepRecord:
    """One step's record in one pass over `_deviation_slices` of p - u: |dev| in place for linf
    (max |p(x)|G| - 1|, NaN if any value is) and tv, then its square for l2, slice sums added
    with math.fsum; eps_k first."""
    eps_k = None if k is None else eps_k_uniform(p, k).eps

    def sums(dev):
        np.abs(dev, out=dev)
        return float(dev.max()), float(dev.sum()), float(np.square(dev, out=dev).sum())

    top, tv, l2 = zip(*_deviation_slices(p.values, 1.0 / p.size, sums))
    return StepRecord(step, mode, math.fsum(l2), p.size * float(np.max(top)), eps_k,
                      0.5 * math.fsum(tv) if track_tv else None, secs)


def boost_pipeline(
    p: Dist,
    mode: str,
    max_steps: int,
    target_eps: float,
    s: IrrepSet,
    k: int | None = None,
) -> tuple[Dist, ExperimentLog]:
    """Iterated convolution until linf_rel reaches target_eps; s is the base group's irreps.

    self-square convolves the current iterate with itself (2^t copies after t steps);
    fresh-copy convolves with the original each step (t+1 copies), transformed once
    (`_pruned_forward`) and then released, so that a step holds p's coefficients, the product,
    the values and one chunk of the synthesis stack.  p is freed there only if the caller holds
    no reference to it either.
    """
    if mode not in ("self-square", "fresh-copy"):
        raise ValueError(f"unknown pipeline mode {mode!r}")
    fresh = mode == "fresh-copy"
    log, space, current, factor = ExperimentLog(), p.space, p, None
    del p    # current is this frame's one reference to p
    log.add(_measure(current, 0, mode, k, False, 0.0))
    while log.records[-1].linf_rel > target_eps and len(log.records) <= max_steps:
        t0 = time.perf_counter()
        if not fresh:
            iterate = current
        elif factor is None:
            iterate = factor = _pruned_forward(current, s)[0]
        del current  # measured (and in fresh-copy transformed): an inverse below needs the room
        iterate = convolve(iterate, factor if fresh else iterate, s)
        current = dist_from_fourier(iterate, space) if fresh else iterate
        secs = time.perf_counter() - t0
        log.add(_measure(current, len(log.records), mode, k, False, secs))
    return current, log
