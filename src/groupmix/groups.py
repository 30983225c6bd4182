"""Explicit finite groups (cyclic, SL(2,q), A5) and mixed-radix product indexing.

Groups are stored as dense multiplication tables with elements labelled
0..n-1 and the identity always at index 0.  Product groups H^m are never
materialized as tables; they are handled through flat/tuple index arithmetic
with coordinate 0 least significant.  A base group is read as H^1: its
`base` is itself and its `arity` is 1, so code on a space reads `base`,
`arity` and `size` whichever kind it is given.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

MAX_BASE_ORDER = 10_000
# Dense pipelines are sized for A5^4 (60^4 = 12_960_000 states, ~0.6 GB
# working set for a complex transform).  Anything larger is rejected.
MAX_DENSE_STATES = 13_500_000


class GroupConstructionError(ValueError):
    pass


def is_prime(q: int) -> bool:
    return q >= 2 and all(q % f for f in range(2, math.isqrt(q) + 1))


class _Family(NamedTuple):
    """A base-group family, its rules functions of the spec's parameter p.  elements(p) holds
    one digit row per element, in table order with the identity first; compose(p, x, y) gives
    the digit columns of x*y for the row x and every y, given as the digit columns of all
    elements; invert(p, y) gives the digit columns of every y^-1."""

    name: str                        # str(spec), followed by ":p" when parametric
    parametric: bool
    valid: Callable[[int], bool]
    error: str                       # the text for an invalid p, "{}" standing for p
    order: Callable[[int], int]
    elements: Callable[[int], np.ndarray]
    compose: Callable
    invert: Callable


def _sl2_matrices(q: int) -> np.ndarray:
    """Rows (a, b, c, d) of det-1 [[a, b], [c, d]] mod q, lexicographic, identity swapped first."""
    e = np.indices((q,) * 4).reshape(4, -1).T
    e = e[(e[:, 0] * e[:, 3] - e[:, 1] * e[:, 2]) % q == 1]
    i = int(np.flatnonzero((e == (1, 0, 0, 1)).all(axis=1))[0])
    e[[0, i]] = e[[i, 0]]
    return e


def _even_permutations(n: int) -> np.ndarray:
    """Rows of images of the even permutations of range(n), lexicographic."""
    p = np.array(list(itertools.permutations(range(n))))
    inversions = sum(p[:, i] > p[:, j] for i, j in itertools.combinations(range(n), 2))
    return p[inversions % 2 == 0]


_FAMILIES = {
    "cyclic": _Family(
        "cyclic", True, lambda n: n >= 1, "cyclic order must be >= 1, got {}",
        order=lambda n: n, elements=lambda n: np.arange(n)[:, None],
        compose=lambda n, x, y: [(x[0] + y[0]) % n], invert=lambda n, y: [-y[0] % n]),
    "sl2": _Family(
        "sl2", True, is_prime, "sl2 requires a prime field size, q must be prime: got q={}",
        order=lambda q: q * (q * q - 1), elements=_sl2_matrices,
        compose=lambda q, x, y: [(x[0] * y[0] + x[1] * y[2]) % q, (x[0] * y[1] + x[1] * y[3]) % q,
                                 (x[2] * y[0] + x[3] * y[2]) % q, (x[2] * y[1] + x[3] * y[3]) % q],
        # the inverse of [[a, b], [c, d]] with det 1 is [[d, -b], [-c, a]]
        invert=lambda q, y: [y[3], -y[1] % q, -y[2] % q, y[0]]),
    "alt5": _Family(
        "a5", False, lambda p: p == 0, "alt5 takes no parameter, got {}",
        order=lambda p: 60, elements=lambda p: _even_permutations(5),
        compose=lambda p, x, y: np.take(x, y),          # (x o y)(i) = x[y[i]]
        invert=lambda p, y: np.argsort(y, axis=0)),
}


@dataclass(frozen=True)
class GroupSpec:
    """A base group: a family (a key of _FAMILIES) and its parameter."""

    kind: str
    param: int = 0

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise GroupConstructionError(f"unknown group kind {self.kind!r}")
        family = _FAMILIES[self.kind]
        if not family.valid(self.param):
            raise GroupConstructionError(family.error.format(self.param))

    def __str__(self):
        family = _FAMILIES[self.kind]
        return f"{family.name}:{self.param}" if family.parametric else family.name


def cyclic(n: int) -> GroupSpec:
    return GroupSpec("cyclic", n)


def sl2(q: int) -> GroupSpec:
    return GroupSpec("sl2", q)


def alt5() -> GroupSpec:
    return GroupSpec("alt5")


def parse_group_spec(text: str) -> GroupSpec:
    """Parse "cyclic:12" | "sl2:5" | "a5" (also accepts "alt5"): a family without a
    parameter by its name or kind, one with a parameter as "kind:p"."""
    t = text.strip().lower()
    for kind, family in _FAMILIES.items():
        if not family.parametric and t in (family.name, kind):
            return GroupSpec(kind)
    if ":" in t:
        kind, _, arg = t.partition(":")
        try:
            val = int(arg)
        except ValueError:
            raise GroupConstructionError(f"bad group parameter in {text!r}") from None
        if kind in _FAMILIES and _FAMILIES[kind].parametric:
            return GroupSpec(kind, val)
    raise GroupConstructionError(f"cannot parse group spec {text!r}")


@dataclass(frozen=True)
class GroupTable:
    """A finite group as an explicit multiplication table.

    mul[x, y] is the index of x*y, inv[x] the index of x^{-1}, and the
    identity sits at index 0.
    """

    spec: GroupSpec
    order: int
    mul: np.ndarray          # (n, n) int32
    inv: np.ndarray          # (n,) int32
    fingerprint: str = field(default="")

    def __post_init__(self):
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)
        if not self.fingerprint:
            object.__setattr__(self, "fingerprint", _fingerprint(self))

    @property
    def size(self) -> int:
        return self.order

    @property
    def base(self) -> GroupTable:
        return self

    @property
    def arity(self) -> int:
        return 1

    def __repr__(self):
        return f"GroupTable({self.spec}, order={self.order})"


def _fingerprint(g: GroupTable) -> str:
    """Stable hash over (kind, parameter, order, the whole mul table).

    The table is hashed as little-endian int32 in C order, so the key does
    not depend on the platform's byte order.
    """
    h = hashlib.sha256(f"{g.spec.kind}|{g.spec.param}|{g.order}|".encode())
    h.update(np.ascontiguousarray(g.mul, dtype="<i4"))
    return h.hexdigest()


@dataclass(frozen=True)
class ProductGroup:
    """H^m with componentwise product; flat index = sum_i x_i * n^i."""

    base: GroupTable
    arity: int

    def __post_init__(self):
        if self.arity < 1:
            raise GroupConstructionError(f"product arity must be >= 1, got {self.arity}")

    @property
    def size(self) -> int:
        return self.base.order ** self.arity

    def __repr__(self):
        return f"ProductGroup({self.base.spec}^{self.arity})"


Space = GroupTable | ProductGroup


def same_space(a: Space, b: Space) -> bool:
    """Whether a and b are the same power of the same base group (H and H^1 are)."""
    return a.base.fingerprint == b.base.fingerprint and a.arity == b.arity


def check_dense_budget(space: Space):
    n, m = space.base.order, space.arity
    # for n >= 2, n^m >= 2^m is over the cap from the cap's bit length on, so no large power is
    # formed; a size past Python's 4300-digit limit on printing an int is named as a power
    if n == 1 or m < MAX_DENSE_STATES.bit_length() and n**m <= MAX_DENSE_STATES:
        return
    states = n**m if m * math.log10(n) < 4000 else f"{n}^{m}"
    raise GroupConstructionError(
        f"dense pipeline over {space!r} needs {states} states, above the supported "
        f"maximum of {MAX_DENSE_STATES} (A5^4-sized working sets)"
    )


# ---------------------------------------------------------------------------
# construction


def build_group(spec: GroupSpec) -> GroupTable:
    """The multiplication/inverse table of a GroupSpec, from its family's rules.

    Element order is the family's row order: cyclic by residue; sl2 lexicographic by
    (a, b, c, d) with the identity swapped to index 0; alt5 lexicographic by permutation
    image (the identity is already first).  The order follows from the spec, so an over-cap
    group is rejected before its table is built.  A digit row read in base r, r above every
    digit, is the code that looks up its element.
    """
    family, p = _FAMILIES[spec.kind], spec.param
    order = family.order(p)
    if order > MAX_BASE_ORDER:
        raise GroupConstructionError(
            f"group order {order} above supported base-group maximum {MAX_BASE_ORDER}"
        )
    cols = np.ascontiguousarray(family.elements(p).T)
    r = int(cols.max()) + 1

    def code(digits):
        return functools.reduce(lambda c, d: c * r + d, digits)

    index = np.full(r ** len(cols), -1, dtype=np.int32)
    index[code(cols)] = np.arange(order, dtype=np.int32)
    mul = np.empty((order, order), dtype=np.int32)
    for x, row in enumerate(cols.T):
        mul[x] = index[code(family.compose(p, row, cols))]
    return GroupTable(spec, order, mul, index[code(family.invert(p, cols))])


# ---------------------------------------------------------------------------
# validation


def generators(g: GroupTable) -> tuple[np.ndarray, int]:
    """A small generating set of g and L, the longest shortest word over it.

    Greedy and deterministic: while some element is not a product of the
    generators so far, the smallest such element joins them (the identity
    only when nothing else is missing).  Reachability is a breadth-first
    search under right multiplication that starts from the generators, so
    every element, the identity too, is a nonempty product s_1 s_2 ... s_k
    of generators; this holds on any table, group or not.  L is the largest
    such k over the non-identity elements (the identity is the empty word).
    """
    n = g.order
    gens: list[int] = []
    depth = np.full(n, -1)
    while (missing := np.flatnonzero(depth < 0)).size:
        gens.append(int(missing[np.argmax(missing > 0)]))
        depth[:] = -1
        frontier, k = np.array(gens), 1
        while frontier.size:
            depth[frontier] = k
            frontier = np.unique(g.mul[np.ix_(frontier, gens)])
            frontier = frontier[depth[frontier] < 0]
            k += 1
    return np.array(gens), int(depth[1:].max(initial=0))


@dataclass(frozen=True)
class GroupReport:
    identity_ok: bool
    inverse_ok: bool
    associativity_ok: bool

    @property
    def all_passed(self) -> bool:
        return self.identity_ok and self.inverse_ok and self.associativity_ok


def verify_group(g: GroupTable) -> GroupReport:
    """Check the identity, inverse and associativity axioms on the whole table.

    Associativity is Light's test: (x s) y = x (s y) for all x, y and each s
    in generators(g), O(n^2) per generator.  The elements that pass are
    closed under products: if a and b pass, then
    (x (ab)) y = ((xa) b) y = (xa)(by) = x (a (by)) = x ((ab) y).  Every
    element is a product of generators, so the test is exact at every order.
    """
    n = g.order
    idx = np.arange(n)
    identity_ok = bool(np.array_equal(g.mul[0], idx) and np.array_equal(g.mul[:, 0], idx))
    inverse_ok = bool(np.all(g.mul[idx, g.inv] == 0))
    gens, _ = generators(g)
    # [x, y] -> (x s) y on the left, x (s y) on the right
    ok = all(np.array_equal(g.mul[g.mul[:, s]], g.mul[:, g.mul[s]]) for s in gens)
    return GroupReport(identity_ok, inverse_ok, ok)


# ---------------------------------------------------------------------------
# product indexing


def tuple_to_flat(pg: ProductGroup, t) -> int:
    n = pg.base.order
    if len(t) != pg.arity:
        raise ValueError(f"expected {pg.arity}-tuple, got {len(t)} coordinates")
    flat = 0
    for i in reversed(range(pg.arity)):
        ti = int(t[i])
        if not 0 <= ti < n:
            raise ValueError(f"coordinate {i} out of range: {ti} not in [0, {n})")
        flat = flat * n + ti
    return flat


def flat_to_tuple(pg: ProductGroup, flat: int) -> tuple[int, ...]:
    n = pg.base.order
    if not 0 <= flat < pg.size:
        raise ValueError(f"flat index {flat} out of range for {pg!r}")
    out = []
    for _ in range(pg.arity):
        flat, r = divmod(flat, n)
        out.append(r)
    return tuple(out)
