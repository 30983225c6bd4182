"""Explicit finite groups (cyclic, SL(2,q), A5) and mixed-radix product indexing.

Groups are stored as dense multiplication tables with elements labelled
0..n-1 and the identity always at index 0.  Product groups H^m are never
materialized as tables; they are handled through flat/tuple index arithmetic
with coordinate 0 least significant.  A base group is read as H^1: its
`base` is itself and its `arity` is 1, so code on a space reads `base`,
`arity` and `size` whichever kind it is given.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

MAX_BASE_ORDER = 10_000
# Dense pipelines are sized for A5^4 (60^4 = 12_960_000 states, ~0.6 GB
# working set for a complex transform).  Anything larger is rejected.
MAX_DENSE_STATES = 13_500_000


class GroupConstructionError(ValueError):
    pass


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class GroupSpec:
    """One of cyclic(n), sl2(q) with q prime, or alt5."""

    kind: str
    param: int = 0

    def __post_init__(self):
        if self.kind == "cyclic":
            if self.param < 1:
                raise GroupConstructionError(f"cyclic order must be >= 1, got {self.param}")
        elif self.kind == "sl2":
            if not is_prime(self.param):
                raise GroupConstructionError(
                    f"sl2 requires a prime field size, q must be prime: got q={self.param}"
                )
        elif self.kind == "alt5":
            pass
        else:
            raise GroupConstructionError(f"unknown group kind {self.kind!r}")

    def __str__(self):
        if self.kind == "cyclic":
            return f"cyclic:{self.param}"
        if self.kind == "sl2":
            return f"sl2:{self.param}"
        return "a5"


def cyclic(n: int) -> GroupSpec:
    return GroupSpec("cyclic", n)


def sl2(q: int) -> GroupSpec:
    return GroupSpec("sl2", q)


def alt5() -> GroupSpec:
    return GroupSpec("alt5")


def parse_group_spec(text: str) -> GroupSpec:
    """Parse "cyclic:12" | "sl2:5" | "a5" (also accepts "alt5")."""
    t = text.strip().lower()
    if t in ("a5", "alt5"):
        return alt5()
    if ":" in t:
        kind, _, arg = t.partition(":")
        try:
            val = int(arg)
        except ValueError:
            raise GroupConstructionError(f"bad group parameter in {text!r}") from None
        if kind == "cyclic":
            return cyclic(val)
        if kind == "sl2":
            return sl2(val)
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
    n = space.size
    if n > MAX_DENSE_STATES:
        raise GroupConstructionError(
            f"dense pipeline over {space!r} needs {n} states, above the supported "
            f"maximum of {MAX_DENSE_STATES} (A5^4-sized working sets)"
        )


# ---------------------------------------------------------------------------
# construction


def build_group(spec: GroupSpec) -> GroupTable:
    """Build the multiplication/inverse table for a GroupSpec.

    Element order is canonical: cyclic by residue; sl2 lexicographic by
    (a, b, c, d) with the identity swapped to index 0; alt5 lexicographic
    by permutation image (the identity is already first).  The order follows
    from the spec, so an over-cap group is rejected before its table is built.
    """
    q = spec.param
    order = {"cyclic": q, "sl2": q * (q * q - 1)}.get(spec.kind, 60)
    if order > MAX_BASE_ORDER:
        raise GroupConstructionError(
            f"group order {order} above supported base-group maximum {MAX_BASE_ORDER}"
        )
    if spec.kind == "cyclic":
        return _build_cyclic(q)
    if spec.kind == "sl2":
        return _build_sl2(q)
    return _build_alt5()


def _build_cyclic(n: int) -> GroupTable:
    idx = np.arange(n, dtype=np.int32)
    mul = np.add.outer(idx, idx) % n
    inv = (-idx) % n
    return GroupTable(cyclic(n), n, mul.astype(np.int32), inv.astype(np.int32))


def _sl2_elements(q: int) -> list[tuple[int, int, int, int]]:
    els = [
        (a, b, c, d)
        for a, b, c, d in itertools.product(range(q), repeat=4)
        if (a * d - b * c) % q == 1
    ]
    ident = (1 % q, 0, 0, 1 % q)
    i0 = els.index(ident)
    els[0], els[i0] = els[i0], els[0]
    return els

def _build_sl2(q: int) -> GroupTable:
    els = _sl2_elements(q)
    n = len(els)
    E = np.array(els, dtype=np.int64)            # (n, 4) rows (a, b, c, d)
    code_of = E[:, 0] * q**3 + E[:, 1] * q**2 + E[:, 2] * q + E[:, 3]
    idx_of_code = np.full(q**4, -1, dtype=np.int32)
    idx_of_code[code_of] = np.arange(n, dtype=np.int32)

    a, b, c, d = E[:, 0], E[:, 1], E[:, 2], E[:, 3]
    mul = np.empty((n, n), dtype=np.int32)
    for x in range(n):
        ax, bx, cx, dx = els[x]
        ra = (ax * a + bx * c) % q
        rb = (ax * b + bx * d) % q
        rc = (cx * a + dx * c) % q
        rd = (cx * b + dx * d) % q
        mul[x] = idx_of_code[ra * q**3 + rb * q**2 + rc * q + rd]
    # inverse of [[a,b],[c,d]] with det 1 is [[d,-b],[-c,a]]
    inv_code = (d % q) * q**3 + ((-b) % q) * q**2 + ((-c) % q) * q + (a % q)
    inv = idx_of_code[inv_code].astype(np.int32)
    return GroupTable(sl2(q), n, mul, inv)


def _perm_parity(p: tuple[int, ...]) -> int:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inversions % 2


def _build_alt5() -> GroupTable:
    perms = [p for p in itertools.permutations(range(5)) if _perm_parity(p) == 0]
    n = len(perms)
    P = np.array(perms, dtype=np.int64)          # (n, 5) images, lex sorted
    codes = sum(P[:, i] * 5 ** (4 - i) for i in range(5))
    idx_of_code = np.full(5**5, -1, dtype=np.int32)
    idx_of_code[codes] = np.arange(n, dtype=np.int32)

    mul = np.empty((n, n), dtype=np.int32)
    for x in range(n):
        comp = P[x][P]                           # (x∘y)(i) = x[y[i]]
        mul[x] = idx_of_code[sum(comp[:, i] * 5 ** (4 - i) for i in range(5))]
    inv_imgs = np.argsort(P, axis=1)
    inv = idx_of_code[sum(inv_imgs[:, i] * 5 ** (4 - i) for i in range(5))].astype(np.int32)
    return GroupTable(alt5(), n, mul, inv)


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
