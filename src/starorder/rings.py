"""Finite unital *-rings represented as dense, validated operation tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    ForeignElementError,
    OrderCapError,
    RingSpecError,
    TableValidationError,
)

DEFAULT_ORDER_CAP = 4096

_DT = np.int32


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


_BLOCK = 1 << 16  # elements of one gathered block: 256 KB of int32


def _row_blocks(n: int, row_size: int) -> list[slice]:
    """Consecutive slices of range(n), each of as many rows of ``row_size``
    elements as fit in ``_BLOCK`` (at least one), so a gather over a block
    stays small however large n is."""
    step = max(1, _BLOCK // max(row_size, 1))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


@dataclass(frozen=True, eq=False)
class StarRing:
    """A finite unital ring with involution, backed by dense lookup tables.

    Elements are the integers ``0 .. order-1``; index 0 is always the
    additive identity. Instances are immutable (the tables are read-only
    arrays) and safe to share; derived structure is memoised per instance.
    A composite names its elements by its parts' names: ``names`` builds
    the tuple, on the first read of ``element_names`` or ``name_of``.
    """

    label: str
    order: int
    addition: np.ndarray        # addition[a, b] = a + b
    multiplication: np.ndarray  # multiplication[a, b] = a * b
    involution: np.ndarray      # involution[a] = a*
    negation: np.ndarray        # negation[a] = -a
    generators: np.ndarray      # an additive generating set G, ascending
    one: int
    names: Callable[[], tuple[str, ...]] | None = None
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def zero(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def check(self, a: int) -> int:
        """Validate an element id, rejecting ids from other rings and, as
        ``_integer`` does, bools, floats and other non-integers."""
        if isinstance(a, bool) or not isinstance(a, (int, np.integer)) or not 0 <= a < self.order:
            raise ForeignElementError(
                f"element {a!r} does not belong to {self.label} (order {self.order})"
            )
        return int(a)

    def add(self, a: int, b: int) -> int:
        return int(self.addition[self.check(a), self.check(b)])

    def mul(self, a: int, b: int) -> int:
        return int(self.multiplication[self.check(a), self.check(b)])

    def neg(self, a: int) -> int:
        return int(self.negation[self.check(a)])

    def sub(self, a: int, b: int) -> int:
        return int(self.addition[self.check(a), self.negation[self.check(b)]])

    def star(self, a: int) -> int:
        return int(self.involution[self.check(a)])

    @property
    def element_names(self) -> tuple[str, ...] | None:
        """The composite's element names; None for a leaf."""
        return None if self.names is None else self.memo("element_names", self.names)

    def name_of(self, a: int) -> str:
        i = self.check(a)
        return str(i) if self.names is None else self.element_names[i]

    def memo(self, key: str, build):
        m = self._memo
        if key not in m:
            m[key] = build()
        return m[key]

    def sub_table(self) -> np.ndarray:
        """Read-only table with ``sub_table[a, b] = a - b``."""
        return self.memo(
            "sub_table", lambda: _frozen(self.addition[:, self.negation])
        )

    def is_commutative(self) -> bool:
        return bool(_commutes_with_g(self).all())


def _commutes_with_g(ring: StarRing) -> np.ndarray:
    """Per x, whether x commutes with every g in G, which is enough for x to
    be central: y ↦ xy − yx is additive, so the y that commute with x form
    a subgroup of (R, +), all of R once it holds G."""
    M, G = ring.multiplication, ring.generators
    return (M[:, G] == M[G].T).all(axis=1)


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """The row-major first True position of ``mask``, or None. One
    ``argmax`` settles it: on a bool mask it stops at the first True, and
    the entry it points at is False only when no entry is True."""
    if not mask.size:
        return None
    i = int(mask.argmax())
    if not mask.item(i):
        return None
    return tuple(int(v) for v in np.unravel_index(i, mask.shape))


def _first_rows(n: int, row_size: int, mask_of) -> tuple[int, ...] | None:
    """``_first`` of a mask with n rows on its leading axis, built a block
    of rows at a time: ``mask_of(rows)`` is the mask of the ascending rows
    ``rows``, and each block gathers at most ``_BLOCK`` elements when one
    row costs ``row_size``. Later blocks are not built once one hits."""
    for blk in _row_blocks(n, row_size):
        w = _first(mask_of(np.arange(blk.start, blk.stop)))
        if w:
            return (w[0] + blk.start, *w[1:])
    return None


def _generators(
    op: np.ndarray, base: list[int], limit: int | None = None
) -> tuple[list[int], np.ndarray, list[int]] | tuple[None, None, None]:
    """A greedy generating set G of the magma ``(elements, op)`` over
    ``base``: every element is an op-product of elements of base and G.

    Starting from R = base, the smallest element outside R joins G and R is
    closed under op, until R holds every element. Closure only forms
    products that involve a newly reached element, so building G costs
    O(n^2) in all. Returns ``(G, reach, sizes)``: ``reach`` lists the
    elements in the order R reached them, so R once g_i's closure is done
    is ``reach[:sizes[i - 1]]``. Past ``limit`` generators
    ``(None, None, None)`` is returned: an abelian group of order n needs
    at most log2(n) of them over {0}, since each one at least doubles R.
    """
    n = op.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[base] = True
    size, seq, sizes = len(base), [np.array(base, dtype=np.intp)], []
    gens: list[int] = []
    while size < n:
        if len(gens) == limit:
            return None, None, None
        g = int(np.argmin(reached))
        gens.append(g)
        reached[g] = True
        new, size = np.array([g]), size + 1
        seq.append(new)
        # Once R holds every element it is closed: no round confirms it.
        while new.size and size < n:
            r = np.flatnonzero(reached)
            hit = reached.copy()
            hit[op[new[:, None], r]] = True
            hit[op[r[:, None], new]] = True
            new = np.flatnonzero(hit ^ reached)
            reached, size = hit, size + new.size
            seq.append(new)
        sizes.append(size)
    return gens, np.concatenate(seq), sizes


def validate_tables(
    add: np.ndarray, mul: np.ndarray, star: np.ndarray, one: int
) -> tuple[list[tuple[str, tuple[int, ...]]], list[int] | None]:
    """Check every ring/involution axiom over all element tuples.

    Returns ``(violations, G)``: one ``(axiom, witness)`` pair per violated
    axiom, with the lexicographically first witness, and the additive
    generating set G = g_1 … g_k that ``_generators`` finds over {0}, which
    every ring keeps (None past n.bit_length() of them). Once + is an
    abelian group, H_i, the set it has reached after g_i's closure, is the
    subgroup g_1 … g_i generate: {0} = H_0 ⊂ H_1 ⊂ … ⊂ H_k = R. The axioms below
    are proved on G and this chain, so an accepted table costs O(|G|·n^2)
    for Light's test, O(n^2) for the distributive laws, O(n) for
    star-additive and O(|G|^2) for star-multiplicative:

    - add-associative (Light's test): the elements ``a`` with
      ``(x+a)+y = x+(a+y)`` for all x, y are closed under +, so testing
      the generators (and 0, unless it is neutral) covers every element.
    - left-/right-distributive and star-additive, given the additive
      group: each says some f is additive, f being y ↦ xy (resp. y ↦ yx)
      for every x, or star. Test T_i checks f(y + g_i) = f(y) + f(g_i) at
      y in H_i only. T_1 at y = 0 gives f(0) = 0, so f is additive on H_0.
      If f is additive on H_{i-1}, T_i and induction on c give
      f(h + c·g_i) = f(h) + c·f(g_i) for all h in H_{i-1} and c >= 0, so
      f is additive on H_i = H_{i-1} + <g_i>. By Lagrange
      |H_i| >= 2|H_{i-1}|, so Σ|H_i| < 2n: a law costs less than the full
      test at two generators.
    - mul-associative, given both distributive laws: the associator
      ``(xy)z - x(yz)`` is additive in each argument, so it vanishes
      everywhere once it vanishes on G^3.
    - star-multiplicative, given star-additive and both distributive
      laws: (x, y) ↦ (xy)* - y*x* is additive in each argument, so G^2
      suffices.

    An axiom whose test fails, or whose precondition does not hold, falls
    back to the exhaustive scan for that axiom alone, which finds the
    witness. Two more certificates cut the O(n^3) scans short:

    - mul-associative without the G^3 proof: Light's test on a greedy
      generating set S of the magma (R, ·), which costs O(|S|·n^2) and
      proves the axiom when it passes. Each g in S costs about one row of
      the scan, so S is built only up to n/2 elements: a passing test then
      saves at least what a failing one can add, half a scan.
    - a distributive law whose chain test fails: with x the multiplier,
      row x holds a witness exactly when it fails some T_i, as a failure
      is a witness and a row passing every T_i is additive. So the first
      failing row is the witness's x, and only that row is scanned.
    """
    n = add.shape[0]
    idx = np.arange(n)
    bad: list[tuple[str, tuple[int, ...]]] = []
    gens, reach, sizes = _generators(add, [0], n.bit_length())
    gv = np.array(gens or [], dtype=np.intp)

    def proved_or_scanned(gs, fail_at, fail, by_row=False):
        # fail_at(g) is the mismatch mask of the axiom's test at g in gs.
        # If no g in gs fails, the axiom holds; otherwise (or with no gs)
        # the exhaustive scan finds the first witness: fail(xs) is the
        # [x, y, z] mismatch mask of the block of rows xs. With by_row,
        # fail_at(g) is an [x, y] mask whose failing rows x, over all g, are
        # exactly the rows that hold a witness, so only the first is scanned.
        masks = (fail_at(g) for g in gs or ())
        hit = next((m for m in masks if m.any()), None)
        if hit is None and gs is not None:
            return None
        if hit is None or not by_row:
            return _first_rows(n, n * n, fail)
        rows = hit.any(axis=1)
        for m in masks:
            rows |= m.any(axis=1)
        x = int(np.argmax(rows))
        return (x, *_first(fail(np.array([x])))[1:])

    def light(op):
        # [x, y]: (x·g)·y != x·(g·y), for op written as ·; np.take gathers fast.
        return lambda g: op[op[:, g]] != np.take(op, op[g], axis=1)

    def undistributed(p):
        # p[x, y] is x·y or y·x; [x, y, z]: p[x, y+z] != p[x, y] + p[x, z].
        return p[:, add] != add[p[:, :, None], p[:, None, :]]

    def note(axiom, w):
        if w:
            bad.append((axiom, w))

    note("add-identity", _first(add[0] != idx))
    note("add-commutative", _first(add != add.T))
    # Light's test needs 0 among the tested elements unless it is neutral.
    note("add-associative", proved_or_scanned(
        [0] + gens if bad and gens is not None else gens,
        light(add),
        lambda xs: add[add[xs]] != add[xs][:, add],
    ))
    note("add-inverse", _first(~(add == 0).any(axis=1)))
    # T_i's pairs (y, g_i, y + g_i), y in H_i = reach[:sizes[i - 1]], once +
    # is an abelian group: T_1 … T_{k-1} as one test, and T_k, whose H_k is
    # R, through slices, so it gathers no column.
    chain = None if bad else [(slice(None), slice(g, g + 1), add[g]) for g in gens[-1:]]
    if chain and gv.size > 1:
        ys = np.concatenate([reach[:c] for c in sizes[:-1]])
        gs = np.repeat(gv[:-1], sizes[:-1])
        chain.insert(0, (ys, gs, add[ys, gs]))
    cols = lambda c: mul[:, c] if isinstance(c, slice) else np.take(mul, c, axis=1)
    left = proved_or_scanned(
        chain,
        lambda t: np.take(mul, t[2], axis=1) != add[cols(t[0]), cols(t[1])],
        lambda xs: undistributed(mul[xs]),
        by_row=True,
    )
    right = proved_or_scanned(
        chain,
        lambda t: (mul[t[2]] != add[mul[t[0]], mul[t[1]]]).T,
        lambda xs: undistributed(mul[:, xs].T),
        by_row=True,
    )
    distributive = chain is not None and not (left or right)
    gg = mul[gv[:, None], gv]  # g·h at [g, h] in G^2
    if distributive:  # one test of (gh)k != g(hk) at [g, h, k] in G^3
        mul_gens, mul_at = [gv], lambda _: mul[gg[:, :, None], gv] != mul[gv[:, None, None], gg]
    else:
        (mul_gens, *_), mul_at = _generators(mul, [], n // 2), light(mul)
    note("mul-associative", proved_or_scanned(
        mul_gens, mul_at, lambda xs: mul[mul[xs]] != mul[xs][:, mul]
    ))
    note("left-unit", _first(mul[one] != idx))
    note("right-unit", _first(mul[:, one] != idx))
    note("left-distributive", left)
    note("right-distributive", right)
    additive = chain is not None and not any(
        (star[s] != add[star[ys], star[gs]]).any() for ys, gs, s in chain)
    if not additive:
        note("star-additive", _first(star[add] != add[star[:, None], star[None, :]]))
    sv = star[gv]
    if not (additive and distributive) or (star[gg] != mul[sv, sv[:, None]]).any():
        note("star-multiplicative", _first(star[mul] != mul[star[:, None], star[None, :]].T))
    note("star-involutive", _first(star[star] != idx))
    return bad, gens


def _make_ring(
    label: str, add: np.ndarray, mul: np.ndarray, star: np.ndarray, one: int,
    gens: Sequence[int], names: Callable[[], tuple[str, ...]] | None = None,
) -> StarRing:
    """A ring over tables that satisfy every axiom, with G = ``gens``: a
    leaf's tables are validated, a composite's hold by construction."""
    add, mul, star = (np.ascontiguousarray(t, dtype=_DT) for t in (add, mul, star))
    neg = np.argmax(add == 0, axis=1).astype(_DT)
    gens = np.array(gens, dtype=np.intp)
    return StarRing(
        label, add.shape[0], _frozen(add), _frozen(mul), _frozen(star), _frozen(neg),
        _frozen(gens), int(one), names,
    )


def _validated_ring(label: str, add, mul, star, one: int) -> StarRing:
    """A leaf ring: tables from outside the builders are range-checked and
    then validated, and the ring keeps the G that validation found."""
    n = add.shape[0]
    # Before the int32 cast, which would wrap an entry of 2^32 + 1 to 1.
    for name, t in (("add", add), ("mul", mul), ("star", star)):
        if t.size and (t.min() < 0 or t.max() >= n):
            raise RingSpecError(f"{label}: {name} table entry out of range")
    if not 0 <= one < n:
        raise RingSpecError(f"{label}: one={one} out of range")
    add, mul, star = (np.ascontiguousarray(t, dtype=_DT) for t in (add, mul, star))
    violations, gens = validate_tables(add, mul, star, one)
    if violations:
        raise TableValidationError(violations)
    return _make_ring(label, add, mul, star, one, gens)


def build_modular(n: int, cap: int = DEFAULT_ORDER_CAP) -> StarRing:
    """Z_n with the identity involution."""
    n = _integer(n, f"modular order must be an integer, got {n!r}")
    if n < 1:
        raise RingSpecError(f"modular order must be >= 1, got {n}")
    if n > cap:
        raise OrderCapError(f"Z{n} exceeds the order cap {cap}")
    add, mul, one, _ = _cyclic_product_tables([n])
    return _validated_ring(f"Z{n}", add, mul, np.arange(n), one)


def _mixed_radix_weights(orders: Sequence[int]) -> list[int]:
    w = [1] * len(orders)
    for i in range(len(orders) - 2, -1, -1):
        w[i] = w[i + 1] * orders[i + 1]
    return w


def _product_tables(orders: Sequence[int], tables) -> tuple[np.ndarray, np.ndarray]:
    """``(out, digits)``: ``out[t]`` is the componentwise product of the
    parts' t-th tables ``tables[i][t]``. Element x has digit
    ``digits[x, i]`` in part i: indices are mixed-radix over the parts, the
    first most significant, so the all-zero tuple lands at index 0."""
    w = _mixed_radix_weights(orders)
    ar = np.arange(w[0] * orders[0])
    digits = ar[:, None] // w % np.asarray(orders)
    # From the last part up, part i before the product of the later ones
    # (order w[i]) is the Kronecker sum t·w[i] ⊕ rest. Every entry is below
    # the order, and an n x n table with n >= 2^31 cannot be allocated, so
    # int32 sums do not overflow.
    out = [np.zeros((1, 1), dtype=_DT)] * len(tables[0])
    for part, o, wt in zip(reversed(tables), reversed(orders), reversed(w)):
        out = [
            ((t * wt)[:, None, :, None] + rest[None, :, None, :]).reshape(o * wt, o * wt)
            for t, rest in zip(part, out)
        ]
    return out, digits


def _cyclic_product_tables(orders: Sequence[int]) -> tuple:
    """``(add, mul, one, digits)`` of Z_o1 x ... x Z_ok, unvalidated,
    indexed as ``build_product`` indexes the product of the
    ``build_modular`` parts; ``digits`` as in ``_product_tables``."""
    ars = [np.arange(o, dtype=_DT) for o in orders]
    tables = [((a[:, None] + a) % o, a[:, None] * a % o) for a, o in zip(ars, orders)]
    (add, mul), digits = _product_tables(orders, tables)
    one = sum(1 % o * wt for o, wt in zip(orders, _mixed_radix_weights(orders)))
    return add, mul, one, digits


def build_product(
    parts: Sequence[StarRing], cap: int = DEFAULT_ORDER_CAP
) -> StarRing:
    """Componentwise product ring; indices are mixed-radix over the parts.

    The first part is most significant; the all-zero tuple lands at index 0.
    The result is not validated: a componentwise product of *-rings is a
    *-ring, since each axiom is an identity that holds in every component.
    Its G is the parts' G at their weights, last part first, which is the
    G ``_generators`` finds on it: the greedy closure always adds the least
    unreached element, and on A x B the indices below |B| are {0} x B, so
    it runs B's own search there, then A's at weight |B|.
    """
    parts = list(parts)
    if not parts:
        raise RingSpecError("product of no rings")
    orders = [p.order for p in parts]
    total = 1
    for o in orders:
        total *= o
        if total > cap:
            raise OrderCapError(f"product order exceeds the cap {cap}")
    w = _mixed_radix_weights(orders)
    tables = [(p.addition, p.multiplication) for p in parts]
    (add, mul), digits = _product_tables(orders, tables)
    star = sum(p.involution[d] * wt for p, d, wt in zip(parts, digits.T, w))
    one = sum(p.one * wt for p, wt in zip(parts, w))

    def names():
        return tuple(
            "(" + ",".join(p.name_of(int(v)) for p, v in zip(parts, row)) + ")"
            for row in digits
        )

    label = " x ".join(p.label for p in parts)
    gens = np.concatenate([p.generators * wt for p, wt in zip(parts[::-1], w[::-1])])
    return _make_ring(label, add, mul, star, one, gens, names)


def build_matrix(base: StarRing, k: int, cap: int = DEFAULT_ORDER_CAP) -> StarRing:
    """k x k matrices over a commutative base; star = entrywise star, then
    transpose. Indices are row-major mixed-radix over the entries.

    The result is not validated: M_k(B) is a ring, and A ↦ (entrywise
    A*)^T is additive, involutive and reverses products, since
    ((AB)*)_ij = Σ_l b*_li a*_jl = (B*A*)_ij. Its additive group is
    B^(k*k) laid out as ``build_product`` lays it out, so its G is the
    base's G at each cell's weight, last cell first.
    """
    k = _integer(k, f"matrix dimension must be an integer, got {k!r}")
    if k < 1:
        raise RingSpecError(f"matrix dimension must be >= 1, got {k}")
    if not base.is_commutative():
        raise RingSpecError(
            f"matrix ring over {base.label}: base must be commutative for the "
            "transpose involution to be valid"
        )
    cells = k * k
    # A base of order >= 2 caps k*k at log2(cap); one of order 1 would
    # otherwise build a zero ring from k*k cells, at O(k^2) cost.
    if cells > cap.bit_length() or base.order**cells > cap:
        raise OrderCapError(f"M{k}({base.label}) exceeds the order cap {cap}")
    total = base.order**cells
    # The additive group is the product of k*k copies of the base's.
    (add,), digits = _product_tables([base.order] * cells, [(base.addition,)] * cells)
    digits = digits.reshape(total, k, k)
    w = np.array([base.order ** (cells - 1 - c) for c in range(cells)], dtype=_DT)
    # Row i of xy is (row i of x)·y. A matrix v < r is a row vector in the last
    # row, so V[v, y] = v·y = Σ_l v_l·(row l of y); mul is V's Kronecker sum over x's rows.
    r = base.order**k
    V = np.zeros((r, total), dtype=_DT)
    for l in range(k):
        V = add[V, base.multiplication[digits[:r, -1, l, None, None], digits[None, :, l]] @ w[-k:]]
    mul = np.zeros((1, total), dtype=_DT)
    for i in range(k):
        mul = ((V * r**i)[:, None] + mul[None]).reshape(-1, total)
    star = base.involution[digits.transpose(0, 2, 1).reshape(total, cells)] @ w
    one = base.one * int(w[:: k + 1].sum())

    def names():
        return tuple(
            "["
            + ",".join(
                "[" + ",".join(base.name_of(int(digits[x, i, j])) for j in range(k)) + "]"
                for i in range(k)
            )
            + "]"
            for x in range(total)
        )

    gens = (base.generators * w[::-1, None]).ravel()
    return _make_ring(f"M{k}({base.label})", add, mul, star, one, gens, names)


# ---------------------------------------------------------------------------
# Structural descriptions and their JSON form.


@dataclass(frozen=True)
class ModularSpec:
    n: int


@dataclass(frozen=True)
class ProductSpec:
    parts: tuple["RingSpec", ...]


@dataclass(frozen=True)
class MatrixSpec:
    base: "RingSpec"
    k: int


@dataclass(frozen=True)
class TableSpec:
    order: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    star: tuple[int, ...]
    zero: int = 0
    one: int = 1


RingSpec = Union[ModularSpec, ProductSpec, MatrixSpec, TableSpec]


def build_from_tables(spec: TableSpec, cap: int = DEFAULT_ORDER_CAP) -> StarRing:
    """Materialize explicit tables after full axiom validation."""
    n, zero, one = (_int_field(vars(spec), f) for f in ("order", "zero", "one"))
    if n < 1:
        raise RingSpecError(f"table order must be >= 1, got {n}")
    if n > cap:
        raise OrderCapError(f"table order {n} exceeds the cap {cap}")
    if zero != 0:
        raise RingSpecError("element 0 must be the additive identity (zero=0)")
    if len(spec.add) != n or len(spec.mul) != n or len(spec.star) != n:
        raise RingSpecError("tables must be total over the declared order")
    if any(len(row) != n for row in spec.add) or any(
        len(row) != n for row in spec.mul
    ):
        raise RingSpecError("add/mul tables must be square")
    for key, rows in (("add", spec.add), ("mul", spec.mul), ("star", [spec.star])):
        # type() is exact, so bools, floats, strings and nested rows are all refused.
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            raise RingSpecError(f"table spec field {key!r} entries must be integers")
    # An int beyond int64 makes a float or object array, whose min and max
    # _validated_ring compares exactly: it is out of range too.
    return _validated_ring(f"table{n}", *map(np.array, (spec.add, spec.mul, spec.star)), one)


def _integer(v, message: str) -> int:
    """``v`` as an int: a bool, a float or any other non-integer is refused."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise RingSpecError(message)
    return int(v)


def _int_field(obj: dict, key: str) -> int:
    return _integer(obj.get(key), f"ring spec field {key!r} must be an integer")


SPEC_MAX_DEPTH = 64


def spec_from_json(obj, _depth: int = 0) -> RingSpec:
    """Parse the RingSpec JSON schema into a spec tree.

    Specs may nest at most ``SPEC_MAX_DEPTH`` levels deep.
    """
    if not isinstance(obj, dict):
        raise RingSpecError("ring spec must be a JSON object")
    if _depth >= SPEC_MAX_DEPTH:
        raise RingSpecError(f"ring spec nests deeper than {SPEC_MAX_DEPTH} levels")
    kind = obj.get("type")
    if kind == "modular":
        return ModularSpec(_int_field(obj, "n"))
    if kind == "product":
        parts = obj.get("parts")
        if not isinstance(parts, list) or not parts:
            raise RingSpecError("product spec needs a nonempty 'parts' list")
        return ProductSpec(tuple(spec_from_json(p, _depth + 1) for p in parts))
    if kind == "matrix":
        base = obj.get("base")
        if base is None:
            raise RingSpecError("matrix spec needs a 'base' ring spec")
        return MatrixSpec(spec_from_json(base, _depth + 1), _int_field(obj, "k"))
    if kind == "table":
        n = _int_field(obj, "order")
        for key in ("add", "mul", "star"):
            if not isinstance(obj.get(key), list):
                raise RingSpecError(f"table spec field {key!r} must be a list")
        # Entry types are checked by build_from_tables, in the same words.
        for key in ("add", "mul"):
            if not all(isinstance(row, list) for row in obj[key]):
                raise RingSpecError(f"table spec field {key!r} entries must be integers")
        add, mul = (tuple(map(tuple, obj[key])) for key in ("add", "mul"))
        return TableSpec(
            n, add, mul, tuple(obj["star"]), _int_field(obj, "zero"), _int_field(obj, "one")
        )
    raise RingSpecError(f"unknown ring spec type {kind!r}")


def spec_to_json(spec: RingSpec) -> dict:
    if isinstance(spec, ModularSpec):
        return {"type": "modular", "n": spec.n}
    if isinstance(spec, ProductSpec):
        return {"type": "product", "parts": [spec_to_json(p) for p in spec.parts]}
    if isinstance(spec, MatrixSpec):
        return {"type": "matrix", "base": spec_to_json(spec.base), "k": spec.k}
    if isinstance(spec, TableSpec):
        return {
            "type": "table",
            "order": spec.order,
            "add": [list(r) for r in spec.add],
            "mul": [list(r) for r in spec.mul],
            "star": list(spec.star),
            "zero": spec.zero,
            "one": spec.one,
        }
    raise RingSpecError(f"not a ring spec: {spec!r}")


def realize(
    spec: RingSpec, cap: int = DEFAULT_ORDER_CAP, parts: dict | None = None
) -> StarRing:
    """Materialize a spec tree into a validated ring.

    Each distinct part spec is built once per call (a leaf is validated
    then): ``parts`` maps part specs to their rings, so ``(Z2)^8``
    validates Z2 once. A caller may pass one dict to several calls (``fuzz`` does, for
    one run). ``spec``'s own ring is never stored: its caller may fill it
    with memo tables.
    """
    if parts is None:
        parts = {}

    def part(p: RingSpec) -> StarRing:
        try:
            hit = p in parts
        except TypeError:  # a table holding lists: build_from_tables judges it
            return realize(p, cap)
        if not hit:
            parts[p] = realize(p, cap, parts)
        return parts[p]

    if isinstance(spec, ModularSpec):
        return build_modular(spec.n, cap)
    if isinstance(spec, ProductSpec):
        return build_product([part(p) for p in spec.parts], cap)
    if isinstance(spec, MatrixSpec):
        return build_matrix(part(spec.base), spec.k, cap)
    if isinstance(spec, TableSpec):
        return build_from_tables(spec, cap)
    raise RingSpecError(f"not a ring spec: {spec!r}")


def ring_to_table_spec(ring: StarRing) -> TableSpec:
    """Dump a ring back to an explicit table spec (for replay)."""
    add, mul = (tuple(map(tuple, t.tolist())) for t in (ring.addition, ring.multiplication))
    return TableSpec(ring.order, add, mul, tuple(ring.involution.tolist()), 0, ring.one)
