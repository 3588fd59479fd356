"""Finite unital *-rings represented as dense, validated operation tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

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


@dataclass(frozen=True, eq=False)
class StarRing:
    """A finite unital ring with involution, backed by dense lookup tables.

    Elements are the integers ``0 .. order-1``; index 0 is always the
    additive identity. Instances are immutable (the tables are read-only
    arrays) and safe to share; derived structure is memoised per instance.
    """

    label: str
    order: int
    addition: np.ndarray        # addition[a, b] = a + b
    multiplication: np.ndarray  # multiplication[a, b] = a * b
    involution: np.ndarray      # involution[a] = a*
    negation: np.ndarray        # negation[a] = -a
    one: int
    element_names: tuple[str, ...] | None = None
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def zero(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def check(self, a: int) -> int:
        """Validate an element id, rejecting ids from other rings."""
        i = int(a)
        if not 0 <= i < self.order:
            raise ForeignElementError(
                f"element {a!r} does not belong to {self.label} (order {self.order})"
            )
        return i

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

    def name_of(self, a: int) -> str:
        i = self.check(a)
        return self.element_names[i] if self.element_names else str(i)

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
        return self.memo(
            "commutative",
            lambda: bool((self.multiplication == self.multiplication.T).all()),
        )


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    hits = np.argwhere(mask)
    if hits.size == 0:
        return None
    return tuple(int(v) for v in hits[0])


def _additive_generators(add: np.ndarray) -> list[int] | None:
    """A greedy generating set G of the magma ``(elements, add)`` over 0.

    Starting from R = {0}, the smallest element outside R joins G and R is
    closed under sums, until R holds every element. An abelian group of
    order n needs at most log2(n) generators this way, since each one at
    least doubles R; past ``n.bit_length()`` the table is no group and None
    is returned. Closure only sums pairs that involve a newly reached
    element, so building G costs O(n^2) in all.
    """
    n = add.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        if len(gens) == n.bit_length():
            return None
        g = int(np.argmin(reached))
        gens.append(g)
        reached[g] = True
        new = np.array([g])
        while new.size:
            r = np.flatnonzero(reached)
            hit = np.zeros(n, dtype=bool)
            hit[add[new[:, None], r]] = True
            hit[add[r[:, None], new]] = True
            new = np.flatnonzero(hit & ~reached)
            reached[new] = True
    return gens


def validate_tables(
    add: np.ndarray, mul: np.ndarray, star: np.ndarray, one: int
) -> list[tuple[str, tuple[int, ...]]]:
    """Check every ring/involution axiom over all element tuples.

    Returns one ``(axiom, witness)`` pair per violated axiom, with the
    lexicographically first witness. The four triple axioms are proved on
    an additive generating set G (``_additive_generators``, |G| <= log2 n),
    so an accepted table costs O(|G|·n^2):

    - add-associative (Light's test): the elements ``a`` with
      ``(x+a)+y = x+(a+y)`` for all x, y are closed under +, so testing
      the generators (and 0, unless it is neutral) covers every element.
    - left-/right-distributive, given the additive group: the ``z`` with
      ``x(y+z) = xy+xz`` (resp. ``(y+z)x = yx+zx``) for all x, y are
      closed under +, so testing z in G suffices.
    - mul-associative, given both distributive laws: the associator
      ``(xy)z - x(yz)`` is additive in each argument, so it vanishes
      everywhere once it vanishes on G^3.

    An axiom whose test fails, or whose precondition does not hold, falls
    back to the exhaustive O(n^3) scan for that axiom alone, which finds
    the witness.
    """
    n = add.shape[0]
    idx = np.arange(n)
    bad: list[tuple[str, tuple[int, ...]]] = []
    gens = _additive_generators(add)

    def first_triple(fail):
        # fail(x) is an (n, n) mismatch mask over (y, z); scan x ascending.
        for x in range(n):
            m = fail(x)
            if m.any():
                y, z = np.argwhere(m)[0]
                return (x, int(y), int(z))
        return None

    def proved_or_scanned(gs, fail_at, fail):
        # fail_at(g) is the mismatch mask of the axiom's test at generator g.
        # If no g in gs fails, the axiom holds; otherwise (or with no gs)
        # the exhaustive scan finds the first witness.
        if gs is not None and not any(fail_at(g).any() for g in gs):
            return None
        return first_triple(fail)

    w = _first(add[0] != idx)
    if w:
        bad.append(("add-identity", w))
    w = _first(add != add.T)
    if w:
        bad.append(("add-commutative", w))
    # Light's test needs 0 among the tested elements unless it is neutral.
    light = [0] + gens if bad and gens is not None else gens
    w = proved_or_scanned(
        light,
        lambda g: add[:, add[g]] != add[add[:, g]],
        lambda x: add[add[x]] != add[x][add],
    )
    if w:
        bad.append(("add-associative", w))
    w = _first(~(add == 0).any(axis=1))
    if w:
        bad.append(("add-inverse", w))
    # G, once + is an abelian group; then the row add[g] is also the column.
    group_gens = None if bad else gens
    left = proved_or_scanned(
        group_gens,
        lambda g: np.take(mul, add[g], axis=1) != add[mul, mul[:, g][:, None]],
        lambda x: mul[x][add] != add[mul[x][:, None], mul[x][None, :]],
    )
    right = proved_or_scanned(
        group_gens,
        lambda g: mul[add[g]] != add[mul, mul[g]],
        lambda x: mul[add, x] != add[mul[:, x][:, None], mul[:, x][None, :]],
    )
    ring_gens = None if left or right else group_gens
    gv = np.array(ring_gens or [], dtype=np.intp)
    w = proved_or_scanned(
        ring_gens,
        lambda g: mul[mul[g, gv][:, None], gv] != mul[g, mul[gv[:, None], gv]],
        lambda x: mul[mul[x]] != mul[x][mul],
    )
    if w:
        bad.append(("mul-associative", w))
    w = _first(mul[one] != idx)
    if w:
        bad.append(("left-unit", w))
    w = _first(mul[:, one] != idx)
    if w:
        bad.append(("right-unit", w))
    if left:
        bad.append(("left-distributive", left))
    if right:
        bad.append(("right-distributive", right))
    w = _first(star[add] != add[star[:, None], star[None, :]])
    if w:
        bad.append(("star-additive", w))
    w = _first(star[mul] != mul[star[:, None], star[None, :]].T)
    if w:
        bad.append(("star-multiplicative", w))
    w = _first(star[star] != idx)
    if w:
        bad.append(("star-involutive", w))
    return bad


def _make_ring(
    label: str,
    add: np.ndarray,
    mul: np.ndarray,
    star: np.ndarray,
    one: int,
    names: tuple[str, ...] | None = None,
) -> StarRing:
    add = np.ascontiguousarray(add, dtype=_DT)
    mul = np.ascontiguousarray(mul, dtype=_DT)
    star = np.ascontiguousarray(star, dtype=_DT)
    n = add.shape[0]
    if add.shape != (n, n) or mul.shape != (n, n) or star.shape != (n,):
        raise RingSpecError(f"{label}: tables must be {n}x{n} (and star length {n})")
    for name, t in (("add", add), ("mul", mul), ("star", star)):
        if t.size and (t.min() < 0 or t.max() >= n):
            raise RingSpecError(f"{label}: {name} table entry out of range")
    one = int(one)
    if not 0 <= one < n:
        raise RingSpecError(f"{label}: one={one} out of range")
    violations = validate_tables(add, mul, star, one)
    if violations:
        raise TableValidationError(violations)
    neg = np.argmax(add == 0, axis=1).astype(_DT)
    return StarRing(
        label, n, _frozen(add), _frozen(mul), _frozen(star), _frozen(neg), one, names
    )


def build_modular(n: int, cap: int = DEFAULT_ORDER_CAP) -> StarRing:
    """Z_n with the identity involution."""
    n = int(n)
    if n < 1:
        raise RingSpecError(f"modular order must be >= 1, got {n}")
    if n > cap:
        raise OrderCapError(f"Z{n} exceeds the order cap {cap}")
    i = np.arange(n, dtype=np.int64)
    add = (i[:, None] + i[None, :]) % n
    mul = (i[:, None] * i[None, :]) % n
    return _make_ring(f"Z{n}", add, mul, i, 1 % n)


def _mixed_radix_weights(orders: Sequence[int]) -> list[int]:
    w = [1] * len(orders)
    for i in range(len(orders) - 2, -1, -1):
        w[i] = w[i + 1] * orders[i + 1]
    return w


def build_product(
    parts: Sequence[StarRing], cap: int = DEFAULT_ORDER_CAP
) -> StarRing:
    """Componentwise product ring; indices are mixed-radix over the parts.

    The first part is most significant; the all-zero tuple lands at index 0.
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
    k = len(parts)
    w = _mixed_radix_weights(orders)
    ar = np.arange(total, dtype=np.int64)
    digits = [(ar // w[i]) % orders[i] for i in range(k)]
    add = np.zeros((total, total), dtype=np.int64)
    mul = np.zeros((total, total), dtype=np.int64)
    star = np.zeros(total, dtype=np.int64)
    one = 0
    for i, p in enumerate(parts):
        d = digits[i]
        add += p.addition[d[:, None], d[None, :]].astype(np.int64) * w[i]
        mul += p.multiplication[d[:, None], d[None, :]].astype(np.int64) * w[i]
        star += p.involution[d].astype(np.int64) * w[i]
        one += p.one * w[i]
    names = tuple(
        "(" + ",".join(parts[i].name_of(int(digits[i][x])) for i in range(k)) + ")"
        for x in range(total)
    )
    label = " x ".join(p.label for p in parts)
    return _make_ring(label, add, mul, star, one, names)


def build_matrix(base: StarRing, k: int, cap: int = DEFAULT_ORDER_CAP) -> StarRing:
    """k x k matrices over a commutative base; star = entrywise star, then
    transpose. Indices are row-major mixed-radix over the entries."""
    k = int(k)
    if k < 1:
        raise RingSpecError(f"matrix dimension must be >= 1, got {k}")
    if not base.is_commutative():
        raise RingSpecError(
            f"matrix ring over {base.label}: base must be commutative for the "
            "transpose involution to be valid"
        )
    cells = k * k
    total = 1
    for _ in range(cells):
        total *= base.order
        if total > cap:
            raise OrderCapError(f"M{k}({base.label}) exceeds the order cap {cap}")
    w = [base.order ** (cells - 1 - c) for c in range(cells)]
    ar = np.arange(total, dtype=np.int64)
    digits = np.stack(
        [(ar // w[c]) % base.order for c in range(cells)], axis=1
    ).reshape(total, k, k)
    add = np.zeros((total, total), dtype=np.int64)
    mul = np.zeros((total, total), dtype=np.int64)
    star = np.zeros(total, dtype=np.int64)
    for i in range(k):
        for j in range(k):
            c = i * k + j
            add += base.addition[
                digits[:, None, i, j], digits[None, :, i, j]
            ].astype(np.int64) * w[c]
            s = base.multiplication[digits[:, None, i, 0], digits[None, :, 0, j]]
            for l in range(1, k):
                s = base.addition[
                    s, base.multiplication[digits[:, None, i, l], digits[None, :, l, j]]
                ]
            mul += s.astype(np.int64) * w[c]
            star += base.involution[digits[:, j, i]].astype(np.int64) * w[c]
    one = sum(base.one * w[i * k + i] for i in range(k))
    names = tuple(
        "["
        + ",".join(
            "[" + ",".join(base.name_of(int(digits[x, i, j])) for j in range(k)) + "]"
            for i in range(k)
        )
        + "]"
        for x in range(total)
    )
    return _make_ring(f"M{k}({base.label})", add, mul, star, one, names)


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
    n = int(spec.order)
    if n < 1:
        raise RingSpecError(f"table order must be >= 1, got {n}")
    if n > cap:
        raise OrderCapError(f"table order {n} exceeds the cap {cap}")
    if int(spec.zero) != 0:
        raise RingSpecError("element 0 must be the additive identity (zero=0)")
    if len(spec.add) != n or len(spec.mul) != n or len(spec.star) != n:
        raise RingSpecError("tables must be total over the declared order")
    if any(len(row) != n for row in spec.add) or any(
        len(row) != n for row in spec.mul
    ):
        raise RingSpecError("add/mul tables must be square")
    add = np.array(spec.add, dtype=np.int64)
    mul = np.array(spec.mul, dtype=np.int64)
    star = np.array(spec.star, dtype=np.int64)
    return _make_ring(f"table{n}", add, mul, star, int(spec.one))


def _int_field(obj: dict, key: str) -> int:
    v = obj.get(key)
    if isinstance(v, bool) or not isinstance(v, int):
        raise RingSpecError(f"ring spec field {key!r} must be an integer")
    return v


SPEC_MAX_DEPTH = 64


def _int_entries(row, key: str) -> tuple[int, ...]:
    # type() is exact, so bools, floats and strings are all refused.
    if not isinstance(row, list) or not set(map(type, row)) <= {int}:
        raise RingSpecError(f"table spec field {key!r} entries must be integers")
    return tuple(row)


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
        add = tuple(_int_entries(row, "add") for row in obj["add"])
        mul = tuple(_int_entries(row, "mul") for row in obj["mul"])
        star = _int_entries(obj["star"], "star")
        return TableSpec(
            n, add, mul, star, _int_field(obj, "zero"), _int_field(obj, "one")
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


def realize(spec: RingSpec, cap: int = DEFAULT_ORDER_CAP) -> StarRing:
    """Materialize a spec tree into a validated ring."""
    if isinstance(spec, ModularSpec):
        return build_modular(spec.n, cap)
    if isinstance(spec, ProductSpec):
        if not spec.parts:
            raise RingSpecError("product of no rings")
        return build_product([realize(p, cap) for p in spec.parts], cap)
    if isinstance(spec, MatrixSpec):
        return build_matrix(realize(spec.base, cap), spec.k, cap)
    if isinstance(spec, TableSpec):
        return build_from_tables(spec, cap)
    raise RingSpecError(f"not a ring spec: {spec!r}")


def ring_to_table_spec(ring: StarRing) -> TableSpec:
    """Dump a ring back to an explicit table spec (for replay)."""
    return TableSpec(
        ring.order,
        tuple(tuple(int(v) for v in row) for row in ring.addition),
        tuple(tuple(int(v) for v in row) for row in ring.multiplication),
        tuple(int(v) for v in ring.involution),
        0,
        ring.one,
    )
