"""The order structure of the Conrad relation: the relation and its
diagnostics, meets/joins, the lattice predicates, segments, DOT. The
theorem checks built on it live in `theorems`.

`pair_tables` is the one source of meets and joins: `meet`, `join` and
the glb/lub of each initial segment read it, and `_least_upper` is the one
scanner for pairs it cannot answer. Meets and joins are only defined on a
partial order, so `pair_tables` refuses any other relation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .analysis import (
    CheckResult,
    PASS,
    _fail,
    center_mask,
    cover_ids,
    cover_table,
    times_covers,
    CentralCoverTable,
    projection_mask,
    zero_product_matrix,
)
from .errors import PreconditionError
from .rings import StarRing, _first, _frozen


def leq_matrix(ring: StarRing) -> np.ndarray:
    """leq[a, b] iff a·r·b = a·r·a for every r.

    By distributivity a·r·b - a·r·a = a·r·(b - a), so this holds iff
    a ⊥ (b - a): the entry Z[a, b - a] of the zero-product matrix.
    """

    def build():
        idx = np.arange(ring.order)
        return _frozen(zero_product_matrix(ring)[idx[:, None], ring.sub_table().T])

    return ring.memo("leq_matrix", build)


def cover_leq_matrix(ring: StarRing) -> np.ndarray:
    def build():
        covers = cover_ids(ring)
        return _frozen(ring.multiplication[covers] == np.arange(ring.order)[:, None])

    return ring.memo("cover_leq_matrix", build)


def _counts(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """x @ y for boolean matrices as float32 counts, x @ x.T without y.

    float32 BLAS is exact: every count is at most n < 2**24. Without y both
    operands share one buffer, so BLAS computes only half of it (syrk)."""
    xf = x.astype(np.float32)
    return xf @ (xf.T if y is None else y.astype(np.float32))


@dataclass(frozen=True)
class AxiomCheck:
    holds: bool
    witness: tuple[int, ...] | None

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "witness": list(self.witness) if self.witness else None,
        }


@dataclass(frozen=True)
class OrderDiagnostics:
    reflexive: AxiomCheck
    antisymmetric: AxiomCheck
    transitive: AxiomCheck

    @cached_property  # the fields never change, so the verdict is taken once
    def all_pass(self) -> bool:
        return self.first_failure() is None

    def first_failure(self) -> tuple[str, tuple[int, ...]] | None:
        for f in fields(self):
            check = getattr(self, f.name)
            if not check.holds:
                return f.name, check.witness
        return None

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name).to_json_dict() for f in fields(self)}


@dataclass(frozen=True)
class OrderStructure:
    label: str
    order: int
    leq: np.ndarray
    diagnostics: OrderDiagnostics
    cub: np.ndarray  # a and b have a common upper bound
    covers: CentralCoverTable
    # |up(a) ∩ up(b)| at [a, b]: leq @ leq.T in float32; None where the
    # cover certificate holds, which makes the counts redundant
    up: np.ndarray | None
    leq_t: np.ndarray  # leq.T, contiguous: row m is the down-set of m

    @property
    def certified(self) -> bool:
        """The cover certificate holds (see `_cover_certificate`)."""
        return self.up is None

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "order": self.order,
            "leq": self.leq.tolist(),
            "diagnostics": self.diagnostics.to_json_dict(),
            "cub": self.cub.tolist(),
            "covers": self.covers.to_json_dict()["cover"],
        }


def _diagnose(leq: np.ndarray, up: np.ndarray | None) -> OrderDiagnostics:
    """``up`` is None where the cover certificate proves transitivity."""
    n = leq.shape[0]
    w = _first(~leq[np.arange(n), np.arange(n)])
    reflexive = AxiomCheck(w is None, w)

    w = _first(leq & leq.T & ~np.eye(n, dtype=bool))
    antisymmetric = AxiomCheck(w is None, w)

    # a <= b must give up(b) ⊆ up(a), that is up[a, b] = |up(b)| = up[b, b]
    w = None if up is None else _first(leq & (up != np.diagonal(up)))
    if w:  # the first a gives [b, c]
        w = (w[0], *_first(leq[w[0]][:, None] & leq & ~leq[w[0]]))
    transitive = AxiomCheck(w is None, w)
    return OrderDiagnostics(reflexive, antisymmetric, transitive)


def _cover_certificate(ring: StarRing, leq: np.ndarray, ac: np.ndarray) -> bool:
    """Every C(x) is a central projection, e·y <= y for every central
    projection e (L0), every a <= b has a = C(a)·b (F1), and x ⊥ y iff
    C(x)·C(y) = 0 (OC). ``ac`` is `times_covers(ring)`.

    L0 holds for the Conrad relation of any ring: for x = e·y,
    x·r·(y − x) = e·y·r·(1 − e)·y = e(1 − e)·y·r·y = 0. Each term is
    checked on the stored relation, zero-product matrix and covers, so an
    array written into the memo that breaks one takes the count path. OC
    is tested last, so a ring that fails an earlier term does no more
    work. Below e and g are central projections, and x <= y follows from
    x = e·y by L0. Three more facts follow from the terms:
    - C(x)·x = x: L0 at e = 1 gives x <= x, and F1 at (x, x).
    - Minimality, C(x)·e = C(x) wherever e·x = x: put g = C(x)(1 − e).
      Then x·g = 0, so (1 − g)(x + g) = x and x <= x + g; F1 gives
      x = C(x)(x + g) = x + g, so g = 0.
    - x ⊥ y iff C(x)·y = 0: by OC, C(x)C(y) = 0 gives C(x)·y =
      C(x)C(y)·y = 0, and C(x)·y = 0 makes 1 − C(x) fix y, so
      C(y)C(x) = 0 by minimality. So Z is symmetric, its rows and columns
      are additive subgroups, and a <= b iff Z[a, b − a]: a = C(a)·b gives
      C(a)·(b − a) = 0, and Z[a, c] gives C(a)·(a + c) = a.
    Where the certificate holds:
    - transitivity: a <= b <= c gives a = C(a)C(b)·c by F1. So C(b)·a = a,
      C(a)C(b) = C(a) by minimality, a = C(a)·c and a <= c.
    - cub: a and b have a common upper bound iff a·C(b) = b·C(a), and then
      j = a + b − a·C(b) is one. If v bounds a and b, F1 gives
      a·C(b) = C(a)C(b)·v = b·C(a). If a·C(b) = b·C(a), then C(a)·j = a
      and C(b)·j = b, so j bounds both by L0.
    - lub: for an upper bound c of a and b, F1 gives
      j = (C(a) + C(b) − C(a)C(b))·c <= c. So j is the join where it
      bounds a and b.
    - glb: for a lower bound c of a and b, F1 gives c = C(c)·a = C(c)·b.
      So C(b)·c = c, C(c) = C(c)C(b) and c = C(c)·(a·C(b)) <= a·C(b).
      So a·C(b) is the meet where it bounds a and b from below.
    - (P) a pair with a common upper bound has a meet and a join, the
      formula values: j bounds both by cub, and a·C(b) = C(b)·a = C(a)·b,
      by cub's F1 line, is below both by L0.
    - (O) x ⊥ y gives meet 0 and join x + y: x·C(y) = 0, so the formula
      values are 0, below both by L0, and x + y, which bounds both as
      C(x)·(x + y) = x and C(y)·(x + y) = y.
    - 0 ⊥ y: minimality at x = e = 0 gives C(0) = 0, then OC.
    - descends: x <= y gives C(y)·x = x by F1, so C(x)C(y) = C(x) by
      minimality; y ⊥ z gives C(x)C(z) = C(x)C(y)C(z) = 0, so x ⊥ z by OC.
    - cancellation: x ⊥ y, x ⊥ z and y <= x∨z = x + z, by (O), give
      y = C(y)·(x + z) = C(y)·z by F1, as C(y)·x = 0. So y <= z.
    """
    central = projection_mask(ring) & center_mask(ring)
    return (
        central[cover_ids(ring)].all()
        and not (leq & ~cover_leq_matrix(ring)).any()
        and leq[ring.multiplication[central], np.arange(ring.order)].all()
        and np.array_equal(zero_product_matrix(ring), ac[cover_ids(ring)] == 0)
    )


def _formula_tables(ring: StarRing) -> tuple[np.ndarray, np.ndarray]:
    """The cover formula values a·C(b) and a + b − a·C(b) at [a, b], as
    new writable arrays."""
    mv = times_covers(ring)
    return mv, ring.sub_table()[ring.addition, mv]


def _bounds(leq: np.ndarray, values: np.ndarray, above: bool) -> np.ndarray:
    """values[a, b] bounds a and b from above (``above``) or below."""
    idx = np.arange(leq.shape[0])
    if above:
        return leq[idx[:, None], values] & leq[idx[None, :], values]
    return leq[values, idx[:, None]] & leq[values, idx[None, :]]


def build_order(ring: StarRing) -> OrderStructure:
    """Read the relation off the zero-product matrix and diagnose the
    order axioms. Where the cover certificate holds, transitivity follows
    from it and `cub` is a·C(b) = b·C(a); elsewhere both come from the
    up-set counts."""

    def build():
        leq = leq_matrix(ring)
        ac = times_covers(ring)
        if _cover_certificate(ring, leq, ac):
            up, cub = None, ac == ac.T
        else:
            up = _frozen(_counts(leq))
            cub = up > 0
        return OrderStructure(
            ring.label,
            ring.order,
            leq,
            _diagnose(leq, up),
            _frozen(cub),
            cover_table(ring),
            up,
            _frozen(np.ascontiguousarray(leq.T)),
        )

    return ring.memo("order_structure", build)


def _partial_order(ring: StarRing) -> OrderStructure:
    """`build_order(ring)`, refused unless the relation is a partial order.

    Every p.q.-Baer *-ring is semiprime, so its relation is one."""
    structure = build_order(ring)
    if not structure.diagnostics.all_pass:
        name, witness = structure.diagnostics.first_failure()
        raise PreconditionError(
            f"{ring.label}: the relation is not a partial order "
            f"({name} fails at {witness})"
        )
    return structure


@dataclass(frozen=True)
class PairTables:
    """The verified glb and lub of each pair, for a relation that is a
    partial order.

    ``meet``/``join`` hold the glb and lub where they exist, else -1: a
    pair without a common upper bound holds -1 in both. Each is the cover
    formula value a·C(b) or a+b-a·C(b) where the cover certificate or the
    bound counts prove it, else a scanned one, so a value differing from
    the formula is itself a finding.
    """

    cub: np.ndarray
    meet: np.ndarray
    join: np.ndarray


def _least_upper(leq: np.ndarray, a: int, b: int) -> int | None:
    """The first common upper bound of a and b below all the others, or
    None. ``_least_upper(leq.T, a, b)`` is the greatest lower bound."""
    ub = np.flatnonzero(leq[a] & leq[b])
    if not ub.size:
        return None
    w = _first(leq[np.ix_(ub, ub)].all(axis=1))
    return int(ub[w[0]]) if w else None


def pair_tables(ring: StarRing) -> PairTables:
    """Raises `PreconditionError` unless the relation is a partial order."""

    def build():
        structure = _partial_order(ring)
        leq, leq_t, cub, up = structure.leq, structure.leq_t, structure.cub, structure.up
        mv, jv = _formula_tables(ring)  # a·C(b) and (a+b) - a·C(b)
        # Where the cover certificate holds, both are the glb and lub on
        # `cub`, by (P). Elsewhere each that the counts do not verify becomes
        # -1 in place, and a raw scan replaces it where a bound exists.
        if structure.certified:
            mv[~cub] = jv[~cub] = -1
        else:
            # A common upper bound v of a and b is least iff |up(v)| =
            # |up(a) ∩ up(b)|, by transitivity; dually for the meet. |up(v)|
            # is a diagonal entry.
            down = _counts(leq_t)  # |down(a) ∩ down(b)| at [a, b]
            for values, above, counts, rel in ((mv, False, down, leq_t), (jv, True, up, leq)):
                ok = _bounds(leq, values, above) & cub & (counts == np.diagonal(counts)[values])
                values[~ok] = -1
                for a, b in np.argwhere(cub & ~ok):
                    v = _least_upper(rel, int(a), int(b))
                    if v is not None:
                        values[a, b] = v
        return PairTables(cub, _frozen(mv), _frozen(jv))

    return ring.memo("pair_tables", build)


def meet(ring: StarRing, a: int, b: int) -> int | None:
    """The glb of a and b read from `pair_tables`: a·C(b) where that value
    is proved or verified, else a scanned one. None (-1 in the table) marks
    a pair with no common upper bound or no glb. On a ring that is not
    p.q.-Baer * the cover formula can misfire (the swap ring at (1, 2));
    the verified glb is returned there. Raises `PreconditionError` unless
    the relation is a partial order."""
    a = ring.check(a)
    b = ring.check(b)
    v = int(pair_tables(ring).meet[a, b])
    return v if v >= 0 else None


def join(ring: StarRing, a: int, b: int) -> int | None:
    """The lub of a and b read from `pair_tables`, as `meet` reads the glb."""
    a = ring.check(a)
    b = ring.check(b)
    v = int(pair_tables(ring).join[a, b])
    return v if v >= 0 else None


def is_lattice(ring: StarRing) -> CheckResult:
    """Lattice criterion: a·C(b) = b·C(a) for all pairs."""
    ac = times_covers(ring)
    w = _first(ac != ac.T)
    return _fail(w) if w else PASS


def is_pseudo_lattice(ring: StarRing) -> CheckResult:
    """Every pair with a common upper bound has a verified meet and join."""
    pt = pair_tables(ring)
    w = _first(pt.cub & (np.minimum(pt.meet, pt.join) < 0))
    return _fail(w) if w else PASS


# ---------------------------------------------------------------------------
# Initial segments.


@dataclass(frozen=True)
class SegmentPoset:
    """The initial segment [0, m] with complement a -> m - a."""

    label: str
    top: int
    elements: tuple[int, ...]
    leq: np.ndarray              # induced order over positions in `elements`
    complement: tuple[int, ...]  # m - a, aligned with `elements`
    orthocomplemented: bool
    orthomodular: bool
    locality: bool
    witness: dict | None

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "top": self.top,
            "elements": list(self.elements),
            "leq": self.leq.tolist(),
            "complement": list(self.complement),
            "orthocomplemented": self.orthocomplemented,
            "orthomodular": self.orthomodular,
            "locality": self.locality,
            "witness": self.witness,
        }


def _segment_bound(pt: PairTables | None, glb: bool, elems, L, i, j) -> np.ndarray:
    """Segment glb (``glb``) or lub of each position pair (i[k], j[k]) of
    [0, m], as a ring element, -1 for none.

    ``pt`` is given only when the relation is a partial order. Then every
    pair of [0, m] has m as a common upper bound, so its global meet or
    join lies in [0, m] and is its segment glb or lub. Only the pairs
    without one (all pairs when ``pt`` is None) are scanned on the segment
    order ``L``.
    """
    if pt is None:
        out = np.full(i.size, -1)
    else:
        out = (pt.meet if glb else pt.join)[elems[i], elems[j]]
    rel = L.T if glb else L
    for k in (out < 0).nonzero()[0]:
        v = _least_upper(rel, int(i[k]), int(j[k]))
        if v is not None:
            out[k] = elems[v]
    return out


def initial_segment(ring: StarRing, m: int) -> SegmentPoset:
    """Build [0, m] and verify orthocomplementation, orthomodularity, and
    agreement of segment orthogonality with ring orthogonality.

    ``complement-involution`` is an internal-consistency check: with the
    ring's own subtraction m - (m - a) = a always holds, so it fires only
    on an inconsistent ``sub_table``.

    Where the cover certificate holds (``structure.certified``), every
    check passes for every m, and none is scanned. `_cover_certificate`
    proves that Z is symmetric, that its rows and columns are additive
    subgroups, that x <= y iff Z[x, y - x], "descends", and the pair-table
    facts (P), a common upper bound gives a meet and a join, and (O),
    Z[a, b] gives meet 0 and join a + b. A glb or lub of a pair below m is
    its segment glb or lub. For a <= b <= m put c = b - a and d = m - b, so
    Z[a, c] and Z[b, d]:
    - complement-in-segment: m - a <= m is Z[m - a, a], by symmetry.
    - complement meet and join: a ⊥ m - a, so (O). Involution: arithmetic.
    - antitone: m - b <= m - a is Z[d, c]. Z[b, d] and a <= b give Z[a, d]
      by descends, so Z[c, d] as column d is a subgroup, and symmetry.
    - orthogonal joins: m bounds every pair, so (P).
    - decomposition: take c. Z[c, a] and Z[c, d] give c <= m, Z[a, d]
      gives a <= m - c, and a∨c = a + c = b by (O).
    - locality, on any ring: as Z[a, m - a], Z[a, m - a - b] iff Z[a, b]."""
    m = ring.check(m)
    structure = build_order(ring)
    leq = structure.leq
    S = ring.sub_table()

    elems = structure.leq_t[m].nonzero()[0]
    comp_raw = S[m, elems]
    rows = leq[elems]
    L = np.take(rows, elems, axis=1)

    def make(orthoc, orthom, local, witness):
        return SegmentPoset(
            ring.label, m, tuple(elems.tolist()), _frozen(L), tuple(comp_raw.tolist()),
            orthoc, orthom, local, witness,
        )

    def wit(axiom, parts):
        return {"axiom": axiom, "elements": [int(v) for v in parts]}

    if structure.certified:
        return make(True, True, True, None)
    pt = pair_tables(ring) if structure.diagnostics.all_pass else None
    w = _first(~structure.leq_t[m, comp_raw])
    if w:
        return make(False, False, False, wit("complement-in-segment", elems[list(w)]))

    idx = np.arange(elems.size)
    comp = elems.searchsorted(comp_raw)  # positions of the complements
    LC = np.take(rows, comp_raw, axis=1)  # [i, j]: i <= comp(j)

    def failures():  # (axiom, positions) of the failing checks, in order
        # Orthocomplementation: a∧a' = 0, a∨a' = m, involution, antitone.
        meet_bad = _segment_bound(pt, True, elems, L, idx, comp) != 0
        join_bad = _segment_bound(pt, False, elems, L, idx, comp) != m
        w = _first(meet_bad | join_bad)
        if w:
            yield ("complement-meet-zero" if meet_bad[w] else "complement-join-top"), w
        w = _first(comp[comp] != idx)
        if w:
            yield "complement-involution", w
        w = _first(L & ~LC[comp].T)  # i <= j but not comp(j) <= comp(i)
        if w:
            yield "complement-antitone", w
        # Orthomodularity over the segment orthogonality a ⊥ b iff a <= b',
        # which is symmetric once the complement is an antitone involution.
        i, j = LC.nonzero()  # row-major
        lub = _segment_bound(pt, False, elems, L, i, j)
        w = _first(lub < 0)
        if w:
            yield "orthogonal-join-exists", (i[w[0]], j[w[0]])
        reached = np.zeros(L.shape, dtype=bool)  # [i, b]: b = i∨c for some c ⊥ i
        reached[i, elems.searchsorted(lub)] = True
        w = _first(L & ~reached)
        if w:
            yield "orthomodular-decomposition", w

    axiom, w = next(failures(), (None, None))
    witness = wit(axiom, elems[list(w)]) if axiom else None
    orthom = axiom is None
    orthoc = orthom or not axiom.startswith("complement-")  # the first four checks fail it

    # Locality: segment orthogonality coincides with ring orthogonality.
    w = _first(LC != zero_product_matrix(ring)[elems[:, None], elems])
    locality = w is None
    if not locality and witness is None:
        witness = wit("segment-locality", elems[list(w)])

    return make(orthoc, orthom, locality, witness)


# ---------------------------------------------------------------------------
# The Hasse diagram.


def covering_matrix(leq: np.ndarray) -> np.ndarray:
    """b covers a iff a < b with nothing strictly between."""
    n = leq.shape[0]
    strict = leq & ~np.eye(n, dtype=bool)
    return strict & (_counts(strict, strict) == 0)


def hasse_dot(ring: StarRing) -> str:
    """Deterministic DOT rendering of the covering relation."""
    structure = _partial_order(ring)
    lines = [f'digraph "{ring.label}" {{', "  rankdir=BT;"]
    for i in range(ring.order):
        lines.append(f'  {i} [label="{ring.name_of(i)}"];')
    for a, b in np.argwhere(covering_matrix(structure.leq)):
        lines.append(f"  {int(a)} -> {int(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
