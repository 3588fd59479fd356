"""The Conrad relation: diagnostics, meets/joins, orthogonality, segments.

`pair_tables` is the one source of meets and joins: `meet`, `join` and
the glb/lub of each initial segment read it, and `_least_upper` is the one
scanner for pairs it cannot answer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .analysis import (
    CheckResult,
    PASS,
    _fail,
    central_cover,
    classify,
    cover_ids_strict,
    cover_table,
    CentralCoverTable,
    zero_product_matrix,
)
from .errors import CoverAbsentError, PreconditionError, VerificationError
from .rings import StarRing, _frozen


def leq_bruteforce(ring: StarRing, a: int, b: int) -> bool:
    """a <= b iff a·r·b = a·r·a for every r."""
    a = ring.check(a)
    b = ring.check(b)
    M = ring.multiplication
    row = M[M[a]]
    return bool((row[:, b] == row[:, a]).all())


def leq_star_bruteforce(ring: StarRing, a: int, b: int) -> bool:
    """The starred variant: a*·r·b = a*·r·a for every r."""
    a = ring.check(a)
    b = ring.check(b)
    M = ring.multiplication
    row = M[M[ring.involution[a]]]
    return bool((row[:, b] == row[:, a]).all())


def leq_cover(ring: StarRing, a: int, b: int) -> bool:
    """a <= b via the cover characterization: a = C(a)·b."""
    a = ring.check(a)
    b = ring.check(b)
    c = central_cover(ring, a)
    if c is None:
        raise CoverAbsentError(f"{ring.label}: element {a} has no central cover")
    return int(ring.multiplication[c, b]) == a


def _conrad_matrix(ring: StarRing, key: str, rows) -> np.ndarray:
    """out[a, b] iff x·r·b = x·r·a for every r, where x = rows[a]."""

    def build():
        M = ring.multiplication
        n = ring.order
        out = np.empty((n, n), dtype=bool)
        for a, x in enumerate(rows):
            t = M[M[x]]  # t[r, b] = (x·r)·b
            out[a] = (t == t[:, a][:, None]).all(axis=0)
        return _frozen(out)

    return ring.memo(key, build)


def leq_matrix(ring: StarRing) -> np.ndarray:
    return _conrad_matrix(ring, "leq_matrix", range(ring.order))


def star_leq_matrix(ring: StarRing) -> np.ndarray:
    return _conrad_matrix(ring, "star_leq_matrix", ring.involution)


def cover_leq_matrix(ring: StarRing) -> np.ndarray:
    def build():
        covers = cover_ids_strict(ring)
        return _frozen(ring.multiplication[covers] == np.arange(ring.order)[:, None])

    return ring.memo("cover_leq_matrix", build)


def _bool_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x @ y) > 0 for boolean matrices."""
    # float32 BLAS is exact here: every count is at most n, far below 2**24.
    return (x.astype(np.float32) @ y.astype(np.float32)) > 0


def cub_matrix(ring: StarRing) -> np.ndarray:
    """cub[a, b] iff some c satisfies a <= c and b <= c."""

    def build():
        leq = leq_matrix(ring)
        return _frozen(_bool_product(leq, leq.T))

    return ring.memo("cub_matrix", build)


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

    @property
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
    cub: np.ndarray
    covers: CentralCoverTable

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "order": self.order,
            "leq": [[bool(v) for v in row] for row in self.leq],
            "diagnostics": self.diagnostics.to_json_dict(),
            "cub": [[bool(v) for v in row] for row in self.cub],
            "covers": self.covers.to_json_dict()["cover"],
        }


def _diagnose(leq: np.ndarray) -> OrderDiagnostics:
    n = leq.shape[0]
    eye = np.eye(n, dtype=bool)

    refl_bad = np.flatnonzero(~leq[np.arange(n), np.arange(n)])
    reflexive = AxiomCheck(refl_bad.size == 0, (int(refl_bad[0]),) if refl_bad.size else None)

    anti = leq & leq.T & ~eye
    hits = np.argwhere(anti)
    antisymmetric = AxiomCheck(
        hits.size == 0, tuple(int(v) for v in hits[0]) if hits.size else None
    )

    reach = _bool_product(leq, leq)
    viol = reach & ~leq
    witness = None
    if viol.any():
        a = int(np.flatnonzero(viol.any(axis=1))[0])
        for b in np.flatnonzero(leq[a]):
            cs = np.flatnonzero(leq[b] & ~leq[a])
            if cs.size:
                witness = (a, int(b), int(cs[0]))
                break
    transitive = AxiomCheck(witness is None, witness)
    return OrderDiagnostics(reflexive, antisymmetric, transitive)


def build_order(ring: StarRing) -> OrderStructure:
    """Fill the relation by brute force and diagnose the order axioms."""

    def build():
        leq = leq_matrix(ring)
        return OrderStructure(
            ring.label,
            ring.order,
            leq,
            _diagnose(leq),
            cub_matrix(ring),
            cover_table(ring),
        )

    return ring.memo("order_structure", build)


def has_cub(ring: StarRing, a: int, b: int, structure: OrderStructure | None = None) -> bool:
    """Common-upper-bound test via the cover formula a·C(b) = b·C(a)."""
    a = ring.check(a)
    b = ring.check(b)
    ca = central_cover(ring, a)
    cb = central_cover(ring, b)
    if ca is None or cb is None:
        raise CoverAbsentError(f"{ring.label}: cover absent for {a} or {b}")
    M = ring.multiplication
    result = int(M[a, cb]) == int(M[b, ca])
    if structure is not None and result != bool(structure.cub[a, b]):
        raise VerificationError(
            f"{ring.label}: cover formula and upper-bound scan disagree at ({a}, {b})"
        )
    return result


@dataclass(frozen=True)
class PairTables:
    """Per-pair meet/join values with order-theoretic verification bits.

    ``meet``/``join`` hold a·C(b) and a+b-a·C(b); ``meet_ok``/``join_ok``
    record whether an order-theoretic glb/lub exists (a formula value that
    fails is replaced by a scanned one, so a value differing from the
    formula is itself a finding).
    """

    cub: np.ndarray
    meet: np.ndarray
    meet_ok: np.ndarray
    join: np.ndarray
    join_ok: np.ndarray


def _least_upper(leq: np.ndarray, a: int, b: int) -> int | None:
    """The first common upper bound of a and b below all the others, or
    None. ``_least_upper(leq.T, a, b)`` is the greatest lower bound."""
    ub = np.flatnonzero(leq[a] & leq[b])
    if not ub.size:
        return None
    hits = np.flatnonzero(leq[np.ix_(ub, ub)].all(axis=1))
    return int(ub[hits[0]]) if hits.size else None


def pair_tables(ring: StarRing) -> PairTables:
    def build():
        n = ring.order
        M = ring.multiplication
        A = ring.addition
        S = ring.sub_table()
        leq = leq_matrix(ring)
        covers = cover_ids_strict(ring)
        idx = np.arange(n)

        mv = M[:, covers].copy()      # mv[a, b] = a·C(b)
        jv = S[A, mv].copy()          # jv[a, b] = (a+b) - mv
        meet_ok = leq[mv, idx[:, None]] & leq[mv, idx[None, :]]
        join_ok = leq[idx[:, None], jv] & leq[idx[None, :], jv]
        for a in range(n):
            lb = np.flatnonzero(leq[:, a])         # d <= a; rows [d, b]: d <= b
            meet_ok[a] &= ~(leq[lb] & ~leq[lb[:, None], mv[a]]).any(axis=0)
            ub = np.flatnonzero(leq[a])            # a <= d; rows [d, b]: b <= d
            join_ok[a] &= ~(leq[:, ub].T & ~leq[jv[a], ub[:, None]]).any(axis=0)

        cub = cub_matrix(ring)
        # The formula candidates are expected to verify wherever a common
        # upper bound exists; fall back to a raw scan where one does not.
        for values, ok, rel in ((mv, meet_ok, leq.T), (jv, join_ok, leq)):
            for a, b in np.argwhere(cub & ~ok):
                v = _least_upper(rel, int(a), int(b))
                if v is not None:
                    values[a, b] = v
                    ok[a, b] = True
        return PairTables(cub, _frozen(mv), _frozen(meet_ok), _frozen(jv), _frozen(join_ok))

    return ring.memo("pair_tables", build)


def _checked(ring: StarRing, name: str, a: int, b: int, value: int, values, ok) -> int:
    if not ok[a, b] or int(values[a, b]) != value:
        raise VerificationError(
            f"{ring.label}: {name} formula value {value} is not the order-theoretic "
            f"{name} of ({a}, {b})"
        )
    return value


def meet(ring: StarRing, a: int, b: int) -> int | None:
    """a∧b = a·C(b), checked against `pair_tables`; None marks no-CUB."""
    a = ring.check(a)
    b = ring.check(b)
    if not has_cub(ring, a, b):
        return None
    pt = pair_tables(ring)
    m = int(ring.multiplication[a, central_cover(ring, b)])
    return _checked(ring, "meet", a, b, m, pt.meet, pt.meet_ok)


def join(ring: StarRing, a: int, b: int) -> int | None:
    """a∨b = a+b-a∧b, checked against `pair_tables`; None marks no-CUB."""
    a = ring.check(a)
    b = ring.check(b)
    m = meet(ring, a, b)
    if m is None:
        return None
    pt = pair_tables(ring)
    j = int(ring.sub_table()[ring.addition[a, b], m])
    return _checked(ring, "join", a, b, j, pt.join, pt.join_ok)


def is_lattice(ring: StarRing) -> CheckResult:
    """Lattice criterion: a·C(b) = b·C(a) for all pairs."""
    covers = cover_ids_strict(ring)
    ac = ring.multiplication[:, covers]
    hits = np.argwhere(ac != ac.T)
    return _fail(hits[0]) if hits.size else PASS


def is_pseudo_lattice(ring: StarRing) -> CheckResult:
    """Every pair with a common upper bound has a verified meet and join."""
    pt = pair_tables(ring)
    hits = np.argwhere(pt.cub & ~(pt.meet_ok & pt.join_ok))
    return _fail(hits[0]) if hits.size else PASS


def subtractivity_check(ring: StarRing) -> tuple[CheckResult, CheckResult | None]:
    """Forward: a <= b implies C(b-a) = C(b) - C(a), checked on all pairs.

    Returns (forward, biconditional); the biconditional is only evaluated
    when 2 is invertible, and is None otherwise.
    """
    report = classify(ring)
    if not report.is_pq_baer_star:
        raise PreconditionError(f"{ring.label} is not a p.q.-Baer *-ring")
    covers = cover_ids_strict(ring)
    S = ring.sub_table()
    leq = leq_matrix(ring)
    cov_diff = covers[S.T]                      # C(b-a) at [a, b]
    rhs = S[covers[None, :], covers[:, None]]   # C(b)-C(a) at [a, b]
    eq = cov_diff == rhs
    hits = np.argwhere(leq & ~eq)
    forward = _fail(hits[0]) if hits.size else PASS
    if not report.is_two_invertible:
        return forward, None
    hits = np.argwhere(eq != leq)
    bicond = _fail(hits[0]) if hits.size else PASS
    return forward, bicond


def orthogonal(ring: StarRing, a: int, b: int) -> bool:
    """a ⊥ b iff a·r·b = 0 for every r."""
    a = ring.check(a)
    b = ring.check(b)
    M = ring.multiplication
    return not M[M[a], b].any()


def orthogonality_axioms(ring: StarRing) -> CheckResult:
    """Symmetry, downward inheritance, and 0 ⊥ x, checked exhaustively."""
    Z = zero_product_matrix(ring)
    leq = leq_matrix(ring)
    n = ring.order
    hits = np.argwhere(Z != Z.T)
    if hits.size:
        return _fail(hits[0], "symmetry")
    for x in range(n):
        viol = leq[x][:, None] & Z & ~Z[x][None, :]  # [y, z]
        if viol.any():
            y, z = np.argwhere(viol)[0]
            return _fail((x, y, z), "descends")
    bad = np.flatnonzero(~Z[0])
    if bad.size:
        return _fail((0, int(bad[0])), "zero-orthogonal")
    return PASS


def _require_pq(ring: StarRing) -> None:
    if not classify(ring).is_pq_baer_star:
        raise PreconditionError(f"{ring.label} is not a p.q.-Baer *-ring")


def ortho_join_check(ring: StarRing) -> CheckResult:
    """Orthogonal pairs have a common upper bound, meet 0, and join a+b."""
    _require_pq(ring)
    Z = zero_product_matrix(ring)
    pt = pair_tables(ring)
    good = pt.cub & pt.meet_ok & (pt.meet == 0) & pt.join_ok & (pt.join == ring.addition)
    hits = np.argwhere(Z & ~good)
    return _fail(hits[0]) if hits.size else PASS


def orthomodular_decomposition(ring: StarRing, a: int, b: int) -> int:
    """For a <= b return c = b - a, verified orthogonal to a with b = a+c = a∨c."""
    a = ring.check(a)
    b = ring.check(b)
    if not leq_bruteforce(ring, a, b):
        raise PreconditionError(f"{ring.label}: {a} <= {b} does not hold")
    c = int(ring.sub_table()[b, a])
    if not orthogonal(ring, a, c):
        raise VerificationError(
            f"{ring.label}: decomposition {b} = {a} + {c} is not orthogonal"
        )
    if int(ring.addition[a, c]) != b or join(ring, a, c) != b:
        raise VerificationError(
            f"{ring.label}: decomposition of {b} over {a} does not rejoin"
        )
    return c


def cancellation_check(ring: StarRing) -> CheckResult:
    """x ⊥ y, x ⊥ z, y <= x∨z imply y <= z, over all triples."""
    _require_pq(ring)
    Z = zero_product_matrix(ring)
    pt = pair_tables(ring)
    leq = leq_matrix(ring)
    n = ring.order
    for x in range(n):
        zs = Z[x] & pt.cub[x] & pt.join_ok[x]
        viol = Z[x][:, None] & leq[:, pt.join[x]] & ~leq  # [y, z]
        viol &= zs[None, :]
        if viol.any():
            y, z = np.argwhere(viol)[0]
            return _fail((x, y, z), "cancellation")
    return PASS


def quasi_orthomodular_check(ring: StarRing) -> CheckResult:
    """Orthogonal joins exist, decompositions exist, and cancellation holds."""
    _require_pq(ring)
    Z = zero_product_matrix(ring)
    pt = pair_tables(ring)
    leq = leq_matrix(ring)
    n = ring.order

    hits = np.argwhere(Z & ~(pt.cub & pt.join_ok))
    if hits.size:
        return _fail(hits[0], "join-exists")

    # Every orthogonal pair has a join now. reached[x, y]: y = x∨z, z ⊥ x.
    reached = np.zeros((n, n), dtype=bool)
    x, z = np.nonzero(Z)
    reached[x, pt.join[x, z]] = True
    hits = np.argwhere(leq & ~reached)
    if hits.size:
        return _fail(hits[0], "decomposition")
    return cancellation_check(ring)


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
            "leq": [[bool(v) for v in row] for row in self.leq],
            "complement": list(self.complement),
            "orthocomplemented": self.orthocomplemented,
            "orthomodular": self.orthomodular,
            "locality": self.locality,
            "witness": self.witness,
        }


def _segment_bound(pt: PairTables | None, glb: bool, elems, pos, L, i, j) -> np.ndarray:
    """Segment glb (``glb``) or lub of each position pair (i[k], j[k]) of
    [0, m], as a position, -1 for none.

    ``pt`` is given only when the relation is a partial order. Then every
    pair of [0, m] has m as a common upper bound, so its global meet or
    join lies in [0, m] and is its segment glb or lub. Every pair that
    ``pt`` does not answer is scanned on the segment order ``L``.
    """
    out = np.full(i.size, -1, dtype=np.int64)
    todo = np.ones(i.size, dtype=bool)
    if pt is not None:
        values, ok = (pt.meet, pt.meet_ok) if glb else (pt.join, pt.join_ok)
        todo = ~ok[elems[i], elems[j]]
        out[~todo] = pos[values[elems[i[~todo]], elems[j[~todo]]]]
    rel = L.T if glb else L
    for k in np.flatnonzero(todo):
        v = _least_upper(rel, int(i[k]), int(j[k]))
        if v is not None:
            out[k] = v
    return out


def initial_segment(ring: StarRing, m: int) -> SegmentPoset:
    """Build [0, m] and verify orthocomplementation, orthomodularity, and
    agreement of segment orthogonality with ring orthogonality."""
    m = ring.check(m)
    cover_ids_strict(ring)
    leq = leq_matrix(ring)
    Z = zero_product_matrix(ring)
    S = ring.sub_table()

    elems = np.flatnonzero(leq[:, m])
    s = elems.size
    comp_raw = S[m, elems]
    L = leq[np.ix_(elems, elems)]

    def make(orthoc, orthom, local, witness):
        return SegmentPoset(
            ring.label, m, tuple(map(int, elems)), _frozen(L), tuple(map(int, comp_raw)),
            orthoc, orthom, local, witness,
        )

    def wit(axiom, parts):
        return {"axiom": axiom, "elements": [int(v) for v in parts]}

    pos = np.full(ring.order, -1, dtype=np.int64)
    pos[elems] = np.arange(s)
    comp = pos[comp_raw]
    outside = np.flatnonzero(comp < 0)
    if outside.size:
        a = int(elems[outside[0]])
        return make(False, False, False, wit("complement-in-segment", (a,)))

    pt = pair_tables(ring) if build_order(ring).diagnostics.all_pass else None
    idx = np.arange(s)
    witness = None

    # Orthocomplementation: a∧a' = 0, a∨a' = m, involution, antitone.
    meet_bad = _segment_bound(pt, True, elems, pos, L, idx, comp) != pos[0]
    join_bad = _segment_bound(pt, False, elems, pos, L, idx, comp) != pos[m]
    bad = np.flatnonzero(meet_bad | join_bad)
    orthoc = not bad.size
    if not orthoc:
        axiom = "complement-meet-zero" if meet_bad[bad[0]] else "complement-join-top"
        witness = wit(axiom, (elems[bad[0]],))
    if orthoc:
        bad = np.flatnonzero(comp[comp] != idx)
        if bad.size:
            orthoc = False
            witness = wit("complement-involution", (elems[bad[0]],))
    if orthoc:
        anti = L & ~L[comp][:, comp].T  # i <= j but not comp(j) <= comp(i)
        hits = np.argwhere(anti)
        if hits.size:
            i, j = hits[0]
            orthoc = False
            witness = wit("complement-antitone", (elems[i], elems[j]))

    # Orthomodularity over the segment orthogonality a ⊥ b iff a <= b',
    # which is symmetric once the complement is an antitone involution.
    orthom = orthoc
    if orthom:
        i, j = np.nonzero(L[:, comp])  # i <= comp(j), row-major
        lub = _segment_bound(pt, False, elems, pos, L, i, j)
        missing = np.flatnonzero(lub < 0)
        if missing.size:
            k = missing[0]
            orthom = False
            witness = wit("orthogonal-join-exists", (elems[i[k]], elems[j[k]]))
    if orthom:
        reached = np.zeros((s, s), dtype=bool)  # [i, b]: b = i∨c for some c ⊥ i
        reached[i, lub] = True
        hits = np.argwhere(L & ~reached)
        if hits.size:
            orthom = False
            witness = wit("orthomodular-decomposition", elems[hits[0]])

    # Locality: segment orthogonality coincides with ring orthogonality.
    local_mat = L[:, comp]
    ring_mat = Z[np.ix_(elems, elems)]
    hits = np.argwhere(local_mat != ring_mat)
    locality = hits.size == 0
    if not locality and witness is None:
        i, j = hits[0]
        witness = wit("segment-locality", (elems[i], elems[j]))

    return make(orthoc, orthom, locality, witness)


# ---------------------------------------------------------------------------
# Problem 2 and the Hasse diagram.


def problem2_check(ring: StarRing, include_left: bool = False) -> CheckResult:
    """a <= c, b <= c, aR ∩ bR = {0} imply a+b <= c, over all triples.

    With ``include_left`` the hypothesis also requires Ra ∩ Rb = {0}.
    """
    _require_pq(ring)
    M = ring.multiplication
    A = ring.addition
    leq = leq_matrix(ring)
    n = ring.order

    idx = np.arange(n)[:, None]
    right = np.zeros((n, n), dtype=bool)
    right[idx, M] = True    # right[a] marks aR
    left = np.zeros((n, n), dtype=bool)
    left[idx, M.T] = True   # left[a] marks Ra
    rnz = right[:, 1:]
    lnz = left[:, 1:]
    for a in range(n):
        disjoint = ~(rnz[a][None, :] & rnz).any(axis=1)
        if include_left:
            disjoint &= ~(lnz[a][None, :] & lnz).any(axis=1)
        viol = leq[a][None, :] & leq & ~leq[A[a]]  # [b, c]
        viol &= disjoint[:, None]
        if viol.any():
            b, c = np.argwhere(viol)[0]
            return _fail((a, b, c))
    return PASS


def covering_matrix(leq: np.ndarray) -> np.ndarray:
    """b covers a iff a < b with nothing strictly between."""
    n = leq.shape[0]
    strict = leq & ~np.eye(n, dtype=bool)
    return strict & ~_bool_product(strict, strict)


def hasse_dot(ring: StarRing) -> str:
    """Deterministic DOT rendering of the covering relation."""
    structure = build_order(ring)
    if not structure.diagnostics.all_pass:
        name, witness = structure.diagnostics.first_failure()
        raise PreconditionError(
            f"{ring.label}: the relation is not a partial order "
            f"({name} fails at {witness})"
        )
    lines = [f'digraph "{ring.label}" {{', "  rankdir=BT;"]
    for i in range(ring.order):
        lines.append(f'  {i} [label="{ring.name_of(i)}"];')
    for a, b in np.argwhere(covering_matrix(structure.leq)):
        lines.append(f"  {int(a)} -> {int(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
