"""Projections, annihilators, classification predicates, and central covers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, VerificationError
from .rings import StarRing, _frozen, _row_blocks

FLAG_NAMES = (
    "semiprime",
    "reduced",
    "abelian",
    "rickart_star",
    "pq_baer_star",
    "two_invertible",
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exhaustive check: a verdict plus the first witness."""

    passed: bool
    witness: tuple[int, ...] | None = None
    note: str | None = None

    def __bool__(self) -> bool:
        return self.passed


PASS = CheckResult(True)


def _fail(witness, note=None) -> CheckResult:
    return CheckResult(False, tuple(int(v) for v in witness), note)


def idempotent_mask(ring: StarRing) -> np.ndarray:
    def build():
        idx = np.arange(ring.order)
        return _frozen(ring.multiplication[idx, idx] == idx)

    return ring.memo("idempotent_mask", build)


def projection_mask(ring: StarRing) -> np.ndarray:
    def build():
        idx = np.arange(ring.order)
        return _frozen(idempotent_mask(ring) & (ring.involution == idx))

    return ring.memo("projection_mask", build)


def center_mask(ring: StarRing) -> np.ndarray:
    def build():
        return _frozen(
            (ring.multiplication == ring.multiplication.T).all(axis=1)
        )

    return ring.memo("center_mask", build)


def idempotents(ring: StarRing) -> frozenset[int]:
    return frozenset(int(e) for e in np.flatnonzero(idempotent_mask(ring)))


def projections(ring: StarRing) -> frozenset[int]:
    return frozenset(int(e) for e in np.flatnonzero(projection_mask(ring)))


def center(ring: StarRing) -> frozenset[int]:
    return frozenset(int(z) for z in np.flatnonzero(center_mask(ring)))


def central_projections(ring: StarRing) -> frozenset[int]:
    return frozenset(int(e) for e in central_projection_ids(ring))


def central_projection_ids(ring: StarRing) -> np.ndarray:
    """Ascending array of central projection ids."""

    def build():
        return _frozen(np.flatnonzero(projection_mask(ring) & center_mask(ring)))

    return ring.memo("central_projection_ids", build)


def zero_product_matrix(ring: StarRing) -> np.ndarray:
    """Boolean matrix Z with Z[a, b] iff a·r·b = 0 for every r.

    Row a is exactly the right annihilator of the principal ideal aR;
    column b is the left annihilator of Rb. r ranges over the additive
    generating set G only: r -> a·r·b is additive, so the r with a·r·b = 0
    form a subgroup of (R, +), which is all of R once it holds G.
    """

    def build():
        M = ring.multiplication
        G = ring.generators
        n = ring.order
        out = np.empty((n, n), dtype=bool)
        for blk in _row_blocks(n, G.size * n):
            out[blk] = (M[M[blk, G]] == 0).all(axis=1)  # a·g·b at [a, g, b]
        return _frozen(out)

    return ring.memo("zero_product_matrix", build)


def principal_right_ideal(ring: StarRing, a: int) -> frozenset[int]:
    """The set aR = {a·r : r in R}."""
    a = ring.check(a)
    return frozenset(int(v) for v in np.unique(ring.multiplication[a]))


def ideal_intersection(s1: frozenset[int], s2: frozenset[int]) -> frozenset[int]:
    return frozenset(s1) & frozenset(s2)


@dataclass(frozen=True)
class AnnihilatorResult:
    """An annihilator ideal plus its generating projection, when one exists."""

    kind: str  # "right" | "left"
    description: str
    elements: frozenset[int]
    principal_projection: int | None


def _ideal_masks(ring: StarRing, rows, kind: str) -> np.ndarray:
    """Row i marks rows[i]·R (``kind`` "right") or R·rows[i] ("left")."""
    M = ring.multiplication
    ideals = M[rows] if kind == "right" else M[:, rows].T
    masks = np.zeros((len(rows), ring.order), dtype=bool)
    masks[np.arange(len(rows))[:, None], ideals] = True
    return masks


def _proj_ideal_masks(ring: StarRing, kind: str) -> dict:
    """Lookup from the mask bytes of eR (``kind`` "right") or Re ("left")
    to the projection e. eR = fR forces e = f, so no mask has two."""

    def build():
        projs = np.flatnonzero(projection_mask(ring))
        masks = _ideal_masks(ring, projs, kind)
        return {mask.tobytes(): int(e) for mask, e in zip(masks, projs)}

    return ring.memo(f"proj_{kind}_ideal_masks", build)


def _match_projection(ring: StarRing, mask: np.ndarray, kind: str) -> int | None:
    return _proj_ideal_masks(ring, kind).get(mask.tobytes())


def _annihilator(ring: StarRing, kind: str, description: str, mask) -> AnnihilatorResult:
    return AnnihilatorResult(
        kind,
        description,
        frozenset(int(x) for x in np.flatnonzero(mask)),
        _match_projection(ring, mask, kind),
    )


def _set_annihilator(ring: StarRing, elems, kind: str) -> AnnihilatorResult:
    B = sorted({ring.check(b) for b in elems})
    if not B:
        raise PreconditionError("annihilator of the empty set")
    M = ring.multiplication
    mask = (M[B] == 0).all(axis=0) if kind == "right" else (M[:, B] == 0).all(axis=1)
    return _annihilator(ring, kind, f"{kind[0]}({{{','.join(map(str, B))}}})", mask)


def right_annihilator(ring: StarRing, elems) -> AnnihilatorResult:
    """r_R(B) = {x : b·x = 0 for all b in B}, for nonempty B."""
    return _set_annihilator(ring, elems, "right")


def left_annihilator(ring: StarRing, elems) -> AnnihilatorResult:
    """l_R(B) = {x : x·b = 0 for all b in B}, for nonempty B."""
    return _set_annihilator(ring, elems, "left")


def right_ann_principal(ring: StarRing, a: int) -> AnnihilatorResult:
    """r_R(aR): right annihilator of the principal right ideal of a."""
    a = ring.check(a)
    return _annihilator(ring, "right", f"r({a}R)", zero_product_matrix(ring)[a])


# ---------------------------------------------------------------------------
# Central covers.


@dataclass(frozen=True)
class CentralCoverTable:
    label: str
    order: int
    cover: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"label": self.label, "order": self.order, "cover": list(self.cover)}


def cover_ids(ring: StarRing) -> np.ndarray:
    """Central cover C(x) of every element x, as an int array.

    C(x) is the product of the central projections e with e·x = x: 1 is
    one, and a product of commuting central projections that fix x is a
    central projection that fixes x and lies below each factor.
    """

    def build():
        M = ring.multiplication
        idx = np.arange(ring.order)
        out = np.full(ring.order, ring.one, dtype=np.int64)
        for e in central_projection_ids(ring):
            fixes = M[e] == idx
            out[fixes] = M[out[fixes], e]
        return _frozen(out)

    return ring.memo("cover_ids", build)


def central_cover(ring: StarRing, x: int) -> int:
    """Least central projection h with h·x = x."""
    return int(cover_ids(ring)[ring.check(x)])


def cover_table(ring: StarRing) -> CentralCoverTable:
    return CentralCoverTable(ring.label, ring.order, tuple(map(int, cover_ids(ring))))


# ---------------------------------------------------------------------------
# Classification.


@dataclass(frozen=True)
class ClassificationReport:
    label: str
    order: int
    is_semiprime: bool
    is_reduced: bool
    is_abelian: bool
    is_rickart_star: bool
    is_pq_baer_star: bool
    is_two_invertible: bool
    witnesses: dict
    pq_baer_witnesses: tuple[int, ...] | None

    def flags(self) -> dict:
        return {name: getattr(self, f"is_{name}") for name in FLAG_NAMES}

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "order": self.order,
            "flags": self.flags(),
            "witnesses": {
                name: list(self.witnesses[name])
                for name in FLAG_NAMES
                if name in self.witnesses
            },
            "covers": list(self.pq_baer_witnesses)
            if self.pq_baer_witnesses is not None
            else None,
        }


def classify(ring: StarRing) -> ClassificationReport:
    """Exhaustively decide every classification predicate.

    Witnesses are the first violating elements in index order; for a
    p.q.-Baer *-ring the per-element annihilator-generating projections
    are recorded.
    """

    def build():
        M = ring.multiplication
        n = ring.order
        idx = np.arange(n)
        witnesses: dict = {}
        zp = zero_product_matrix(ring)

        bad = np.flatnonzero(np.diagonal(zp)[1:])  # a ≠ 0 with aRa = 0
        semiprime = bad.size == 0
        if not semiprime:
            witnesses["semiprime"] = (int(bad[0]) + 1,)

        squares = M[idx, idx]
        nil = np.flatnonzero((squares == 0) & (idx != 0))
        reduced = nil.size == 0
        if not reduced:
            witnesses["reduced"] = (int(nil[0]),)

        abelian = True
        noncentral = idempotent_mask(ring) & ~center_mask(ring)
        bad = np.flatnonzero(noncentral)
        if bad.size:
            e = int(bad[0])
            x = int(np.flatnonzero(M[e] != M[:, e])[0])
            abelian = False
            witnesses["abelian"] = (e, x)

        # Row a of M == 0 is r(a); row a of zp is r(aR).
        lookup = _proj_ideal_masks(ring, "right")
        rickart_wit = [lookup.get(row.tobytes()) for row in M == 0]
        rickart = None not in rickart_wit
        if not rickart:
            witnesses["rickart_star"] = (rickart_wit.index(None),)
        pq_wit = [lookup.get(row.tobytes()) for row in zp]
        pq = None not in pq_wit
        if not pq:
            witnesses["pq_baer_star"] = (pq_wit.index(None),)

        two = int(ring.addition[ring.one, ring.one])
        two_inv = bool((M[two] == ring.one).any())
        if not two_inv:
            witnesses["two_invertible"] = (two,)

        return ClassificationReport(
            ring.label,
            n,
            semiprime,
            reduced,
            abelian,
            rickart,
            pq,
            two_inv,
            witnesses,
            tuple(pq_wit) if pq else None,
        )

    return ring.memo("classification", build)


def require_pq_baer(ring: StarRing) -> ClassificationReport:
    """The classification of ``ring``, which must be a p.q.-Baer *-ring."""
    report = classify(ring)
    if not report.is_pq_baer_star:
        raise PreconditionError(f"{ring.label} is not a p.q.-Baer *-ring")
    return report


# ---------------------------------------------------------------------------
# Cover lemmas.


def verify_cover_lemma(ring: StarRing, x: int, e: int) -> bool:
    """True iff x·e = x and every y with xRy = 0 satisfies e·y = 0.

    When both conditions hold, e is checked to be the central cover of x;
    a mismatch would signal a bug and raises.
    """
    x = ring.check(x)
    e = ring.check(e)
    cps = central_projection_ids(ring)
    if e not in cps:
        raise PreconditionError(f"{e} is not a central projection of {ring.label}")
    M = ring.multiplication
    if int(M[x, e]) != x:
        return False
    kills = M[e] == 0
    if (zero_product_matrix(ring)[x] & ~kills).any():
        return False
    if central_cover(ring, x) != e:
        raise VerificationError(
            f"{ring.label}: cover lemma holds at ({x}, {e}) but the computed "
            f"cover is {central_cover(ring, x)}"
        )
    return True


def verify_annihilator_identity(ring: StarRing) -> CheckResult:
    """Check, for every x with cover e, that the six annihilator sets
    r(xR), r(eR), l(Rx), l(Re), (1-e)R, R(1-e) coincide and that
    xRy = 0, yRx = 0, and e·y = 0 single out the same y."""
    require_pq_baer(ring)
    M = ring.multiplication
    Z = zero_product_matrix(ring)
    covers = cover_ids(ring)
    f = ring.sub_table()[ring.one, covers]  # 1 - C(x)
    fR = _ideal_masks(ring, f, "right")
    Rf = _ideal_masks(ring, f, "left")
    for x in range(ring.order):
        e = int(covers[x])
        base = Z[x]
        for other, tag in (
            (Z[e], "r(eR)"),
            (Z[:, x], "l(Rx)"),
            (Z[:, e], "l(Re)"),
            (fR[x], "(1-e)R"),
            (Rf[x], "R(1-e)"),
            (M[e] == 0, "ey=0"),
        ):
            diff = np.flatnonzero(base != other)
            if diff.size:
                return _fail((x, int(diff[0])), f"r(xR) != {tag}")
    return PASS
