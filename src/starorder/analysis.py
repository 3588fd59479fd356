"""Projections, annihilators, classification predicates, and central covers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoverAbsentError, PreconditionError, VerificationError
from .rings import StarRing, _frozen

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
    column b is the left annihilator of Rb.
    """

    def build():
        M = ring.multiplication
        n = ring.order
        out = np.empty((n, n), dtype=bool)
        for a in range(n):
            out[a] = (M[M[a]] == 0).all(axis=0)
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


def _proj_ideal_masks(ring: StarRing, kind: str):
    """Projections e with the masks of eR (``kind`` "right") or Re ("left")."""

    def build():
        projs = np.flatnonzero(projection_mask(ring))
        M = ring.multiplication
        ideals = M[projs] if kind == "right" else M[:, projs].T
        masks = np.zeros((projs.size, ring.order), dtype=bool)
        masks[np.arange(projs.size)[:, None], ideals] = True
        return projs, _frozen(masks)

    return ring.memo(f"proj_{kind}_ideal_masks", build)


def _match_projection(ring: StarRing, mask: np.ndarray, kind: str) -> int | None:
    projs, ideals = _proj_ideal_masks(ring, kind)
    hits = np.flatnonzero((ideals == mask).all(axis=1))
    return int(projs[hits[0]]) if hits.size else None


def right_annihilator(ring: StarRing, elems) -> AnnihilatorResult:
    """r_R(B) = {x : b·x = 0 for all b in B}, for nonempty B."""
    B = sorted({ring.check(b) for b in elems})
    if not B:
        raise PreconditionError("annihilator of the empty set")
    mask = (ring.multiplication[B] == 0).all(axis=0)
    return AnnihilatorResult(
        "right",
        f"r({{{','.join(map(str, B))}}})",
        frozenset(int(x) for x in np.flatnonzero(mask)),
        _match_projection(ring, mask, "right"),
    )


def left_annihilator(ring: StarRing, elems) -> AnnihilatorResult:
    B = sorted({ring.check(b) for b in elems})
    if not B:
        raise PreconditionError("annihilator of the empty set")
    mask = (ring.multiplication[:, B] == 0).all(axis=1)
    return AnnihilatorResult(
        "left",
        f"l({{{','.join(map(str, B))}}})",
        frozenset(int(x) for x in np.flatnonzero(mask)),
        _match_projection(ring, mask, "left"),
    )


def right_ann_principal(ring: StarRing, a: int) -> AnnihilatorResult:
    """r_R(aR): right annihilator of the principal right ideal of a."""
    a = ring.check(a)
    mask = zero_product_matrix(ring)[a]
    return AnnihilatorResult(
        "right",
        f"r({a}R)",
        frozenset(int(x) for x in np.flatnonzero(mask)),
        _match_projection(ring, mask, "right"),
    )


# ---------------------------------------------------------------------------
# Central covers.


@dataclass(frozen=True)
class CentralCoverTable:
    label: str
    order: int
    cover: tuple[int | None, ...]

    @property
    def complete(self) -> bool:
        return all(c is not None for c in self.cover)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "order": self.order,
            "cover": [c for c in self.cover],
        }


def _cover_ids(ring: StarRing) -> np.ndarray:
    """Cover of each element as an int array; -1 marks an absent cover."""

    def build():
        M = ring.multiplication
        cps = central_projection_ids(ring)
        sub = M[np.ix_(cps, cps)]
        out = np.full(ring.order, -1, dtype=np.int64)
        for x in range(ring.order):
            keep = M[cps, x] == x
            cands = np.flatnonzero(keep)
            if not cands.size:
                continue
            block = sub[np.ix_(cands, cands)]
            least = np.flatnonzero((block == cps[cands][:, None]).all(axis=1))
            if least.size:
                out[x] = cps[cands[least[0]]]
        return _frozen(out)

    return ring.memo("cover_ids", build)


def central_cover(ring: StarRing, x: int) -> int | None:
    """Least central projection h with h·x = x, or None when no least exists."""
    x = ring.check(x)
    c = int(_cover_ids(ring)[x])
    return None if c < 0 else c


def cover_table(ring: StarRing) -> CentralCoverTable:
    def build():
        ids = _cover_ids(ring)
        return CentralCoverTable(
            ring.label,
            ring.order,
            tuple(None if c < 0 else int(c) for c in ids),
        )

    return ring.memo("cover_table", build)


def cover_ids_strict(ring: StarRing) -> np.ndarray:
    ids = _cover_ids(ring)
    missing = np.flatnonzero(ids < 0)
    if missing.size:
        raise CoverAbsentError(
            f"{ring.label}: element {int(missing[0])} has no central cover"
        )
    return ids


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
        return {
            "semiprime": self.is_semiprime,
            "reduced": self.is_reduced,
            "abelian": self.is_abelian,
            "rickart_star": self.is_rickart_star,
            "pq_baer_star": self.is_pq_baer_star,
            "two_invertible": self.is_two_invertible,
        }

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

        semiprime = True
        for a in range(1, n):
            if not M[M[a], a].any():
                semiprime = False
                witnesses["semiprime"] = (a,)
                break

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

        rickart = True
        for a in range(n):
            if _match_projection(ring, M[a] == 0, "right") is None:
                rickart = False
                witnesses["rickart_star"] = (a,)
                break

        zp = zero_product_matrix(ring)
        pq = True
        pq_wit: list[int] = []
        for a in range(n):
            e = _match_projection(ring, zp[a], "right")
            if e is None:
                pq = False
                witnesses["pq_baer_star"] = (a,)
                break
            pq_wit.append(e)

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
    report = classify(ring)
    if not report.is_pq_baer_star:
        raise PreconditionError(f"{ring.label} is not a p.q.-Baer *-ring")
    M = ring.multiplication
    S = ring.sub_table()
    Z = zero_product_matrix(ring)
    n = ring.order
    covers = cover_ids_strict(ring)
    for x in range(n):
        e = int(covers[x])
        f = int(S[ring.one, e])
        fR = np.zeros(n, dtype=bool)
        fR[M[f]] = True
        Rf = np.zeros(n, dtype=bool)
        Rf[M[:, f]] = True
        base = Z[x]
        for other, tag in (
            (Z[e], "r(eR)"),
            (Z[:, x], "l(Rx)"),
            (Z[:, e], "l(Re)"),
            (fR, "(1-e)R"),
            (Rf, "R(1-e)"),
            (M[e] == 0, "ey=0"),
        ):
            diff = np.flatnonzero(base != other)
            if diff.size:
                return _fail((x, int(diff[0])), f"r(xR) != {tag}")
    return PASS
