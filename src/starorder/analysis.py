"""Projections, the zero-product matrix, classification predicates, and
central covers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rings import _DT, StarRing, _commutes_with_g, _first, _frozen, _row_blocks

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
    """Boolean mask of the central elements, decided on G."""

    def build():
        return _frozen(_commutes_with_g(ring))

    return ring.memo("center_mask", build)


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


def _ideal_masks(ring: StarRing, rows) -> np.ndarray:
    """Row i marks the principal right ideal rows[i]·R."""
    masks = np.zeros((len(rows), ring.order), dtype=bool)
    masks[np.arange(len(rows))[:, None], ring.multiplication[rows]] = True
    return masks


def _proj_ideal_masks(ring: StarRing) -> dict:
    """Lookup from the mask bytes of eR to the projection e. eR = fR
    forces e = f, so no mask has two. Not memoised: its one reader,
    `classify`, is."""
    projs = np.flatnonzero(projection_mask(ring))
    return {mask.tobytes(): int(e) for mask, e in zip(_ideal_masks(ring, projs), projs)}


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
    """Central cover C(x) of every element x, as an int32 array.

    C(x) is the product of the central projections e with e·x = x: 1 is
    one, and a product of commuting central projections that fix x is a
    central projection that fixes x and lies below each factor.
    """

    def build():
        M = ring.multiplication
        idx = np.arange(ring.order)
        out = np.full(ring.order, ring.one, dtype=_DT)
        for e in central_projection_ids(ring):
            fixes = M[e] == idx
            out[fixes] = M[out[fixes], e]
        return _frozen(out)

    return ring.memo("cover_ids", build)


def times_covers(ring: StarRing) -> np.ndarray:
    """a·C(b) at [a, b], as a new array, not memoised: a retained n × n
    table would raise the peak. Rows C(a) give C(a)·C(b), about three
    times faster than one ``np.ix_`` gather at n = 405."""
    return np.take(ring.multiplication, cover_ids(ring), axis=1)


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

        w = _first(np.diagonal(zp) & (idx != 0))  # a ≠ 0 with aRa = 0
        semiprime = w is None
        if not semiprime:
            witnesses["semiprime"] = w

        w = _first((M[idx, idx] == 0) & (idx != 0))
        reduced = w is None
        if not reduced:
            witnesses["reduced"] = w

        w = _first(idempotent_mask(ring) & ~center_mask(ring))
        abelian = w is None
        if not abelian:
            e = w[0]
            witnesses["abelian"] = (e, *_first(M[e] != M[:, e]))

        # Row a of M == 0 is r(a); row a of zp is r(aR).
        lookup = _proj_ideal_masks(ring)
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
