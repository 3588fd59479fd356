"""Named theorem suite: hypothesis gating, exhaustive checks, replay."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis, order
from .analysis import CheckResult, PASS, _fail, classify
from .errors import RingSpecError
from .rings import DEFAULT_ORDER_CAP, RingSpec, StarRing, _first, _first_rows, realize

SKIP_NOT_PQ = "not-p.q.-baer-star"
SKIP_TWO = "two-not-invertible"


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str
    status: str  # "pass" | "fail" | "skipped"
    skip_reason: str | None
    witness: tuple[int, ...] | None
    note: str | None
    hypothesis_met: bool

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "status": self.status,
            "skip_reason": self.skip_reason,
            "witness": list(self.witness) if self.witness is not None else None,
            "note": self.note,
            "hypothesis_met": self.hypothesis_met,
        }


# ---------------------------------------------------------------------------
# Individual checks. Each returns a CheckResult over exhaustive scans.


def _check_cover_remark(ring: StarRing) -> CheckResult:
    """Cover identities that hold in any finite *-ring:
    C(e) = e for central projections, C(e·x) = e·C(x), C(x*) = C(x), and
    e <= f iff e = e·f turns the central projections into a poset.

    The poset axioms of e = e·f need no scan, as they hold in any ring:
    e = ef and f = fe give e = ef = fe = f by centrality, and e = ef with
    f = fg give eg = (ef)g = e(fg) = ef = e. Reflexivity is e = ee."""
    M = ring.multiplication
    covers = analysis.cover_ids(ring)
    cps = analysis.central_projection_ids(ring)

    w = _first(covers[cps] != cps)
    if w:
        return _fail(cps[list(w)], "cover-of-central-projection")

    def unscaled(k):  # C(e·x) != e·C(x) at [e, x], for the rows e = cps[k]
        Mc = M[cps[k]]
        return covers[Mc] != np.take(Mc, covers, axis=1)
    w = _first_rows(cps.size, ring.order, unscaled)
    if w:
        return _fail((cps[w[0]], w[1]), "cover-scaling")

    w = _first(covers[ring.involution] != covers)
    if w:
        return _fail(w, "cover-star")

    leq_cp = order.leq_matrix(ring)[np.ix_(cps, cps)]
    ef = M[np.ix_(cps, cps)] == cps[:, None]
    w = _first(leq_cp != ef)
    return _fail(cps[list(w)], "central-projection-order") if w else PASS


def _check_cover_uniqueness(ring: StarRing) -> CheckResult:
    """Any central projection satisfying x·e = x and (xRy = 0 implies
    e·y = 0) must be the central cover of x.

    A pair (e, x) with Z[x, y] and e·y ≠ 0 at y = 1 - C(x) breaks the
    hypothesis there, so it is no witness, whatever the cover array. Only
    the other pairs that fix x and differ from C(x) are scanned over every
    y. With the covers of `analysis.cover_ids` none is left: C(x) is a
    central projection that fixes x, so x·r·(1 - C(x)) = (x - x·C(x))·r = 0
    and Z[x, y]. A pair left then has e·(1 - C(x)) = 0, so e = e·C(x); and
    e, a central projection that fixes x, is a factor of the product C(x),
    so C(x)·e = C(x). So e = C(x)."""
    Z = analysis.zero_product_matrix(ring)
    covers = analysis.cover_ids(ring)
    cps = analysis.central_projection_ids(ring)
    Mc = ring.multiplication[cps]  # e·x at [e, x], which is x·e as e is central
    e, x = np.nonzero((Mc == np.arange(ring.order)) & (covers != cps[:, None]))
    y = ring.sub_table()[ring.one, covers[x]]  # 1 - C(x)
    keep = ~(Z[x, y] & (Mc[e, y] != 0))
    e, x = e[keep], x[keep]
    w = _first_rows(e.size, ring.order, lambda k: ~(Z[x[k]] & (Mc[e[k]] != 0)).any(axis=1))
    return _fail((x[w[0]], cps[e[w[0]]]), "cover-uniqueness") if w else PASS


def _check_annihilator_identity(ring: StarRing) -> CheckResult:
    """Check, for every x with cover e, that r(xR) coincides with r(eR),
    l(Rx), l(Re) and (1-e)R.

    The statement also names R(1-e) and {y : ey = 0}; neither can decide a
    witness. If r(eR), l(Re) and (1-e)R coincide, f = 1 - e lies in both
    r(eR) and l(Re), so eRf = fRe = 0: then e·f = 0 makes e idempotent, and
    er = ere = re for every r makes it central. (With the true covers e is
    a central projection anyway.) For a central idempotent e, R(1-e) =
    (1-e)R, and eRy = Rey is 0 iff ey = 0, so {y : ey = 0} = r(eR). Either
    mask differs from r(xR) only where an earlier one does, so the first
    (x, set, y) and its note are those of the full statement."""
    Z = analysis.zero_product_matrix(ring)
    covers = analysis.cover_ids(ring)
    f = ring.sub_table()[ring.one, covers]  # 1 - C(x)
    tags = ("r(eR)", "l(Rx)", "l(Re)", "(1-e)R")

    def differs(xs):  # [x, tag, y]: r(xR) and the tagged set disagree at y
        es = covers[xs]
        cols = (np.take(Z, ys, axis=1).T for ys in (xs, es))  # l(Rx), l(Re)
        others = (Z[es], *cols, analysis._ideal_masks(ring, f[xs]))
        return np.stack(others, axis=1) != Z[xs][:, None, :]

    w = _first_rows(ring.order, len(tags) * ring.order, differs)
    return _fail((w[0], w[2]), f"r(xR) != {tags[w[1]]}") if w else PASS


def _check_order_diagnostics(ring: StarRing) -> CheckResult:
    failure = order.build_order(ring).diagnostics.first_failure()
    return PASS if failure is None else _fail(failure[1], failure[0])


def _check_order_equivalence(ring: StarRing) -> CheckResult:
    """a <= b iff a*·r·b = a*·r·a for every r, iff a = C(a)·b.

    By distributivity, as `order.leq_matrix` reads a <= b as Z[a, b - a],
    the starred relation is Z[a*, b - a]. For fixed a, b ↦ b - a is a
    bijection of R, so the two differ in row a iff rows a and a* of Z do,
    and the least b with Z[a, b - a] != Z[a*, b - a] is the first there."""
    Z = analysis.zero_product_matrix(ring)
    inv = ring.involution
    w = _first((Z != Z[inv]).any(axis=1))
    if w:
        c = ring.sub_table()[:, w[0]]  # b - a at b
        return _fail((w[0], *_first(Z[w[0], c] != Z[inv[w[0]], c])), "bruteforce-vs-star")
    w = _first(order.leq_matrix(ring) != order.cover_leq_matrix(ring))
    return _fail(w, "bruteforce-vs-cover") if w else PASS


def _check_subtractivity_forward(ring: StarRing) -> CheckResult:
    """a <= b implies C(b-a) = C(b) - C(a), C(a)·C(b) = C(a) and
    a = a·C(b) = b·C(a), checked on the pairs a <= b. `np.nonzero` lists
    them row-major, so each term's first failing pair is that of all pairs."""
    covers = analysis.cover_ids(ring)
    M, S = ring.multiplication, ring.sub_table()
    a, b = np.nonzero(order.leq_matrix(ring))
    ca, cb = covers[a], covers[b]
    terms = (
        ("cover-subtraction", covers[S[b, a]] != S[cb, ca]),
        ("cover-monotone", M[ca, cb] != ca),
        ("a-equals-a-cover-b", M[a, cb] != a),
        ("a-equals-b-cover-a", M[b, ca] != a),
    )
    for note, bad in terms:
        w = _first(bad)
        if w:
            return _fail((a[w[0]], b[w[0]]), note)
    return PASS


def _check_subtractivity_biconditional(ring: StarRing) -> CheckResult:
    """With 2 invertible, a <= b iff C(b-a) = C(b) - C(a)."""
    covers, S = analysis.cover_ids(ring), ring.sub_table()
    subtracts = covers[S.T] == S[covers[None, :], covers[:, None]]  # at [a, b]
    w = _first(subtracts != order.leq_matrix(ring))
    return _fail(w) if w else PASS


def _check_cub_characterization(ring: StarRing) -> CheckResult:
    """a and b have a common upper bound iff a·C(b) = b·C(a)."""
    ac = analysis.times_covers(ring)
    w = _first((ac == ac.T) != order.build_order(ring).cub)
    return _fail(w) if w else PASS


def _check_cub_star_identities(ring: StarRing) -> CheckResult:
    """For pairs with a common upper bound: a*rb = C(a)b*rb = C(b)a*ra and
    arb* = C(a)brb* = C(b)ara* for every r; a*b and ab* are self-adjoint.

    The self-adjoint terms need no check: `analysis.cover_ids` builds C(a)
    as a product of central projections, so at r = 1 the first equation
    gives a*b = C(a)·b*b = b*b·C(a) = (C(a)·b*b)*, and the third gives
    ab* = C(a)·bb* = (C(a)·bb*)* the same way.

    Each side of the four r-equations is additive in r, so the r where an
    equation holds form a subgroup of (R, +): r ranges over the additive
    generating set G only. Two of the equations factor through the
    zero-product matrix Z (Z[x, y] iff x·r·y = 0 for every r):

    - a*rb = C(a)b*rb for every r iff Z[a* − C(a)b*, b];
    - arb* = C(a)brb* for every r iff Z[a − C(a)b, b*].

    Proof of the first (the second is the same with a, b* in place of a*,
    b): by associativity C(a)·(b*·r·b) = (C(a)·b*)·r·b, and by
    distributivity a*·r·b − (C(a)·b*)·r·b = (a* − C(a)·b*)·r·b. Only the
    ring axioms are used, not that C(a) is central, so both hold for any
    cover array. Each costs one lookup per pair. The other two equations
    compare rows over b: (a*·g)·b with C(b)·(a*·g·a), and (a·g)·b* with
    C(b)·(a·g·a*), for each g in G, in O(|G|·n^2) in all."""
    M = ring.multiplication
    inv = ring.involution
    neg = ring.negation
    G = ring.generators
    Z = analysis.zero_product_matrix(ring)
    covers = analysis.cover_ids(ring)
    cub = order.build_order(ring).cub
    n = np.intp(ring.order)  # so a flat index x·n + y cannot overflow int32
    idx = np.arange(n)
    Af, Zf = ring.addition.ravel(), Z.ravel()  # T[x, y] is Tf[x·n + y]
    MCT = np.ascontiguousarray(M[covers].T)  # C(b)·y at [y, b]
    MsT = np.take(M, inv, axis=1)            # x·b* at [x, b]

    def fails(a):  # [a, b]
        as_ = inv[a]
        x1 = Af[as_[:, None] * n + neg[MsT[covers[a]]]]        # a* − C(a)·b* at [a, b]
        x3 = Af[a[:, None] * n + neg[M[covers[a]]]]            # a − C(a)·b
        ok = Zf[x1 * n + idx]                                  # eq1: Z[x1, b]
        ok &= Zf[x3 * n + inv]                                 # eq3: Z[x3, b*]
        asg, ag = M[as_][:, G], M[a][:, G]                     # a*·g, a·g at [a, g]
        ok &= (M[asg] == MCT[M[asg, a[:, None]]]).all(axis=1)    # eq2
        ok &= (MsT[ag] == MCT[M[ag, as_[:, None]]]).all(axis=1)  # eq4
        return cub[a] & ~ok

    w = _first_rows(n, G.size * n, fails)
    return _fail(w) if w else PASS


def _check_meet_join(ring: StarRing) -> CheckResult:
    """Meets/joins of pairs with a common upper bound: the cover formulas
    a·C(b) and a+b-a·C(b) are the order-theoretic glb/lub.

    The paper's other three forms cannot fail once these pass, for any
    cover array: `order.pair_tables` holds only glbs and lubs of a partial
    order (on a certified ring, the formula values that the cover
    certificate proves), which are unique, and having a common upper bound
    is symmetric in a and b.
    - meet = b·C(a): meet[a, b] = meet[b, a], which is b·C(a) by the meet
      formula at (b, a).
    - join = a + b·(1-C(a)): by distributivity b·(1-C(a)) = b - b·C(a),
      and b·C(a) = a·C(b) by the line above, so this is the join formula.
    - join = a·(1-C(b)) + b: as + commutes, this is the previous form at
      (b, a), and join[b, a] = join[a, b].
    Only the ring axioms, the partial order and the two formulas are used."""
    pt = order.pair_tables(ring)
    pseudo = order.is_pseudo_lattice(ring)
    if not pseudo.passed:
        return CheckResult(False, pseudo.witness, "pseudo-lattice")
    mv, jv = order._formula_tables(ring)
    w = _first(pt.cub & (pt.meet != mv))
    if w:
        return _fail(w, "meet-formula")
    w = _first(pt.cub & (pt.join != jv))
    return _fail(w, "join-formula") if w else PASS


def _check_lattice_characterization(ring: StarRing) -> CheckResult:
    """The formula criterion agrees with direct lattice verification."""
    pt = order.pair_tables(ring)
    formula = order.is_lattice(ring)
    bad = np.minimum(pt.meet, pt.join) < 0  # no common upper bound, glb or lub
    if formula.passed != bad.any():
        return PASS
    if formula.passed:
        return _fail(_first(bad), "formula-true-but-not-lattice")
    return CheckResult(False, formula.witness, "lattice-but-formula-false")


def _check_problem2(ring: StarRing) -> CheckResult:
    """a <= c, b <= c, aR ∩ bR = {0} imply a+b <= c, over all triples.

    The two-sided form only narrows this hypothesis, so it cannot fail
    where the right-ideal form passes.

    The c above a and b are exactly those above a∨b, so a pair whose join
    lies above a+b fails at no c, and a pair without a common upper bound
    has no c. Only the other pairs are scanned, row-major, for the
    hypothesis and then over c. (`join >= 0` masks what -1 reads.)"""
    A = ring.addition
    leq = order.leq_matrix(ring)
    pt = order.pair_tables(ring)
    a, b = np.nonzero(pt.cub & ~((pt.join >= 0) & leq[A, pt.join]))
    used = np.zeros(ring.order, dtype=bool)
    used[a] = used[b] = True
    pos = np.cumsum(used) - 1  # row pos[x] of masks marks xR
    masks = analysis._ideal_masks(ring, np.flatnonzero(used))
    masks[:, 0] = False  # aR ∩ bR = {0} iff the masks share no other element

    def fails(k):  # [k, c]: aR ∩ bR = {0} and a, b <= c, but not a+b <= c
        out = np.zeros((k.size, ring.order), dtype=bool)
        hyp = ~(masks[pos[a[k]]] & masks[pos[b[k]]]).any(axis=1)
        x, y = a[k[hyp]], b[k[hyp]]
        out[hyp] = leq[x] & leq[y] & ~leq[A[x, y]]
        return out

    w = _first_rows(a.size, ring.order, fails)
    return _fail((a[w[0]], b[w[0]], w[1]), "right-ideal-form") if w else PASS


def _check_orthogonality_axioms(ring: StarRing) -> CheckResult:
    """Symmetry, downward inheritance, and 0 ⊥ x, checked exhaustively."""
    Z = analysis.zero_product_matrix(ring)
    leq = order.leq_matrix(ring)
    w = _first(Z != Z.T)
    if w:
        return _fail(w, "symmetry")

    # [x, z]: some y >= x has y ⊥ z, but not x ⊥ z; the first x gives [y, z].
    w = _first((order._counts(leq, Z) > 0) & ~Z)
    if w:
        return _fail((w[0], *_first(leq[w[0]][:, None] & Z & ~Z[w[0]])), "descends")
    w = _first(~Z[0])
    if w:
        return _fail((0, *w), "zero-orthogonal")
    return PASS


def _check_ortho_join(ring: StarRing) -> CheckResult:
    """Orthogonal pairs have a common upper bound, meet 0, and join a+b."""
    Z = analysis.zero_product_matrix(ring)
    pt = order.pair_tables(ring)
    w = _first(Z & ~((pt.meet == 0) & (pt.join == ring.addition)))
    return _fail(w) if w else PASS


def _check_cancellation(ring: StarRing) -> CheckResult:
    """x ⊥ y, x ⊥ z, y <= x∨z imply y <= z, over all triples."""
    Z = analysis.zero_product_matrix(ring)
    pt = order.pair_tables(ring)
    leqT = order.build_order(ring).leq_t
    xs, zs = np.nonzero(Z & (pt.join >= 0))  # z ⊥ x with a join x∨z
    js = pt.join[xs, zs]

    def rows(k):  # [k, y]: y ⊥ x and y <= x∨z, but not y <= z
        return Z[xs[k]] & leqT[js[k]] & ~leqT[zs[k]]

    w = _first_rows(xs.size, ring.order, rows)
    if not w:
        return PASS
    # The rows put z before y: the first failing x is rescanned as [y, z].
    k = np.flatnonzero(xs == xs[w[0]])
    y, z = _first(rows(k).T)
    return _fail((xs[w[0]], y, zs[k[z]]), "cancellation")


def _check_quasi_orthomodular(ring: StarRing) -> CheckResult:
    """Orthogonal joins exist, decompositions exist, and cancellation holds."""
    Z = analysis.zero_product_matrix(ring)
    pt = order.pair_tables(ring)
    leq = order.leq_matrix(ring)

    w = _first(Z & (pt.join < 0))
    if w:
        return _fail(w, "join-exists")

    # Every orthogonal pair has a join now. reached[x, y]: y = x∨z, z ⊥ x.
    reached = np.zeros_like(leq)
    x, z = np.nonzero(Z)
    reached[x, pt.join[x, z]] = True
    w = _first(leq & ~reached)
    if w:
        return _fail(w, "decomposition")
    return _check_cancellation(ring)


def _check_ortho_cover_equivalence(ring: StarRing) -> CheckResult:
    """x ⊥ y iff C(x)·C(y) = 0, a block of rows x at a time."""
    Z, covers = analysis.zero_product_matrix(ring), analysis.cover_ids(ring)
    cc = lambda xs: np.take(ring.multiplication[covers[xs]], covers, axis=1)  # C(x)·C(y)
    w = _first_rows(ring.order, ring.order, lambda xs: Z[xs] != (cc(xs) == 0))
    return _fail(w) if w else PASS


def _check_ortho_decomposition(ring: StarRing) -> CheckResult:
    """a <= b gives c = b-a with a ⊥ c, b = a+c, and b = a∨c. a ⊥ c needs
    no check: `order.leq_matrix` reads a <= b as Z[a, c]. Nor does b = a+c:
    a validated or certified ring satisfies a + (b - a) = b.

    So the check runs at [a, c]: (a, a + c) fails iff Z[a, c] and
    join[a, c] != a + c. For fixed a, c ↦ a + c is a bijection of R with
    inverse b ↦ b - a, so the first failing row a is that of the pairs
    [a, b], and its least b is the least a + c over its failing c."""
    pt = order.pair_tables(ring)
    A = ring.addition
    bad = analysis.zero_product_matrix(ring) & (pt.join != A)
    w = _first(bad)
    return _fail((w[0], A[w[0], bad[w[0]]].min())) if w else PASS


def _check_segment_orthomodular(ring: StarRing) -> CheckResult:
    # One initial_segment per m, not proved: perfbench/spans.py predicts these calls.
    for m in range(ring.order):
        seg = order.initial_segment(ring, m)
        if not (seg.orthocomplemented and seg.orthomodular and seg.locality):
            parts = seg.witness["elements"] if seg.witness else []
            note = seg.witness["axiom"] if seg.witness else None
            return _fail((m, *parts), note)
    return PASS


_PQ = (("is_pq_baer_star", SKIP_NOT_PQ),)
_PQ_TWO = _PQ + (("is_two_invertible", SKIP_TWO),)

# Theorem id -> (hypotheses, check, proved). A hypothesis is a report flag and
# the skip reason where it fails, or None where it only sets `hypothesis_met`.
# A proved theorem passes where the cover certificate holds, as that proves it
# (see `order._cover_certificate`); elsewhere its exhaustive check runs.
_REGISTRY: dict = {
    "annihilator-identity": (_PQ, _check_annihilator_identity, False),
    "cover-remark-identities": ((), _check_cover_remark, False),
    "cover-uniqueness": ((), _check_cover_uniqueness, False),
    "cub-characterization": (_PQ, _check_cub_characterization, True),
    "cub-star-identities": (_PQ, _check_cub_star_identities, False),
    "lattice-characterization": (_PQ, _check_lattice_characterization, True),
    "meet-join": (_PQ, _check_meet_join, True),
    "order-diagnostics": ((("is_semiprime", None),), _check_order_diagnostics, False),
    "order-equivalence": (_PQ, _check_order_equivalence, False),
    "ortho-cancellation": (_PQ, _check_cancellation, True),
    "ortho-decomposition": (_PQ, _check_ortho_decomposition, False),
    "ortho-join": (_PQ, _check_ortho_join, False),
    "orthogonality-axioms": (_PQ, _check_orthogonality_axioms, True),
    "orthogonality-cover-equivalence": (_PQ, _check_ortho_cover_equivalence, False),
    "problem-2": (_PQ, _check_problem2, False),
    "quasi-orthomodular": (_PQ, _check_quasi_orthomodular, True),
    "segment-orthomodular": (_PQ, _check_segment_orthomodular, False),
    "subtractivity-biconditional": (_PQ_TWO, _check_subtractivity_biconditional, False),
    "subtractivity-forward": (_PQ, _check_subtractivity_forward, False),
}

THEOREM_IDS: tuple[str, ...] = tuple(_REGISTRY)


def run_theorem(ring: StarRing, theorem_id: str) -> TheoremVerdict:
    """Run a single theorem: skipped at the first failing hypothesis that
    has a reason; ``hypothesis_met`` says whether every hypothesis holds."""
    if theorem_id not in _REGISTRY:
        raise RingSpecError(f"unknown theorem id {theorem_id!r}")
    hypotheses, check, proved = _REGISTRY[theorem_id]
    report = classify(ring)
    met = True
    for flag, reason in hypotheses:
        if not getattr(report, flag):
            if reason is not None:
                return TheoremVerdict(theorem_id, "skipped", reason, None, None, False)
            met = False
    result = PASS if proved and order.build_order(ring).certified else check(ring)
    if result.passed:
        return TheoremVerdict(theorem_id, "pass", None, None, None, met)
    return TheoremVerdict(theorem_id, "fail", None, result.witness, result.note, met)


def run_suite(ring: StarRing) -> list[TheoremVerdict]:
    """Every theorem exactly once, ordered by theorem id."""
    return [run_theorem(ring, tid) for tid in THEOREM_IDS]


def replay(spec: RingSpec, theorem_id: str, cap: int = DEFAULT_ORDER_CAP) -> TheoremVerdict:
    """Re-run a single theorem on a materialized spec."""
    return run_theorem(realize(spec, cap), theorem_id)
