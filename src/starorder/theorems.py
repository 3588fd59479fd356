"""Named theorem suite: hypothesis gating, exhaustive checks, replay."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis, order
from .analysis import CheckResult, PASS, _fail, classify
from .errors import RingSpecError
from .rings import DEFAULT_ORDER_CAP, RingSpec, StarRing, _row_blocks, realize

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


def _gate_none(report) -> str | None:
    return None


def _gate_pq(report) -> str | None:
    return None if report.is_pq_baer_star else SKIP_NOT_PQ


def _gate_pq_two(report) -> str | None:
    if not report.is_pq_baer_star:
        return SKIP_NOT_PQ
    if not report.is_two_invertible:
        return SKIP_TWO
    return None


# ---------------------------------------------------------------------------
# Individual checks. Each returns a CheckResult over exhaustive scans.


def _check_cover_remark(ring: StarRing) -> CheckResult:
    """Cover identities that hold in any finite *-ring:
    C(e) = e for central projections, C(e·x) = e·C(x), C(x*) = C(x), and
    e <= f iff e = e·f turns the central projections into a poset."""
    M = ring.multiplication
    covers = analysis.cover_ids(ring)
    cps = analysis.central_projection_ids(ring)

    bad = np.flatnonzero(covers[cps] != cps)
    if bad.size:
        return _fail((cps[bad[0]],), "cover-of-central-projection")

    Mc = M[cps]  # e·x at [e, x]
    hits = np.argwhere(covers[Mc] != Mc[:, covers])
    if hits.size:
        i, x = hits[0]
        return _fail((cps[i], x), "cover-scaling")

    diff = np.flatnonzero(covers[ring.involution] != covers)
    if diff.size:
        return _fail((diff[0],), "cover-star")

    leq_cp = order.leq_matrix(ring)[np.ix_(cps, cps)]
    ef = M[np.ix_(cps, cps)] == cps[:, None]
    hits = np.argwhere(leq_cp != ef)
    if hits.size:
        i, j = hits[0]
        return _fail((cps[i], cps[j]), "central-projection-order")
    hits = np.argwhere(ef & ef.T & ~np.eye(cps.size, dtype=bool))
    if hits.size:
        i, j = hits[0]
        return _fail((cps[i], cps[j]), "central-projection-antisymmetry")
    hits = np.argwhere(order._bool_product(ef, ef) & ~ef)
    if hits.size:
        i, j = hits[0]
        return _fail((cps[i], cps[j]), "central-projection-transitivity")
    return PASS


def _check_cover_uniqueness(ring: StarRing) -> CheckResult:
    """Any central projection satisfying x·e = x and (xRy = 0 implies
    e·y = 0) must be the central cover of x."""
    M = ring.multiplication
    Z = analysis.zero_product_matrix(ring)
    covers = analysis.cover_ids(ring)
    cps = analysis.central_projection_ids(ring)
    fixes = M[:, cps].T == np.arange(ring.order)        # x·e = x at [e, x]
    absorbs = ~order._bool_product(M[cps] != 0, Z.T)  # xRy = 0 implies e·y = 0
    hits = np.argwhere(fixes & absorbs & (covers != cps[:, None]))
    if hits.size:
        i, x = hits[0]
        return _fail((x, cps[i]), "cover-uniqueness")
    return PASS


def _check_order_diagnostics(ring: StarRing) -> CheckResult:
    diag = order.build_order(ring).diagnostics
    failure = diag.first_failure()
    if failure is None:
        return PASS
    name, witness = failure
    return _fail(witness, name)


def _check_order_equivalence(ring: StarRing) -> CheckResult:
    leq = order.leq_matrix(ring)
    star = order.star_leq_matrix(ring)
    cov = order.cover_leq_matrix(ring)
    hits = np.argwhere(leq != star)
    if hits.size:
        return _fail(hits[0], "bruteforce-vs-star")
    hits = np.argwhere(leq != cov)
    if hits.size:
        return _fail(hits[0], "bruteforce-vs-cover")
    return PASS


def _check_subtractivity_forward(ring: StarRing) -> CheckResult:
    forward, _ = order.subtractivity_check(ring)
    if not forward.passed:
        return CheckResult(False, forward.witness, "cover-subtraction")
    M = ring.multiplication
    covers = analysis.cover_ids(ring)
    leq = order.leq_matrix(ring)
    idx = np.arange(ring.order)
    cc = M[np.ix_(covers, covers)]  # C(a)·C(b) at [a, b]
    hits = np.argwhere(leq & (cc != covers[:, None]))
    if hits.size:
        return _fail(hits[0], "cover-monotone")
    acb = M[:, covers]              # a·C(b)
    hits = np.argwhere(leq & (acb != idx[:, None]))
    if hits.size:
        return _fail(hits[0], "a-equals-a-cover-b")
    bca = acb.T                     # b·C(a) at [a, b]
    hits = np.argwhere(leq & (bca != idx[:, None]))
    if hits.size:
        return _fail(hits[0], "a-equals-b-cover-a")
    return PASS


def _check_subtractivity_biconditional(ring: StarRing) -> CheckResult:
    return order.subtractivity_check(ring)[1]


def _check_cub_characterization(ring: StarRing) -> CheckResult:
    covers = analysis.cover_ids(ring)
    ac = ring.multiplication[:, covers]
    formula = ac == ac.T
    hits = np.argwhere(formula != order.cub_matrix(ring))
    if hits.size:
        return _fail(hits[0])
    return PASS


def _check_cub_star_identities(ring: StarRing) -> CheckResult:
    """For pairs with a common upper bound: a*rb = C(a)b*rb = C(b)a*ra and
    arb* = C(a)brb* = C(b)ara* for every r; a*b and ab* are self-adjoint.

    Each side of the four r-equations is additive in r, so the r where an
    equation holds form a subgroup of (R, +): r ranges over the additive
    generating set G only, in O(|G|·n^2) rather than O(n^3)."""
    M = ring.multiplication
    inv = ring.involution
    G = ring.generators
    covers = analysis.cover_ids(ring)
    cub = order.cub_matrix(ring)
    n = ring.order
    idx = np.arange(n)
    brb = M[M[inv][:, G].T, idx]           # b*·g·b at [g, b]
    brbs = M[M[:, G].T, inv]               # b·g·b*
    for blk in _row_blocks(n, G.size * n):
        a, as_ = idx[blk], inv[blk]
        i = np.arange(a.size)
        ca = M[covers[blk]]                           # C(a)·x at [a, x]
        T = M[M[as_][:, G]]                           # a*·g·b at [a, g, b]
        arbs = M[M[a][:, G]][:, :, inv]               # a·g·b*
        eq1 = T == ca[i[:, None, None], brb]          # C(a)·(b*·g·b)
        eq2 = T == M[covers, T[i, :, a][:, :, None]]  # C(b)·(a*·g·a)
        eq3 = arbs == ca[i[:, None, None], brbs]      # C(a)·(b·g·b*)
        eq4 = arbs == M[covers, arbs[i, :, a][:, :, None]]  # C(b)·(a·g·a*)
        ok = (eq1 & eq2 & eq3 & eq4).all(axis=1)
        asb, absr = M[as_], M[a][:, inv]              # a*·b and a·b* at [a, b]
        ok &= (inv[asb] == asb) & (inv[absr] == absr)
        hits = np.argwhere(cub[blk] & ~ok)
        if hits.size:
            k, b = hits[0]
            return _fail((a[k], b))
    return PASS


def _check_meet_join(ring: StarRing) -> CheckResult:
    """Meets/joins of pairs with a common upper bound: the cover formulas
    are the order-theoretic glb/lub, and both join corollary forms agree."""
    pt = order.pair_tables(ring)
    pseudo = order.is_pseudo_lattice(ring)
    if not pseudo.passed:
        return CheckResult(False, pseudo.witness, "pseudo-lattice")
    M = ring.multiplication
    A = ring.addition
    S = ring.sub_table()
    covers = analysis.cover_ids(ring)
    n = ring.order
    idx = np.arange(n)
    ac = M[:, covers]
    hits = np.argwhere(pt.cub & (pt.meet != ac))
    if hits.size:
        return _fail(hits[0], "meet-formula")
    hits = np.argwhere(pt.cub & (pt.meet != ac.T))
    if hits.size:
        return _fail(hits[0], "meet-formula-symmetric")
    hits = np.argwhere(pt.cub & (pt.join != S[A, ac]))
    if hits.size:
        return _fail(hits[0], "join-formula")
    fvals = S[ring.one, covers]
    j2 = A[idx[:, None], M[:, fvals].T]   # a + b·(1-C(a))
    hits = np.argwhere(pt.cub & (pt.join != j2))
    if hits.size:
        return _fail(hits[0], "join-corollary")
    j3 = A[M[:, fvals], idx[None, :]]     # a·(1-C(b)) + b
    hits = np.argwhere(pt.cub & (pt.join != j3))
    if hits.size:
        return _fail(hits[0], "join-corollary-symmetric")
    return PASS


def _check_lattice_characterization(ring: StarRing) -> CheckResult:
    """The formula criterion agrees with direct lattice verification."""
    pt = order.pair_tables(ring)
    formula = order.is_lattice(ring)
    direct = bool(pt.cub.all() and (pt.meet_ok & pt.join_ok).all())
    if formula.passed == direct:
        return PASS
    if formula.passed:
        bad = ~(pt.cub & pt.meet_ok & pt.join_ok)
        return _fail(np.argwhere(bad)[0], "formula-true-but-not-lattice")
    return CheckResult(False, formula.witness, "lattice-but-formula-false")


def _check_problem2(ring: StarRing) -> CheckResult:
    # The two-sided form only narrows this hypothesis, so it cannot fail
    # where the right-ideal form passes.
    result = order.problem2_check(ring)
    if not result.passed:
        return CheckResult(False, result.witness, "right-ideal-form")
    return PASS


def _check_ortho_cover_equivalence(ring: StarRing) -> CheckResult:
    covers = analysis.cover_ids(ring)
    Z = analysis.zero_product_matrix(ring)
    cc = ring.multiplication[np.ix_(covers, covers)] == 0
    hits = np.argwhere(Z != cc)
    if hits.size:
        return _fail(hits[0])
    return PASS


def _check_ortho_decomposition(ring: StarRing) -> CheckResult:
    """a <= b gives c = b-a with a ⊥ c, b = a+c, and b = a∨c."""
    Z = analysis.zero_product_matrix(ring)
    pt = order.pair_tables(ring)
    leq = order.leq_matrix(ring)
    S = ring.sub_table()
    A = ring.addition
    n = ring.order
    idx = np.arange(n)
    C = S.T  # c = b - a at [a, b]
    ok = (
        Z[idx[:, None], C]
        & (A[idx[:, None], C] == idx[None, :])
        & pt.cub[idx[:, None], C]
        & pt.join_ok[idx[:, None], C]
        & (pt.join[idx[:, None], C] == idx[None, :])
    )
    hits = np.argwhere(leq & ~ok)
    if hits.size:
        return _fail(hits[0])
    return PASS


def _check_segment_orthomodular(ring: StarRing) -> CheckResult:
    for m in range(ring.order):
        seg = order.initial_segment(ring, m)
        if not (seg.orthocomplemented and seg.orthomodular and seg.locality):
            parts = seg.witness["elements"] if seg.witness else []
            note = seg.witness["axiom"] if seg.witness else None
            return _fail((m, *parts), note)
    return PASS


_REGISTRY: tuple = (
    ("annihilator-identity", _gate_pq, analysis.verify_annihilator_identity),
    ("cover-remark-identities", _gate_none, _check_cover_remark),
    ("cover-uniqueness", _gate_none, _check_cover_uniqueness),
    ("cub-characterization", _gate_pq, _check_cub_characterization),
    ("cub-star-identities", _gate_pq, _check_cub_star_identities),
    ("lattice-characterization", _gate_pq, _check_lattice_characterization),
    ("meet-join", _gate_pq, _check_meet_join),
    ("order-diagnostics", _gate_none, _check_order_diagnostics),
    ("order-equivalence", _gate_pq, _check_order_equivalence),
    ("ortho-cancellation", _gate_pq, order.cancellation_check),
    ("ortho-decomposition", _gate_pq, _check_ortho_decomposition),
    ("ortho-join", _gate_pq, order.ortho_join_check),
    ("orthogonality-axioms", _gate_pq, order.orthogonality_axioms),
    ("orthogonality-cover-equivalence", _gate_pq, _check_ortho_cover_equivalence),
    ("problem-2", _gate_pq, _check_problem2),
    ("quasi-orthomodular", _gate_pq, order.quasi_orthomodular_check),
    ("segment-orthomodular", _gate_pq, _check_segment_orthomodular),
    ("subtractivity-biconditional", _gate_pq_two, _check_subtractivity_biconditional),
    ("subtractivity-forward", _gate_pq, _check_subtractivity_forward),
)

THEOREM_IDS: tuple[str, ...] = tuple(entry[0] for entry in _REGISTRY)


def run_theorem(ring: StarRing, theorem_id: str) -> TheoremVerdict:
    """Run a single theorem, gated on its hypotheses."""
    for tid, gate, runner in _REGISTRY:
        if tid != theorem_id:
            continue
        report = classify(ring)
        reason = gate(report)
        if reason is not None:
            return TheoremVerdict(tid, "skipped", reason, None, None, False)
        result = runner(ring)
        met = report.is_semiprime if tid == "order-diagnostics" else True
        if result.passed:
            return TheoremVerdict(tid, "pass", None, None, None, met)
        return TheoremVerdict(tid, "fail", None, result.witness, result.note, met)
    raise RingSpecError(f"unknown theorem id {theorem_id!r}")


def run_suite(ring: StarRing) -> list[TheoremVerdict]:
    """Every theorem exactly once, ordered by theorem id."""
    return [run_theorem(ring, tid) for tid in THEOREM_IDS]


def replay(spec: RingSpec, theorem_id: str, cap: int = DEFAULT_ORDER_CAP) -> TheoremVerdict:
    """Re-run a single theorem on a materialized spec."""
    return run_theorem(realize(spec, cap), theorem_id)
