import importlib
import random

import numpy as np
import pytest

import starorder as so
from corpus import fresh
from helpers import (
    leq_bruteforce,
    oracle_annihilator_identity,
    oracle_cancellation,
    oracle_cancellation_failures,
    oracle_central_projections,
    oracle_cover,
    oracle_leq,
    oracle_leq_pairs,
    oracle_orthogonal,
    oracle_orthogonality_axioms,
    oracle_pair_tables,
    oracle_segment,
    orthogonal,
    ring_tables,
)
from starorder import analysis, order, rings, theorems

fuzz = importlib.import_module("starorder.fuzz")  # the package's ``fuzz`` is the function

# One (x, z) row per gathered block, a few rows, or every row.
BLOCKS = (rings._BLOCK, 1, 50)


class TestOrthogonal:
    def test_z6_examples(self, z6):
        assert orthogonal(z6, 2, 3)
        assert not orthogonal(z6, 2, 2)
        for a in z6.elements():
            assert orthogonal(z6, 0, a)

    def test_cover_product_equivalence_z6(self, z6):
        cov = so.cover_table(z6).cover
        for a in z6.elements():
            for b in z6.elements():
                assert orthogonal(z6, a, b) == (z6.mul(cov[a], cov[b]) == 0)

    def test_against_oracle(self, z6, z4, m2z2):
        for r in (z6, z4, m2z2):
            t = ring_tables(r)
            for a in r.elements():
                for b in r.elements():
                    assert orthogonal(r, a, b) == oracle_orthogonal(t, a, b)


class TestOrthogonalityAxioms:
    def test_pass_on_pq_carriers(self, z6, m2z2, z2xz2):
        for r in (z6, m2z2, z2xz2):
            assert so.run_theorem(r, "orthogonality-axioms").status == "pass"

    def test_descends_axiom_fails_on_z4(self, z4):
        # 2 <= 0 and 0 ⊥ 1, yet 2·1 != 0: the relation is not an
        # orthogonality relation outside the semiprime world.
        res = theorems._check_orthogonality_axioms(z4)
        assert not res.passed
        assert res.note == "descends"
        assert res.witness == (2, 0, 1)

    def test_descends_matches_oracle(self, curated_pq):
        # With the true orthogonality, and with random symmetric pairs of it
        # flipped in the memo, beside the true relation, before the order is
        # built: Z stays symmetric but "descends" can fail. Verdict and
        # first witness. A flipped Z breaks the cover certificate; the
        # check runs the count product on either path.
        rng = random.Random(8)
        notes = []
        for r in [s for s in curated_pq if s.order <= 30]:
            t = ring_tables(r)
            n = r.order
            pairs = oracle_leq_pairs(t)
            ortho = {(a, b) for a in range(n) for b in range(n) if oracle_orthogonal(t, a, b)}
            for flips in range(3):
                Z = np.array(analysis.zero_product_matrix(r))
                flipped = set()
                for _ in range(flips):
                    a, b = rng.randrange(n), rng.randrange(n)
                    flipped ^= {(a, b), (b, a)} if a != b else {(a, a)}
                for a, b in flipped:
                    Z[a, b] = not Z[a, b]
                s = fresh(r)
                s._memo.update(leq_matrix=order.leq_matrix(r), zero_product_matrix=Z)
                assert order.build_order(s).certified == (not flipped), (r.label, flipped)
                want = oracle_orthogonality_axioms(
                    n, lambda a, b: (a, b) in pairs, lambda a, b: (a, b) in ortho ^ flipped
                )
                res = theorems._check_orthogonality_axioms(s)
                assert (None if res.passed else (res.witness, res.note)) == want, (r.label, flipped)
                notes.append(res.note)
        assert notes.count("descends") > 20


class TestOrthoJoin:
    def test_z6_pair(self, z6):
        assert so.run_theorem(z6, "ortho-join").status == "pass"
        assert so.meet(z6, 2, 3) == 0
        assert so.join(z6, 2, 3) == z6.add(2, 3) == 5

    def test_componentwise_join(self, z2xz2):
        assert so.run_theorem(z2xz2, "ortho-join").status == "pass"
        a, b = 2, 1  # (1,0) and (0,1)
        assert orthogonal(z2xz2, a, b)
        assert so.join(z2xz2, a, b) == 3  # (1,1)

    def test_zero_joins(self, z6):
        for a in z6.elements():
            assert so.join(z6, 0, a) == a

    def test_non_pq_rejected(self, z4, run_refused):
        v = run_refused(z4, "ortho-join")
        assert (v.status, v.skip_reason) == ("skipped", theorems.SKIP_NOT_PQ)


def rejoins(ring, a, b):
    """c = b − a has a verified join with a, and a∨c = b (read from
    `pair_tables`)."""
    pt = order.pair_tables(ring)
    c = ring.sub(b, a)
    return bool(pt.join[a, c] == b)


class TestDecomposition:
    def test_z6_example(self, z6):
        assert z6.sub(5, 2) == 3 and rejoins(z6, 2, 5)
        assert orthogonal(z6, 2, 3)

    def test_trivial_cases(self, z6):
        for a in z6.elements():
            assert rejoins(z6, a, a)
            assert rejoins(z6, 0, a)

    def test_requires_comparability(self, z6):
        # The decomposition is stated for a <= b only; 1 and 2 are not
        # comparable in Z6.
        leq = order.leq_matrix(z6)
        assert not leq[1, 2] and not leq[2, 1]

    def test_matches_oracle(self, curated_pq, m2z2):
        # Every a <= b rejoins from b − a, and the theorem passes, on the
        # curated corpus, with M2(Z2) and M2(Z3), and the noncommutative
        # M2(Z2) x Z2.
        for r in curated_pq + [so.build_product([m2z2, so.build_modular(2)])]:
            assert so.build_order(r).diagnostics.all_pass, r.label
            t = ring_tables(r)
            leq = order.leq_matrix(r)
            for a in r.elements():
                for b in r.elements():
                    assert leq[a, b] == oracle_leq(t, a, b), (r.label, a, b)
                    if leq[a, b]:
                        assert rejoins(r, a, b), (r.label, a, b)
            assert so.run_theorem(r, "ortho-decomposition").status == "pass", r.label

    def test_refused_on_non_orders(self, non_semiprime, t2z2):
        # These relations are not partial orders, so no pair rejoins
        # through a join: the pair tables are refused, and the theorem is
        # skipped. T2(Z2) has 2 <= 0 with 2 - 0 = 2, among others.
        assert leq_bruteforce(t2z2, 2, 0)
        for r in non_semiprime + [t2z2]:
            with pytest.raises(so.PreconditionError, match="not a partial order"):
                order.pair_tables(r)
            assert so.run_theorem(r, "ortho-decomposition").status == "skipped"


class TestQuasiOrthomodular:
    def test_pass_on_carriers(self, z6, z2xz2, m2z2):
        for r in (z6, z2xz2, m2z2):
            assert so.run_theorem(r, "quasi-orthomodular").status == "pass"

    def test_cancellation_alone(self, z6, m2z2):
        for r in (z6, m2z2):
            assert so.run_theorem(r, "ortho-cancellation").status == "pass"

    def test_non_pq_rejected(self, z4, run_refused):
        v = run_refused(z4, "quasi-orthomodular")
        assert (v.status, v.skip_reason) == ("skipped", theorems.SKIP_NOT_PQ)

    def test_cancellation_matches_oracle(self, curated_pq):
        # With the true orthogonality, and with random pairs of it flipped in
        # the memo so that cancellation fails: verdict and first witness, the
        # same flips at each block size.
        for block in BLOCKS:
            rng = random.Random(6)
            failed = 0
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rings, "_BLOCK", block)
                for r in [s for s in curated_pq if s.order <= 30]:
                    t = ring_tables(r)
                    n = r.order
                    ortho = {
                        (a, b) for a in range(n) for b in range(n) if oracle_orthogonal(t, a, b)
                    }
                    assert theorems._check_cancellation(r).witness == oracle_cancellation(t, ortho)
                    Z = np.array(analysis.zero_product_matrix(r))
                    count = rng.randint(1, n)
                    flips = {(rng.randrange(n), rng.randrange(n)) for _ in range(count)}
                    for a, b in flips:
                        Z[a, b] = not Z[a, b]
                    # The order reads the true relation; the flipped Z
                    # breaks the cover certificate.
                    s = fresh(r)
                    s._memo.update(leq_matrix=order.leq_matrix(r), zero_product_matrix=Z)
                    assert not order.build_order(s).certified, (r.label, flips)
                    want = oracle_cancellation(t, ortho ^ flips)
                    assert theorems._check_cancellation(s).witness == want, (r.label, flips, block)
                    failed += want is not None
            assert failed

    def test_cancellation_scans_a_partial_order_without_f1(self, z6):
        # Z6's order with 2 <= 1 added, closed under transitivity by 5 <= 1:
        # every orthogonal pair still has join x + y and x·C(y) = 0, but F1
        # fails at (2, 1), so the cover certificate does not hold and
        # `run_theorem` scans. 3 ⊥ 2, 3 ⊥ 4 and 2 <= 3∨4 = 1, but not 2 <= 4.
        s = fresh(z6)
        leq = np.array(order.leq_matrix(z6))
        leq[[2, 5], 1] = True
        s._memo["leq_matrix"] = leq
        structure = order.build_order(s)
        assert structure.diagnostics.all_pass and not structure.certified
        Z = analysis.zero_product_matrix(s)
        x, y = np.nonzero(Z)
        assert (order.pair_tables(s).join[x, y] == s.addition[x, y]).all()
        assert not s.multiplication[x, analysis.cover_ids(s)[y]].any()
        assert theorems._check_cancellation(s).witness == (3, 2, 4)
        assert so.run_theorem(s, "ortho-cancellation").witness == (3, 2, 4)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_cancellation_witness_is_first_in_y_then_z(self, block):
        # On (Z2)^3, elements are bit masks and <= is inclusion. Taking 1 ⊥ 3
        # and 1 ⊥ 5 but not 1 ⊥ 2 makes x = 1 the first failing x, with the
        # failing (y, z) = (3, 6), (5, 4) and (5, 6): the row-major first
        # triple is (1, 3, 6), though (1, 5, 4) comes first with z before y.
        base = so.build_product([so.build_modular(2)] * 3)
        Z = np.array(analysis.zero_product_matrix(base))
        Z[1, [3, 5]], Z[1, 2] = True, False
        r = fresh(base)  # the order reads the true relation
        r._memo.update(leq_matrix=order.leq_matrix(base), zero_product_matrix=Z)
        fails = list(oracle_cancellation_failures(ring_tables(r), set(zip(*np.nonzero(Z)))))
        assert fails == [(1, 3, 6), (1, 5, 4), (1, 5, 6)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rings, "_BLOCK", block)
            assert theorems._check_cancellation(r).witness == (1, 3, 6)


class TestInitialSegments:
    def test_z6_top5(self, z6):
        seg = so.initial_segment(z6, 5)
        assert seg.elements == (0, 2, 3, 5)
        assert seg.complement == (5, 3, 2, 0)
        assert seg.orthocomplemented and seg.orthomodular and seg.locality
        assert seg.witness is None

    def test_singleton_segment(self, z6):
        seg = so.initial_segment(z6, 0)
        assert seg.elements == (0,)
        assert seg.orthocomplemented and seg.orthomodular and seg.locality

    def test_two_chain_in_matrix_ring(self, m2z2):
        for m in (1, 4, 9):
            seg = so.initial_segment(m2z2, m)
            if m == 9:
                continue  # the identity sits above more elements
            assert seg.elements == (0, m)
            assert seg.complement == (m, 0)
            assert seg.orthomodular

    def test_all_segments_on_small_pq_carriers(self, z6, z2xz2, z2xz3, m2z2):
        for r in (z6, z2xz2, z2xz3, m2z2):
            for m in r.elements():
                seg = so.initial_segment(r, m)
                assert seg.orthocomplemented, (r.label, m, seg.witness)
                assert seg.orthomodular, (r.label, m, seg.witness)
                assert seg.locality, (r.label, m, seg.witness)

    def test_locality_across_segments(self, z6):
        # Orthogonality verdicts agree between any two segments containing
        # the same pair, and with the ring-level relation.
        segments = {m: so.initial_segment(z6, m) for m in z6.elements()}
        for p, seg_p in segments.items():
            for q, seg_q in segments.items():
                common = set(seg_p.elements) & set(seg_q.elements)
                for x in common:
                    for y in common:
                        ip = seg_p.elements.index(x)
                        jp = seg_p.elements.index(y)
                        iq = seg_q.elements.index(x)
                        jq = seg_q.elements.index(y)
                        local_p = bool(
                            seg_p.leq[ip, seg_p.elements.index(seg_p.complement[jp])]
                        )
                        local_q = bool(
                            seg_q.leq[iq, seg_q.elements.index(seg_q.complement[jq])]
                        )
                        assert local_p == local_q == orthogonal(z6, x, y)

    def test_json_shape(self, z6):
        d = so.initial_segment(z6, 5).to_json_dict()
        assert list(d) == [
            "label",
            "top",
            "elements",
            "leq",
            "complement",
            "orthocomplemented",
            "orthomodular",
            "locality",
            "witness",
        ]
        assert d["elements"] == [0, 2, 3, 5]

    def test_every_segment_matches_oracle(self, curated_pq, non_semiprime, swap_ring, t2z2):
        # The non-semiprime carriers are not partial orders: their segments
        # run the scanner path and produce failing witnesses. Most segments
        # of t2z2 fail with complement-in-segment.
        for r in curated_pq + non_semiprime + [swap_ring, t2z2]:
            t = ring_tables(r)
            for m in r.elements():
                got = so.initial_segment(r, m).to_json_dict()
                del got["label"]
                assert got == oracle_segment(t, m), (r.label, m)


def test_certified_segments_match_the_full_path(curated_pq, swap_ring, monkeypatch):
    # On a ring with the cover certificate no segment bound is read, and
    # the full path, forced by switching the certificate off, gives the
    # same segments. The p.q.-Baer * rings are certified; the swap ring, a
    # partial order that is not p.q.-Baer *, is not, so it takes the full
    # path either way. Structural rings that are not semiprime, such as Z4,
    # are not partial orders and are skipped.
    calls = []
    bound = order._segment_bound
    monkeypatch.setattr(order, "_segment_bound", lambda *args: calls.append(1) or bound(*args))
    config = fuzz.FuzzConfig(16, ("matrix", "modular", "product"), 0, 1)
    structural = [so.realize(spec) for spec in fuzz.structural_specs(config)]
    certified = 0
    for r in curated_pq + [swap_ring] + structural:
        s = fresh(r)
        structure = order.build_order(s)
        if not structure.diagnostics.all_pass:
            continue
        assert structure.certified == so.classify(s).is_pq_baer_star, r.label
        if structure.certified:  # (P) and (O), which the segment proof reads
            pt = order.pair_tables(s)
            Z = analysis.zero_product_matrix(s)
            assert (np.minimum(pt.meet, pt.join)[pt.cub] >= 0).all(), r.label
            assert (pt.meet[Z] == 0).all() and (pt.join[Z] == s.addition[Z]).all(), r.label
        calls.clear()
        fast = [so.initial_segment(s, m).to_json_dict() for m in s.elements()]
        assert not calls if structure.certified else calls, r.label
        certified += structure.certified
        s = fresh(r)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(order, "_cover_certificate", lambda *args: False)
            assert not order.build_order(s).certified
        full = [so.initial_segment(s, m).to_json_dict() for m in s.elements()]
        assert fast == full, r.label
    assert certified >= len(curated_pq)


def _cover_terms(ring):
    """The four terms of the cover certificate, each by a loop over the
    arrays in the memo of ``ring``: every cover is a central projection,
    L0, F1 and OC."""
    n = ring.order
    mul = ring.multiplication
    leq = order.leq_matrix(ring)
    Z = analysis.zero_product_matrix(ring)
    cov = analysis.cover_ids(ring)
    cover_leq = order.cover_leq_matrix(ring)
    cps = set(oracle_central_projections(ring_tables(ring)))
    pairs = [(a, b) for a in range(n) for b in range(n)]
    return (
        all(int(c) in cps for c in cov),
        all(leq[mul[e, y], y] for e in cps for y in range(n)),
        all(cover_leq[a, b] for a, b in pairs if leq[a, b]),
        all(Z[a, b] == (mul[cov[a], cov[b]] == 0) for a, b in pairs),
    )


def test_each_certificate_term_decides(z6):
    # Arrays written into the memo of Z6 before its order is built, each
    # breaking exactly one term, and the certificate with it: a cover that
    # is not a projection (5·5 = 1) beside the true cover relation, a
    # missing 3 = 3·5 <= 5, an added 2 <= 1 with C(2)·1 = 4, and the
    # orthogonal pair 2, 3 made non-orthogonal in Z.
    base = fresh(z6)
    assert _cover_terms(base) == (True,) * 4 and order.build_order(base).certified
    arrays = {
        "leq_matrix": order.leq_matrix(z6),
        "zero_product_matrix": analysis.zero_product_matrix(z6),
        "cover_ids": analysis.cover_ids(z6),
        "cover_leq_matrix": order.cover_leq_matrix(z6),
    }
    changes = (
        ("cover_ids", (5,), 5),
        ("leq_matrix", (3, 5), False),
        ("leq_matrix", (2, 1), True),
        ("zero_product_matrix", ([2, 3], [3, 2]), False),
    )
    for term, (key, at, value) in enumerate(changes):
        changed = np.array(arrays[key])
        changed[at] = value
        s = fresh(z6)
        s._memo.update(arrays, **{key: changed})
        want = tuple(i != term for i in range(4))
        assert _cover_terms(s) == want, key
        assert not order.build_order(s).certified, key


def test_orthogonality_term_decides_alone(curated_pq):
    # One symmetric pair of Z flipped in the memo, beside the true
    # relation, before the order is built: the covers, L0 and F1 still
    # hold, so only OC fails and the ring is uncertified. All 19 verdicts
    # are the forced count path's, and those that read Z match the
    # plain-loop oracles on the flipped Z.
    rng = random.Random(24)
    failed = set()
    for r in [s for s in curated_pq if s.order <= 30]:
        t = ring_tables(r)
        n = r.order
        a, b = rng.randrange(n), rng.randrange(n)
        Z = np.array(analysis.zero_product_matrix(r))
        Z[[a, b], [b, a]] = not Z[a, b]
        orth = lambda x, y: bool(Z[x, y])

        def verdicts(certificate):
            s = fresh(r)
            so.classify(s)  # the p.q.-Baer * gate reads the true relation
            s._memo.update(leq_matrix=order.leq_matrix(r), zero_product_matrix=Z)
            with pytest.MonkeyPatch.context() as mp:
                if not certificate:
                    mp.setattr(order, "_cover_certificate", lambda *args: False)
                assert not order.build_order(s).certified, r.label
            assert _cover_terms(s) == (True, True, True, False), r.label
            return {v.theorem: v for v in theorems.run_suite(s)}

        got = verdicts(True)
        assert got == verdicts(False), r.label
        pairs = oracle_leq_pairs(t)
        le = lambda x, y: (x, y) in pairs
        cov = [oracle_cover(t, x) for x in range(n)]
        bounds = oracle_pair_tables(n, pairs)
        ortho = {(x, y) for x in range(n) for y in range(n) if Z[x, y]}
        every = [(x, y) for x in range(n) for y in range(n)]
        segments = (oracle_segment(t, m, orthogonal=orth) for m in range(n))
        want = {
            "annihilator-identity": oracle_annihilator_identity(t, orth, cov),
            "orthogonality-axioms": oracle_orthogonality_axioms(n, le, orth),
            "ortho-cancellation": next(
                ((w, "cancellation") for w in oracle_cancellation_failures(t, ortho)), None
            ),
            "ortho-join": next(
                ((p, None) for p in every if Z[p] and bounds.get(p) != (0, t[0][p[0]][p[1]])),
                None,
            ),
            "orthogonality-cover-equivalence": next(
                ((p, None) for p in every if Z[p] != (t[1][cov[p[0]]][cov[p[1]]] == 0)), None
            ),
            "segment-orthomodular": next(
                (
                    ((g["top"], *g["witness"]["elements"]), g["witness"]["axiom"])
                    for g in segments
                    if not (g["orthocomplemented"] and g["orthomodular"] and g["locality"])
                ),
                None,
            ),
        }
        for tid, w in want.items():
            v = got[tid]
            assert v.status != "skipped", (r.label, tid)
            assert (None if v.status == "pass" else (v.witness, v.note)) == w, (r.label, tid)
        failed |= {tid for tid, w in want.items() if w}
    assert failed == set(want)  # each oracle-checked theorem failed on some flip


SEGMENT_AXIOMS = {
    "complement-in-segment",
    "complement-meet-zero",
    "complement-join-top",
    "complement-involution",
    "complement-antitone",
    "orthogonal-join-exists",
    "orthomodular-decomposition",
    "segment-locality",
}


def _segment_witnesses(ring, leq, Z, S):
    """Write leq, Z and S into the memo of ``ring`` (a fresh copy), check
    every segment against the oracle on the same relations, and return the
    witness axioms met."""
    ring._memo.update(leq_matrix=leq, zero_product_matrix=Z, sub_table=S)
    # The certificate is proved only for the relations a ring builds itself,
    # and it does not read S: with it switched off, every segment here
    # takes the full path.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(order, "_cover_certificate", lambda *args: False)
        order.build_order(ring)
    t = ring_tables(ring)
    met = set()
    for m in ring.elements():
        got = so.initial_segment(ring, m).to_json_dict()
        del got["label"]
        want = oracle_segment(
            t, m, lambda a, b: bool(leq[a, b]), lambda a, b: bool(Z[a, b]), S.tolist()
        )
        assert got == want, (ring.label, m)
        if got["witness"]:
            met.add(got["witness"]["axiom"])
    return met


def _designed_segment(ring, m, edges, complement):
    """Relations on ``ring`` under which [0, m] is every element, ordered by
    0 <= x <= m and ``edges``, with ``complement`` as row m of the
    subtraction table and the segment orthogonality as Z."""
    n = ring.order
    leq = np.eye(n, dtype=bool)
    leq[0] = leq[:, m] = True
    for x, y in edges:
        leq[x, y] = True
    S = np.array(ring.sub_table())
    S[m] = complement
    return leq, leq[:, S[m]], S


def test_every_segment_witness_matches_oracle_on_perturbed_relations():
    # No ring's own relations reach most witness branches, so the segment
    # code runs on relations written into the memo instead.
    met = set()
    # M3 with a cyclic complement 1 -> 2 -> 3 -> 1: a complement, but no
    # involution.
    z5 = fresh(so.build_modular(5))
    met |= _segment_witnesses(z5, *_designed_segment(z5, 4, [], [4, 2, 3, 1, 0]))
    # Atoms 1-4 with complements 5-8, x <= y + 4 iff x, y are adjacent in
    # 1-2, 1-3, 1-4, 2-3, 2-4: an orthocomplemented poset in which the
    # orthogonal pair 1, 2 has the two minimal upper bounds 7 and 8.
    z10 = fresh(so.build_modular(10))
    adjacent = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    edges = [(x, y + 4) for a, b in adjacent for x, y in ((a, b), (b, a))]
    met |= _segment_witnesses(
        z10, *_designed_segment(z10, 9, edges, [9, 5, 6, 7, 8, 1, 2, 3, 4, 0])
    )
    # One flipped or rewritten entry in each of leq, Z and S.
    carriers = [so.build_modular(n) for n in (4, 6, 8, 9, 10, 12)]
    carriers.append(so.build_matrix(so.build_modular(2), 2))
    rng = random.Random(0)
    for trial in range(200):
        if met == SEGMENT_AXIOMS:
            break
        src = carriers[trial % len(carriers)]
        n = src.order
        leq = np.array(order.leq_matrix(src))
        Z = np.array(analysis.zero_product_matrix(src))
        S = np.array(src.sub_table())
        leq[rng.randrange(n), rng.randrange(n)] ^= True
        Z[rng.randrange(n), rng.randrange(n)] ^= True
        S[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
        met |= _segment_witnesses(fresh(src), leq, Z, S)
    assert met == SEGMENT_AXIOMS


def test_segment_bounds_scan_where_pair_tables_has_none(monkeypatch):
    # A partial order on Z6: 0 below all, and 1, 2 below both 4 and 5,
    # which are incomparable. So 1 and 2 have no join and pair_tables holds
    # -1 there. Inside [0, 5] = {0, 1, 2, 5}, with complements
    # 0 <-> 5 and 1 <-> 2, their only upper bound is 5: the segment is
    # orthomodular only if the scan on the segment order finds it.
    z6 = fresh(so.build_modular(6))
    leq = np.eye(6, dtype=bool)
    leq[0] = True
    leq[[1, 2, 1, 2], [4, 4, 5, 5]] = True
    S = np.array(z6.sub_table())
    S[5] = [5, 2, 1, 3, 4, 0]
    _segment_witnesses(z6, leq, leq[:, S[5]], S)  # every segment against the oracle
    assert order.build_order(z6).diagnostics.all_pass
    pt = order.pair_tables(z6)
    assert pt.cub[1, 2] and pt.join[1, 2] == -1

    scanned = []
    scan = order._least_upper

    def counting(rel, i, j):
        scanned.append((i, j))
        return scan(rel, i, j)

    monkeypatch.setattr(order, "_least_upper", counting)
    seg = so.initial_segment(z6, 5)
    assert seg.elements == (0, 1, 2, 5)
    assert seg.orthocomplemented and seg.orthomodular and seg.locality and seg.witness is None
    assert (1, 2) in scanned  # positions of 1 and 2 in [0, 5]


def test_segment_without_its_bottom_or_top():
    # Perturbed relations can leave 0 or m out of [0, m]. The complement
    # checks compare with the elements 0 and m, not with the first or last
    # element of the segment.
    z5 = fresh(so.build_modular(5))
    # 0 is not below 4; in [0, 4] = {1, 2, 3, 4} the least element is 1.
    leq, _, S = _designed_segment(z5, 4, [(1, 2), (1, 3)], [0, 4, 3, 2, 1])
    leq[0, 4] = False
    _segment_witnesses(z5, leq, leq[:, S[4]], S)
    seg = so.initial_segment(z5, 4)
    assert seg.elements == (1, 2, 3, 4)
    assert seg.witness == {"axiom": "complement-meet-zero", "elements": [1]}
    # 4 is not below itself; in [0, 4] = {0, 1, 2, 3} the greatest is 3.
    z5 = fresh(so.build_modular(5))
    leq, _, S = _designed_segment(z5, 4, [(0, 3), (1, 3), (2, 3)], [3, 2, 1, 0, 4])
    leq[4, 4] = False
    _segment_witnesses(z5, leq, leq[:, S[4]], S)
    seg = so.initial_segment(z5, 4)
    assert seg.elements == (0, 1, 2, 3)
    assert seg.witness == {"axiom": "complement-join-top", "elements": [0]}
