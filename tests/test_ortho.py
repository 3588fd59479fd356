import random

import pytest

import starorder as so
from corpus import fresh
from helpers import oracle_cancellation, oracle_orthogonal, oracle_segment, ring_tables
from starorder import analysis


class TestOrthogonal:
    def test_z6_examples(self, z6):
        assert so.orthogonal(z6, 2, 3)
        assert not so.orthogonal(z6, 2, 2)
        for a in z6.elements():
            assert so.orthogonal(z6, 0, a)

    def test_cover_product_equivalence_z6(self, z6):
        cov = so.cover_table(z6).cover
        for a in z6.elements():
            for b in z6.elements():
                assert so.orthogonal(z6, a, b) == (z6.mul(cov[a], cov[b]) == 0)

    def test_against_oracle(self, z6, z4, m2z2):
        for r in (z6, z4, m2z2):
            t = ring_tables(r)
            for a in r.elements():
                for b in r.elements():
                    assert so.orthogonal(r, a, b) == oracle_orthogonal(t, a, b)


class TestOrthogonalityAxioms:
    def test_pass_on_pq_carriers(self, z6, m2z2, z2xz2):
        for r in (z6, m2z2, z2xz2):
            assert so.orthogonality_axioms(r).passed

    def test_descends_axiom_fails_on_z4(self, z4):
        # 2 <= 0 and 0 ⊥ 1, yet 2·1 != 0: the relation is not an
        # orthogonality relation outside the semiprime world.
        res = so.orthogonality_axioms(z4)
        assert not res.passed
        assert res.note == "descends"
        assert res.witness == (2, 0, 1)


class TestOrthoJoin:
    def test_z6_pair(self, z6):
        assert so.ortho_join_check(z6).passed
        assert so.meet(z6, 2, 3) == 0
        assert so.join(z6, 2, 3) == z6.add(2, 3) == 5

    def test_componentwise_join(self, z2xz2):
        assert so.ortho_join_check(z2xz2).passed
        a, b = 2, 1  # (1,0) and (0,1)
        assert so.orthogonal(z2xz2, a, b)
        assert so.join(z2xz2, a, b) == 3  # (1,1)

    def test_zero_joins(self, z6):
        for a in z6.elements():
            assert so.join(z6, 0, a) == a

    def test_non_pq_rejected(self, z4):
        with pytest.raises(so.PreconditionError):
            so.ortho_join_check(z4)


class TestDecomposition:
    def test_z6_example(self, z6):
        c = so.orthomodular_decomposition(z6, 2, 5)
        assert c == 3
        assert so.orthogonal(z6, 2, 3)

    def test_trivial_cases(self, z6):
        for a in z6.elements():
            assert so.orthomodular_decomposition(z6, a, a) == 0
            assert so.orthomodular_decomposition(z6, 0, a) == a

    def test_requires_comparability(self, z6):
        with pytest.raises(so.PreconditionError):
            so.orthomodular_decomposition(z6, 1, 2)


class TestQuasiOrthomodular:
    def test_pass_on_carriers(self, z6, z2xz2, m2z2):
        for r in (z6, z2xz2, m2z2):
            assert so.quasi_orthomodular_check(r).passed

    def test_cancellation_alone(self, z6, m2z2):
        for r in (z6, m2z2):
            assert so.cancellation_check(r).passed

    def test_non_pq_rejected(self, z4):
        with pytest.raises(so.PreconditionError):
            so.quasi_orthomodular_check(z4)

    def test_cancellation_matches_oracle(self, curated_pq):
        # With the true orthogonality, and with random pairs of it flipped in
        # the memo so that cancellation fails: verdict and first witness.
        rng = random.Random(6)
        failed = 0
        for r in [s for s in curated_pq if s.order <= 30]:
            t = ring_tables(r)
            n = r.order
            ortho = {(a, b) for a in range(n) for b in range(n) if oracle_orthogonal(t, a, b)}
            assert so.cancellation_check(r).witness == oracle_cancellation(t, ortho)
            s = fresh(r)
            so.classify(s)  # the p.q.-Baer * gate reads the true relation
            Z = analysis.zero_product_matrix(s).copy()
            flips = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, n))}
            for a, b in flips:
                Z[a, b] = not Z[a, b]
            s._memo["zero_product_matrix"] = Z
            want = oracle_cancellation(t, ortho ^ flips)
            assert so.cancellation_check(s).witness == want, (r.label, flips)
            failed += want is not None
        assert failed


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
                        assert local_p == local_q == so.orthogonal(z6, x, y)

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
