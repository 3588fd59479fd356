import random

import pytest
from hypothesis import assume, given, strategies as st

import starorder as so
from starorder.fuzz import _random_table_candidate
from helpers import (
    is_squarefree,
    mat2_index,
    oracle_annihilator_generators,
    oracle_classification,
    oracle_central_projections,
    oracle_cover,
    oracle_idempotents,
    oracle_projections,
    oracle_right_annihilator,
    ring_tables,
)

E11 = mat2_index(2, 1, 0, 0, 0)
E12 = mat2_index(2, 0, 1, 0, 0)
E21 = mat2_index(2, 0, 0, 1, 0)
E22 = mat2_index(2, 0, 0, 0, 1)
I2 = mat2_index(2, 1, 0, 0, 1)


def assert_covers_match_oracle(r):
    """Every element has a central cover, and the table holds it."""
    t = ring_tables(r)
    want = tuple(oracle_cover(t, x) for x in r.elements())
    assert None not in want
    assert so.cover_table(r).cover == want


class TestProjections:
    def test_z6_idempotents(self, z6):
        assert so.idempotents(z6) == {0, 1, 3, 4}
        assert so.projections(z6) == {0, 1, 3, 4}

    def test_z2_field(self):
        assert so.idempotents(so.build_modular(2)) == {0, 1}

    def test_z2xz2_all_idempotent(self, z2xz2):
        assert so.idempotents(z2xz2) == {0, 1, 2, 3}

    def test_m2z2_projections(self, m2z2):
        projs = so.projections(m2z2)
        assert E11 in projs and E22 in projs
        assert E12 not in projs

    def test_zero_ring(self):
        assert so.projections(so.build_modular(1)) == {0}

    def test_against_oracle(self, z6, z4, m2z2, swap_ring):
        for r in (z6, z4, m2z2, swap_ring):
            t = ring_tables(r)
            assert sorted(so.idempotents(r)) == oracle_idempotents(t)
            assert sorted(so.projections(r)) == oracle_projections(t)
            assert sorted(so.central_projections(r)) == oracle_central_projections(t)

    def test_swap_involution_removes_projections(self, swap_ring):
        # (a,b)* = (b,a) keeps only the symmetric idempotents self-adjoint.
        assert so.projections(swap_ring) == {0, 3}


class TestCenter:
    def test_matrix_center_is_scalars(self, m2z2):
        assert so.central_projections(m2z2) == {0, I2}

    def test_commutative_center_is_everything(self, z6):
        assert so.center(z6) == set(range(6))
        assert so.central_projections(z6) == {0, 1, 3, 4}


class TestAnnihilators:
    def test_z6_single_element(self, z6):
        res = so.right_annihilator(z6, {2})
        assert res.elements == {0, 3}
        assert res.principal_projection == 3

    def test_annihilator_of_zero_and_one(self, z6, m2z2):
        for r in (z6, m2z2):
            res = so.right_annihilator(r, {0})
            assert res.elements == set(r.elements())
            assert res.principal_projection == r.one
            res = so.right_annihilator(r, {r.one})
            assert res.elements == {0}
            assert res.principal_projection == 0

    def test_z6_principal(self, z6):
        res = so.right_ann_principal(z6, 4)
        assert res.elements == {0, 3}
        assert res.principal_projection == 3

    def test_m2z2_principal_of_nonzero_is_trivial(self, m2z2):
        for a in (E11, E12, 5, I2):
            res = so.right_ann_principal(m2z2, a)
            assert res.elements == {0}
            assert res.principal_projection == 0
        res = so.right_ann_principal(m2z2, 0)
        assert res.elements == set(range(16))
        assert res.principal_projection == I2

    def test_against_oracle(self, z6, m2z2):
        for r in (z6, m2z2):
            t = ring_tables(r)
            for a in list(r.elements())[:8]:
                expected = oracle_right_annihilator(t, sorted(set(t[1][a])))
                assert sorted(so.right_ann_principal(r, a).elements) == expected

    def test_right_ideal_closure(self, z6, m2z2, swap_ring):
        for r in (z6, m2z2, swap_ring):
            for a in r.elements():
                ann = so.right_ann_principal(r, a).elements
                for x in ann:
                    for y in ann:
                        assert r.add(x, y) in ann
                    for s in r.elements():
                        assert r.mul(x, s) in ann

    def test_left_annihilator(self, z6, m2z2):
        assert so.left_annihilator(z6, {2}).elements == {0, 3}
        res = so.left_annihilator(m2z2, {E12})
        assert all(m2z2.mul(x, E12) == 0 for x in res.elements)
        assert res.principal_projection is not None

    def test_left_ideal_closure(self, m2z2):
        ann = so.left_annihilator(m2z2, {E12}).elements
        for x in ann:
            for y in ann:
                assert m2z2.add(x, y) in ann
            for s in m2z2.elements():
                assert m2z2.mul(s, x) in ann

    def test_empty_set_rejected(self, z6):
        with pytest.raises(so.PreconditionError):
            so.right_annihilator(z6, set())

    def test_principal_matches_annihilator_of_materialized_ideal(self, z6, m2z2):
        for r in (z6, m2z2):
            for a in r.elements():
                ideal = so.principal_right_ideal(r, a)
                assert (
                    so.right_ann_principal(r, a).elements
                    == so.right_annihilator(r, ideal).elements
                )


class TestClassification:
    def test_z6(self, z6):
        rep = so.classify(z6)
        assert rep.flags() == {
            "semiprime": True,
            "reduced": True,
            "abelian": True,
            "rickart_star": True,
            "pq_baer_star": True,
            "two_invertible": False,
        }
        assert rep.witnesses == {"two_invertible": (2,)}
        assert rep.pq_baer_witnesses is not None

    def test_z4(self, z4):
        rep = so.classify(z4)
        assert not rep.is_semiprime and rep.witnesses["semiprime"] == (2,)
        assert not rep.is_reduced and rep.witnesses["reduced"] == (2,)
        assert rep.is_abelian
        assert not rep.is_rickart_star
        assert not rep.is_pq_baer_star
        assert rep.pq_baer_witnesses is None

    def test_m2z2(self, m2z2):
        rep = so.classify(m2z2)
        assert rep.is_semiprime and rep.is_pq_baer_star
        assert not rep.is_reduced and rep.witnesses["reduced"] == (E21,)
        assert not rep.is_abelian and rep.witnesses["abelian"] == (E22, E21)
        # r({[[0,0],[1,1]]}) is not generated by any projection.
        assert not rep.is_rickart_star and rep.witnesses["rickart_star"] == (3,)
        assert rep.pq_baer_witnesses[0] == I2
        assert all(e == 0 for e in rep.pq_baer_witnesses[1:])

    def test_implications_on_carriers(self, curated_pq, z4, swap_ring):
        for r in curated_pq + [z4, swap_ring]:
            rep = so.classify(r)
            if rep.is_reduced:
                assert rep.is_semiprime
            if rep.is_pq_baer_star:
                assert rep.is_semiprime

    def test_swap_ring_not_pq(self, swap_ring):
        rep = so.classify(swap_ring)
        assert rep.is_semiprime and rep.is_reduced
        assert not rep.is_pq_baer_star
        assert rep.witnesses["pq_baer_star"] == (1,)

    def test_json_shape(self, z6):
        d = so.classify(z6).to_json_dict()
        assert list(d) == ["label", "order", "flags", "witnesses", "covers"]
        assert list(d["flags"]) == [
            "semiprime",
            "reduced",
            "abelian",
            "rickart_star",
            "pq_baer_star",
            "two_invertible",
        ]
        assert d["witnesses"] == {"two_invertible": [2]}
        assert len(d["covers"]) == 6

    def test_rickart_implies_pq_on_commutative_identity_involution(self, curated_pq):
        import numpy as np

        seen = 0
        for r in curated_pq:
            if not r.is_commutative():
                continue
            if not np.array_equal(r.involution, np.arange(r.order)):
                continue
            seen += 1
            rep = so.classify(r)
            if rep.is_rickart_star:
                assert rep.is_pq_baer_star
        assert seen > 10

    @given(st.integers(min_value=1, max_value=30))
    def test_modular_flags_match_number_theory(self, n):
        rep = so.classify(so.build_modular(n))
        sf = is_squarefree(n)
        assert rep.is_semiprime == sf
        assert rep.is_reduced == sf
        assert rep.is_rickart_star == sf
        assert rep.is_pq_baer_star == sf
        assert rep.is_abelian  # commutative
        assert rep.is_two_invertible == (n % 2 == 1)


    def test_lookups_against_oracle(self, curated_pq, non_semiprime, swap_ring, t2z2):
        # Every first witness, every r(aR) generator, and the generator of
        # every one-element left and right annihilator; curated_pq holds
        # M2(Z2), and t2z2 tells r(aR) from l(Ra).
        for r in curated_pq + non_semiprime + [swap_ring, t2z2]:
            t = ring_tables(r)
            witnesses, generators = oracle_classification(t)
            report = so.classify(r)
            keys = ("semiprime", "rickart_star", "pq_baer_star")
            got = {k: v for k, v in report.witnesses.items() if k in keys}
            assert (got, report.pq_baer_witnesses) == (witnesses, generators), r.label
            right, left = oracle_annihilator_generators(t)
            for a in r.elements():
                assert so.right_annihilator(r, [a]).principal_projection == right[a]
                assert so.left_annihilator(r, [a]).principal_projection == left[a]


class TestCentralCovers:
    def test_z6_table(self, z6):
        assert so.cover_table(z6).cover == (0, 1, 4, 3, 4, 1)

    def test_m2z2_table(self, m2z2):
        cov = so.cover_table(m2z2).cover
        assert cov[0] == 0
        assert all(c == I2 for c in cov[1:])

    def test_fixed_points_on_central_projections(self, z6, z4, m2z2):
        for r in (z6, z4, m2z2):
            for e in so.central_projections(r):
                assert so.central_cover(r, e) == e

    def test_cover_fixes_element(self, curated_pq):
        for r in curated_pq:
            cov = so.cover_table(r).cover
            for x in r.elements():
                assert cov[x] is not None
                assert r.mul(cov[x], x) == x == r.mul(x, cov[x])

    def test_against_oracle(self, z6, z4, m2z2, swap_ring, z2xz3, t2z2):
        for r in (z6, z4, m2z2, swap_ring, z2xz3, t2z2):
            assert_covers_match_oracle(r)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_tables_match_oracle(self, seed):
        candidate = _random_table_candidate(random.Random(seed), 8)
        try:
            ring = so.build_from_tables(candidate)
        except so.TableValidationError:
            assume(False)
        assert_covers_match_oracle(ring)

    def test_crt_covers_match(self, z6, z2xz3):
        phi = [3 * (k % 2) + (k % 3) for k in range(6)]
        cov6 = so.cover_table(z6).cover
        cov23 = so.cover_table(z2xz3).cover
        for k in range(6):
            assert phi[cov6[k]] == cov23[phi[k]]

    def test_covers_are_central_projections(self, z6, z4, m2z2, swap_ring, z2xz3):
        for r in (z6, z4, m2z2, swap_ring, z2xz3):
            cps = so.central_projections(r)
            for x in r.elements():
                assert so.central_cover(r, x) in cps

    def test_pq_implies_complete_cover_table(self, curated_pq):
        for r in curated_pq:
            assert so.classify(r).is_pq_baer_star

    def test_remark_identities(self, z6, m2z2, z4):
        for r in (z6, m2z2, z4):
            for e in so.central_projections(r):
                for x in r.elements():
                    cx = so.central_cover(r, x)
                    assert so.central_cover(r, r.mul(e, x)) == r.mul(e, cx)
            for x in r.elements():
                assert so.central_cover(r, r.star(x)) == so.central_cover(r, x)


class TestCoverLemma:
    def test_z6_positive(self, z6):
        assert so.verify_cover_lemma(z6, 2, 4) is True
        assert so.central_cover(z6, 2) == 4

    def test_z6_negative(self, z6):
        # y = 3 has 2R3 = 0 but 1·3 != 0.
        assert so.verify_cover_lemma(z6, 2, 1) is False

    def test_trivial(self, z6):
        assert so.verify_cover_lemma(z6, 0, 0) is True

    def test_non_central_projection_rejected(self, z6):
        with pytest.raises(so.PreconditionError):
            so.verify_cover_lemma(z6, 2, 2)


class TestAnnihilatorIdentity:
    def test_holds_on_small_carriers(self, z6, m2z2):
        assert so.verify_annihilator_identity(z6).passed
        assert so.verify_annihilator_identity(m2z2).passed

    def test_rejects_non_pq(self, z4):
        with pytest.raises(so.PreconditionError):
            so.verify_annihilator_identity(z4)

    def test_zero_element_annihilates_everything(self, z6):
        # e = C(0) = 0, so all five sets are the whole ring.
        assert so.right_ann_principal(z6, 0).elements == set(range(6))
