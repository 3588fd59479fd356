import random
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import starorder as so
from starorder import analysis, theorems
from starorder.fuzz import _random_table_candidate
from corpus import relabelled
from helpers import (
    is_squarefree,
    mat2_index,
    oracle_annihilator_generators,
    oracle_classification,
    oracle_central_projections,
    oracle_cover,
    oracle_idempotents,
    oracle_orthogonal,
    oracle_projections,
    oracle_right_annihilator,
    ring_tables,
)

E11 = mat2_index(2, 1, 0, 0, 0)
E12 = mat2_index(2, 0, 1, 0, 0)
E21 = mat2_index(2, 0, 0, 1, 0)
E22 = mat2_index(2, 0, 0, 0, 1)
I2 = mat2_index(2, 1, 0, 0, 1)


def ids(mask):
    """The set of element ids marked in a boolean mask."""
    return set(np.flatnonzero(mask).tolist())


def annihilator(r, a):
    """r(aR), the row of the zero-product matrix, with the projection that
    generates it from the projection lookup, or None."""
    row = analysis.zero_product_matrix(r)[a]
    return ids(row), analysis._proj_ideal_masks(r).get(row.tobytes())


def assert_covers_match_oracle(r):
    """Every element has a central cover, and the table holds it."""
    t = ring_tables(r)
    want = tuple(oracle_cover(t, x) for x in r.elements())
    assert None not in want
    assert so.cover_table(r).cover == want


class TestProjections:
    def test_z6_idempotents(self, z6):
        assert ids(analysis.idempotent_mask(z6)) == {0, 1, 3, 4}
        assert ids(analysis.projection_mask(z6)) == {0, 1, 3, 4}

    def test_z2_field(self):
        assert ids(analysis.idempotent_mask(so.build_modular(2))) == {0, 1}

    def test_z2xz2_all_idempotent(self, z2xz2):
        assert ids(analysis.idempotent_mask(z2xz2)) == {0, 1, 2, 3}

    def test_m2z2_projections(self, m2z2):
        projs = ids(analysis.projection_mask(m2z2))
        assert E11 in projs and E22 in projs
        assert E12 not in projs

    def test_zero_ring(self):
        assert ids(analysis.projection_mask(so.build_modular(1))) == {0}

    def test_against_oracle(self, z6, z4, m2z2, swap_ring):
        for r in (z6, z4, m2z2, swap_ring):
            t = ring_tables(r)
            assert np.flatnonzero(analysis.idempotent_mask(r)).tolist() == oracle_idempotents(t)
            assert np.flatnonzero(analysis.projection_mask(r)).tolist() == oracle_projections(t)
            cps = analysis.central_projection_ids(r).tolist()
            assert cps == oracle_central_projections(t)

    def test_swap_involution_removes_projections(self, swap_ring):
        # (a,b)* = (b,a) keeps only the symmetric idempotents self-adjoint.
        assert ids(analysis.projection_mask(swap_ring)) == {0, 3}


class TestCenter:
    def test_matrix_center_is_scalars(self, m2z2):
        assert analysis.central_projection_ids(m2z2).tolist() == [0, I2]

    def test_commutative_center_is_everything(self, z6):
        assert ids(analysis.center_mask(z6)) == set(range(6))
        assert analysis.central_projection_ids(z6).tolist() == [0, 1, 3, 4]

    def test_decided_on_g_as_by_the_full_compare(self, curated_pq, m2z2, t2z2):
        # Both commutation tests read only the columns and rows of G; hold
        # them to the n^2 compare of the multiplication table with its
        # transpose. T2(Z2) relabelled a + 2d + 4b has G = e11, e22, e12, and
        # only the last shows diag(1, 0) is not central; M2(Z2) x Z2's G
        # starts with the central (0, 1).
        t2 = relabelled(t2z2, [a + 2 * d + 4 * b for a, b, d in product(range(2), repeat=3)])
        assert t2.generators.tolist() == [1, 2, 4]
        config = so.FuzzConfig(64, ("modular", "matrix", "product"), 0, 1)
        specs = [*so.structural_specs(config), so.MatrixSpec(so.ModularSpec(7), 2)]
        extra = [t2, so.build_product([m2z2, so.build_modular(2)])]
        for r in [*curated_pq, *extra, *map(so.realize, specs)]:
            full = r.multiplication == r.multiplication.T
            assert np.array_equal(analysis.center_mask(r), full.all(axis=1)), r.label
            assert r.is_commutative() == full.all(), r.label


class TestAnnihilators:
    # Row a of the zero-product matrix is r(aR), and the projection lookup
    # names the projection e with r(aR) = eR.
    def test_z6_single_element(self, z6):
        assert annihilator(z6, 2) == ({0, 3}, 3)

    def test_annihilator_of_zero_and_one(self, z6, m2z2):
        for r in (z6, m2z2):
            assert annihilator(r, 0) == (set(r.elements()), r.one)
            assert annihilator(r, r.one) == ({0}, 0)

    def test_z6_principal(self, z6):
        assert annihilator(z6, 4) == ({0, 3}, 3)

    def test_m2z2_principal_of_nonzero_is_trivial(self, m2z2):
        for a in (E11, E12, 5, I2):
            assert annihilator(m2z2, a) == ({0}, 0)
        assert annihilator(m2z2, 0) == (set(range(16)), I2)

    def test_against_oracle(self, z6, m2z2):
        for r in (z6, m2z2):
            t = ring_tables(r)
            for a in list(r.elements())[:8]:
                expected = oracle_right_annihilator(t, sorted(set(t[1][a])))
                assert sorted(annihilator(r, a)[0]) == expected

    def test_right_ideal_closure(self, z6, m2z2, swap_ring):
        for r in (z6, m2z2, swap_ring):
            for a in r.elements():
                ann = annihilator(r, a)[0]
                for x in ann:
                    for y in ann:
                        assert r.add(x, y) in ann
                    for s in r.elements():
                        assert r.mul(x, s) in ann

    def test_left_annihilator(self, z6, m2z2, t2z2):
        # Column b of the zero-product matrix is l(Rb); t2z2 tells it from
        # the row r(bR).
        assert ids(analysis.zero_product_matrix(z6)[:, 2]) == {0, 3}
        for r in (m2z2, t2z2):
            t = ring_tables(r)
            Z = analysis.zero_product_matrix(r)
            for b in r.elements():
                assert ids(Z[:, b]) == {x for x in r.elements() if oracle_orthogonal(t, x, b)}

    def test_left_ideal_closure(self, m2z2, t2z2):
        # Column b of the zero-product matrix is l(Rb), a left ideal.
        for r in (m2z2, t2z2):
            Z = analysis.zero_product_matrix(r)
            for b in r.elements():
                ann = ids(Z[:, b])
                for x in ann:
                    for y in ann:
                        assert r.add(x, y) in ann
                    for s in r.elements():
                        assert r.mul(s, x) in ann

    def test_principal_matches_annihilator_of_materialized_ideal(self, z6, m2z2):
        for r in (z6, m2z2):
            ideals = analysis._ideal_masks(r, np.arange(r.order))
            for a in r.elements():
                assert ids(ideals[a]) == set(r.multiplication[a].tolist())
                kills = (r.multiplication[ideals[a]] == 0).all(axis=0)
                assert annihilator(r, a)[0] == ids(kills)


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
        # every one-element right annihilator; curated_pq holds M2(Z2), and
        # t2z2 tells r(aR) from l(Ra).
        for r in curated_pq + non_semiprime + [swap_ring, t2z2]:
            t = ring_tables(r)
            witnesses, generators = oracle_classification(t)
            report = so.classify(r)
            keys = ("semiprime", "rickart_star", "pq_baer_star")
            got = {k: v for k, v in report.witnesses.items() if k in keys}
            assert (got, report.pq_baer_witnesses) == (witnesses, generators), r.label
            right, _ = oracle_annihilator_generators(t)
            lookup = analysis._proj_ideal_masks(r)
            for a in r.elements():
                assert lookup.get((r.multiplication[a] == 0).tobytes()) == right[a]


class TestCentralCovers:
    def test_z6_table(self, z6):
        assert so.cover_table(z6).cover == (0, 1, 4, 3, 4, 1)

    def test_m2z2_table(self, m2z2):
        cov = so.cover_table(m2z2).cover
        assert cov[0] == 0
        assert all(c == I2 for c in cov[1:])

    def test_fixed_points_on_central_projections(self, z6, z4, m2z2):
        for r in (z6, z4, m2z2):
            for e in analysis.central_projection_ids(r):
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
        candidate = _random_table_candidate(random.Random(seed), 8, {})
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
            cps = analysis.central_projection_ids(r)
            for x in r.elements():
                assert so.central_cover(r, x) in cps

    def test_pq_implies_complete_cover_table(self, curated_pq):
        for r in curated_pq:
            assert so.classify(r).is_pq_baer_star

    def test_remark_identities(self, z6, m2z2, z4):
        for r in (z6, m2z2, z4):
            for e in analysis.central_projection_ids(r):
                for x in r.elements():
                    cx = so.central_cover(r, x)
                    assert so.central_cover(r, r.mul(e, x)) == r.mul(e, cx)
            for x in r.elements():
                assert so.central_cover(r, r.star(x)) == so.central_cover(r, x)


def cover_lemma_holds(r, x, e):
    """x·e = x, and every y with xRy = 0 has e·y = 0."""
    Z = analysis.zero_product_matrix(r)
    return r.mul(x, e) == x and not (Z[x] & (r.multiplication[e] != 0)).any()


class TestCoverLemma:
    def test_z6_positive(self, z6):
        assert cover_lemma_holds(z6, 2, 4)
        assert so.central_cover(z6, 2) == 4

    def test_z6_negative(self, z6):
        # y = 3 has 2R3 = 0 but 1·3 != 0.
        assert not cover_lemma_holds(z6, 2, 1)

    def test_trivial(self, z6):
        assert cover_lemma_holds(z6, 0, 0)

    def test_non_central_projection_rejected(self, m2z2):
        # The lemma singles out the cover only among central projections:
        # in M2(Z2) the non-central projection E11 meets both conditions for
        # x = E11, yet C(E11) = 1. cover-uniqueness never ranges over it.
        assert cover_lemma_holds(m2z2, E11, E11)
        assert E11 not in analysis.central_projection_ids(m2z2)
        assert so.central_cover(m2z2, E11) == I2

    def test_lemma_singles_out_the_cover(self, z6, z4, m2z2, swap_ring, t2z2):
        # Exhaustively: a central projection satisfying the lemma is the
        # oracle's cover, and the cover-uniqueness theorem passes.
        for r in (z6, z4, m2z2, swap_ring, t2z2):
            t = ring_tables(r)
            for x in r.elements():
                for e in oracle_central_projections(t):
                    if cover_lemma_holds(r, x, e):
                        assert e == oracle_cover(t, x), (r.label, x, e)
            assert so.run_theorem(r, "cover-uniqueness").status == "pass"


class TestAnnihilatorIdentity:
    def test_holds_on_small_carriers(self, z6, m2z2):
        assert so.run_theorem(z6, "annihilator-identity").status == "pass"
        assert so.run_theorem(m2z2, "annihilator-identity").status == "pass"

    def test_rejects_non_pq(self, z4, run_refused):
        v = run_refused(z4, "annihilator-identity")
        assert (v.status, v.skip_reason) == ("skipped", theorems.SKIP_NOT_PQ)

    def test_zero_element_annihilates_everything(self, z6):
        # e = C(0) = 0, so all five sets are the whole ring.
        assert annihilator(z6, 0)[0] == set(range(6))
