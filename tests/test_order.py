import dataclasses
import random

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import starorder as so
from corpus import fresh
from starorder import analysis, order, rings
from starorder.fuzz import _random_table_candidate
from helpers import (
    oracle_cover,
    oracle_covering_edges,
    oracle_glb,
    oracle_leq,
    oracle_leq_pairs,
    oracle_lub,
    ring_tables,
)

Z6_LEQ = {(0, b) for b in range(6)} | {
    (1, 1),
    (2, 2),
    (2, 5),
    (3, 1),
    (3, 3),
    (3, 5),
    (4, 1),
    (4, 4),
    (5, 5),
}


class TestRelationVariants:
    def test_z6_examples(self, z6):
        assert so.leq_bruteforce(z6, 2, 5)
        assert not so.leq_bruteforce(z6, 4, 5)
        for b in z6.elements():
            assert so.leq_bruteforce(z6, 0, b)

    def test_z6_full_relation_matches_oracle(self, z6):
        t = ring_tables(z6)
        assert oracle_leq_pairs(t) == Z6_LEQ
        got = {
            (a, b)
            for a in z6.elements()
            for b in z6.elements()
            if so.leq_bruteforce(z6, a, b)
        }
        assert got == Z6_LEQ

    def test_star_variant_agrees_on_identity_involution(self, z6):
        for a in z6.elements():
            for b in z6.elements():
                assert so.leq_star_bruteforce(z6, a, b) == so.leq_bruteforce(z6, a, b)

    def test_three_way_agreement_m2z2(self, m2z2):
        for a in m2z2.elements():
            for b in m2z2.elements():
                brute = so.leq_bruteforce(m2z2, a, b)
                assert so.leq_star_bruteforce(m2z2, a, b) == brute
                assert so.leq_cover(m2z2, a, b) == brute

    def test_leq_cover_examples(self, z6):
        assert so.leq_cover(z6, 2, 5)  # C(2) = 4, 4·5 = 2
        assert so.leq_cover(z6, 3, 5)  # C(3) = 3, 3·5 = 3
        for a in z6.elements():
            assert so.leq_cover(z6, a, a)

    def test_divergence_on_non_pq(self, z4):
        # 2 <= 0 by brute force, but the cover route disagrees: C(2)·0 = 0.
        assert so.leq_bruteforce(z4, 2, 0)
        assert not so.leq_cover(z4, 2, 0)


class TestBuildOrder:
    def test_z6_diagnostics_pass(self, z6):
        structure = so.build_order(z6)
        assert structure.diagnostics.all_pass
        assert not structure.cub[1, 2]
        assert structure.cub[2, 3]

    def test_z4_antisymmetry_witness(self, z4):
        structure = so.build_order(z4)
        assert structure.diagnostics.reflexive.holds
        assert not structure.diagnostics.antisymmetric.holds
        assert structure.diagnostics.antisymmetric.witness == (0, 2)

    def test_m2z2_order_is_flat(self, m2z2):
        structure = so.build_order(m2z2)
        assert structure.diagnostics.all_pass
        n = m2z2.order
        expected = np.zeros((n, n), dtype=bool)
        expected[0, :] = True
        expected[np.arange(n), np.arange(n)] = True
        assert np.array_equal(structure.leq, expected)

    def test_bottom_and_reflexivity_invariants(self, curated_pq, z4):
        for r in curated_pq[:6] + [z4]:
            leq = so.build_order(r).leq
            assert leq[0].all()
            assert leq[np.arange(r.order), np.arange(r.order)].all()

    def test_json_shape(self, z6):
        d = so.build_order(z6).to_json_dict()
        assert list(d) == ["label", "order", "leq", "diagnostics", "cub", "covers"]
        assert d["diagnostics"]["antisymmetric"]["holds"] is True


def assert_tables_match_exhaustive(r):
    """leq_matrix, star_leq_matrix and zero_product_matrix let r range over
    the additive generating set G; the single-pair forms scan every r. The
    tables are built at the default block size and in blocks of one row and
    of a few rows."""
    want = [
        [[f(r, a, b) for b in r.elements()] for a in r.elements()]
        for f in (so.leq_bruteforce, so.leq_star_bruteforce, so.orthogonal)
    ]
    for block in (rings._BLOCK, 1, 50):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rings, "_BLOCK", block)
            s = fresh(r)
            got = (order.leq_matrix(s), order.star_leq_matrix(s), analysis.zero_product_matrix(s))
        assert [g.tolist() for g in got] == want, (r.label, block)


class TestGeneratorRestriction:
    def test_generators_span_the_additive_group(self, m2z2, t2z2, z2xz3, z15):
        for r in (m2z2, t2z2, z2xz3, z15, so.build_modular(1)):
            G = r.generators
            assert G.dtype == np.intp and not G.flags.writeable
            assert 2 ** G.size <= r.order
            reached = {0}
            while True:
                more = {r.add(x, int(g)) for x in reached for g in G} - reached
                if not more:
                    break
                reached |= more
            assert reached == set(r.elements()), r.label

    def test_tables_match_exhaustive(self, m2z2, t2z2, swap_ring, z4, z2xz3):
        # Noncommutative carriers, rings that are not p.q.-Baer *, and the
        # zero ring, whose G is empty.
        for r in (m2z2, t2z2, swap_ring, z4, z2xz3, so.build_modular(1)):
            assert_tables_match_exhaustive(r)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_tables_match_exhaustive(self, seed):
        candidate = _random_table_candidate(random.Random(seed), 8)
        try:
            ring = so.build_from_tables(candidate)
        except so.TableValidationError:
            assume(False)
        assert_tables_match_exhaustive(ring)


class TestCub:
    def test_z6_examples(self, z6):
        assert so.has_cub(z6, 2, 3)
        assert not so.has_cub(z6, 1, 2)
        for a in z6.elements():
            assert so.has_cub(z6, a, a)

    def test_formula_matches_scan(self, z6, m2z2, z2xz2):
        for r in (z6, m2z2, z2xz2):
            structure = so.build_order(r)
            for a in r.elements():
                for b in r.elements():
                    assert so.has_cub(r, a, b, structure) == bool(structure.cub[a, b])

    def test_cub_symmetry(self, curated_pq):
        for r in curated_pq[:8]:
            cub = so.build_order(r).cub
            assert np.array_equal(cub, cub.T)

    def test_formula_scan_mismatch_detected_off_hypothesis(self, swap_ring):
        # On this non-pq carrier the cover formula denies a common upper
        # bound that the scan finds; the cross-check must flag it.
        structure = so.build_order(swap_ring)
        assert structure.cub[1, 2]
        assert not so.has_cub(swap_ring, 1, 2)
        with pytest.raises(so.VerificationError):
            so.has_cub(swap_ring, 1, 2, structure)

    def test_pseudo_lattice_survives_formula_failure(self, swap_ring):
        # The order here is the full Boolean square, so meets/joins exist
        # even though the cover formulas misfire: the scan fallback wins.
        assert so.is_pseudo_lattice(swap_ring).passed
        assert not so.is_lattice(swap_ring).passed


class TestMeetJoin:
    def test_z6_pair(self, z6):
        assert so.meet(z6, 2, 3) == 0
        assert so.join(z6, 2, 3) == 5

    def test_idempotent_and_bottom(self, z6):
        for a in z6.elements():
            assert so.meet(z6, a, a) == a
            assert so.join(z6, a, a) == a
        assert so.join(z6, 2, 0) == 2

    def test_no_cub_marker(self, z6):
        assert so.meet(z6, 1, 2) is None
        assert so.join(z6, 1, 2) is None
        # A glb can exist without a common upper bound; meet still reports
        # the no-CUB marker there.
        t = ring_tables(z6)
        assert oracle_glb(oracle_leq_pairs(t), range(6), 1, 2) == 0

    def test_against_order_theoretic_oracle(self, z6, z2xz2, m2z2, swap_ring):
        # None exactly where the cover formula a·C(b) = b·C(a) denies a
        # common upper bound (on swap_ring the scan finds one at (1, 2));
        # VerificationError exactly where a formula value is not the
        # order-theoretic glb/lub.
        for r in (z6, z2xz2, m2z2, swap_ring):
            t = ring_tables(r)
            add, mul = t[0], t[1]
            pairs = oracle_leq_pairs(t)
            elems = list(r.elements())
            cover = [oracle_cover(t, x) for x in elems]
            neg = [next(y for y in elems if add[x][y] == 0) for x in elems]
            for a in elems:
                for b in elems:
                    m = mul[a][cover[b]]
                    if m != mul[b][cover[a]]:
                        assert so.meet(r, a, b) is None and so.join(r, a, b) is None
                        continue
                    if m != oracle_glb(pairs, elems, a, b):
                        for op in (so.meet, so.join):
                            with pytest.raises(so.VerificationError):
                                op(r, a, b)
                        continue
                    assert so.meet(r, a, b) == m
                    j = add[add[a][b]][neg[m]]
                    if j != oracle_lub(pairs, elems, a, b):
                        with pytest.raises(so.VerificationError):
                            so.join(r, a, b)
                    else:
                        assert so.join(r, a, b) == j
        assert so.meet(swap_ring, 1, 2) is None and so.build_order(swap_ring).cub[1, 2]

    @pytest.mark.parametrize(
        "field, value", [("meet_ok", False), ("meet", 2), ("join_ok", False), ("join", 2)]
    )
    def test_table_disagreement_raises(self, z6, monkeypatch, field, value):
        # meet(2, 3) = 0 and join(2, 3) = 5 in Z6; a false ok bit or a table
        # value other than the formula value is a failed cross-check.
        pt = so.order.pair_tables(z6)
        table = getattr(pt, field).copy()
        table[2, 3] = value
        broken = dataclasses.replace(pt, **{field: table})
        monkeypatch.setattr(so.order, "pair_tables", lambda ring: broken)
        op = so.meet if field.startswith("meet") else so.join
        with pytest.raises(so.VerificationError):
            op(z6, 2, 3)


class TestLattice:
    def test_z6(self, z6):
        res = so.is_lattice(z6)
        assert not res.passed and res.witness == (1, 2)
        assert so.is_pseudo_lattice(z6).passed

    def test_z2_is_lattice(self):
        assert so.is_lattice(so.build_modular(2)).passed

    def test_m2z2(self, m2z2):
        res = so.is_lattice(m2z2)
        assert not res.passed and res.witness == (1, 2)
        assert so.is_pseudo_lattice(m2z2).passed


class TestSubtractivity:
    def test_biconditional_on_z15(self, z15):
        forward, bicond = so.subtractivity_check(z15)
        assert forward.passed and bicond is not None and bicond.passed

    def test_biconditional_on_z21(self):
        forward, bicond = so.subtractivity_check(so.build_modular(21))
        assert forward.passed and bicond.passed

    def test_forward_only_on_z6(self, z6, z2xz3):
        for r in (z6, z2xz3):
            forward, bicond = so.subtractivity_check(r)
            assert forward.passed
            assert bicond is None

    def test_non_pq_rejected(self, z4):
        with pytest.raises(so.PreconditionError):
            so.subtractivity_check(z4)

    def test_equal_elements_trivial(self, z6):
        cov = so.cover_table(z6).cover
        for a in z6.elements():
            assert so.central_cover(z6, z6.sub(a, a)) == 0 == z6.sub(cov[a], cov[a])


class TestIdealsAndProblem2:
    def test_principal_ideal_z6(self, z6):
        assert so.principal_right_ideal(z6, 2) == {0, 2, 4}
        assert so.principal_right_ideal(z6, 0) == {0}
        assert so.ideal_intersection(
            so.principal_right_ideal(z6, 2), so.principal_right_ideal(z6, 3)
        ) == {0}

    def test_spec_triple(self, z6):
        assert so.leq_bruteforce(z6, 2, 5) and so.leq_bruteforce(z6, 3, 5)
        assert so.leq_bruteforce(z6, z6.add(2, 3), 5)

    def test_passes_on_small_carriers(self, z6, z2xz2, m2z2):
        for r in (z6, z2xz2, m2z2):
            assert so.problem2_check(r).passed
            assert so.problem2_check(r, include_left=True).passed

    def test_non_pq_rejected(self, z4):
        with pytest.raises(so.PreconditionError):
            so.problem2_check(z4)


class TestHasse:
    def test_z6_edges_match_oracle(self, z6):
        t = ring_tables(z6)
        assert oracle_covering_edges(t) == [
            (0, 2),
            (0, 3),
            (0, 4),
            (2, 5),
            (3, 1),
            (3, 5),
            (4, 1),
        ]
        dot = so.hasse_dot(z6)
        for a, b in oracle_covering_edges(t):
            assert f"  {a} -> {b};" in dot
        assert "4 -> 5" not in dot

    def test_single_node_for_zero_ring(self):
        dot = so.hasse_dot(so.build_modular(1))
        assert "->" not in dot
        assert '0 [label="0"];' in dot

    def test_refuses_non_order(self, z4):
        with pytest.raises(so.PreconditionError):
            so.hasse_dot(z4)

    def test_golden_bytes(self, z6, tmp_path):
        from pathlib import Path

        golden = Path(__file__).parent / "golden" / "z6.dot"
        assert so.hasse_dot(z6) == golden.read_text()

    def test_structured_labels(self, z2xz3):
        dot = so.hasse_dot(z2xz3)
        assert '0 [label="(0,0)"];' in dot


@given(st.integers(min_value=1, max_value=20), st.data())
def test_leq_matches_oracle_on_random_pairs(n, data):
    r = so.build_modular(n)
    t = ring_tables(r)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert so.leq_bruteforce(r, a, b) == oracle_leq(t, a, b)


@given(st.integers(min_value=2, max_value=24))
def test_diagnostics_match_semiprimeness(n):
    r = so.build_modular(n)
    assert so.build_order(r).diagnostics.all_pass == so.classify(r).is_semiprime
