import json
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import starorder as so
from corpus import fresh, random_partial_order
from starorder import analysis, order, rings, theorems
from starorder.fuzz import RANDOM_TABLE_MAX_ORDER, _random_table_candidate
from helpers import (
    leq_bruteforce,
    oracle_covering_edges,
    oracle_glb,
    oracle_leq,
    oracle_leq_pairs,
    oracle_lub,
    oracle_order_diagnostics,
    oracle_pair_tables,
    oracle_star_leq,
    orthogonal,
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
        assert leq_bruteforce(z6, 2, 5)
        assert not leq_bruteforce(z6, 4, 5)
        for b in z6.elements():
            assert leq_bruteforce(z6, 0, b)

    def test_z6_full_relation_matches_oracle(self, z6):
        t = ring_tables(z6)
        assert oracle_leq_pairs(t) == Z6_LEQ
        got = {
            (a, b)
            for a in z6.elements()
            for b in z6.elements()
            if leq_bruteforce(z6, a, b)
        }
        assert got == Z6_LEQ

    def test_star_variant_agrees_on_identity_involution(self, z6):
        t = ring_tables(z6)
        for a in z6.elements():
            for b in z6.elements():
                assert oracle_star_leq(t, a, b) == leq_bruteforce(z6, a, b)

    def test_three_way_agreement_m2z2(self, m2z2):
        cover_leq = order.cover_leq_matrix(m2z2)
        t = ring_tables(m2z2)
        for a in m2z2.elements():
            for b in m2z2.elements():
                brute = leq_bruteforce(m2z2, a, b)
                assert oracle_star_leq(t, a, b) == brute
                assert cover_leq[a, b] == brute

    def test_leq_cover_examples(self, z6):
        cover_leq = order.cover_leq_matrix(z6)
        assert cover_leq[2, 5]  # C(2) = 4, 4·5 = 2
        assert cover_leq[3, 5]  # C(3) = 3, 3·5 = 3
        assert cover_leq.diagonal().all()

    def test_divergence_on_non_pq(self, z4):
        # 2 <= 0 by brute force, but the cover route disagrees: C(2)·0 = 0.
        assert leq_bruteforce(z4, 2, 0)
        assert not order.cover_leq_matrix(z4)[2, 0]


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

    def test_verdict_matches_oracle_on_perturbed_relations(self, curated_pq):
        # The verdict is stored once per instance; it must still name the
        # first failing axiom in field order, and the JSON keeps to the fields.
        # Every axiom's witness matches the oracle, so the transitivity
        # witness, read from the up-set counts, is also checked on relations
        # that are not reflexive or not antisymmetric. A relation left
        # unflipped keeps the cover certificate, which proves transitivity;
        # a flip that breaks L0 or F1 must take the counts.
        rng = random.Random(3)
        names = ("reflexive", "antisymmetric", "transitive")
        seen = set()
        for r in [s for s in curated_pq if 4 <= s.order <= 18] * 3:
            leq = np.array(order.leq_matrix(r))
            for _ in range(rng.randint(0, 3)):
                leq[rng.randrange(r.order), rng.randrange(r.order)] ^= True
            s = fresh(r)
            s._memo["leq_matrix"] = leq
            diag = order.build_order(s).diagnostics
            want = oracle_order_diagnostics(r.order, lambda a, b: bool(leq[a, b]))
            first = next(((k, w) for k, w in zip(names, want) if w is not None), None)
            for _ in range(2):
                assert diag.first_failure() == first
                assert diag.all_pass == (first is None)
            assert tuple(getattr(diag, k).witness for k in names) == want
            assert list(diag.to_json_dict()) == list(names)
            seen.add(first and first[0])
            if want[2] and first[0] != "transitive":
                seen.add("transitive-after-" + first[0])
        after = {"transitive-after-reflexive", "transitive-after-antisymmetric"}
        assert seen == {None, *names, *after}

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
    """zero_product_matrix lets r range over the additive generating set G,
    and leq_matrix and the starred relation, which order-equivalence reads
    as Z[a*, b - a], are read from it; the single-pair forms scan every r.
    Only Z is built in blocks: at the default block size, and in blocks of
    one row and of a few rows."""
    t = ring_tables(r)
    star_leq = lambda _, a, b: oracle_star_leq(t, a, b)
    want = [
        [[f(r, a, b) for b in r.elements()] for a in r.elements()]
        for f in (leq_bruteforce, star_leq, orthogonal)
    ]
    for block in (rings._BLOCK, 1, 50):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rings, "_BLOCK", block)
            s = fresh(r)
            Z = analysis.zero_product_matrix(s)
            star = Z[s.involution[:, None], s.sub_table().T]
            got = (order.leq_matrix(s), star, Z)
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

    def test_conrad_relations_read_the_memoised_zero_product_table(
        self, curated_pq, m2z2, t2z2, swap_ring, z4
    ):
        # a·r·b = a·r·a for every r iff a·r·(b − a) = 0 for every r, by
        # distributivity, so the relation, the star term of
        # order-equivalence and the order diagnostics follow whatever Z the
        # memo holds, here one with random entries flipped. The star term
        # fails at the first pair where a <= b differs from Z[a*, b − a].
        rng = random.Random(14)
        names = ("reflexive", "antisymmetric", "transitive")
        star_fails = 0
        for r in [t2z2, m2z2, swap_ring, z4] + curated_pq:
            n = r.order
            add, _, star, _ = ring_tables(r)
            b_minus_a = {(a, add[a][x]): x for a in range(n) for x in range(n)}
            Z = np.array(analysis.zero_product_matrix(r))
            for _ in range(rng.randint(1, n)):
                Z[rng.randrange(n), rng.randrange(n)] ^= True
            s = fresh(r)
            s._memo["zero_product_matrix"] = Z
            leq = order.leq_matrix(s).tolist()
            star_differs = None
            for a in range(n):
                for b in range(n):
                    c = b_minus_a[a, b]
                    assert leq[a][b] == Z[a, c], (r.label, a, b)
                    if star_differs is None and leq[a][b] != Z[star[a], c]:
                        star_differs = a, b
            got = theorems._check_order_equivalence(s)
            if star_differs:
                assert (got.witness, got.note) == (star_differs, "bruteforce-vs-star"), r.label
                star_fails += 1
            else:
                assert got.note != "bruteforce-vs-star", r.label
            diag = order.build_order(s).diagnostics
            want = oracle_order_diagnostics(n, lambda a, b: leq[a][b])
            assert tuple(getattr(diag, k).witness for k in names) == want, r.label
        assert star_fails  # the noncommutative and swap rings reach the star term

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_tables_match_exhaustive(self, seed):
        candidate = _random_table_candidate(random.Random(seed), 8, {})
        try:
            ring = so.build_from_tables(candidate)
        except so.TableValidationError:
            assume(False)
        assert_tables_match_exhaustive(ring)


def cub_formula(r, a, b):
    """The cover formula for a common upper bound: a·C(b) = b·C(a)."""
    cov = so.cover_table(r).cover
    return r.mul(a, cov[b]) == r.mul(b, cov[a])


class TestCub:
    def test_z6_examples(self, z6):
        cub = so.build_order(z6).cub
        assert cub[2, 3]
        assert not cub[1, 2]
        assert cub.diagonal().all()

    def test_formula_matches_scan(self, z6, m2z2, z2xz2):
        for r in (z6, m2z2, z2xz2):
            structure = so.build_order(r)
            for a in r.elements():
                for b in r.elements():
                    assert cub_formula(r, a, b) == bool(structure.cub[a, b])
            assert so.run_theorem(r, "cub-characterization").status == "pass"

    def test_cub_symmetry(self, curated_pq):
        for r in curated_pq[:8]:
            cub = so.build_order(r).cub
            assert np.array_equal(cub, cub.T)

    def test_formula_scan_mismatch_detected_off_hypothesis(self, swap_ring):
        # On this non-pq carrier the cover formula denies a common upper
        # bound that the scan finds.
        structure = so.build_order(swap_ring)
        assert structure.cub[1, 2]
        assert not cub_formula(swap_ring, 1, 2)

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

    def test_against_order_theoretic_oracle(self, z6, z2xz2, m2z2, swap_ring, t2z2):
        # The oracle's glb and lub wherever a common upper bound exists, and
        # None elsewhere. On the swap ring the cover formulas misfire, and
        # (1, 2) has glb 0 and lub 3. A relation that is not a partial
        # order (T2(Z2)) is refused.
        for r in (z6, z2xz2, m2z2, swap_ring, t2z2):
            t = ring_tables(r)
            pairs = oracle_leq_pairs(t)
            elems = list(r.elements())
            diag = oracle_order_diagnostics(r.order, lambda a, b: (a, b) in pairs)
            for a in elems:
                for b in elems:
                    if diag != (None, None, None):
                        for op in (so.meet, so.join):
                            with pytest.raises(so.PreconditionError, match="not a partial order"):
                                op(r, a, b)
                        continue
                    if any((a, c) in pairs and (b, c) in pairs for c in elems):
                        want = (oracle_glb(pairs, elems, a, b), oracle_lub(pairs, elems, a, b))
                    else:
                        want = (None, None)
                    assert (so.meet(r, a, b), so.join(r, a, b)) == want, (r.label, a, b)
        assert (so.meet(swap_ring, 1, 2), so.join(swap_ring, 1, 2)) == (0, 3)


def _broken_orders(ring, rng):
    """Copies of the true order of ``ring``, each with the diagnostic it
    breaks or None: not antisymmetric (a strict pair a < b also gets
    b <= a), not transitive (a <= c dropped from a chain a < b < c), and a
    pair (a, b) given an extra common lower bound not below a∧b and an
    extra common upper bound not above a∨b, so that a formula value bounds
    the pair but is not the greatest or least bound. The last is closed
    under transitivity and kept only if it stays antisymmetric, so it is a
    partial order."""
    leq = np.array(order.leq_matrix(ring))
    strict = leq & ~np.eye(ring.order, dtype=bool)
    a, b = map(int, rng.choice(np.argwhere(strict)))
    sym = leq.copy()
    sym[b, a] = True
    out = [(sym, "antisymmetric")]
    chains = [(x, y, z) for x, y in np.argwhere(strict) for z in np.flatnonzero(strict[y])]
    if chains:
        x, _, z = chains[rng.integers(len(chains))]
        gap = leq.copy()
        gap[x, z] = False
        out.append((gap, "transitive"))
    pt = order.pair_tables(ring)
    a, b = map(int, rng.choice(np.argwhere(np.minimum(pt.meet, pt.join) >= 0)))
    below = np.flatnonzero(~leq[:, pt.meet[a, b]] & ~leq[a] & ~leq[b])
    above = np.flatnonzero(~leq[pt.join[a, b]] & ~leq[:, a] & ~leq[:, b])
    if below.size and above.size:
        extra = leq.copy()
        extra[rng.choice(below), [a, b]] = True
        extra[[a, b], rng.choice(above)] = True
        while (step := (order._counts(extra, extra) > 0) & ~extra).any():
            extra |= step
        if not (extra & extra.T & ~np.eye(ring.order, dtype=bool)).any():
            out.append((extra, None))
    return out


class TestPairTables:
    @pytest.mark.parametrize("block", (rings._BLOCK, 1, 50))
    def test_matches_oracle(self, curated_pq, swap_ring, t2z2, block):
        # Every pair with a common upper bound, on the true order and on
        # orders perturbed in the memo, at block sizes that put one pair row,
        # a few rows or every row in one gathered block. A relation that is
        # not a partial order (T2(Z2)'s own, or a broken copy) is refused.
        rng = np.random.default_rng(block)
        found = set()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rings, "_BLOCK", block)
            for r in [s for s in curated_pq if s.order <= 30] + [swap_ring, t2z2]:
                covers = analysis.cover_ids(r)
                relations = [(np.array(order.leq_matrix(r)), None)]
                if r.order >= 4 and order.build_order(r).diagnostics.all_pass:
                    relations += _broken_orders(r, rng)
                for leq, broken in relations:
                    s = fresh(r)
                    s._memo["leq_matrix"] = leq
                    if broken:
                        assert not getattr(order.build_order(s).diagnostics, broken).holds
                    if not order.build_order(s).diagnostics.all_pass:
                        with pytest.raises(so.PreconditionError, match="not a partial order"):
                            order.pair_tables(s)
                        found.add("refused")
                        continue
                    pt = order.pair_tables(s)
                    pairs = {(int(a), int(b)) for a, b in np.argwhere(leq)}
                    want = oracle_pair_tables(r.order, pairs)
                    assert set(want) == {(int(a), int(b)) for a, b in np.argwhere(pt.cub)}
                    assert (pt.meet[~pt.cub] == -1).all() and (pt.join[~pt.cub] == -1).all()
                    for (a, b), (m, j) in want.items():
                        got = (pt.meet[a, b], pt.join[a, b])
                        assert got == (m, j), (r.label, broken, a, b)
                        formula = int(r.multiplication[a, covers[b]])
                        found.add("none" if m < 0 else "formula" if m == formula else "scanned")
        # The formula held, a scan replaced it, a pair had no glb, and a
        # relation was refused.
        assert found >= {"formula", "scanned", "none", "refused"}

    def test_counts_decide_every_pair_of_a_pq_baer_ring(self, curated_pq):
        # On a p.q.-Baer *-ring the cover formulas give the glb and lub of
        # every pair with a common upper bound, so the cover certificate, and
        # the down-set and up-set counts where it is switched off, verify
        # each one and no pair reaches the scan. The certificate proves the
        # bounds too, so no formula value is gathered against the relation.
        for certificate in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(order, "_least_upper", lambda *args: pytest.fail(f"scanned {args[1:]}"))
                if certificate:
                    mp.setattr(order, "_bounds", lambda *args: pytest.fail("bounds gathered"))
                else:
                    mp.setattr(order, "_cover_certificate", lambda *args: False)
                for r in curated_pq:
                    s = fresh(r)
                    pt = order.pair_tables(s)
                    assert order.build_order(s).certified == certificate, r.label
                    assert (np.minimum(pt.meet, pt.join)[pt.cub] >= 0).all(), r.label

    @pytest.mark.parametrize("block", (rings._BLOCK, 1, 50))
    def test_counting_path_matches_oracle(self, curated_pq, block):
        # Random partial orders in the memo, unrelated to the ring, so a
        # formula value often bounds a pair without being its least or
        # greatest bound: the up-set counts must refuse it and the scan
        # replace it. A flipped entry that breaks the order axioms is
        # refused before anything more is counted. `build_order` calls
        # `_counts` once (the up-set counts, which the join half reads) and
        # `pair_tables` once more (the down-set counts of the meet half).
        rng = np.random.default_rng(block)
        found = set()
        calls = []
        counts = order._counts
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rings, "_BLOCK", block)
            mp.setattr(order, "_counts", lambda *xy: calls.append(xy) or counts(*xy))
            for r in [s for s in curated_pq if 4 <= s.order <= 20]:
                covers = analysis.cover_ids(r)
                for density in (0.1, 0.3):
                    po = random_partial_order(r.order, rng, density)
                    flip = po.copy()
                    flip[tuple(rng.integers(r.order, size=2))] ^= True
                    for leq in (po, flip):
                        s = fresh(r)
                        s._memo["leq_matrix"] = leq
                        calls.clear()
                        path = order.build_order(s).diagnostics.all_pass
                        assert [len(c) for c in calls] == [1] and np.array_equal(calls[0][0], leq)
                        if not path:
                            with pytest.raises(so.PreconditionError, match="not a partial order"):
                                order.pair_tables(s)
                            assert len(calls) == 1
                            found.add("refused")
                            continue
                        pt = order.pair_tables(s)
                        assert [len(c) for c in calls] == [1, 1]
                        assert np.array_equal(calls[1][0], leq.T)
                        pairs = {(int(a), int(b)) for a, b in np.argwhere(leq)}
                        want = oracle_pair_tables(r.order, pairs)
                        assert set(want) == {(int(a), int(b)) for a, b in np.argwhere(pt.cub)}
                        assert (pt.meet[~pt.cub] == -1).all() and (pt.join[~pt.cub] == -1).all()
                        for (a, b), (m, j) in want.items():
                            got = (pt.meet[a, b], pt.join[a, b])
                            assert got == (m, j), (r.label, density, path, a, b)
                            m_ok, j_ok = m >= 0, j >= 0
                            m0 = int(r.multiplication[a, covers[b]])
                            j0 = int(r.addition[r.addition[a, b], r.negation[m0]])
                            lower = (m0, a) in pairs and (m0, b) in pairs
                            upper = (a, j0) in pairs and (b, j0) in pairs
                            found.add((path, "meet", lower and m_ok and m != m0, m_ok))
                            found.add((path, "join", upper and j_ok and j != j0, j_ok))
        # A bounding formula value was replaced by a scanned one, and the
        # formula held elsewhere.
        for kind in ("meet", "join"):
            assert {(True, kind, True, True), (True, kind, False, True)} <= found, kind
        assert (True, "join", False, False) in found  # a bounded pair with no join
        assert "refused" in found


def _order_outputs(ring) -> tuple[bool, str]:
    """Whether the cover certificate holds on a fresh copy of ``ring``, and
    everything its order yields: the relation and `cub`, the order JSON
    with the diagnostics, the pair tables of a partial order, and all
    verdicts."""
    s = fresh(ring)
    structure = order.build_order(s)
    out = [structure.leq.tolist(), structure.cub.tolist(), structure.to_json_dict()]
    if structure.diagnostics.all_pass:
        pt = order.pair_tables(s)
        out += [pt.meet.tolist(), pt.join.tolist()]
    out.append([v.to_json_dict() for v in theorems.run_suite(s)])
    return structure.certified, json.dumps(out)


def _count_path(mp):
    """Switch off the cover certificate, so every ring takes the count
    products and scans."""
    mp.setattr(order, "_cover_certificate", lambda *args: False)


def _certificate_corpus(curated_pq, swap_ring, t2z2, non_semiprime):
    """The curated corpus and the rings off its hypotheses, the structural
    specs up to order 64, and the distinct valid random tables of fuzz
    seeds 0-3."""
    rings = curated_pq + [swap_ring, t2z2] + non_semiprime
    config = so.FuzzConfig(64, so.FAMILIES, 0, 1)
    rings += [so.realize(spec) for spec in so.structural_specs(config)]
    for seed in range(4):
        rng, bases, seen = random.Random(seed), {}, set()
        for _ in range(200):
            candidate = _random_table_candidate(rng, RANDOM_TABLE_MAX_ORDER, bases)
            if candidate in seen:
                continue
            seen.add(candidate)
            try:
                rings.append(so.build_from_tables(candidate))
            except so.TableValidationError:
                pass
    return rings


# The theorems `run_theorem` passes on a certified ring without running
# their checks, as the cover certificate proves them: the rows of the
# registry marked proved.
PROVED = {
    "cub-characterization": theorems._check_cub_characterization,
    "lattice-characterization": theorems._check_lattice_characterization,
    "meet-join": theorems._check_meet_join,
    "ortho-cancellation": theorems._check_cancellation,
    "orthogonality-axioms": theorems._check_orthogonality_axioms,
    "quasi-orthomodular": theorems._check_quasi_orthomodular,
}


def _checks_run(ring, theorem_id):
    """The verdict of `run_theorem` and the registry checks it called."""
    codes = {check.__code__: tid for tid, (_, check, _) in theorems._REGISTRY.items()}
    ran = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            ran.add(codes[frame.f_code])

    sys.setprofile(profile)
    try:
        verdict = theorems.run_theorem(ring, theorem_id)
    finally:
        sys.setprofile(None)
    return verdict, ran


class TestCoverCertificate:
    def test_proved_theorems_pass_their_checks_on_certified_rings(
        self, curated_pq, swap_ring, t2z2, non_semiprime
    ):
        # The exhaustive check of each theorem the certificate proves passes
        # on every certified ring: the cross-check of its proofs.
        certified = 0
        for r in _certificate_corpus(curated_pq, swap_ring, t2z2, non_semiprime):
            if not order.build_order(r).certified:
                continue
            certified += 1
            for tid, check in PROVED.items():
                assert check(r).passed, (r.label, tid)
        assert certified >= len(curated_pq)

    def test_run_theorem_runs_proved_checks_only_off_the_certificate(self, curated_pq):
        # On a certified ring the verdict is the proof's and no check runs;
        # with the certificate switched off each check runs and passes.
        # quasi-orthomodular ends in the cancellation check. Every other
        # theorem is a run-time cross-check: on a certified ring it runs its
        # own check, and only that, wherever it is not skipped.
        proved = {tid for tid, (_, _, p) in theorems._REGISTRY.items() if p}
        assert proved == set(PROVED)
        checked = [tid for tid in theorems.THEOREM_IDS if tid not in PROVED]
        ran_on = dict.fromkeys(checked, 0)
        for r in curated_pq:
            s = fresh(r)
            assert order.build_order(s).certified, r.label
            for tid in checked:
                verdict, ran = _checks_run(s, tid)
                assert verdict.status == "pass" or verdict.skip_reason, (r.label, tid)
                assert ran == (set() if verdict.skip_reason else {tid}), (r.label, tid)
                ran_on[tid] += bool(ran)
            for tid in PROVED:
                verdict, ran = _checks_run(fresh(r), tid)
                assert verdict.status == "pass" and not ran, (r.label, tid)
                with pytest.MonkeyPatch.context() as mp:
                    _count_path(mp)
                    verdict, ran = _checks_run(fresh(r), tid)
                want = {tid, "ortho-cancellation"} if tid == "quasi-orthomodular" else {tid}
                assert verdict.status == "pass" and ran == want, (r.label, tid)
        assert all(ran_on.values()), ran_on

    def test_certified_order_matches_the_count_path(
        self, curated_pq, swap_ring, t2z2, non_semiprime
    ):
        # Every table, the order JSON and all 19 verdicts are the same with
        # the certificate as with the count path. The paper proves F1 on
        # every p.q.-Baer *-ring, so each of them takes the certificate.
        seen = set()
        for r in _certificate_corpus(curated_pq, swap_ring, t2z2, non_semiprime):
            certified, got = _order_outputs(r)
            with pytest.MonkeyPatch.context() as mp:
                _count_path(mp)
                forced, want = _order_outputs(r)
            assert not forced
            assert got == want, r.label
            pq = so.classify(r).is_pq_baer_star
            assert certified or not pq, r.label
            seen.add((pq, certified))
        assert seen >= {(True, True), (False, False)}

    def test_non_minimal_covers_take_the_count_path(self, curated_pq):
        # A cover array written into the memo with C(x) raised to a larger
        # central projection f breaks F1: with g = f(1 − C(x)) ≠ 0,
        # x <= x + g but f·(x + g) = x + g. The tables are the count path's
        # and the oracle's.
        rng = random.Random(23)
        changed = 0
        for r in [s for s in curated_pq if s.order <= 30]:
            covers = analysis.cover_ids(r)
            cps = analysis.central_projection_ids(r)
            M = r.multiplication
            for x in rng.sample(range(r.order), min(r.order, 4)):
                larger = [int(f) for f in cps if M[covers[x], f] == covers[x] != f]
                if not larger:
                    continue
                bad = np.array(covers)
                bad[x] = rng.choice(larger)
                tables = []
                for count_path in (False, True):
                    s = fresh(r)
                    s._memo["cover_ids"] = bad
                    with pytest.MonkeyPatch.context() as mp:
                        if count_path:
                            _count_path(mp)
                        structure = order.build_order(s)
                        pt = order.pair_tables(s)
                    assert not structure.certified, (r.label, x)
                    tables.append([a.tolist() for a in (structure.cub, pt.meet, pt.join)])
                assert tables[0] == tables[1], (r.label, x)
                pairs = {(int(a), int(b)) for a, b in np.argwhere(order.leq_matrix(r))}
                for (a, b), (m, j) in oracle_pair_tables(r.order, pairs).items():
                    assert (tables[0][1][a][b], tables[0][2][a][b]) == (m, j), (r.label, x)
                changed += 1
        assert changed


def test_meets_and_joins_refuse_non_orders(non_semiprime, t2z2):
    # Without antisymmetry and transitivity a "least" bound is not well
    # defined, so every pair of these relations is refused alike, with the
    # message `hasse_dot` gives, and nothing is answered by index.
    for r in non_semiprime + [t2z2]:
        with pytest.raises(so.PreconditionError, match="not a partial order") as hasse:
            so.hasse_dot(r)
        queries = [order.pair_tables, so.is_pseudo_lattice]
        for a in r.elements():
            for b in r.elements():
                queries += [lambda r, a=a, b=b: so.meet(r, a, b)]
                queries += [lambda r, a=a, b=b: so.join(r, a, b)]
        for query in queries:
            with pytest.raises(so.PreconditionError) as refused:
                query(r)
            assert str(refused.value) == str(hasse.value), r.label


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
        assert so.run_theorem(z15, "subtractivity-forward").status == "pass"
        assert so.run_theorem(z15, "subtractivity-biconditional").status == "pass"

    def test_biconditional_on_z21(self):
        z21 = so.build_modular(21)
        assert so.run_theorem(z21, "subtractivity-forward").status == "pass"
        assert so.run_theorem(z21, "subtractivity-biconditional").status == "pass"

    def test_forward_only_on_z6(self, z6, z2xz3):
        for r in (z6, z2xz3):
            assert so.run_theorem(r, "subtractivity-forward").status == "pass"
            bicond = so.run_theorem(r, "subtractivity-biconditional")
            assert bicond.skip_reason == theorems.SKIP_TWO

    def test_non_pq_rejected(self, z4, run_refused):
        for tid in ("subtractivity-forward", "subtractivity-biconditional"):
            v = run_refused(z4, tid)
            assert (v.status, v.skip_reason) == ("skipped", theorems.SKIP_NOT_PQ)

    def test_equal_elements_trivial(self, z6):
        cov = so.cover_table(z6).cover
        for a in z6.elements():
            assert so.central_cover(z6, z6.sub(a, a)) == 0 == z6.sub(cov[a], cov[a])


class TestIdealsAndProblem2:
    def test_principal_ideal_z6(self, z6):
        two, zero, three = analysis._ideal_masks(z6, [2, 0, 3])
        assert np.flatnonzero(two).tolist() == [0, 2, 4]
        assert np.flatnonzero(zero).tolist() == [0]
        assert np.flatnonzero(two & three).tolist() == [0]

    def test_spec_triple(self, z6):
        assert leq_bruteforce(z6, 2, 5) and leq_bruteforce(z6, 3, 5)
        assert leq_bruteforce(z6, z6.add(2, 3), 5)

    def test_passes_on_small_carriers(self, z6, z2xz2, m2z2):
        for r in (z6, z2xz2, m2z2):
            assert so.run_theorem(r, "problem-2").status == "pass"

    def test_non_pq_rejected(self, z4, run_refused):
        v = run_refused(z4, "problem-2")
        assert (v.status, v.skip_reason) == ("skipped", theorems.SKIP_NOT_PQ)


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
    assert leq_bruteforce(r, a, b) == oracle_leq(t, a, b)


@given(st.integers(min_value=2, max_value=24))
def test_diagnostics_match_semiprimeness(n):
    r = so.build_modular(n)
    assert so.build_order(r).diagnostics.all_pass == so.classify(r).is_semiprime
