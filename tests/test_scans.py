"""First-witness scans against plain-loop oracles, on relations perturbed in
the memo and at block sizes that put one row, several rows or the whole
ring in one gathered block."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import starorder as so
from corpus import fresh, random_partial_order
from helpers import (
    oracle_annihilator_identity,
    oracle_central_projections,
    oracle_cover_remark,
    oracle_cover_uniqueness,
    oracle_order_diagnostics,
    oracle_orthogonality_axioms,
    oracle_lub,
    oracle_meet_join,
    oracle_order_equivalence,
    oracle_ortho_decomposition,
    oracle_problem2,
    oracle_problem2_failures,
    oracle_subtractivity_biconditional,
    oracle_subtractivity_forward,
    ring_tables,
)
from starorder import analysis, order, rings, theorems
from starorder.rings import _first, _first_rows

# 700 elements: 2 to 8 rows of an [x, y, z] mask per block on the rings
# below of order 9 to 18, and many rows of the 2-D masks.
BLOCKS = (rings._BLOCK, 1, 700)


def _perturbed(ring, rng):
    """A fresh copy of ``ring`` with its classification memoised and a few
    entries of leq, Z and the covers rewritten in the memo. Z flips are
    mostly symmetric, so the scan gets past "symmetry" to "descends"."""
    s = fresh(ring)
    so.classify(s)
    n = s.order
    leq = np.array(order.leq_matrix(s))
    Z = np.array(analysis.zero_product_matrix(s))
    cov = np.array(analysis.cover_ids(s))
    for _ in range(rng.randint(1, 3)):
        leq[rng.randrange(n), rng.randrange(n)] ^= True
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randrange(n), rng.randrange(n)
        Z[i, j] ^= True
        if rng.random() < 0.8:
            Z[j, i] = Z[i, j]
    if rng.random() < 0.5:
        cov[rng.randrange(n)] = rng.randrange(n)
    s._memo.update(leq_matrix=leq, zero_product_matrix=Z, cover_ids=cov)
    return s, leq, Z, cov


def _verdict(result):
    return None if result.passed else (result.witness, result.note)


@pytest.mark.parametrize("block", BLOCKS)
def test_scans_match_oracles_on_perturbed_relations(curated_pq, block):
    rng = random.Random(block)
    met = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "_BLOCK", block)
        for r in [r for r in curated_pq if 6 <= r.order <= 18] * 8:
            s, leq, Z, cov = _perturbed(r, rng)
            t = ring_tables(s)
            n = s.order
            le = lambda a, b: bool(leq[a, b])
            orth = lambda a, b: bool(Z[a, b])

            diag = order.build_order(s).diagnostics
            checks = (diag.reflexive, diag.antisymmetric, diag.transitive)
            got = tuple(check.witness for check in checks)
            assert got == oracle_order_diagnostics(n, le), r.label
            met.add(got[2] and "transitive")
            got = _verdict(theorems._check_orthogonality_axioms(s))
            assert got == oracle_orthogonality_axioms(n, le, orth), r.label
            met.add(got and got[1])
            if diag.all_pass:
                got = theorems._check_problem2(s).witness
                assert got == oracle_problem2(t, le), r.label
                met.add(got and "problem-2")
            else:  # meets and joins, and so problem 2, need a partial order
                with pytest.raises(so.PreconditionError, match="not a partial order"):
                    theorems._check_problem2(s)
            got = _verdict(theorems._check_annihilator_identity(s))
            assert got == oracle_annihilator_identity(t, orth, cov.tolist()), r.label
            met.add(got and got[1])
            got = _verdict(theorems._check_cover_remark(s))
            assert got == oracle_cover_remark(t, le, cov.tolist()), r.label
            met.add(got and got[1])
            # x ⊥ y iff C(x)·C(y) = 0, scanned a block of rows x at a time.
            got = _verdict(theorems._check_ortho_cover_equivalence(s))
            mul = t[1]
            pairs = ((x, y) for x in range(n) for y in range(n))
            bad = (p for p in pairs if Z[p] != (mul[cov[p[0]]][cov[p[1]]] == 0))
            assert got == next(((p, None) for p in bad), None), r.label
            met.add(got and "orthogonality-cover-equivalence")
    # Every scan found witnesses, and reached the checks after its first.
    assert met >= {
        "transitive",
        "symmetry",
        "descends",
        "zero-orthogonal",
        "problem-2",
        "r(xR) != r(eR)",
        "r(xR) != l(Rx)",
        "r(xR) != (1-e)R",
        "cover-of-central-projection",
        "cover-scaling",
        "central-projection-order",
        "orthogonality-cover-equivalence",
    }


@pytest.mark.parametrize("block", BLOCKS)
def test_cover_uniqueness_matches_oracle_on_perturbed_covers(curated_pq, block):
    # Cover arrays with 0, 1 or 2 entries rewritten, to another central
    # projection or to any element, in the memo of fresh rings. The check
    # drops a pair (e, x) where y = 1 - covers[x] has xRy = 0 but e·y != 0,
    # and scans the pairs left over every y. On Z4, Z8 and Z12 the true
    # cover of a nilpotent x breaks the hypothesis, so a rewrite there can
    # pass.
    rng = random.Random(block)
    verdicts, skipped = {True: 0, False: 0}, 0
    extra = [so.build_modular(n) for n in (4, 8, 12)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "_BLOCK", block)
        for r in (curated_pq + extra) * 8:
            t = ring_tables(r)
            add, mul, star, one = t
            n = r.order
            cps = oracle_central_projections(t)
            s = fresh(r)
            Z = analysis.zero_product_matrix(s)
            cov = np.array(analysis.cover_ids(s))
            for _ in range(rng.randint(0, 2)):
                cov[rng.randrange(n)] = rng.choice(cps if rng.random() < 0.5 else range(n))
            s._memo["cover_ids"] = cov
            got = theorems._check_cover_uniqueness(s)
            want = oracle_cover_uniqueness(t, lambda a, b: bool(Z[a, b]), cov.tolist())
            assert got.witness == want, r.label
            assert got.note == (want and "cover-uniqueness")
            verdicts[got.passed] += 1
            # The pairs that y = 1 - covers[x] leaves, in the check's order;
            # the scan must pass over some that are no witness.
            ys = [next(y for y in range(n) if add[cov[x]][y] == one) for x in range(n)]
            left = [
                (x, e)
                for e in cps
                for x in range(n)
                if mul[x][e] == x and cov[x] != e and not (Z[x, ys[x]] and mul[e][ys[x]])
            ]
            skipped += bool(left) and left[0] != want
    assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts
    assert skipped


@pytest.mark.parametrize("block", (rings._BLOCK, 1, 50))
def test_problem2_and_descends_on_random_partial_orders(curated_pq, block):
    # Random partial orders and symmetric orthogonality relations in the
    # memo. Problem 2 decides a pair with a join by a+b <= a∨b and scans
    # the bounded pairs without one, so the first failing pair may come
    # from either; "descends" scans only its first x for (y, z).
    rng = np.random.default_rng(11)  # the same relations at every block size
    met = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "_BLOCK", block)
        for r in [r for r in curated_pq if 6 <= r.order <= 18]:
            t = ring_tables(r)
            n = r.order
            for density in (0.1, 0.25, 0.4):
                leq = random_partial_order(n, rng, density)
                Z = np.triu(rng.random((n, n)) < density / 2)
                Z |= Z.T
                s = fresh(r)
                so.classify(s)
                s._memo.update(leq_matrix=leq, zero_product_matrix=Z)
                assert order.build_order(s).diagnostics.all_pass
                le = lambda a, b: bool(leq[a, b])
                pairs = {(int(a), int(b)) for a, b in np.argwhere(leq)}
                got = theorems._check_problem2(s).witness
                assert got == oracle_problem2(t, le), r.label
                triples = oracle_problem2_failures(t, le)
                failing = dict.fromkeys((a, b) for a, b, _ in triples)  # pairs, in order
                joined = [oracle_lub(pairs, range(n), a, b) is not None for a, b in failing]
                if joined and not joined[0]:
                    met.add("unjoined first" + ", joined later" * any(joined[1:]))
                elif joined:
                    met.add("joined first")
                got = _verdict(theorems._check_orthogonality_axioms(s))
                assert got == oracle_orthogonality_axioms(n, le, lambda a, b: bool(Z[a, b]))
                if got and got[1] == "descends":
                    x = got[0][0]
                    several = bool((leq[x][:, None] & Z & ~Z[x]).sum() > 1)
                    met.add("descends" + ", several (y, z)" * several)
    assert met >= {
        "unjoined first, joined later",
        "joined first",
        "descends, several (y, z)",
    }


def test_meet_join_matches_the_six_term_oracle(curated_pq, swap_ring):
    # The check decides three of the theorem's six terms; its docstring
    # proves the other three follow. The oracle states all six. Random
    # partial orders and covers with a few entries rewritten, in the memo of
    # fresh rings, reach a missing glb or lub and a misfiring meet formula.
    rng = np.random.default_rng(5)
    met = set()
    for r in [r for r in curated_pq if 4 <= r.order <= 18] + [swap_ring]:
        t = ring_tables(r)
        n = r.order
        true_leq = np.array(order.leq_matrix(r))
        true_cov = np.array(analysis.cover_ids(r))
        for trial in range(4):
            leq = true_leq if trial % 2 else random_partial_order(n, rng, (0.15, 0.4)[trial // 2])
            cov = true_cov.copy()
            if trial:
                cov[rng.integers(n, size=2)] = rng.integers(n, size=2)
            s = fresh(r)
            s._memo.update(leq_matrix=leq, cover_ids=cov)
            assert order.build_order(s).diagnostics.all_pass
            pairs = {(int(a), int(b)) for a, b in np.argwhere(leq)}
            got = _verdict(theorems._check_meet_join(s))
            assert got == oracle_meet_join(t, pairs, cov.tolist()), (r.label, trial)
            met.add(got and got[1])
    assert met >= {None, "pseudo-lattice", "meet-formula"}


@pytest.mark.parametrize("block", (rings._BLOCK, 1, 50))
def test_problem2_does_not_judge_an_unjoined_pair_by_its_formula(m2z2, block):
    # In M2(Z2), a = E11 and b = E21 have aR ∩ bR = {0}, and C(b) = 1, so
    # the formula join of (a, b) is b. Put a, b and a+b below two
    # incomparable invertible c1, c2: the pair has no join, every common
    # upper bound is above a+b, and a+b is not below b. Problem 2 holds.
    t = ring_tables(m2z2)
    mul = np.asarray(m2z2.multiplication)
    n = m2z2.order
    inv = [x for x in range(n) if (mul[x] == m2z2.one).any()]
    right = [set(mul[x].tolist()) for x in range(n)]
    a, b = next((a, b) for a in range(1, n) for b in range(1, n) if right[a] & right[b] == {0})
    c1, c2 = inv[:2]
    leq = np.eye(n, dtype=bool)
    leq[np.ix_([a, b, int(m2z2.addition[a, b])], [c1, c2])] = True
    s = fresh(m2z2)
    s._memo["leq_matrix"] = leq
    assert order.build_order(s).diagnostics.all_pass
    pt = order.pair_tables(s)
    assert pt.cub[a, b] and pt.join[a, b] == -1
    formula = s.sub_table()[s.addition[a, b], s.multiplication[a, analysis.cover_ids(s)[b]]]
    assert formula == b
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "_BLOCK", block)
        want = oracle_problem2(t, lambda x, y: bool(leq[x, y]))
        assert want is None and theorems._check_problem2(s).witness is None


def test_equivalence_decomposition_and_subtractivity_match_oracles(
    curated_pq, swap_ring, t2z2
):
    # Fresh rings with a few entries of Z flipped before the order is built,
    # so leq is read from the flipped Z; with the joins of one row of the
    # built pair tables rewritten; or with a few covers rewritten before
    # anything is built. order-equivalence reads its star term off rows a
    # and a* of Z, and ortho-decomposition runs at [a, c = b - a]; the
    # oracles state both at [a, b]. subtractivity-forward reads only the
    # pairs a <= b, and the biconditional runs where 2 is invertible.
    rng = random.Random(26)
    met = set()
    for r in (curated_pq + [swap_ring, t2z2]) * 3:
        t = ring_tables(r)
        add = t[0]
        n = r.order
        neg = [add[x].index(0) for x in range(n)]
        mul, one = t[1], t[3]
        two_invertible = any(mul[add[one][one]][x] == one for x in range(n))
        for kind in ("Z", "join", "covers"):
            s = fresh(r)
            Z = np.array(analysis.zero_product_matrix(r))
            cov = np.array(analysis.cover_ids(r))
            if kind == "Z":
                for _ in range(rng.randint(1, 3)):
                    Z[rng.randrange(n), rng.randrange(n)] ^= True
                s._memo["zero_product_matrix"] = Z
            elif kind == "covers":
                for _ in range(rng.randint(0, 2)):
                    cov[rng.randrange(n)] = rng.randrange(n)
                s._memo["cover_ids"] = cov
            partial = order.build_order(s).diagnostics.all_pass
            if kind == "join" and partial:
                pt = order.pair_tables(s)
                join = np.array(pt.join)
                a = rng.randrange(n)
                cs = np.flatnonzero(Z[a]).tolist()
                for c in rng.sample(cs, min(len(cs), rng.randint(0, 4))):
                    join[a, c] = rng.randrange(-1, n)
                s._memo["pair_tables"] = order.PairTables(pt.cub, pt.meet, join)
            orth = lambda a, b: bool(Z[a, b])

            got = _verdict(theorems._check_order_equivalence(s))
            assert got == oracle_order_equivalence(t, orth, cov.tolist()), (r.label, kind)
            met.add(("order-equivalence", got and got[1]))
            le = lambda a, b: bool(Z[a, add[b][neg[a]]])
            got = _verdict(theorems._check_subtractivity_forward(s))
            assert got == oracle_subtractivity_forward(t, le, cov.tolist()), (r.label, kind)
            met.add(("subtractivity-forward", got and got[1]))
            if two_invertible and kind != "join":  # odd Z_n, Z3 and Z5 products, M2(Z3)
                got = theorems._check_subtractivity_biconditional(s)
                want = oracle_subtractivity_biconditional(t, le, cov.tolist())
                assert (got.witness, got.note) == (want, None), (r.label, kind)
                met.add(("subtractivity-biconditional", kind, got.passed))
            if not partial:  # joins need a partial order
                with pytest.raises(so.PreconditionError, match="not a partial order"):
                    theorems._check_ortho_decomposition(s)
                continue
            join = order.pair_tables(s).join
            got = theorems._check_ortho_decomposition(s)
            want = oracle_ortho_decomposition(t, orth, lambda a, c: int(join[a, c]))
            assert (got.witness, got.note) == (want, None), (r.label, kind)
            met.add(("ortho-decomposition", kind, got.passed))
            if want:  # the row's first failing c need not give its least b
                a, b = want
                cs = [c for c in range(n) if Z[a, c] and join[a, c] != add[a][c]]
                if add[a][cs[0]] != b:
                    met.add("first c is not the least b")
            # leq is read from Z, so a quasi-orthomodular term other than
            # cancellation fails only where ortho-join or ortho-decomposition
            # fails too. Those two run on certified rings, where
            # quasi-orthomodular passes by the cover certificate.
            note = theorems._check_quasi_orthomodular(s).note
            term = {
                "join-exists": theorems._check_ortho_join,
                "decomposition": theorems._check_ortho_decomposition,
            }.get(note)
            if term:
                assert not term(s).passed, (r.label, kind, note)
                met.add(("quasi-orthomodular", kind, note))
    # The last term follows from the others where the relation is reflexive
    # and the covers commute: b·C(a) = a + (b - a)·C(b - a)·C(a) =
    # a + (b - a)·(C(b) - C(a))·C(a) = a. On Z7 a flip of Z at [3, 0] makes
    # 3 ≰ 3, one at [5, 3] makes 5 <= 1, and C(3) = 0 keeps the first three
    # terms, so only 1·C(5) = 1 != 5 fails.
    s = fresh(so.build_modular(7))
    Z = np.array(analysis.zero_product_matrix(s))
    cov = np.array(analysis.cover_ids(s))
    Z[3, 0], Z[5, 3], cov[3] = False, True, 0
    s._memo.update(zero_product_matrix=Z, cover_ids=cov)
    t = ring_tables(s)
    le = lambda a, b: bool(Z[a, t[0][b][t[0][a].index(0)]])
    got = _verdict(theorems._check_subtractivity_forward(s))
    assert got == oracle_subtractivity_forward(t, le, cov.tolist())
    met.add(("subtractivity-forward", got and got[1]))
    # Each theorem passes and fails (the biconditional on a flipped Z and on
    # rewritten covers), each kind of case reaches a verdict of
    # ortho-decomposition, some failing row has a first failing c whose
    # a + c is not its least b, and both quasi-orthomodular terms fail on a
    # flipped Z and on rewritten joins.
    assert met >= {
        ("order-equivalence", None),
        ("order-equivalence", "bruteforce-vs-star"),
        ("order-equivalence", "bruteforce-vs-cover"),
        ("subtractivity-forward", None),
        ("subtractivity-forward", "cover-subtraction"),
        ("subtractivity-forward", "cover-monotone"),
        ("subtractivity-forward", "a-equals-a-cover-b"),
        ("subtractivity-forward", "a-equals-b-cover-a"),
        ("subtractivity-biconditional", "Z", False),
        ("subtractivity-biconditional", "covers", True),
        ("subtractivity-biconditional", "covers", False),
        ("ortho-decomposition", "Z", False),
        ("ortho-decomposition", "join", False),
        ("ortho-decomposition", "join", True),
        ("ortho-decomposition", "covers", True),
        "first c is not the least b",
        ("quasi-orthomodular", "Z", "join-exists"),
        ("quasi-orthomodular", "Z", "decomposition"),
        ("quasi-orthomodular", "join", "join-exists"),
        ("quasi-orthomodular", "join", "decomposition"),
    }


@given(
    hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=3, max_side=7)),
    st.integers(1, 60),
    st.integers(1, 50),
)
def test_first_rows_is_first_of_the_whole_mask(mask, block, row_size):
    seen = []

    def mask_of(rows):
        seen.extend(rows.tolist())
        return mask[rows]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "_BLOCK", block)
        got = _first_rows(mask.shape[0], row_size, mask_of)
    assert got == _first(mask)
    # Rows arrive in order, and no block after the hit's block is built.
    assert seen == list(range(len(seen)))
    if got is None:
        assert len(seen) == mask.shape[0]
    else:
        assert got[0] < len(seen) <= got[0] + max(1, block // row_size)
