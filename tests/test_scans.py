"""First-witness scans against plain-loop oracles, on relations perturbed in
the memo and at block sizes that put one row, several rows or the whole
ring in one gathered block."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import starorder as so
from corpus import fresh
from helpers import (
    oracle_annihilator_identity,
    oracle_cover_remark,
    oracle_order_diagnostics,
    oracle_orthogonality_axioms,
    oracle_problem2,
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
            got = _verdict(order.orthogonality_axioms(s))
            assert got == oracle_orthogonality_axioms(n, le, orth), r.label
            met.add(got and got[1])
            for left in (False, True):
                got = order.problem2_check(s, left).witness
                assert got == oracle_problem2(t, le, left), r.label
                met.add(got and "problem-2")
            got = _verdict(analysis.verify_annihilator_identity(s))
            assert got == oracle_annihilator_identity(t, orth, cov.tolist()), r.label
            met.add(got and got[1])
            got = _verdict(theorems._check_cover_remark(s))
            assert got == oracle_cover_remark(t, le, cov.tolist()), r.label
            met.add(got and got[1])
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
