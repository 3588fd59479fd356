import json
import random
import tracemalloc

import numpy as np
import pytest

import starorder as so
from corpus import fresh, relabelled
from helpers import oracle_cub_star_identities, oracle_cub_star_terms, ring_tables
from starorder import analysis, order, rings, theorems

EXPECTED_IDS = (
    "annihilator-identity",
    "cover-remark-identities",
    "cover-uniqueness",
    "cub-characterization",
    "cub-star-identities",
    "lattice-characterization",
    "meet-join",
    "order-diagnostics",
    "order-equivalence",
    "ortho-cancellation",
    "ortho-decomposition",
    "ortho-join",
    "orthogonality-axioms",
    "orthogonality-cover-equivalence",
    "problem-2",
    "quasi-orthomodular",
    "segment-orthomodular",
    "subtractivity-biconditional",
    "subtractivity-forward",
)


class TestSuiteShape:
    def test_theorem_ids_are_pinned_and_sorted(self):
        assert so.THEOREM_IDS == EXPECTED_IDS
        assert list(so.THEOREM_IDS) == sorted(so.THEOREM_IDS)

    def test_each_id_appears_once(self, z6):
        verdicts = so.run_suite(z6)
        assert [v.theorem for v in verdicts] == list(EXPECTED_IDS)

    def test_verdict_invariants(self, z6, z4, z15):
        for r in (z6, z4, z15):
            for v in so.run_suite(r):
                assert (v.status == "skipped") == (v.skip_reason is not None)
                assert (v.status == "fail") == (v.witness is not None)

    def test_every_runner_lives_in_theorems(self):
        # One module decides every theorem; the package exports no check.
        for tid, (_, check, _) in theorems._REGISTRY.items():
            assert check.__module__ == "starorder.theorems", tid
        removed = (
            "cancellation_check",
            "ortho_join_check",
            "orthogonality_axioms",
            "problem2_check",
            "quasi_orthomodular_check",
            "subtractivity_check",
            "verify_annihilator_identity",
        )
        for name in removed:
            assert not hasattr(so, name), name

    def test_json_shape(self, z6):
        d = so.run_suite(z6)[0].to_json_dict()
        assert list(d) == [
            "theorem",
            "status",
            "skip_reason",
            "witness",
            "note",
            "hypothesis_met",
        ]


class TestSuiteVerdicts:
    def test_z6_all_pass_except_biconditional(self, z6):
        by_id = {v.theorem: v for v in so.run_suite(z6)}
        assert by_id["subtractivity-biconditional"].status == "skipped"
        assert by_id["subtractivity-biconditional"].skip_reason == "two-not-invertible"
        for tid, v in by_id.items():
            if tid != "subtractivity-biconditional":
                assert v.status == "pass", (tid, v)

    def test_z4_diagnostics_fail_without_red_alert(self, z4):
        by_id = {v.theorem: v for v in so.run_suite(z4)}
        diag = by_id["order-diagnostics"]
        assert diag.status == "fail"
        assert diag.witness == (0, 2)
        assert diag.hypothesis_met is False
        assert by_id["order-equivalence"].status == "skipped"
        assert by_id["order-equivalence"].skip_reason == "not-p.q.-baer-star"
        assert by_id["cover-remark-identities"].status == "pass"
        assert by_id["cover-uniqueness"].status == "pass"

    def test_z15_all_pass(self, z15):
        assert all(v.status == "pass" for v in so.run_suite(z15))

    def test_z1_never_fails(self):
        for v in so.run_suite(so.build_modular(1)):
            assert v.status in ("pass", "skipped")

    def test_swap_ring_gating_is_sound(self, swap_ring):
        report = so.classify(swap_ring)
        for v in so.run_suite(swap_ring):
            if v.status == "skipped":
                if v.skip_reason == "not-p.q.-baer-star":
                    assert not report.is_pq_baer_star
                elif v.skip_reason == "two-not-invertible":
                    assert not report.is_two_invertible
                else:
                    pytest.fail(f"unknown skip reason {v.skip_reason}")
            else:
                assert v.status == "pass"

    def test_gated_runners_never_run_off_pq_baer(
        self, monkeypatch, swap_ring, t2z2, non_semiprime
    ):
        # The gate is the one p.q.-Baer * test: off p.q.-Baer *, every gated
        # theorem is skipped for that reason before its runner is looked at.
        called = []

        def refuse(tid):
            def runner(ring):
                called.append((ring.label, tid))
                raise AssertionError(f"{tid} ran on {ring.label}")

            return runner

        gated = {
            tid
            for tid, (hypotheses, _, _) in theorems._REGISTRY.items()
            if any(reason is not None for _, reason in hypotheses)
        }
        registry = {
            tid: (row[0], refuse(tid), False) if tid in gated else row
            for tid, row in theorems._REGISTRY.items()
        }
        monkeypatch.setattr(theorems, "_REGISTRY", registry)
        assert len(gated) == 16
        for r in [swap_ring, t2z2] + non_semiprime:  # non_semiprime: Z4, Z8, Z9, Z12
            assert not so.classify(r).is_pq_baer_star, r.label
            for v in so.run_suite(r):
                if v.theorem in gated:
                    assert v.status == "skipped", (r.label, v)
                    assert v.skip_reason == theorems.SKIP_NOT_PQ, (r.label, v)
        assert called == []

    def test_ungated_theorems_hold_on_non_semiprime(self):
        for n in (4, 8, 9, 12, 16, 27):
            by_id = {v.theorem: v for v in so.run_suite(so.build_modular(n))}
            assert by_id["cover-remark-identities"].status == "pass"
            assert by_id["cover-uniqueness"].status == "pass"

    def test_subtractivity_forward_builds_no_table(self):
        # The forward check gathers its four terms over the pairs a <= b
        # only (6 % of all pairs on (Z2)^10), so its transient peak stays
        # below one n × n int32 table. The covers are int32 like the tables.
        ring = so.build_product([so.build_modular(2)] * 10)
        n = ring.order
        order.leq_matrix(ring)  # memoised before tracing, with the tables below
        ring.sub_table()
        assert analysis.cover_ids(ring).dtype == ring.multiplication.dtype
        tracemalloc.start()
        try:
            assert theorems._check_subtractivity_forward(ring).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 4, peak


class TestReplay:
    def test_pass(self):
        v = so.replay(so.ModularSpec(6), "meet-join")
        assert v.status == "pass"

    def test_skip(self):
        v = so.replay(so.ModularSpec(4), "order-equivalence")
        assert v.status == "skipped"

    def test_matches_suite(self, z6):
        suite = {v.theorem: v for v in so.run_suite(z6)}
        for tid in so.THEOREM_IDS:
            assert so.replay(so.ModularSpec(6), tid) == suite[tid]

    def test_unknown_id(self):
        with pytest.raises(so.RingSpecError):
            so.replay(so.ModularSpec(6), "no-such-theorem")


class TestStructuralEnumeration:
    def test_descending_order_largest_first(self):
        cfg = so.FuzzConfig(16, ("modular", "product"), 0, 100)
        specs = so.structural_specs(cfg)
        orders = []
        for spec in specs:
            orders.append(so.realize(spec).order)
        assert orders == sorted(orders, reverse=True)
        assert len(specs) == 31  # 16 modular + 15 factor multisets

    def test_matrix_family(self):
        cfg = so.FuzzConfig(16, ("matrix",), 0, 10)
        specs = so.structural_specs(cfg)
        assert specs == [so.MatrixSpec(so.ModularSpec(2), 2)]


class TestFuzz:
    def test_deterministic(self):
        cfg = so.FuzzConfig(16, ("modular", "product"), 42, 31)
        a = json.dumps(so.fuzz(cfg).to_json_dict())
        b = json.dumps(so.fuzz(cfg).to_json_dict())
        assert a == b

    def test_modular_corpus_clean(self):
        cfg = so.FuzzConfig(30, ("modular",), 1, 30)
        report = so.fuzz(cfg)
        assert report.rings_checked == 30
        assert not report.red_alerts
        # Non-squarefree moduli surface as benign diagnostics failures.
        assert all(f["theorem"] == "order-diagnostics" for f in report.failures)
        assert all(f["red_alert"] is False for f in report.failures)

    def test_budget_one_takes_largest(self):
        report = so.fuzz(so.FuzzConfig(4, ("modular",), 5, 1))
        assert report.rings_checked == 1
        assert report.failures[0]["spec"] == {"type": "modular", "n": 4}

    def test_random_table_family_deterministic(self):
        cfg = so.FuzzConfig(8, ("random-table",), 123, 40)
        a = json.dumps(so.fuzz(cfg).to_json_dict())
        b = json.dumps(so.fuzz(cfg).to_json_dict())
        assert a == b
        report = so.fuzz(cfg)
        assert report.rings_checked == 40
        assert not report.red_alerts

    def test_counts_add_up(self):
        cfg = so.FuzzConfig(12, ("modular",), 9, 12)
        report = so.fuzz(cfg)
        counts = report.verdict_counts
        assert counts["pass"] + counts["fail"] + counts["skipped"] == 12 * len(
            so.THEOREM_IDS
        )

    def test_bad_configs_rejected(self):
        with pytest.raises(so.RingSpecError):
            so.FuzzConfig(0, ("modular",), 0, 1)
        with pytest.raises(so.RingSpecError):
            so.FuzzConfig(4, ("modular",), 0, 0)
        with pytest.raises(so.RingSpecError):
            so.FuzzConfig(4, ("cloud",), 0, 1)
        with pytest.raises(so.RingSpecError):
            so.FuzzConfig(4, (), 0, 1)
        with pytest.raises(so.RingSpecError):
            so.FuzzConfig(4, ("modular",), 2**64, 1)

    def test_report_json_shape(self):
        d = so.fuzz(so.FuzzConfig(6, ("modular",), 0, 6)).to_json_dict()
        assert list(d) == ["config", "rings_checked", "verdict_counts", "failures"]
        assert list(d["config"]) == ["max_order", "families", "seed", "budget"]
        assert list(d["verdict_counts"]) == ["fail", "pass", "skipped"]
        for f in d["failures"]:
            assert list(f) == ["spec", "theorem", "witness", "red_alert"]

    def test_replay_of_fuzz_failure(self):
        report = so.fuzz(so.FuzzConfig(4, ("modular",), 5, 1))
        failure = report.failures[0]
        spec = so.spec_from_json(failure["spec"])
        verdict = so.replay(spec, failure["theorem"])
        assert verdict.status == "fail"
        assert list(verdict.witness) == failure["witness"]


class TestCubStarIdentities:
    def test_matches_oracle(self, curated_pq, swap_ring, t2z2):
        for r in [s for s in curated_pq if s.order <= 30]:
            v = so.run_theorem(r, "cub-star-identities")
            want = oracle_cub_star_identities(ring_tables(r), so.cover_table(r).cover)
            expected = ("pass", None) if want is None else ("fail", want)
            assert (v.status, v.witness) == expected, r.label
        # Not p.q.-Baer *: the suite skips these, so call the check itself.
        for r in (swap_ring, t2z2):
            got = theorems._check_cub_star_identities(r)
            want = oracle_cub_star_identities(ring_tables(r), so.cover_table(r).cover)
            assert got.witness == want, r.label

    def test_perturbed_covers_match_oracle(self, curated_pq, swap_ring, t2z2):
        # Wrong covers written into the memo make the identities fail; the
        # first witness must still match the oracle when the pairs are
        # scanned in one block, a single row at a time, or a few rows at a
        # time (so the per-block Z lookups must keep their row offsets).
        rng = random.Random(6)
        failed = 0
        for r in [s for s in curated_pq if s.order <= 30] + [swap_ring, t2z2]:
            t = ring_tables(r)
            for _ in range(4):
                cov = np.array(so.cover_table(r).cover)
                for _ in range(rng.randint(1, r.order)):
                    cov[rng.randrange(r.order)] = rng.randrange(r.order)
                want = oracle_cub_star_identities(t, cov.tolist())
                for block in (rings._BLOCK, 1, 3 * r.generators.size * r.order):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(rings, "_BLOCK", block)
                        s = fresh(r)
                        s._memo["cover_ids"] = cov
                        got = theorems._check_cub_star_identities(s)
                    assert got.witness == want, (r.label, cov, block)
                failed += want is not None
        assert failed

    def test_each_term_decides_a_witness(self, m2z2, swap_ring, t2z2):
        # One cover C(b0) is changed at a time, to every value; the first
        # witness must match the oracle. Each r-equation is the only failing
        # term at some witness, so a check that left it out would move that
        # witness. With only C(0) wrong, eq3 fails at (0, b) exactly where
        # eq1 fails at (0, b*), so eq3 decides only where b < b*: T2(Z2) is
        # relabelled for that. eq2 and eq4 (the C(b) terms) decide on
        # M2(Z2) x Z2. Neither self-adjoint term ever fails alone at a pair
        # whose four equations hold, on any ring tried, so neither decides.
        m2z2xz2 = so.build_product([m2z2, so.build_modular(2)])
        t2z2_relabelled = relabelled(t2z2, (0, 7, 4, 6, 1, 2, 3, 5))
        cases = (
            (m2z2, (0, 14, 15)),
            (swap_ring, (0, 2, 3)),
            (t2z2, (0, 6, 7)),
            (t2z2_relabelled, (0, 6, 7)),
            (m2z2xz2, (25, 31)),
        )
        decided = set()
        for r, b0s in cases:
            t = ring_tables(r)
            for b0 in b0s:
                for v in range(r.order):
                    cov = np.array(so.cover_table(r).cover)
                    cov[b0] = v
                    s = fresh(r)
                    s._memo["cover_ids"] = cov
                    got = theorems._check_cub_star_identities(s).witness
                    want = oracle_cub_star_identities(t, cov.tolist())
                    assert got == want, (r.label, b0, v)
                    if want is not None:
                        terms = oracle_cub_star_terms(t, cov.tolist(), *want)
                        decided |= terms if len(terms) == 1 else set()
        assert {"eq1", "eq2", "eq3", "eq4"} <= decided
