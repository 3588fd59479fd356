import json
import random

import numpy as np
import pytest

import starorder as so
from corpus import fresh
from helpers import oracle_cub_star_identities, ring_tables
from starorder import rings, theorems

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

    def test_ungated_theorems_hold_on_non_semiprime(self):
        for n in (4, 8, 9, 12, 16, 27):
            by_id = {v.theorem: v for v in so.run_suite(so.build_modular(n))}
            assert by_id["cover-remark-identities"].status == "pass"
            assert by_id["cover-uniqueness"].status == "pass"


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
        # first witness must still match the oracle, also when the pairs
        # are scanned in blocks of a single row.
        rng = random.Random(6)
        failed = 0
        for r in [s for s in curated_pq if s.order <= 30] + [swap_ring, t2z2]:
            t = ring_tables(r)
            for trial in range(4):
                cov = np.array(so.cover_table(r).cover)
                for _ in range(rng.randint(1, r.order)):
                    cov[rng.randrange(r.order)] = rng.randrange(r.order)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(rings, "_BLOCK", (rings._BLOCK, 1)[trial % 2])
                    s = fresh(r)
                    s._memo["cover_ids"] = cov
                    got = theorems._check_cub_star_identities(s)
                want = oracle_cub_star_identities(t, cov.tolist())
                assert got.witness == want, (r.label, cov)
                failed += want is not None
        assert failed
