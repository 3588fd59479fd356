import collections
import dataclasses
import functools
import hashlib
import importlib
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import starorder as so
from starorder import analysis, rings
from helpers import (
    mat2_index,
    mat2_tables,
    matrix_tables,
    oracle_violations,
    product_tables,
    ring_tables,
    zn_tables,
)
from starorder.cli import main
from starorder.rings import _first, validate_tables

fuzz = importlib.import_module("starorder.fuzz")  # the package's ``fuzz`` is the function


class TestModular:
    def test_zero_ring_has_zero_equal_one(self):
        r = so.build_modular(1)
        assert r.order == 1
        assert r.zero == r.one == 0

    def test_z6_arithmetic(self, z6):
        assert z6.mul(2, 4) == (2 * 4) % 6 == 2
        assert z6.add(5, 3) == (5 + 3) % 6 == 2
        assert z6.sub(2, 5) == (2 - 5) % 6 == 3
        assert z6.star(5) == 5

    def test_z4_nilpotent_square(self, z4):
        assert z4.mul(2, 2) == (2 * 2) % 4 == 0

    def test_additive_inverse(self, z6, m2z2):
        for r in (z6, m2z2):
            for a in r.elements():
                assert r.add(a, r.neg(a)) == 0

    def test_bad_order_rejected(self):
        with pytest.raises(so.RingSpecError):
            so.build_modular(0)

    def test_cap_enforced(self):
        with pytest.raises(so.OrderCapError):
            so.build_modular(100, cap=50)
        assert so.build_modular(100, cap=100).order == 100


class TestProduct:
    def test_idempotent_count_z2xz2(self, z2xz2):
        assert analysis.idempotent_mask(z2xz2).sum() == 4

    def test_identity_factor_preserves_ring(self, z6):
        r = so.build_product([so.build_modular(1), z6])
        assert r.order == 6
        assert np.array_equal(r.addition, z6.addition)
        assert np.array_equal(r.multiplication, z6.multiplication)
        assert so.classify(r).flags() == so.classify(z6).flags()

    def test_crt_matches_z6_flags(self, z6, z2xz3):
        assert so.classify(z2xz3).flags() == so.classify(z6).flags()

    def test_mixed_radix_zero_at_index_zero(self, z2xz3):
        assert z2xz3.name_of(0) == "(0,0)"
        assert z2xz3.one == 1 * 3 + 1  # (1, 1)

    @pytest.mark.parametrize(
        "parts",
        [
            (so.ModularSpec(2),) * 12,
            (so.MatrixSpec(so.ModularSpec(2), 2),) + (so.ModularSpec(2),) * 8,
        ],
    )
    def test_parts_generators_are_the_greedy_ones_at_the_cap(self, parts):
        ring = so.realize(so.ProductSpec(parts))
        assert ring.order == 4096
        greedy = rings._generators(ring.addition, [0], ring.order.bit_length())[0]
        assert ring.generators.tolist() == greedy

    def test_empty_product_rejected(self):
        with pytest.raises(so.RingSpecError):
            so.build_product([])

    def test_cap(self):
        with pytest.raises(so.OrderCapError):
            so.build_product([so.build_modular(8), so.build_modular(8)], cap=60)

    @given(st.permutations([2, 3, 4]))
    def test_permuted_parts_same_flags(self, orders):
        rings = [so.build_modular(n) for n in orders]
        flags = so.classify(so.build_product(rings)).flags()
        base = so.classify(
            so.build_product([so.build_modular(n) for n in sorted(orders)])
        ).flags()
        assert flags == base


class TestMatrix:
    def test_order_and_transpose_star(self, m2z2):
        assert m2z2.order == 16
        e12 = mat2_index(2, 0, 1, 0, 0)
        e21 = mat2_index(2, 0, 0, 1, 0)
        assert m2z2.star(e12) == e21
        assert m2z2.one == mat2_index(2, 1, 0, 0, 1)

    def test_star_antimultiplicative_all_pairs(self, m2z2):
        for a in m2z2.elements():
            for b in m2z2.elements():
                assert m2z2.star(m2z2.mul(a, b)) == m2z2.mul(m2z2.star(b), m2z2.star(a))

    def test_one_by_one_is_base(self):
        r = so.build_matrix(so.build_modular(2), 1)
        assert r.order == 2
        assert so.classify(r).flags() == so.classify(so.build_modular(2)).flags()

    def test_noncommutative_base_rejected(self, m2z2):
        with pytest.raises(so.RingSpecError):
            so.build_matrix(m2z2, 2)

    def test_cap(self):
        with pytest.raises(so.OrderCapError):
            so.build_matrix(so.build_modular(3), 2, cap=80)
        # Over Z1 every k gives the zero ring, but k*k > log2(cap) is refused.
        assert so.build_matrix(so.build_modular(1), 3).order == 1
        with pytest.raises(so.OrderCapError):
            so.build_matrix(so.build_modular(1), 4)

    @pytest.mark.parametrize("moduli, k", [((2,), 3), ((5,), 2), ((7,), 2), ((2, 3), 2)])
    def test_tables_match_an_einsum_reference(self, moduli, k):
        base = so.build_product([so.build_modular(m) for m in moduli])
        ring = so.build_matrix(base, k)
        add, mul, star, one = _einsum_matrix(moduli, k)
        assert ring.order == add.shape[0]
        assert np.array_equal(ring.addition, add)
        assert np.array_equal(ring.multiplication, mul)
        assert np.array_equal(ring.involution, star)
        assert ring.one == one
        # The base's G placed at the cells' weights is the greedy G of M_k(B).
        assert ring.generators.tolist() == rings._generators(add, [0], add.shape[0].bit_length())[0]


def _einsum_matrix(moduli, k):
    """k x k matrices over Z_m1 x ... x Z_mt (mixed radix, first most
    significant), row-major digits, star = transpose, each component's
    product by ``np.einsum``: independent of ``build_matrix``."""
    b, cells = int(np.prod(moduli)), k * k
    n = b**cells
    w = b ** np.arange(cells - 1, -1, -1, dtype=np.int32)
    digits = (np.arange(n)[:, None] // w) % b
    add = mul = star = base_one = 0
    wt = 1  # the component's weight in a base index; the last is least significant
    for m in reversed(moduli):
        x = (digits // wt % m).astype(np.int16)  # (n, cells): the component's entries
        mats = x.reshape(n, k, k)
        s = x[:, None] + x[None]
        s %= m
        add = add + wt * np.einsum("abc,c->ab", s, w)
        prod = np.einsum("aij,bjl->abil", mats, mats, optimize=True)
        prod %= m
        mul = mul + wt * np.einsum("abil,il->ab", prod, w.reshape(k, k))
        star = star + wt * (mats.transpose(0, 2, 1).reshape(n, cells) @ w)
        base_one += wt * (1 % m)
        wt *= m
    return add, mul, star, base_one * int(np.eye(k, dtype=int).reshape(cells) @ w)


# build_product and build_matrix do not validate their output: it is a
# *-ring by construction. These tests hold that construction to
# validate_tables, which must also find the G the ring keeps, to the
# exhaustive oracle on small rings, and to tables built by plain loops.


def _oracle_tables(spec):
    if isinstance(spec, so.ModularSpec):
        return zn_tables(spec.n)
    if isinstance(spec, so.ProductSpec):
        return functools.reduce(product_tables, map(_oracle_tables, spec.parts))
    return matrix_tables(_oracle_tables(spec.base), spec.k)


def _assert_certified(ring, spec=None):
    got = validate_tables(ring.addition, ring.multiplication, ring.involution, ring.one)
    assert got == ([], list(ring.generators)), ring.label
    if ring.order <= 12:
        assert oracle_violations(ring_tables(ring)) == [], ring.label
    if spec is not None:
        assert ring_tables(ring) == _oracle_tables(spec), ring.label


def _spec_order(spec):
    if isinstance(spec, so.ModularSpec):
        return spec.n
    if isinstance(spec, so.ProductSpec):
        return functools.reduce(lambda a, p: a * _spec_order(p), spec.parts, 1)
    return _spec_order(spec.base) ** (spec.k * spec.k)


def _products(parts):
    return st.lists(parts, min_size=1, max_size=3).map(lambda ps: so.ProductSpec(tuple(ps)))


# Matrix bases are commutative: products of modular rings.
_commutative_specs = st.recursive(
    st.builds(so.ModularSpec, st.integers(1, 4)), _products, max_leaves=3
)
_nested_specs = st.recursive(
    _commutative_specs,
    lambda kids: _products(kids)
    | st.builds(so.MatrixSpec, _commutative_specs, st.sampled_from([2, 1, 3])),
    max_leaves=4,
).filter(lambda spec: _spec_order(spec) <= 64)


class TestCertified:
    def test_curated_composites(self, curated_pq):
        composites = [r for r in curated_pq if r.element_names]  # leaves have no names
        assert len(composites) == 21
        for ring in composites:
            _assert_certified(ring)

    def test_structural_specs_up_to_64(self):
        config = fuzz.FuzzConfig(64, ("matrix", "product"), 0, 1)
        specs = fuzz.structural_specs(config)
        assert len(specs) == 135
        for spec in specs:
            _assert_certified(so.realize(spec), spec)

    @given(_nested_specs)
    @example(so.ProductSpec((so.MatrixSpec(so.ModularSpec(2), 2), so.ModularSpec(3))))
    @example(so.MatrixSpec(so.ProductSpec((so.ModularSpec(2), so.ModularSpec(1))), 2))
    @example(so.ProductSpec((so.ModularSpec(3), so.MatrixSpec(so.ModularSpec(2), 2))))
    def test_nested_specs(self, spec):
        _assert_certified(so.realize(spec), spec)

    def test_only_leaves_are_validated(self, monkeypatch):
        orders = []
        real = rings.validate_tables
        monkeypatch.setattr(
            rings, "validate_tables", lambda *t: orders.append(len(t[0])) or real(*t)
        )
        ring = so.realize(
            so.ProductSpec((so.MatrixSpec(so.ModularSpec(3), 2), so.ModularSpec(5)))
        )
        assert ring.order == 405
        assert orders == [3, 5]  # Z3 and Z5; neither M2(Z3) nor the product


class TestPartReuse:
    @pytest.mark.parametrize(
        "spec, orders",
        [
            (so.ProductSpec((so.ModularSpec(2),) * 8), [2]),
            (so.ProductSpec((so.MatrixSpec(so.ModularSpec(3), 2), so.ModularSpec(5))), [3, 5]),
            (
                so.ProductSpec(
                    (so.MatrixSpec(so.ModularSpec(2), 2), so.ModularSpec(2), so.ModularSpec(2))
                ),
                [2],
            ),
        ],
    )
    def test_each_part_validated_once_per_tree(self, monkeypatch, spec, orders):
        seen = []
        real = rings.validate_tables
        monkeypatch.setattr(
            rings, "validate_tables", lambda *t: seen.append(len(t[0])) or real(*t)
        )
        ring = so.realize(spec)
        assert seen == orders
        so.realize(spec)  # a fresh call builds its parts anew
        assert seen == orders * 2
        _assert_certified(ring, spec)

    def test_fuzz_validates_each_distinct_part_once(self, monkeypatch):
        config = fuzz.FuzzConfig(64, ("modular", "product"), 0, 10**6)
        specs = fuzz.structural_specs(config)
        part_orders = {p.n for s in specs if isinstance(s, so.ProductSpec) for p in s.parts}
        seen = []
        real = rings.validate_tables
        monkeypatch.setattr(
            rings, "validate_tables", lambda *t: seen.append(len(t[0])) or real(*t)
        )
        monkeypatch.setattr(fuzz, "run_suite", lambda ring: [])
        assert fuzz.fuzz(config).rings_checked == len(specs)
        # Each Z_n once as a ring of its own (never reused), once as a part.
        want = {n: 1 + (n in part_orders) for n in range(1, 65)}
        assert collections.Counter(seen) == want
        assert len(seen) == 64 + 31

    def test_fuzz_deep_report_unchanged(self, capsys):
        # The acceptance fuzz as the benchmark runs it: its bytes hash to
        # the digest recorded in perfbench/expected.json.
        expected = json.loads(
            (Path(__file__).parent.parent / "perfbench" / "expected.json").read_text()
        )["digests"]["fuzz-deep"]
        assert expected["seed"] == 42
        code = main([
            "fuzz", "--seed", "42", "--max-order", "64",
            "--families", "matrix,modular,product,random-table", "--budget", "1199",
        ])
        out, err = capsys.readouterr()
        got = hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()
        assert got == expected["items"]["fuzz"]


class TestElementNames:
    def test_matrix_names(self):
        m2z2 = so.build_matrix(so.build_modular(2), 2)
        assert [m2z2.name_of(x) for x in m2z2.elements()] == [
            "[[0,0],[0,0]]", "[[0,0],[0,1]]", "[[0,0],[1,0]]", "[[0,0],[1,1]]",
            "[[0,1],[0,0]]", "[[0,1],[0,1]]", "[[0,1],[1,0]]", "[[0,1],[1,1]]",
            "[[1,0],[0,0]]", "[[1,0],[0,1]]", "[[1,0],[1,0]]", "[[1,0],[1,1]]",
            "[[1,1],[0,0]]", "[[1,1],[0,1]]", "[[1,1],[1,0]]", "[[1,1],[1,1]]",
        ]
        m2z3 = so.build_matrix(so.build_modular(3), 2)
        assert {x: m2z3.name_of(x) for x in (0, 1, 5, m2z3.one, 41, 80)} == {
            0: "[[0,0],[0,0]]", 1: "[[0,0],[0,1]]", 5: "[[0,0],[1,2]]",
            28: "[[1,0],[0,1]]", 41: "[[1,1],[1,2]]", 80: "[[2,2],[2,2]]",
        }

    def test_nested_product_names(self):
        ring = so.realize(
            so.ProductSpec(
                (so.ProductSpec((so.ModularSpec(2), so.ModularSpec(3))), so.ModularSpec(2))
            )
        )
        assert ring.element_names == (
            "((0,0),0)", "((0,0),1)", "((0,1),0)", "((0,1),1)", "((0,2),0)", "((0,2),1)",
            "((1,0),0)", "((1,0),1)", "((1,1),0)", "((1,1),1)", "((1,2),0)", "((1,2),1)",
        )
        assert so.build_modular(5).element_names is None
        assert so.build_modular(5).name_of(3) == "3"

    def test_names_built_on_first_read_only(self):
        for ring in (
            so.build_product([so.build_modular(2), so.build_modular(3)]),
            so.build_matrix(so.build_modular(2), 2),
        ):
            assert "element_names" not in ring._memo
            first = ring.name_of(1)
            names = ring._memo["element_names"]
            assert ring.name_of(1) == first and ring.element_names is names


class TestTables:
    def test_valid_z6_tables_accepted(self, z6):
        spec = so.ring_to_table_spec(z6)
        rebuilt = so.build_from_tables(spec)
        assert so.classify(rebuilt).flags() == so.classify(z6).flags()

    def test_negation_star_rejected_on_z3(self):
        # star(x) = -x is additive and involutive but not anti-multiplicative.
        add, mul, _, one = zn_tables(3)
        star = (0, 2, 1)
        with pytest.raises(so.TableValidationError) as exc:
            so.build_from_tables(so.TableSpec(3, _t(add), _t(mul), star, 0, 1))
        assert ("star-multiplicative", (1, 1)) in exc.value.violations

    def test_broken_unit_law_reported(self):
        add, mul, star, one = zn_tables(3)
        mul[1][2] = 0
        with pytest.raises(so.TableValidationError) as exc:
            so.build_from_tables(so.TableSpec(3, _t(add), _t(mul), tuple(star), 0, 1))
        assert any(axiom == "left-unit" for axiom, _ in exc.value.violations)

    def test_broken_associativity_reported(self):
        add, mul, star, one = zn_tables(4)
        mul[2][3] = 1
        with pytest.raises(so.TableValidationError):
            so.build_from_tables(so.TableSpec(4, _t(add), _t(mul), tuple(star), 0, 1))

    def test_zero_must_be_element_zero(self):
        add, mul, star, one = zn_tables(3)
        with pytest.raises(so.RingSpecError):
            so.build_from_tables(so.TableSpec(3, _t(add), _t(mul), tuple(star), 1, 1))

    def test_ragged_tables_rejected(self):
        with pytest.raises(so.RingSpecError):
            so.build_from_tables(
                so.TableSpec(2, ((0, 1), (1,)), ((0, 0), (0, 1)), (0, 1), 0, 1)
            )

    @pytest.mark.parametrize(
        "add, mul, star",
        [
            (((0, 1), (1, 0)), ((0, 0), (0, 1)), ((0,), (1,))),
            (((0, 1), (1, 0)), ((0, 0), (0, 1)), ((0,), 1)),
            (((0, (1,)), (1, 0)), ((0, 0), (0, 1)), (0, 1)),
            (((0, 1), (1, 0)), (((0,), (0,)), ((0,), (1,))), (0, 1)),
            (((0, 1), (1, 0)), ((0, 0), (0, 1)), (None, 1)),
            (((0, 1), (1, 0)), ((0, 0), (0, 1.7)), (0, 1)),
            (((0, 1), (1, 0)), ((0, 0), (0, 1)), (0, "1")),
            (((0, 1), (1, 0)), ((0, 0), (0, True)), (0, 1)),
        ],
    )
    def test_entries_that_are_not_integers_refused(self, add, mul, star):
        # Not a TableValidationError: there is no axiom witness to report.
        with pytest.raises(so.RingSpecError, match="entries must be integers"):
            so.build_from_tables(so.TableSpec(2, add, mul, star, 0, 1))


_Z2 = so.TableSpec(2, ((0, 1), (1, 0)), ((0, 0), (0, 1)), (0, 1), 0, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: so.build_modular(2.5),
        lambda: so.build_modular(True),
        lambda: so.build_matrix(so.build_modular(2), 2.9),
        lambda: so.build_from_tables(dataclasses.replace(_Z2, one=1.9)),
        lambda: so.build_from_tables(dataclasses.replace(_Z2, one=True)),
        lambda: so.build_from_tables(dataclasses.replace(_Z2, order=3.7)),
        lambda: so.build_from_tables(dataclasses.replace(_Z2, zero=0.5)),
        lambda: so.FuzzConfig(8, ("modular",), 2.5, 1),
        lambda: so.FuzzConfig(4.5, ("modular",), 0, 1),
        lambda: so.FuzzConfig(8, ("modular",), 0, "3"),
    ],
)
def test_non_integers_refused_not_truncated(build):
    with pytest.raises(so.RingSpecError, match="must be an integer"):
        build()


def test_numpy_integers_accepted():
    assert so.build_modular(np.int64(3)).order == 3
    assert so.build_matrix(so.build_modular(np.uint8(2)), np.int32(2)).order == 16
    spec = dataclasses.replace(_Z2, order=np.int64(2), one=np.int16(1))
    assert so.build_from_tables(spec).one == 1
    config = so.FuzzConfig(np.int64(8), ("modular",), np.uint64(7), np.int8(1))
    assert json.dumps(config.to_json_dict()) == json.dumps(
        so.FuzzConfig(8, ("modular",), 7, 1).to_json_dict()
    )


class TestElementOps:
    def test_foreign_ids_rejected(self, z6):
        for bad in (-1, 6, 100, 2.9, True, "3", None):
            with pytest.raises(so.ForeignElementError):
                z6.add(0, bad)
            with pytest.raises(so.ForeignElementError):
                z6.star(bad)

    def test_tables_are_read_only(self, z6):
        with pytest.raises(ValueError):
            z6.addition[0, 0] = 1


class TestSpecJson:
    def test_round_trips(self):
        specs = [
            so.ModularSpec(6),
            so.ProductSpec((so.ModularSpec(2), so.ModularSpec(3))),
            so.MatrixSpec(so.ModularSpec(2), 2),
            so.ring_to_table_spec(so.build_modular(3)),
        ]
        for spec in specs:
            assert so.spec_from_json(so.spec_to_json(spec)) == spec

    def test_realize_matches_builders(self, z6):
        r = so.realize(so.spec_from_json({"type": "modular", "n": 6}))
        assert np.array_equal(r.multiplication, z6.multiplication)

    @pytest.mark.parametrize(
        "obj",
        [
            {"type": "miracle"},
            {"type": "modular", "n": "six"},
            {"type": "product", "parts": []},
            {"type": "matrix", "k": 2},
            {"type": "table", "order": 2},
            [1, 2, 3],
        ],
    )
    def test_malformed_specs_rejected(self, obj):
        with pytest.raises(so.RingSpecError):
            so.spec_from_json(obj)


@given(st.integers(min_value=1, max_value=40))
def test_modular_tables_agree_with_plain_arithmetic(n):
    r = so.build_modular(n)
    t = ring_tables(r)
    assert t[0] == zn_tables(n)[0]
    assert t[1] == zn_tables(n)[1]


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3))
def test_product_is_certified_and_indexes_zero(self_orders):
    r = so.build_product([so.build_modular(n) for n in self_orders])
    _assert_certified(r, so.ProductSpec(tuple(so.ModularSpec(n) for n in self_orders)))
    assert r.name_of(0) == "(" + ",".join("0" for _ in self_orders) + ")"
    assert r.add(0, 0) == 0


# Valid *-rings up to order 12, plus M2(Z2) as a noncommutative one.
_VALID_TABLES = (
    [zn_tables(n) for n in range(1, 13)]
    + [
        product_tables(zn_tables(a), zn_tables(b))
        for a, b in ((2, 2), (2, 3), (2, 4), (3, 3), (2, 6), (3, 4))
    ]
    + [product_tables(zn_tables(2), product_tables(zn_tables(2), zn_tables(2)))]
    + [mat2_tables(2)]
)


@st.composite
def _corrupted_tables(draw):
    """A valid table relabelled by a permutation fixing 0, then 0-3 changed
    add/mul/star entries and sometimes a wrong unit."""
    add, mul, star, one = draw(st.sampled_from(_VALID_TABLES))
    n = len(add)
    p = [0, *draw(st.permutations(range(1, n)))]
    add2 = [[0] * n for _ in range(n)]
    mul2 = [[0] * n for _ in range(n)]
    star2 = [0] * n
    for x in range(n):
        star2[p[x]] = p[star[x]]
        for y in range(n):
            add2[p[x]][p[y]] = p[add[x][y]]
            mul2[p[x]][p[y]] = p[mul[x][y]]
    elem = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3))):
        which, i, j, v = draw(st.tuples(st.sampled_from("ams"), elem, elem, elem))
        if which == "s":
            star2[i] = v
        else:
            (add2 if which == "a" else mul2)[i][j] = v
    one2 = draw(elem) if draw(st.integers(0, 4)) == 0 else p[one]
    return add2, mul2, star2, one2


@st.composite
def _bilinear_tables(draw):
    """(Z_p)^k with random bilinear structure constants: distributive, but
    mostly neither associative nor unital."""
    p, k = draw(st.sampled_from(((2, 1), (3, 1), (2, 2), (3, 2), (2, 3))))
    n = p**k
    digits = [[(x // p ** (k - 1 - i)) % p for i in range(k)] for x in range(n)]
    enc = lambda d: sum(v * p ** (k - 1 - i) for i, v in enumerate(d))
    c = draw(st.lists(st.integers(0, p - 1), min_size=k**3, max_size=k**3))

    def times(u, v):
        return [
            sum(u[i] * v[j] * c[(i * k + j) * k + l] for i in range(k) for j in range(k))
            % p
            for l in range(k)
        ]

    add = [
        [enc([(a + b) % p for a, b in zip(digits[x], digits[y])]) for y in range(n)]
        for x in range(n)
    ]
    mul = [[enc(times(digits[x], digits[y])) for y in range(n)] for x in range(n)]
    star = draw(st.permutations(range(n)))
    return add, mul, star, draw(st.integers(0, n - 1))


@st.composite
def _magma_tables(draw):
    """Addition that is no group: random, a semilattice (max) or a left- or
    right-zero semigroup (associative, but past order 4 every element is a
    generator), or a group shifted by a constant c (x+y+c: associative, with
    a neutral element other than 0). Sometimes 0 is made a left identity."""
    n = draw(st.integers(1, 12))
    elem = st.integers(0, n - 1)
    square = st.lists(st.lists(elem, min_size=n, max_size=n), min_size=n, max_size=n)
    c = draw(elem)
    add = draw(
        st.sampled_from(
            [
                draw(square),
                [[max(x, y) for y in range(n)] for x in range(n)],
                [[x for y in range(n)] for x in range(n)],
                [[y for y in range(n)] for x in range(n)],
                [[(x + y + c) % n for y in range(n)] for x in range(n)],
            ]
        )
    )
    if draw(st.booleans()):
        add[0] = list(range(n))
    star = draw(st.lists(elem, min_size=n, max_size=n))
    return add, draw(square), star, draw(elem)


@settings(max_examples=300)
@given(st.one_of(_corrupted_tables(), _bilinear_tables(), _magma_tables()))
# Associative at the generator 1 but not at 0, which is not neutral.
@example(([[0, 0, 0], [1, 1, 1], [2, 1, 1]], [[0] * 3] * 3, [0, 1, 2], 0))
# Saturating addition min(x+y, 3) is no group: distributive at the generator
# 1, but 1·(0+0) = 1 != 1·0 + 1·0 = 2.
@example(
    (
        [[min(x + y, 3) for y in range(4)] for x in range(4)],
        [[0] * 4, [1, 3, 3, 3], [0] * 4, [0] * 4],
        [0, 1, 2, 3],
        0,
    )
)
# Light's test on (R, ·) tests every generator, 0 included: 0·0 = 2, and
# (0·0)·0 = 1 != 0·(0·0) = 2.
@example(
    (
        [[(x + y) % 3 for y in range(3)] for x in range(3)],
        [[2, 1, 2], [2, 1, 2], [1, 1, 2]],
        [0, 1, 2],
        0,
    )
)
def test_validate_tables_matches_exhaustive_oracle(t):
    add, mul, star, one = t
    want = oracle_violations(t)
    # One row, several rows (150 elements hold 2 to 9 rows of n^2 at n = 4
    # to 8) or every row of a fallback scan in one block.
    for block in (rings._BLOCK, 1, 150):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rings, "_BLOCK", block)
            got, _ = validate_tables(np.array(add), np.array(mul), np.array(star), one)
        assert got == want, block


_M2Z2xZ3 = ring_tables(
    so.build_product([so.build_matrix(so.build_modular(2), 2), so.build_modular(3)])
)
_Z2p6 = ring_tables(so.build_product([so.build_modular(2)] * 6))


@pytest.mark.parametrize("tables", [_M2Z2xZ3, _Z2p6], ids=["M2(Z2)xZ3", "Z2^6"])
@pytest.mark.parametrize(
    "edits, mul_associative",
    [
        # + is no group, so neither G proof applies; · is intact, so Light's
        # test on (R, ·) proves mul-associative with no scan.
        ([("add", 5, 9, 1)], True),
        # The only non-additive row is a late one: the first row failing the
        # G test is the left-distributive witness's x.
        ([("mul", -3, 7, 2)], False),
        # Both broken, · not associative: Light's test fails, the scan runs.
        ([("add", 5, 9, 1), ("mul", 6, 10, 3)], False),
    ],
    ids=["add", "late-mul", "add-and-mul"],
)
def test_certificates_past_one_block_match_oracle(tables, edits, mul_associative, monkeypatch):
    add, mul, star, one = tables
    add, mul = [row[:] for row in add], [row[:] for row in mul]
    for table, i, j, v in edits:
        (add if table == "add" else mul)[i][j] = v
    n = len(add)
    # At n = 48 and 64 the cube exceeds one block at the default size.
    assert n**3 > rings._BLOCK
    ops = []
    real = rings._generators
    monkeypatch.setattr(
        rings, "_generators", lambda op, *a: ops.append(op) or real(op, *a)
    )
    want = oracle_violations((add, mul, star, one))
    got, _ = validate_tables(np.array(add), np.array(mul), np.array(star), one)
    assert got == want
    # G of +, then S of · for Light's test: no G proof of mul-associative.
    assert [op.tolist() for op in ops] == [add, mul]
    axioms = dict(want)
    assert ("mul-associative" not in axioms) == mul_associative
    if edits[0][0] == "mul":
        assert axioms["left-distributive"][0] == n - 3


def test_first_failing_row_is_least_over_all_generators():
    # (Z2)^6 has G = [1, 2, 4, ...]. Row 61 has one wrong product, so it
    # fails the left test at every g; row 5 is moved by e = 8 wherever bits
    # 1 and 2 are set, which is additive along g = 1 but not along g = 2.
    # The first generator that fails (1) fails only at row 61.
    add, mul, star, one = _Z2p6
    mul = [row[:] for row in mul]
    mul[61][7] = 2
    mul[5] = [v ^ 8 if y & 6 == 6 else v for y, v in enumerate(mul[5])]
    want = oracle_violations((add, mul, star, one))
    got, _ = validate_tables(np.array(add), np.array(mul), np.array(star), one)
    assert got == want
    assert dict(want)["left-distributive"][0] == 5


def _relabelled(t, mult):
    """Tables t relabelled by x -> mult·x mod n, a bijection fixing 0 for
    mult prime to n."""
    add, mul, star, one = t
    n = len(add)
    p = [mult * x % n for x in range(n)]
    add2 = [[0] * n for _ in range(n)]
    mul2 = [[0] * n for _ in range(n)]
    star2 = [0] * n
    for x in range(n):
        star2[p[x]] = p[star[x]]
        for y in range(n):
            add2[p[x]][p[y]] = p[add[x][y]]
            mul2[p[x]][p[y]] = p[mul[x][y]]
    return add2, mul2, star2, p[one]


def _span(add, gens):
    """The subgroup of (R, +) that gens generate, by plain closure."""
    h = {0}
    while more := {add[x][g] for x in h for g in gens} - h:
        h |= more
    return h


_Z4p3 = ring_tables(so.build_product([so.build_modular(4)] * 3))


# (Z4)^3, n = 64, as built and relabelled: each greedy G has three
# generators of additive order 4, so 2·g_k lies outside H_{k-1} and outside
# H_{k-1} + g_k. A fault there is seen by the last generator's test over all
# of H_k, and by no test over a smaller subgroup.
@pytest.mark.parametrize("tables", [_Z4p3, _relabelled(_Z4p3, 7)], ids=["Z4^3", "relabelled"])
@pytest.mark.parametrize("fault", ["row", "column", "star"])
def test_generator_chain_finds_faults_only_the_last_subgroup_holds(tables, fault):
    add, mul, star, one = tables
    mul, star = [row[:] for row in mul], list(star)
    n = len(add)
    _, G = validate_tables(np.array(add), np.array(mul), np.array(star), one)
    assert len(G) == 3 and all(len(_span(add, [g])) == 4 for g in G)
    g1, gk = G[0], G[-1]
    below = _span(add, G[:-1])  # H_{k-1}
    y0 = add[gk][gk]
    assert y0 not in below and all(add[y][gk] != y0 for y in below)
    x = n - 1
    if fault == "row":  # x·y0 is wrong: y -> x·y is additive but at y0
        mul[x][y0] = add[mul[x][y0]][g1]
    elif fault == "column":  # y0·x is wrong: y -> y·x is additive but at y0
        mul[y0][x] = add[mul[y0][x]][g1]
    else:  # star swapped at 2·g_1 and 3·g_1, outside G ∪ {0}
        a, b = add[g1][g1], add[add[g1][g1]][g1]
        assert {a, b}.isdisjoint([0, *G])
        star[a], star[b] = star[b], star[a]
        # (gh)* = h*g* still holds on G x G; star-additive fails, so the
        # G x G test must not decide star-multiplicative.
        assert all(star[mul[g][h]] == mul[star[h]][star[g]] for g in G for h in G)
    want = oracle_violations((add, mul, star, one))
    axioms = dict(want)
    if fault == "star":
        assert {"star-additive", "star-multiplicative"} <= set(axioms)
    else:
        law = "left-distributive" if fault == "row" else "right-distributive"
        assert axioms[law][0] == x
    for block in (rings._BLOCK, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rings, "_BLOCK", block)
            got, _ = validate_tables(np.array(add), np.array(mul), np.array(star), one)
        assert got == want, block


def test_add_corrupted_table_builds_no_cube_scan(monkeypatch):
    # (Z2)^8 with one wrong sum: n = 256, so each scan block is one row of
    # n^2 elements. · is intact and associative; an n^3 mul-associative scan
    # would build all n blocks, finding nothing. Element x is relabelled
    # n - x (0 stays 0): in natural order · is bitwise AND, and the greedy
    # generating set of (R, ·) would hold every element, past the n/2 that
    # Light's test takes; relabelled it holds 10.
    add, mul, star, one = ring_tables(so.build_product([so.build_modular(2)] * 8))
    n = len(add)
    new = (n - np.arange(n)) % n
    old = np.argsort(new)
    add, mul = (new[np.array(t)[old[:, None], old]] for t in (add, mul))
    star, one = new[np.array(star)[old]], int(new[one])
    add[3, 5] = 7
    blocks = 0
    real = rings._first_rows

    def counted(rows_n, row_size, mask_of):
        def mask(rows):
            nonlocal blocks
            blocks += 1
            return mask_of(rows)

        return real(rows_n, row_size, mask)

    monkeypatch.setattr(rings, "_first_rows", counted)
    got, _ = validate_tables(add, mul, star, one)
    assert "mul-associative" not in dict(got)
    assert {"add-commutative", "add-associative"} <= set(dict(got))
    assert blocks < n


def _t(rows):
    return tuple(tuple(int(v) for v in row) for row in rows)


# Block scans pass 3-D masks, and a mask over no elements is 0-size.
@given(hnp.arrays(bool, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6)))
@example(np.zeros((0, 4), dtype=bool))
@example(np.zeros((3, 4), dtype=bool))
@example(np.ones((3, 4), dtype=bool))
@example(np.zeros((1, 1), dtype=bool))
@example(np.ones((1, 1), dtype=bool))
def test_first_is_the_first_argwhere_hit(mask):
    for m in (mask, mask.T):  # the transpose is a non-contiguous view
        hits = np.argwhere(m)
        assert _first(m) == (tuple(int(v) for v in hits[0]) if hits.size else None)


def _factor_lists(n: int) -> list[list[int]]:
    """Every list ``fuzz._random_factorization`` can return for n: each
    ordered factorization into factors >= 2, or [1] for n = 1."""
    if n == 1:
        return [[1]]
    return [
        [d, *rest]
        for d in range(2, n + 1)
        if n % d == 0
        for rest in ([[]] if d == n else _factor_lists(n // d))
    ]


def _table_spec(ring) -> so.TableSpec:
    return so.TableSpec(
        ring.order, _t(ring.addition), _t(ring.multiplication),
        tuple(ring.involution.tolist()), 0, ring.one,
    )


def _uncached_fuzz(config):
    """``fuzz(config)`` without reuse: every drawn ring is realized and
    checked anew. Returns the random draws, each as (spec, verdicts or None
    if validation rejected it), and the report's JSON dict."""
    counts = {"fail": 0, "pass": 0, "skipped": 0}
    failures, draws = [], []

    def alert(spec, verdicts):
        for v in verdicts:
            counts[v.status] += 1
            if v.status == "fail":
                failures.append(
                    {
                        "spec": so.spec_to_json(spec),
                        "theorem": v.theorem,
                        "witness": list(v.witness),
                        "red_alert": v.hypothesis_met,
                    }
                )
        return any(v.status == "fail" and v.hypothesis_met for v in verdicts)

    checked, halted = 0, False
    for spec in fuzz.structural_specs(config)[: config.budget]:
        checked += 1
        if alert(spec, fuzz.run_suite(so.realize(spec))):
            halted = True
            break
    rng = random.Random(config.seed)
    while "random-table" in config.families and not halted and checked < config.budget:
        spec = fuzz._random_table_candidate(rng, config.max_order, {})
        try:
            ring = so.realize(spec)
        except so.TableValidationError:
            draws.append((spec, None))
            continue
        verdicts = fuzz.run_suite(ring)
        draws.append((spec, verdicts))
        checked += 1
        halted = alert(spec, verdicts)
    report = {
        "config": config.to_json_dict(),
        "rings_checked": checked,
        "verdict_counts": counts,
        "failures": failures,
    }
    return draws, report


class TestRandomCandidates:
    @pytest.mark.parametrize("seed", range(4))
    def test_shared_bases_match_fresh_ones(self, seed):
        shared, fresh_rng, bases = random.Random(seed), random.Random(seed), {}
        for _ in range(300):
            got = fuzz._random_table_candidate(shared, 8, bases)
            assert got == fuzz._random_table_candidate(fresh_rng, 8, {})
        assert shared.random() == fresh_rng.random()  # the same draws
        assert len(bases) < 300
        for factors, cached in bases.items():
            for got, want in zip(cached, rings._cyclic_product_tables(factors)):
                assert np.array_equal(got, want), factors
            for arr in (cached[0], cached[1], cached[3]):  # add, mul, digits
                with pytest.raises(ValueError):
                    arr[0] = 0

    @pytest.mark.parametrize("n", range(1, fuzz.RANDOM_TABLE_MAX_ORDER + 1))
    def test_unvalidated_base_matches_validated_product(self, n):
        for factors in _factor_lists(n):
            add, mul, one, _ = rings._cyclic_product_tables(factors)
            ring = so.build_product([so.build_modular(f) for f in factors])
            _assert_certified(ring)
            assert np.array_equal(add, ring.addition), factors
            assert np.array_equal(mul, ring.multiplication), factors
            assert np.array_equal(ring.involution, np.arange(n)), factors
            assert one == ring.one, factors

    def test_factor_lists_cover_the_draws(self):
        rng = random.Random(0)
        for n in range(1, fuzz.RANDOM_TABLE_MAX_ORDER + 1):
            for _ in range(50):
                assert fuzz._random_factorization(rng, n) in _factor_lists(n)

    def test_each_candidate_validated_once(self, monkeypatch):
        config = fuzz.FuzzConfig(8, ("random-table",), 0, 200)
        draws, _ = _uncached_fuzz(config)
        distinct = {spec for spec, _ in draws}
        accepted = {spec for spec, verdicts in draws if verdicts is not None}
        rejected = [spec for spec, verdicts in draws if verdicts is None]
        assert len(accepted) < 200 and len(set(rejected)) < len(rejected)  # repeats
        calls = {"validate": 0, "suite": 0}

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(rings, "validate_tables", counted("validate", rings.validate_tables))
        monkeypatch.setattr(fuzz, "run_suite", counted("suite", fuzz.run_suite))
        report = fuzz.fuzz(config)
        assert report.rings_checked == 200
        assert calls["validate"] == len(distinct)
        assert calls["suite"] == len(accepted)

    @pytest.mark.parametrize(
        "config",
        [fuzz.FuzzConfig(8, ("random-table",), seed, 200) for seed in range(5)]
        + [fuzz.FuzzConfig(16, fuzz.FAMILIES, 7, 300)],  # the golden report's
    )
    def test_report_matches_checking_every_draw(self, config):
        draws, want = _uncached_fuzz(config)
        assert fuzz.fuzz(config).to_json_dict() == want
        if config.seed < 4:  # seeds 0-3 draw some rejected candidate twice
            rejected = [spec for spec, verdicts in draws if verdicts is None]
            assert len(set(rejected)) < len(rejected)

    def test_red_alert_halts_at_the_first_draw(self, monkeypatch):
        config = fuzz.FuzzConfig(8, ("random-table",), 0, 200)
        draws, _ = _uncached_fuzz(config)
        accepted = [spec for spec, verdicts in draws if verdicts is not None]
        chosen = max(accepted[1:], key=accepted.count)  # drawn again later
        assert accepted.index(chosen) > 0 and accepted.count(chosen) > 1
        run_suite = fuzz.run_suite

        def alerting(ring):
            verdicts = run_suite(ring)
            if _table_spec(ring) == chosen:
                verdicts[0] = dataclasses.replace(
                    verdicts[0], status="fail", witness=(0,), hypothesis_met=True
                )
            return verdicts

        monkeypatch.setattr(fuzz, "run_suite", alerting)
        report = fuzz.fuzz(config).to_json_dict()
        assert report == _uncached_fuzz(config)[1]
        assert report["rings_checked"] == accepted.index(chosen) + 1
        assert report["failures"][-1] == {
            "spec": so.spec_to_json(chosen),
            "theorem": so.THEOREM_IDS[0],
            "witness": [0],
            "red_alert": True,
        }
