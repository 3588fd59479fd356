import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import starorder as so
from helpers import (
    mat2_index,
    mat2_tables,
    oracle_violations,
    product_tables,
    ring_tables,
    zn_tables,
)
from starorder.rings import validate_tables


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
        assert len(so.idempotents(z2xz2)) == 4

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


class TestElementOps:
    def test_foreign_ids_rejected(self, z6):
        for bad in (-1, 6, 100):
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
def test_product_validates_and_indexes_zero(self_orders):
    r = so.build_product([so.build_modular(n) for n in self_orders])
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
def test_validate_tables_matches_exhaustive_oracle(t):
    add, mul, star, one = t
    got = validate_tables(np.array(add), np.array(mul), np.array(star), one)
    assert got == oracle_violations(t)


def _t(rows):
    return tuple(tuple(int(v) for v in row) for row in rows)
