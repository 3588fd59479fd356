from itertools import product

import pytest
from hypothesis import HealthCheck, settings

import starorder as so

settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def z4():
    return so.build_modular(4)


@pytest.fixture(scope="session")
def z6():
    return so.build_modular(6)


@pytest.fixture(scope="session")
def z15():
    return so.build_modular(15)


@pytest.fixture(scope="session")
def m2z2():
    return so.build_matrix(so.build_modular(2), 2)


@pytest.fixture(scope="session")
def m2z3():
    return so.build_matrix(so.build_modular(3), 2)


@pytest.fixture(scope="session")
def z2xz3():
    return so.build_product([so.build_modular(2), so.build_modular(3)])


@pytest.fixture(scope="session")
def z2xz2():
    return so.build_product([so.build_modular(2), so.build_modular(2)])


@pytest.fixture(scope="session")
def swap_ring():
    """Z2 x Z2 with the coordinate-swap involution: semiprime, not p.q.-Baer*."""
    base = so.build_product([so.build_modular(2), so.build_modular(2)])
    spec = so.ring_to_table_spec(base)
    return so.build_from_tables(
        so.TableSpec(spec.order, spec.add, spec.mul, (0, 2, 1, 3), 0, spec.one)
    )


@pytest.fixture(scope="session")
def t2z2():
    """Upper-triangular 2x2 matrices over Z2, element 4a + 2b + d for
    [[a, b], [0, d]], with the involution [[a, b], [0, d]] -> [[d, b], [0, a]].
    e11·R·e22 != 0 but e22·R·e11 = 0: the zero-product relation is asymmetric."""
    elems = list(product(range(2), repeat=3))

    def enc(a, b, d):
        return elems.index((a % 2, b % 2, d % 2))

    add = tuple(tuple(enc(a + x, b + y, d + z) for x, y, z in elems) for a, b, d in elems)
    mul = tuple(tuple(enc(a * x, a * y + b * z, d * z) for x, y, z in elems) for a, b, d in elems)
    star = tuple(enc(d, b, a) for a, b, d in elems)
    return so.build_from_tables(so.TableSpec(8, add, mul, star, 0, enc(1, 0, 1)))


@pytest.fixture(scope="session")
def curated_pq():
    """The curated p.q.-Baer* corpus (see ``corpus.curated_rings``)."""
    from corpus import curated_rings

    return curated_rings()


@pytest.fixture(scope="session")
def non_semiprime():
    return [so.build_modular(n) for n in (4, 8, 9, 12)]


@pytest.fixture
def run_refused(monkeypatch):
    """``run_theorem`` with the check of the theorem asked for replaced by one
    that fails if it is called, and not proved, so a skip can only come from
    its hypotheses."""
    from starorder import theorems

    def run(ring, theorem_id):
        def refuse(r):
            raise AssertionError(f"{theorem_id} ran on {r.label}")

        registry = dict(theorems._REGISTRY)
        registry[theorem_id] = (registry[theorem_id][0], refuse, False)
        monkeypatch.setattr(theorems, "_REGISTRY", registry)
        return so.run_theorem(ring, theorem_id)

    return run
