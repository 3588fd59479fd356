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
def curated_pq():
    """The curated p.q.-Baer* corpus (see ``corpus.curated_rings``)."""
    from corpus import curated_rings

    return curated_rings()


@pytest.fixture(scope="session")
def non_semiprime():
    return [so.build_modular(n) for n in (4, 8, 9, 12)]
