"""The curated p.q.-Baer* carrier corpus, shared by the tests and scripts/."""

from __future__ import annotations

from itertools import combinations_with_replacement

import starorder as so
from helpers import is_squarefree


def curated_rings(limit: int = 30) -> list:
    """Squarefree Z_n (n <= limit), products of up to three factors from
    Z2, Z3 and Z5, M2(Z2) and M2(Z3)."""
    rings = [so.build_modular(n) for n in range(1, limit + 1) if is_squarefree(n)]
    for k in (1, 2, 3):
        for combo in combinations_with_replacement((2, 3, 5), k):
            rings.append(so.build_product([so.build_modular(p) for p in combo]))
    rings.append(so.build_matrix(so.build_modular(2), 2))
    rings.append(so.build_matrix(so.build_modular(3), 2))
    return rings


def fresh(ring):
    """A copy of ``ring`` with an empty memo, safe to write perturbed
    derived tables into."""
    return so.build_from_tables(so.ring_to_table_spec(ring))
