"""Seeded inputs for the three workloads, built without importing starorder.

The ``tables-classify`` tables are made here with plain numpy, so that the
inputs and the set-up time do not move when the program's own table
construction or validation changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Structural ladder carriers: (slot, spec). Z210 and (Z2)^8 are rows of the
# ROADMAP baseline table; M2(Z3) x Z5 stands in for its M2(Z5) row.
LADDER = (
    ("z210", {"type": "modular", "n": 210}),
    ("z2p8", {"type": "product", "parts": [{"type": "modular", "n": 2}] * 8}),
    (
        "m2z3xz5",
        {
            "type": "product",
            "parts": [
                {"type": "matrix", "base": {"type": "modular", "n": 3}, "k": 2},
                {"type": "modular", "n": 5},
            ],
        },
    ),
)

FUZZ_FAMILIES = "matrix,modular,product,random-table"
FUZZ_MAX_ORDER = 64
FUZZ_STRUCTURAL = 199  # structural family members up to order 64
FUZZ_RANDOM = 1000
FUZZ_BUDGET = FUZZ_STRUCTURAL + FUZZ_RANDOM


@dataclass(frozen=True)
class Item:
    """One in-process CLI call and what its output is checked against."""

    name: str
    argv: tuple[str, ...]
    kind: str  # "verify", "fuzz", "accept" or "reject"
    slot: str
    perm: np.ndarray | None = None  # structural id -> table id


# ---------------------------------------------------------------------------
# Structural tables, labelled exactly as starorder labels them.


def _modular(n: int):
    i = np.arange(n, dtype=np.int64)
    return (i[:, None] + i[None, :]) % n, (i[:, None] * i[None, :]) % n, i, 1 % n


def _matrix_mod(p: int, k: int):
    """k x k matrices over Z_p, row-major digits, star = transpose."""
    cells = k * k
    n = p**cells
    w = p ** np.arange(cells - 1, -1, -1, dtype=np.int64)
    digits = (np.arange(n, dtype=np.int64)[:, None] // w) % p
    mats = digits.reshape(n, k, k)
    add = ((digits[:, None, :] + digits[None, :, :]) % p) @ w
    prod = np.einsum("aij,bjl->abil", mats, mats) % p
    mul = prod.reshape(n, n, cells) @ w
    star = mats.transpose(0, 2, 1).reshape(n, cells) @ w
    one = int(np.eye(k, dtype=np.int64).reshape(cells) @ w)
    return add, mul, star, one


def _product(parts):
    """Mixed-radix product, first part most significant."""
    orders = [p[0].shape[0] for p in parts]
    total = int(np.prod(orders))
    w = [int(np.prod(orders[i + 1 :])) for i in range(len(orders))]
    ar = np.arange(total, dtype=np.int64)
    add = np.zeros((total, total), dtype=np.int64)
    mul = np.zeros((total, total), dtype=np.int64)
    star = np.zeros(total, dtype=np.int64)
    one = 0
    for (padd, pmul, pstar, pone), o, wi in zip(parts, orders, w):
        d = (ar // wi) % o
        add += padd[d[:, None], d[None, :]] * wi
        mul += pmul[d[:, None], d[None, :]] * wi
        star += pstar[d] * wi
        one += pone * wi
    return add, mul, star, one


def structural_tables(slot: str):
    """(add, mul, star, one) of a ladder carrier."""
    if slot == "z210":
        return _modular(210)
    if slot == "z2p8":
        return _product([_modular(2)] * 8)
    if slot == "m2z3xz5":
        return _product([_matrix_mod(3, 2), _modular(5)])
    raise ValueError(f"unknown ladder slot {slot!r}")


# ---------------------------------------------------------------------------
# Workload items.


def _table_spec(add, mul, star, one) -> str:
    return json.dumps(
        {
            "type": "table",
            "order": int(add.shape[0]),
            "add": add.tolist(),
            "mul": mul.tolist(),
            "star": star.tolist(),
            "zero": 0,
            "one": int(one),
        },
        separators=(",", ":"),
    )


def _relabel(rng: np.random.Generator, add, mul, star, one):
    n = add.shape[0]
    perm = np.concatenate(([0], 1 + rng.permutation(n - 1)))
    inv = np.argsort(perm)
    return (
        perm[add[inv][:, inv]],
        perm[mul[inv][:, inv]],
        perm[star[inv]],
        int(perm[one]),
        perm,
    )


def _corrupt(rng: np.random.Generator, target: str, add, mul, star):
    """Change one entry of one table to another in-range value.

    A single changed entry always breaks an axiom on these carriers: the
    additive table stops being a group table, and a changed ``mul`` row or
    ``star`` map stops being additive.
    """
    n = add.shape[0]
    tables = {"add": add.copy(), "mul": mul.copy(), "star": star.copy()}
    t = tables[target]
    cell = tuple(int(v) for v in rng.integers(n, size=t.ndim))
    t[cell] = (t[cell] + 1 + int(rng.integers(n - 1))) % n
    return tables["add"], tables["mul"], tables["star"]


def verify_ladder(seed: int) -> list[Item]:
    order = np.random.default_rng(seed).permutation(len(LADDER))
    return [
        Item(f"verify.{LADDER[i][0]}", ("verify", json.dumps(LADDER[i][1])), "verify", LADDER[i][0])
        for i in order
    ]


def fuzz_deep(seed: int) -> list[Item]:
    argv = (
        "fuzz",
        "--seed", str(seed),
        "--max-order", str(FUZZ_MAX_ORDER),
        "--families", FUZZ_FAMILIES,
        "--budget", str(FUZZ_BUDGET),
    )
    return [Item("fuzz", argv, "fuzz", "fuzz")]


# Which table each carrier's corrupted copy has a bad entry in. The seed picks
# only the relabelling and the entry: how far validation scans before it
# rejects depends mostly on the table, and least on the entry for ``add`` and
# ``star``, so those go to the two larger carriers.
CORRUPT_TABLE = {"z210": "mul", "z2p8": "star", "m2z3xz5": "add"}


def tables_classify(seed: int) -> list[Item]:
    rng = np.random.default_rng(seed)
    items = []
    for slot, _ in LADDER:
        add, mul, star, one, perm = _relabel(rng, *structural_tables(slot))
        good = _table_spec(add, mul, star, one)
        bad = _table_spec(*_corrupt(rng, CORRUPT_TABLE[slot], add, mul, star), one)
        for cmd in ("classify", "covers"):
            items.append(Item(f"{cmd}.{slot}.valid", (cmd, good), "accept", slot, perm))
            items.append(Item(f"{cmd}.{slot}.corrupt", (cmd, bad), "reject", slot, perm))
    return items


WORKLOADS = {
    "verify-ladder": verify_ladder,
    "fuzz-deep": fuzz_deep,
    "tables-classify": tables_classify,
}
