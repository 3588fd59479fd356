"""Seeded search for theorem failures over generated ring families."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import RingSpecError, TableValidationError
from .rings import (
    DEFAULT_ORDER_CAP,
    MatrixSpec,
    ModularSpec,
    ProductSpec,
    RingSpec,
    TableSpec,
    _mixed_radix_weights,
    build_modular,
    build_product,
    realize,
    ring_to_table_spec,
    spec_to_json,
)
from .theorems import run_suite

FAMILIES = ("matrix", "modular", "product", "random-table")
RANDOM_TABLE_MAX_ORDER = 8


@dataclass(frozen=True)
class FuzzConfig:
    max_order: int
    families: tuple[str, ...]
    seed: int
    budget: int

    def __post_init__(self):
        if self.max_order < 1:
            raise RingSpecError("fuzz max_order must be >= 1")
        if self.budget < 1:
            raise RingSpecError("fuzz budget must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise RingSpecError("fuzz seed must fit in 64 bits")
        if not self.families:
            raise RingSpecError("fuzz needs at least one family")
        unknown = set(self.families) - set(FAMILIES)
        if unknown:
            raise RingSpecError(f"unknown fuzz families: {sorted(unknown)}")

    def to_json_dict(self) -> dict:
        return {
            "max_order": self.max_order,
            "families": sorted(set(self.families)),
            "seed": self.seed,
            "budget": self.budget,
        }


@dataclass(frozen=True)
class FuzzReport:
    config: FuzzConfig
    rings_checked: int
    verdict_counts: dict
    failures: list

    @property
    def red_alerts(self) -> list:
        return [f for f in self.failures if f["red_alert"]]

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "rings_checked": self.rings_checked,
            "verdict_counts": {
                "fail": self.verdict_counts.get("fail", 0),
                "pass": self.verdict_counts.get("pass", 0),
                "skipped": self.verdict_counts.get("skipped", 0),
            },
            "failures": self.failures,
        }


def _product_part_tuples(max_order: int) -> list[tuple[int, ...]]:
    """Non-decreasing factor tuples (each >= 2, length >= 2, product bounded)."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], prod: int, start: int) -> None:
        for f in range(start, max_order + 1):
            nxt = prod * f
            if nxt > max_order:
                break
            grown = prefix + (f,)
            if len(grown) >= 2:
                out.append(grown)
            rec(grown, nxt, f)

    rec((), 1, 2)
    return out


def structural_specs(config: FuzzConfig) -> list[RingSpec]:
    """Systematic family members, largest ring first (deterministic)."""
    entries: list[tuple[int, str, str, RingSpec]] = []
    if "modular" in config.families:
        for n in range(1, config.max_order + 1):
            entries.append((n, "modular", f"Z{n}", ModularSpec(n)))
    if "product" in config.families:
        for parts in _product_part_tuples(config.max_order):
            prod = 1
            for f in parts:
                prod *= f
            spec = ProductSpec(tuple(ModularSpec(f) for f in parts))
            entries.append((prod, "product", repr(parts), spec))
    if "matrix" in config.families:
        k = 2
        while 2 ** (k * k) <= config.max_order:
            n = 2
            while n ** (k * k) <= config.max_order:
                entries.append((n ** (k * k), "matrix", f"M{k}(Z{n})", MatrixSpec(ModularSpec(n), k)))
                n += 1
            k += 1
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    return [e[3] for e in entries]


def _random_factorization(rng: random.Random, n: int) -> list[int]:
    factors: list[int] = []
    rem = n
    while rem > 1:
        divisors = [d for d in range(2, rem + 1) if rem % d == 0]
        d = rng.choice(divisors)
        factors.append(d)
        rem //= d
    return factors or [1]


def _random_table_candidate(rng: random.Random, max_order: int) -> TableSpec:
    """One candidate table: a relabeled cyclic product with a factor-swap
    involution, occasionally corrupted so that validation has work to do."""
    n = rng.randint(1, min(RANDOM_TABLE_MAX_ORDER, max_order))
    factors = _random_factorization(rng, n)
    base = build_product([build_modular(f) for f in factors])

    add = np.array(base.addition)
    mul = np.array(base.multiplication)
    star = np.array(base.involution)

    # Involution: swap one pair of equal factors (an order-2 automorphism).
    swaps = [
        (i, j)
        for i in range(len(factors))
        for j in range(i + 1, len(factors))
        if factors[i] == factors[j]
    ]
    if swaps and rng.random() < 0.5:
        i, j = rng.choice(swaps)
        weights = _mixed_radix_weights(factors)
        perm = np.zeros(n, dtype=np.int64)
        for x in range(n):
            digits = [(x // weights[t]) % factors[t] for t in range(len(factors))]
            digits[i], digits[j] = digits[j], digits[i]
            perm[x] = sum(d * w for d, w in zip(digits, weights))
        star = perm

    # Relabel elements by a random permutation fixing 0.
    perm = np.arange(n)
    if n > 2:
        tail = list(range(1, n))
        rng.shuffle(tail)
        perm = np.array([0] + tail)
    inv_perm = np.argsort(perm)
    add = perm[add[inv_perm][:, inv_perm]]
    mul = perm[mul[inv_perm][:, inv_perm]]
    star = perm[star[inv_perm]]
    one = int(perm[base.one])

    if rng.random() < 0.25:
        target = rng.choice(("add", "mul", "star"))
        i = rng.randrange(n)
        j = rng.randrange(n)
        v = rng.randrange(n)
        if target == "add":
            add = add.copy()
            add[i, j] = v
        elif target == "mul":
            mul = mul.copy()
            mul[i, j] = v
        else:
            star = star.copy()
            star[i] = v

    return TableSpec(
        n,
        tuple(tuple(int(x) for x in row) for row in add),
        tuple(tuple(int(x) for x in row) for row in mul),
        tuple(int(x) for x in star),
        0,
        one,
    )


def fuzz(config: FuzzConfig, cap: int = DEFAULT_ORDER_CAP) -> FuzzReport:
    """Generate rings deterministically from the seed and run the suite.

    Structural families are enumerated systematically (largest first);
    the random-table family fills the remaining budget with validated
    candidates, discarding any that fail validation. A failing theorem
    whose hypotheses were satisfied halts the run.
    """
    if config.max_order > cap:
        raise RingSpecError(
            f"fuzz max_order {config.max_order} exceeds the order cap {cap}"
        )
    rng = random.Random(config.seed)
    counts = {"fail": 0, "pass": 0, "skipped": 0}
    failures: list[dict] = []
    rings_checked = 0
    halted = False

    def check(ring, spec) -> bool:
        nonlocal rings_checked, halted
        rings_checked += 1
        for verdict in run_suite(ring):
            counts[verdict.status] += 1
            if verdict.status == "fail":
                failures.append(
                    {
                        "spec": spec_to_json(spec),
                        "theorem": verdict.theorem,
                        "witness": list(verdict.witness),
                        "red_alert": verdict.hypothesis_met,
                    }
                )
                if verdict.hypothesis_met:
                    halted = True
        return not halted

    for spec in structural_specs(config):
        if rings_checked >= config.budget:
            break
        if not check(realize(spec, cap), spec):
            break

    if "random-table" in config.families and not halted:
        while rings_checked < config.budget:
            candidate = _random_table_candidate(rng, config.max_order)
            try:
                ring = realize(candidate, cap)
            except TableValidationError:
                continue
            if not check(ring, ring_to_table_spec(ring)):
                break

    return FuzzReport(config, rings_checked, counts, failures)
