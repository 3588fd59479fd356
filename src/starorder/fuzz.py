"""Seeded search for theorem failures over generated ring families."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import RingSpecError, TableValidationError
from .rings import (
    DEFAULT_ORDER_CAP,
    MatrixSpec,
    ModularSpec,
    ProductSpec,
    RingSpec,
    TableSpec,
    _cyclic_product_tables,
    _frozen,
    _integer,
    _mixed_radix_weights,
    realize,
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
        for f in ("max_order", "seed", "budget"):
            object.__setattr__(self, f, _integer(getattr(self, f), f"fuzz {f} must be an integer"))
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


def structural_specs(config: FuzzConfig, cap: int = DEFAULT_ORDER_CAP) -> list[RingSpec]:
    """Systematic family members, largest ring first (deterministic).

    A ``max_order`` above ``cap`` is refused before anything is enumerated.
    """
    if config.max_order > cap:
        raise RingSpecError(
            f"fuzz max_order {config.max_order} exceeds the order cap {cap}"
        )
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


def _random_table_candidate(
    rng: random.Random, max_order: int, bases: dict
) -> TableSpec:
    """One candidate table: a relabeled cyclic product with a factor-swap
    involution, occasionally corrupted so that validation has work to do.
    The base tables are not validated here: ``realize`` validates the
    candidate, once. ``bases`` maps a factor tuple to its read-only
    ``_cyclic_product_tables``, built on the first draw that needs them."""
    n = rng.randint(1, min(RANDOM_TABLE_MAX_ORDER, max_order))
    factors = tuple(_random_factorization(rng, n))
    if factors not in bases:
        add, mul, one, digits = _cyclic_product_tables(factors)
        bases[factors] = (_frozen(add), _frozen(mul), one, _frozen(digits))
    add, mul, one, digits = bases[factors]
    star = np.arange(n)

    # Involution: swap one pair of equal factors (an order-2 automorphism).
    swaps = [
        (i, j)
        for i in range(len(factors))
        for j in range(i + 1, len(factors))
        if factors[i] == factors[j]
    ]
    if swaps and rng.random() < 0.5:
        i, j = rng.choice(swaps)
        cols = list(range(len(factors)))
        cols[i], cols[j] = j, i
        star = digits[:, cols] @ np.array(_mixed_radix_weights(factors))

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
    one = int(perm[one])

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
        tuple(map(tuple, add.tolist())),
        tuple(map(tuple, mul.tolist())),
        tuple(star.tolist()),
        0,
        one,
    )


def _table_key(spec: TableSpec) -> bytes:
    """The candidate's exact tables, compactly: every entry is below its
    order, at most ``RANDOM_TABLE_MAX_ORDER``, and the length fixes it."""
    rows = chain(spec.add, spec.mul, (spec.star, (spec.one,)))
    return bytes(chain.from_iterable(rows))


def fuzz(config: FuzzConfig, cap: int = DEFAULT_ORDER_CAP) -> FuzzReport:
    """Generate rings deterministically from the seed and run the suite.

    Structural families are enumerated systematically (largest first);
    the random-table family fills the remaining budget with validated
    candidates, discarding any that fail validation. A failing theorem
    whose hypotheses were satisfied halts the run.

    Small orders have few relabellings, so most random candidates repeat
    an earlier one. Every theorem is a function of the tables, so each
    distinct candidate is validated and checked once, and a repeat reuses
    its first draw's outcome; the report is the same as without reuse.
    In the same way each distinct part of the structural rings (a Z_n) is
    built and validated once, and each factorization's base tables are
    built once. All this reuse is scoped to one call: nothing outlives it.
    """
    specs = structural_specs(config, cap)
    rng = random.Random(config.seed)
    counts = {"fail": 0, "pass": 0, "skipped": 0}
    failures: list[dict] = []
    rings_checked = 0
    halted = False

    def check(verdicts, spec) -> bool:
        nonlocal rings_checked, halted
        rings_checked += 1
        for verdict in verdicts:
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

    parts: dict = {}
    for spec in specs:
        if rings_checked >= config.budget:
            break
        if not check(run_suite(realize(spec, cap, parts)), spec):
            break

    if "random-table" in config.families and not halted:
        # Candidate tables -> None if validation rejected them, else their
        # verdicts. Most rings share one verdict tuple, so each is stored once.
        outcomes: dict[bytes, tuple | None] = {}
        interned: dict[tuple, tuple] = {}
        bases: dict[tuple, tuple] = {}
        while rings_checked < config.budget:
            candidate = _random_table_candidate(rng, config.max_order, bases)
            key = _table_key(candidate)
            if key not in outcomes:
                try:
                    ring = realize(candidate, cap)
                except TableValidationError:
                    outcomes[key] = None
                    continue
                verdicts = tuple(run_suite(ring))
                outcomes[key] = interned.setdefault(verdicts, verdicts)
            verdicts = outcomes[key]
            if verdicts is not None and not check(verdicts, candidate):
                break

    return FuzzReport(config, rings_checked, counts, failures)
