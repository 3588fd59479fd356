"""Per-layer trace, recorded from outside the package.

Each layer is timed by wrapping the entry points its callers look up, at
the name they look them up under, so ``src/`` is not changed. Spans stay in
memory as ``[name, start, end, parent, item, error]`` lists and are turned
into self times when a pass ends.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "rings", "analysis", "order", "theorems", "fuzz")

# Wrapped entry points each workload is predicted to call; every other one
# must stay idle. Memo builds and hits count as "rings.memo", any theorem as
# "theorems.run_theorem".
_COMMON = {"cli.main", "rings.realize", "rings.validate", "rings.memo"}
_THEOREMS = {"order.initial_segment", "theorems.run_suite", "theorems.run_theorem"}
PREDICTED_CALLS = {
    "verify-ladder": _COMMON | _THEOREMS | {"cli.parse"},
    "fuzz-deep": _COMMON | _THEOREMS | {"fuzz.fuzz", "fuzz.candidate"},
    "tables-classify": _COMMON | {"cli.parse"},
}
# Layers each workload is predicted to run; a memo build counts under the
# module that defines its build function.
PREDICTED_LAYERS = {
    "verify-ladder": {"cli", "rings", "analysis", "order", "theorems"},
    "fuzz-deep": set(LAYERS),
    "tables-classify": {"cli", "rings", "analysis"},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()  # entry point -> calls, memo and theorems aside
        self.hits: Counter = Counter()
        self.builds: Counter = Counter()
        self.verdicts: Counter = Counter()
        self.theorems: set[str] = set()
        self.item: str | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            rec[5] = type(exc).__name__
            raise
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def wrap_theorem(self, fn):
        def run_theorem(ring, theorem_id, *args, **kwargs):
            verdict = self.call(f"theorems.{theorem_id}", fn, ring, theorem_id, *args, **kwargs)
            self.theorems.add(theorem_id)
            self.verdicts[verdict.status] += 1
            return verdict

        return run_theorem

    def wrap_memo(self, fn):
        def memo(ring, key, build):
            owner = f"{build.__module__.rsplit('.', 1)[-1]}.{key}"
            if key in ring._memo:
                self.hits[owner] += 1
                return fn(ring, key, build)
            self.builds[owner] += 1
            return self.call(owner, fn, ring, key, build)

        return memo


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every lookup the layers go through."""
    import starorder.cli as cli
    import starorder.order as order
    import starorder.rings as rings
    import starorder.theorems as theorems

    # `starorder.fuzz` is the re-exported function; the module is only
    # reachable through sys.modules.
    fuzz = sys.modules["starorder.fuzz"]
    w = tracer.wrap
    realize = w("rings.realize", rings.realize)
    run_suite = w("theorems.run_suite", theorems.run_suite)
    run_theorem = tracer.wrap_theorem(theorems.run_theorem)
    initial_segment = w("order.initial_segment", order.initial_segment)
    fuzz_fn = w("fuzz.fuzz", fuzz.fuzz)
    cli_json = types.SimpleNamespace(
        loads=w("cli.parse", json.loads),
        dumps=json.dumps,
        JSONDecodeError=json.JSONDecodeError,
    )
    return [
        (cli, "main", w("cli.main", cli.main)),
        (cli, "json", cli_json),
        (cli, "spec_from_json", w("cli.parse", cli.spec_from_json)),
        (cli, "realize", realize),
        (cli, "run_suite", run_suite),
        (cli, "run_theorem", run_theorem),
        (cli, "initial_segment", initial_segment),
        (cli, "fuzz", fuzz_fn),
        (rings, "realize", realize),
        (rings, "validate_tables", w("rings.validate", rings.validate_tables)),
        (rings.StarRing, "memo", tracer.wrap_memo(rings.StarRing.memo)),
        (order, "initial_segment", initial_segment),
        (theorems, "realize", realize),
        (theorems, "run_suite", run_suite),
        (theorems, "run_theorem", run_theorem),
        (fuzz, "realize", realize),
        (fuzz, "run_suite", run_suite),
        (fuzz, "fuzz", fuzz_fn),
        (fuzz, "_random_table_candidate", w("fuzz.candidate", fuzz._random_table_candidate)),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Route every layer entry point through ``tracer`` while the block runs."""
    patches = _patches(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name.

    Memo builds appear as ``<module>.<key>_s`` and ``<module>.<key>_hits``
    for every key seen; declared keys that never ran are filled in by the
    caller.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls = tracer.calls
    self_s: Counter = Counter()
    for s, t in zip(spans, selfs):
        self_s[s[0]] += t
    rejected = sum(
        1
        for s in spans
        if s[0] == "rings.realize"
        and s[5] == "TableValidationError"
        and s[3] >= 0
        and spans[s[3]][0] == "fuzz.fuzz"
    )
    hits = sum(tracer.hits.values())
    builds = sum(tracer.builds.values())
    candidates = calls["fuzz.candidate"]
    m: dict[str, float] = {
        "rings.validate_s": self_s["rings.validate"],
        "rings.validate_calls": calls["rings.validate"],
        "rings.construct_s": self_s["rings.realize"],
        "rings.memo_hits": hits,
        "rings.memo_builds": builds,
        "rings.memo_hit_ratio": hits / (hits + builds) if hits + builds else 0.0,
        "order.initial_segment_s": self_s["order.initial_segment"],
        "order.initial_segment_calls": calls["order.initial_segment"],
        "theorems.pass": tracer.verdicts["pass"],
        "theorems.fail": tracer.verdicts["fail"],
        "theorems.skipped": tracer.verdicts["skipped"],
        "fuzz.self_s": self_s["fuzz.fuzz"] + self_s["fuzz.candidate"],
        "fuzz.candidates": candidates,
        "fuzz.rejected": rejected,
        "fuzz.accept_ratio": (candidates - rejected) / candidates if candidates else 0.0,
        "cli.parse_s": self_s["cli.parse"],
        "cli.self_s": self_s["cli.main"],
    }
    for key in tracer.hits.keys() | tracer.builds.keys():
        m[f"{key}_s"] = self_s[key]
        m[f"{key}_hits"] = tracer.hits[key]
    for tid in tracer.theorems:
        m[f"theorems.{tid}_s"] = self_s[f"theorems.{tid}"]
    return m


def layers_used(tracer: Tracer) -> set[str]:
    return {s[0].split(".", 1)[0] for s in tracer.spans} | {
        k.split(".", 1)[0] for k in tracer.hits
    }


def calls_used(tracer: Tracer) -> set[str]:
    """Entry points that recorded at least one call, named as in PREDICTED_CALLS."""
    used = set(tracer.calls)
    if tracer.theorems:
        used.add("theorems.run_theorem")
    if tracer.hits or tracer.builds:
        used.add("rings.memo")
    return used


def unpredicted(tracer: Tracer, workload: str) -> list[str]:
    """How the pass's calls differ from the workload's prediction."""
    out = []
    for what, used, want in (
        ("entry points", calls_used(tracer), PREDICTED_CALLS[workload]),
        ("layers", layers_used(tracer), PREDICTED_LAYERS[workload]),
    ):
        if used != want:
            out.append(f"{what} idle: {sorted(want - used)}, unexpected: {sorted(used - want)}")
    return out


def item_overruns(tracer: Tracer, item_walls: dict[str, float]) -> list[str]:
    """Items whose layer self times sum to more than the item's wall time."""
    per_item: Counter = Counter()
    for s, t in zip(tracer.spans, self_times(tracer.spans)):
        per_item[s[4]] += t
    return [
        item for item, total in per_item.items() if total > item_walls.get(item, 0.0) + 1e-9
    ]
