#!/usr/bin/env python3
"""starorder benchmark: one workload, closed loop, one caller.

    python3 perfbench/run.py --workload verify-ladder --seed 42 --seconds 38 --trace 0

Each item is an in-process ``starorder.cli.main([...])`` call with stdout
and stderr captured. Passes over the workload repeat until the next one
would end after ``--seconds``; every item's output is checked after its
pass. Human-readable lines come first; the last line of stdout is one JSON
object with the metrics ``BENCHMARK.json`` declares: the end-to-end ones
with ``--trace 0``, the per-layer ones with ``--trace 1``. End-to-end times
are scaled to a reference host speed by the probes in ``speed.py``; the
unscaled ones are printed beside them. A traced run alternates untraced and
traced passes, so ``trace.overhead_frac`` compares passes of the same run,
and writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7

# One BLAS/OpenMP thread: the caller is the only thread that does work, so
# the timings do not depend on how the host schedules a second one.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def _import_program():
    """Import starorder from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import starorder.cli as cli
    except ImportError as exc:
        raise RuntimeError(f"cannot import starorder from {SRC}: {exc}") from exc
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"starorder imported from {cli.__file__}, not from {SRC}")
    return cli


def _setup_sample(workload: str, seed: int) -> tuple[speed.Timing, list]:
    """One set-up: a fresh interpreter importing the program, then input generation."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def setup():
        subprocess.run(
            [sys.executable, "-c", "import starorder.cli"], env=env, cwd=ROOT, check=True
        )
        return inputs.WORKLOADS[workload](seed)

    # No probes during the child interpreter: they would run on its second core.
    items, timing = speed.timed(setup, interval=None)
    return timing, items


def _run_pass(cli, items, expected, digests, tracer=None):
    """Run every item once; returns ({item: Timing}, failures).

    A traced pass runs the probes only before and after each item, so its
    spans hold no probe time.
    """
    timings: dict[str, speed.Timing] = {}
    outputs = []
    interval = speed.INTERVAL_S if tracer is None else None
    for item in items:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.item = item.name

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(list(item.argv))

        try:
            rc, timings[item.name] = speed.timed(call, interval)
        except Exception as exc:  # an item that raises is a failed item
            rc, why = None, f"raised {exc!r}"
        else:
            why = None
        outputs.append((item, rc, out.getvalue(), err.getvalue(), why))
    failures = []
    for item, rc, out, err, why in outputs:
        why = why or checks.check(item, rc, out, err, expected, digests)
        if why:
            failures.append(f"{item.name}: {why}")
    return timings, failures


def _pass_wall(timings: dict[str, speed.Timing]) -> float:
    return sum(t.raw for t in timings.values())


def _percentile(samples: list[float]) -> str:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    ranked = sorted(samples)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= 10:
            return f"p{p} {ranked[rank - 1]:.4f}"
    return "no percentile has 10 samples beyond it"


def _line(name: str, value: float, unit: str, samples: list[float] | None = None) -> None:
    tail = ""
    if samples is not None:
        tail = f"   median of n={len(samples)}; {_percentile(samples)}"
    print(f"  {name:<34} {value:>12.6g} {unit:<6}{tail}")


def _end_to_end(workload, setup, passes, items) -> dict[str, float]:
    """Scaled times: set-up median, and the sum of each item's median as wall_s."""
    item_walls = {
        it.name: [p[it.name].scaled for p in passes if it.name in p] for it in items
    }
    # Set-up samples are short and probed only before and after, so their
    # probes are pooled into one factor for the whole set-up phase.
    setup_raw = [t.raw for t in setup]
    setup_factor = speed.pooled_factor(setup)
    m = {
        "setup_s": statistics.median(setup_raw) * setup_factor,
        "wall_s": sum(statistics.median(v) for v in item_walls.values() if v),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_walls = [_pass_wall(p) for p in passes]
    factors = [t.factor for p in passes for t in p.values()]
    print(f"end-to-end, {workload} (times scaled to the reference speed):")
    _line("setup_s", m["setup_s"], "s", [t * setup_factor for t in setup_raw])
    _line("wall_s", m["wall_s"], "s")
    _line("peak_rss_mb", m["peak_rss_mb"], "MB")
    print("  unscaled:")
    _line("setup_raw_s", statistics.median(setup_raw), "s")
    _line("wall_raw_s", statistics.median(raw_walls), "s", raw_walls)
    _line("speed_factor", statistics.median(factors), "ratio", factors)
    # Workload-specific metrics: printed here, not in the JSON line, whose
    # metrics every workload must report.
    if workload == "verify-ladder":
        for slot, _ in inputs.LADDER:
            samples = item_walls[f"verify.{slot}"]
            _line(f"verify_s.{slot}", statistics.median(samples), "s", samples)
    elif workload == "fuzz-deep":
        _line("rings_per_s", inputs.FUZZ_BUDGET / m["wall_s"], "1/s")
    else:
        for kind in ("accept", "reject"):
            samples = [t for it in items if it.kind == kind for t in item_walls[it.name]]
            _line(f"{kind}_s", statistics.median(samples), "s", samples)
    return m


def _per_layer(declared, traced, untraced_walls, traced_walls) -> dict[str, float]:
    metrics = [spans.layer_metrics(t) for t in traced]
    seen = set().union(*metrics)
    m = {
        name: statistics.median(pm.get(name, 0) for pm in metrics)
        for name in declared
        if name != "trace.overhead_frac"
    }
    m["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(
        untraced_walls
    ) - 1
    print("per-layer (self times unless a count):")
    for name in sorted(m):
        print(f"  {name:<44} {m[name]:.6g}")
    for name in sorted(seen - set(declared)):
        print(f"  undeclared {name:<33} {statistics.median(pm.get(name, 0) for pm in metrics):.6g}")
    return m


def _write_trace(workload: str, seed: int, traced) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    with path.open("w") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "fields": ["name", "start", "end", "parent", "item", "error"],
                "passes": [t.spans for t in traced],
            },
            fh,
        )
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be >= 0")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        cli = _import_program()
        expected = checks.load_expected()
    except (OSError, ValueError, RuntimeError) as exc:
        return _fail(str(exc))

    setup, items = [], []
    for _ in range(SETUP_REPEATS):
        t, items = _setup_sample(args.workload, args.seed)
        setup.append(t)
    recorded = expected["digests"][args.workload]
    digests = recorded["items"] if recorded["seed"] in (None, args.seed) else {}

    passes, traced_walls, traced = [], [], []
    steps: list[float] = []  # time of each round of passes, probes and checks included
    failures: list[str] = []  # one per failed item
    problems: list[str] = []  # trace checks
    attempted = 0
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        timings, bad = _run_pass(cli, items, expected, digests)
        passes.append(timings)
        attempted += len(items)
        failures += bad
        if args.trace:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                timings, bad = _run_pass(cli, items, expected, digests, tracer)
            traced.append(tracer)
            traced_walls.append(_pass_wall(timings))
            attempted += len(items)
            failures += bad
            problems += spans.unpredicted(tracer, args.workload)
            walls = {name: t.raw for name, t in timings.items()}
            problems += [f"{n}: layer self times exceed the item's wall time"
                         for n in spans.item_overruns(tracer, walls)]
        steps.append(time.perf_counter() - t_round)
        if time.perf_counter() - t_start + statistics.median(steps) > args.seconds:
            break

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"  items/pass {len(items)}  trace {args.trace}")
    for f in failures:
        print(f"  FAILED {f}")
    for p in problems:
        print(f"  TRACE CHECK FAILED {p}")
    print(f"  failed_frac {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    e2e = _end_to_end(args.workload, setup, passes, items)
    if args.trace:
        declared = bench["per_layer"]
        untraced_walls = [_pass_wall(p) for p in passes]
        values = _per_layer([d["name"] for d in declared], traced, untraced_walls, traced_walls)
        print(f"  spans written to {_write_trace(args.workload, args.seed, traced).relative_to(ROOT)}")
    else:
        declared = bench["end_to_end"]
        values = e2e
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
