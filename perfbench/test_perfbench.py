"""Checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Runs one traced pass of every workload, about half a minute in all.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import checks
import inputs
import run
import spans

DECLARED = {
    d["name"] for d in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
}


def test_numpy_tables_match_the_program():
    run._import_program()
    from starorder import realize, spec_from_json

    for slot, spec in inputs.LADDER:
        ring = realize(spec_from_json(spec))
        add, mul, star, one = inputs.structural_tables(slot)
        assert np.array_equal(ring.addition, add)
        assert np.array_equal(ring.multiplication, mul)
        assert np.array_equal(ring.involution, star)
        assert ring.one == one


def test_inputs_depend_only_on_the_seed():
    a, b, c = (inputs.tables_classify(s) for s in (7, 7, 8))
    assert [i.argv for i in a] == [i.argv for i in b]
    assert [i.argv for i in a] != [i.argv for i in c]


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_each_layer_records_calls_where_predicted(workload):
    cli = run._import_program()
    from starorder.rings import StarRing

    originals = (cli.main, StarRing.memo)
    expected = checks.load_expected()
    items = inputs.WORKLOADS[workload](expected["seed"])
    tracer = spans.Tracer()
    with spans.installed(tracer):
        timings, failures = run._run_pass(
            cli, items, expected, expected["digests"][workload]["items"], tracer
        )
    assert (cli.main, StarRing.memo) == originals
    assert failures == []
    assert spans.unpredicted(tracer, workload) == []
    walls = {name: t.raw for name, t in timings.items()}
    assert spans.item_overruns(tracer, walls) == []
    assert set(spans.layer_metrics(tracer)) <= DECLARED


def test_timed_takes_probe_time_out_and_restores_the_handler():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    result, timing = speed.timed(lambda: sum(i * i for i in range(300_000)), interval=0.005)
    wall = time.perf_counter() - t0
    assert result == sum(i * i for i in range(300_000))
    assert 0 < timing.raw < wall and timing.factor > 0
    assert signal.getsignal(signal.SIGALRM) == before

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        speed.timed(boom)
    assert signal.getsignal(signal.SIGALRM) == before
