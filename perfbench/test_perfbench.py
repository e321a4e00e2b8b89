"""Tests of the benchmark's tracer and metric names.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, merge, valid_metric_name  # noqa: E402


class FakeClock:
    """A clock that moves only when a test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _stat(tracer: Tracer, name: str):
    return tracer.snapshot()["stats"][name]


def test_nested_spans_subtract_wrapped_children(tmp_path):
    clock = FakeClock()
    tracer = Tracer(str(tmp_path), clock=clock)

    def inner(cost):
        clock.now += cost

    inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        inner(2.0)
        clock.now += 0.5
        inner(3.0)

    tracer.wrap("outer", outer)()
    calls, total, self_time = _stat(tracer, "outer")
    assert (calls, total, self_time) == (1, 6.5, 1.5)
    assert _stat(tracer, "inner") == [2, 5.0, 5.0]


def test_self_time_skips_unwrapped_frames_and_counts_grandchildren_once(tmp_path):
    clock = FakeClock()
    tracer = Tracer(str(tmp_path), clock=clock)
    leaf = tracer.wrap("leaf", lambda: setattr(clock, "now", clock.now + 4.0))

    def plain():  # not wrapped: its time belongs to the nearest wrapped caller
        clock.now += 1.0
        leaf()

    middle = tracer.wrap("middle", lambda: (plain(), setattr(clock, "now", clock.now + 2.0)))
    tracer.wrap("top", middle)()
    assert _stat(tracer, "leaf") == [1, 4.0, 4.0]
    assert _stat(tracer, "middle") == [1, 7.0, 3.0]
    assert _stat(tracer, "top") == [1, 7.0, 0.0]


def test_span_is_recorded_when_the_call_raises(tmp_path):
    clock = FakeClock()
    tracer = Tracer(str(tmp_path), clock=clock)

    def fail():
        clock.now += 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("fail", fail)()
    assert _stat(tracer, "fail") == [1, 1.0, 1.0]
    # The stack is balanced again: a later span has no phantom parent.
    tracer.wrap("after", lambda: None)()
    assert _stat(tracer, "after")[0] == 1


def test_reset_forgets_earlier_spans(tmp_path):
    tracer = Tracer(str(tmp_path))
    probe = tracer.wrap("probe", lambda: None)
    probe()
    tracer.reset()
    probe()
    assert _stat(tracer, "probe")[0] == 1


def _square(value):
    return value * value


def _pool_job(values):
    context = multiprocessing.get_context("fork")
    with context.Pool(2) as pool:
        result = pool.map(_square, values, chunksize=1)
        pool.close()
        pool.join()
    return result


def test_forked_workers_report_their_own_spans(tmp_path):
    tracer = Tracer(str(tmp_path))
    module = sys.modules[__name__]
    modules = [module]
    tracer.install("square", module, "_square", modules)
    tracer.install("pool_job", module, "_pool_job", modules)
    try:
        assert _square(3) == 9  # one call in the parent, before the fork
        assert module._pool_job(list(range(10))) == [v * v for v in range(10)]
    finally:
        module._square = module._square.__wrapped__
        module._pool_job = module._pool_job.__wrapped__
    parent = tracer.snapshot()
    children = tracer.child_tables()
    assert 1 <= len(children) <= 2
    # Workers start empty: the parent's pre-fork call is not repeated.
    assert sum(child["stats"].get("square", [0])[0] for child in children) == 10
    assert all("pool_job" not in child["stats"] for child in children)
    assert parent["stats"]["square"][0] == 1
    # Worker time is not subtracted from the parent's span.
    calls, total, self_time = parent["stats"]["pool_job"]
    assert calls == 1 and self_time == pytest.approx(total)
    merged = merge([parent] + children)
    assert merged["stats"]["square"][0] == 11


def test_install_patches_every_importers_binding(tmp_path):
    source = types.ModuleType("perfbench_fake_source")
    exec("def f(x):\n    return x + 1\nTABLE = {'f': f}\n", vars(source))
    importer = types.ModuleType("perfbench_fake_importer")
    importer.f = source.f  # what `from perfbench_fake_source import f` does
    exec("def call(x):\n    return f(x)\n", vars(importer))
    tracer = Tracer(str(tmp_path))
    replaced = tracer.install("fake.f", source, "f", [source, importer])
    assert replaced == 3  # source.f, source.TABLE['f'], importer.f
    assert importer.call(1) == 2
    source.TABLE["f"](1)
    assert _stat(tracer, "fake.f")[0] == 2


def test_observer_counts_results(tmp_path):
    tracer = Tracer(str(tmp_path))

    def observe(counts, args, kwargs, result):
        counts["even"] = counts.get("even", 0) + (result % 2 == 0)

    double = tracer.wrap("double", lambda x: 2 * x, sample=True, observe=observe)
    for value in range(3):
        double(value)
    snapshot = tracer.snapshot()
    assert snapshot["counts"] == {"even": 3}
    assert len(snapshot["samples"]["double"]) == 3


@pytest.mark.parametrize("name", ["job_s", "crypto.aead.self_s", "a-b_c.9", "9lives"])
def test_metric_name_rule_accepts(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "stage s", "rate/s", "a:b", "é", "x\n"])
def test_metric_name_rule_rejects(name):
    assert not valid_metric_name(name)


def test_every_metric_name_is_valid_unique_and_in_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [metric["name"] for metric in doc["per_layer"]]
    end_to_end = [metric["name"] for metric in doc["end_to_end"]]
    assert per_layer == [name for name, _unit, _better in layers.PER_LAYER]
    assert end_to_end == list(run.END_TO_END)
    names = per_layer + end_to_end
    assert len(names) == len(set(names))
    assert all(valid_metric_name(name) for name in names)
    assert len(per_layer) <= 128


def test_derive_reports_every_per_layer_metric():
    table = {"stats": {}, "samples": {}, "counts": {}}
    values = layers.derive(table, {}, job_s=1.0, workers=0)
    assert set(values) | {"observability.trace_overhead"} == {
        name for name, _unit, _better in layers.PER_LAYER
    }
