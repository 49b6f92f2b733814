"""Tests of the benchmark harness itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
from layers import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_calls_of_any_layer():
    clock = FakeClock()
    tracer = Tracer(clock=clock, min_span_s=0.0)

    def inner():
        clock.advance(3)

    def mid():
        clock.advance(2)
        inner_c()
        clock.advance(4)

    def outer():
        clock.advance(1)
        mid_h()
        inner_c()
        clock.advance(5)

    inner_c = tracer.wrap(inner, "inner", "clock")
    mid_h = tracer.wrap(mid, "mid", "heap")
    tracer.wrap(outer, "outer", "spark")()

    m = tracer.metrics(wall_s=20.0)
    assert (m["clock.self_s"], m["clock.calls"]) == (6.0, 2)
    assert (m["heap.self_s"], m["heap.calls"]) == (6.0, 1)
    assert (m["spark.self_s"], m["spark.calls"]) == (6.0, 1)
    assert m["other.self_s"] == 2.0
    covered = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
    assert covered + m["other.self_s"] == m["trace.wall_s"]
    # (id, parent, name): spans close innermost first
    assert [(s[0], s[1], s[2]) for s in tracer.spans] == [
        (3, 2, "inner"), (2, 1, "mid"), (4, 1, "inner"), (1, 0, "outer"),
    ]


def test_calls_inside_their_own_layer_fold_into_the_enclosing_call():
    clock = FakeClock()
    tracer = Tracer(clock=clock, min_span_s=0.0)
    engine = tracer.wrap(lambda: clock.advance(2), "run", "gc")

    def scavenge():
        clock.advance(1)
        engine()

    tracer.wrap(scavenge, "minor_gc", "gc", "minor")()
    engine()
    m = tracer.metrics(wall_s=5.0)
    assert m["gc.minor_self_s"] == 3.0
    assert m["gc.major_self_s"] == 0.0
    assert m["gc.self_s"] == 5.0 and m["gc.calls"] == 2
    assert [s[2] for s in tracer.spans] == ["minor_gc", "run"]


def report(wall, setup=0.2, rss=100.0, digest="d1", ok=True):
    out = {"wall_s": wall, "setup_s": setup, "peak_rss_mib": rss, "ok": ok,
           "error": None if ok else "OutOfMemoryError: boom"}
    if ok:
        out.update(digest=digest, buckets={"other": 1.0},
                   counters={k: 0 for k in run.COUNTERS})
    return out


EXPECTED = {"seed": 42, "digests": {"w": "d1"}}


def test_medians_and_fail_frac():
    raw = {
        "jobs": [report(3.0, 0.4), report(1.0, 0.1), report(9.0, ok=False),
                 report(2.0, 0.3)],
        "setups": [{"setup_s": 0.2}],
        "traced": None,
    }
    res = run.aggregate("w", raw, 42, EXPECTED)
    assert res["metrics"]["wall_s"]["median"] == 2.0
    assert res["metrics"]["wall_s"]["n"] == 3
    assert res["metrics"]["setup_s"]["median"] == 0.2
    assert res["metrics"]["setup_s"]["n"] == 5
    assert (res["attempted"], res["failed"]) == (4, 1)
    assert res["fail_frac"] == 0.25
    assert not res["correct"]


def test_traced_job_counts_and_must_match_untraced():
    traced = report(5.0, digest="d2")
    traced["layers"] = Tracer().metrics(5.0)
    raw = {"jobs": [report(2.0)], "setups": [], "traced": traced}
    res = run.aggregate("w", raw, 7, EXPECTED)
    assert res["attempted"] == 2 and res["failed"] == 0
    assert res["layers"]["trace.overhead_s"] == 3.0
    assert not res["correct"]
    assert "traced digest" in res["problems"][0]


def test_digest_check_flags_a_perturbed_bucket():
    summary = {"buckets": {"other": 1.5, "sd_io": 0.25},
               "counters": {"gc.minor_count": 3}}
    good = child.digest(summary)
    summary["buckets"]["sd_io"] = math.nextafter(0.25, 1.0)
    bad = child.digest(summary)
    assert bad != good
    expected = {"seed": 42, "digests": {"w": good}}
    ok = run.aggregate("w", {"jobs": [report(1.0, digest=good)],
                             "setups": [], "traced": None}, 42, expected)
    assert ok["correct"]
    res = run.aggregate("w", {"jobs": [report(1.0, digest=bad)],
                              "setups": [], "traced": None}, 42, expected)
    assert not res["correct"]
    # another seed has no pinned digest: only agreement is checked
    assert run.aggregate("w", {"jobs": [report(1.0, digest=bad)],
                               "setups": [], "traced": None}, 43, expected)["correct"]


@pytest.mark.parametrize("workload", sorted(child.WORKLOADS))
def test_summary_has_every_modelled_counter(workload):
    """A shrunken copy of each workload, so the counters are real."""
    spec = dict(child.WORKLOADS[workload], dataset_gb=2, dram_gb=2)
    if spec["framework"] == "spark":
        spec.update(dram_gb=18, scale=0.1)
    vm, measured = child.build(spec, seed=1)
    summary = child.summarize(vm, measured())
    assert set(run.COUNTERS) <= set(summary["counters"])


def test_benchmark_json_names_match_what_run_emits():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(child.WORKLOADS)
    traced = report(5.0)
    traced["layers"] = Tracer().metrics(5.0)
    res = run.aggregate("w", {"jobs": [report(2.0)], "setups": [],
                              "traced": traced}, 42, EXPECTED)
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        emitted = run.result_line(res, trace)["metrics"]
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            k: v["unit"] for k, v in emitted.items()}
    assert {m["name"]: m["bound"] for m in spec["end_to_end"]} == {
        k: bound for k, (_, bound) in run.END_TO_END.items()}


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert run.verdict(base, base, 0.10) == "unchanged"
    assert run.verdict(base, [x * 1.2 for x in base], 0.10) == "worse"
    assert run.verdict(base, [x * 0.8 for x in base], 0.10) == "better"
    noisy = [8.0, 12.0, 9.0, 13.0, 10.0]
    assert run.verdict(base, noisy, 0.10) == "unresolved"
    assert run.verdict(noisy, [5.0, 6.0, 7.0], 0.10) == "better"
