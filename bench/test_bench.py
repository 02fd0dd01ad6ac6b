"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import itertools
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, check_theorem  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, 0, None, 0]


def test_self_time_of_synthetic_nesting():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
    spans = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 4.0, 0),
             _span("c", 2.0, 3.0, 1), _span("d", 5.0, 9.0, 0)]
    assert tr.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    table = tr.function_table(spans)
    assert table["a"]["busy_s"] == pytest.approx(10.0)
    assert table["b"]["self_s"] == pytest.approx(2.0)


def test_busy_time_counts_recursion_once():
    spans = [_span("f", 0.0, 6.0, -1), _span("f", 1.0, 5.0, 0), _span("g", 2.0, 3.0, 1)]
    row = tr.function_table(spans)["f"]
    assert row["calls"] == 2
    assert row["busy_s"] == pytest.approx(6.0)
    assert row["self_s"] == pytest.approx(5.0)


class _Toy:
    kind = "toy"

    def outer(self):
        return self.inner() + self.inner()

    def inner(self):
        return sum(range(1000))


def test_wrapped_nested_calls_link_parents():
    specs = [tr.WrapSpec(_Toy, "outer", "toy.{kind}.outer"),
             tr.WrapSpec(_Toy, "inner", "toy.inner", count=lambda a, k, r: 7)]
    original = _Toy.__dict__["inner"]
    with tr.Tracer(specs) as t:
        _Toy().outer()
    assert _Toy.__dict__["inner"] is original
    names = [s[tr.NAME] for s in t.spans]
    assert names == ["toy.toy.outer", "toy.inner", "toy.inner"]
    assert [s[tr.PARENT] for s in t.spans] == [-1, 0, 0]
    selfs = tr.self_times(t.spans)
    outer = t.spans[0][tr.END] - t.spans[0][tr.START]
    assert sum(selfs) == pytest.approx(outer)
    assert tr.function_table(t.spans)["toy.inner"]["count"] == 14


def test_every_import_site_is_patched_and_restored():
    from latgauss import gaussian, minkowski

    original = gaussian.measure_auto
    with tr.Tracer(tr.default_specs()):
        assert minkowski.measure_auto is gaussian.measure_auto
        assert gaussian.measure_auto is not original
    assert gaussian.measure_auto is original and minkowski.measure_auto is original


def test_p90_refuses_fewer_than_100_samples():
    with pytest.raises(ValueError):
        harness.tail_percentile([1.0] * 99)
    assert harness.tail_percentile([float(x) for x in range(1, 101)]) == 90.0
    assert harness.tail_percentile([float(x) for x in range(1, 201)]) == 180.0


def _outcome(start, end, records):
    inv = harness.Invocation("toy", call=lambda: iter(()))
    return harness.Outcome(inv, "{}\n" * records, 0, start, end, [end] * records)


def test_rotation_rates_count_invocation_time_not_gaps():
    # two invocations of 1 s each, 3 s apart: the gap between them is not work
    outcomes = [_outcome(0.0, 1.0, 2), _outcome(4.0, 5.0, 4)]
    assert harness.rotation_rates(outcomes, 2) == [pytest.approx(3.0)]
    assert harness.rotation_rates(outcomes, 1) == [pytest.approx(2.0), pytest.approx(4.0)]
    with pytest.raises(ValueError):
        harness.rotation_rates(outcomes, 3)


def test_leading_stops_at_rotation_or_time_budget():
    outcomes = [_outcome(float(i), i + 1.0, 1) for i in range(6)]  # 1 s each
    assert harness.leading(outcomes, 4, 2.5) == outcomes[:3]
    assert harness.leading(outcomes, 2, 10.0) == outcomes[:2]
    assert harness.leading(outcomes, 4, 0.0) == outcomes[:1]


def test_run_for_goes_past_the_deadline_for_enough_records():
    def records():
        yield {"op": 1}
        yield {"op": 2}

    invocations = (harness.Invocation(f"toy #{i}", call=records) for i in itertools.count())
    outcomes, _, _ = harness.run_for(invocations, 0.0, min_records=7)
    assert len(outcomes) == 4
    assert len(harness.run_for(invocations, 0.0)[0]) == 1


def test_probes_run_between_invocations():
    def records():
        yield {"op": 1}

    def slow_records():
        time.sleep(harness.PROBE_EVERY_S)
        yield {"op": 2}

    invocations = [harness.Invocation("toy #0", call=slow_records),
                   harness.Invocation("toy #1", call=records),
                   harness.Invocation("toy #2", call=records)]
    outcomes, _, probes = harness.run_for(invocations, 60.0, probe=harness.HostProbe())
    # one probe before the first invocation, one after the slow one, none after a fast one
    assert len(outcomes) == 3 and len(probes) == 2
    assert all(p > 0 for p in probes)
    assert [o.records for o in outcomes] == [[{"op": 2}], [{"op": 1}], [{"op": 1}]]
    assert harness.run_for(invocations, 60.0)[2] == []
    assert harness.host_slowdown([harness.PROBE_NOMINAL_S] * 3) == pytest.approx(1.0)
    assert harness.host_slowdown([2 * harness.PROBE_NOMINAL_S]) == pytest.approx(2.0)


def test_checker_rejects_an_injected_violated_record():
    outcome = harness.execute(harness.Invocation(
        "check-theorem", argv=["check-theorem", "--n", "1", "--trials", "3", "--seed", "5"]))
    assert outcome.code == 0 and check_theorem([outcome]) == []

    records = outcome.records
    records[0]["verdict"] = "violated"
    records[-1]["holds"] -= 1
    records[-1]["violated"] += 1
    bad = harness.Outcome(outcome.invocation,
                          "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
                          0, outcome.start, outcome.end, outcome.stamps)
    assert any("violated" in e for e in check_theorem([bad]))

    records[-1]["violated"] -= 1  # summary no longer matches the records
    mismatched = harness.Outcome(outcome.invocation,
                                 "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
                                 0, outcome.start, outcome.end, outcome.stamps)
    assert any("does not match" in e for e in check_theorem([mismatched]))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_record_streams_are_identical(name):
    workload = WORKLOADS[name]
    # skip the lattice workload's 1.35e6-point enumeration; it is the same code path
    invocations = list(itertools.islice(workload.stream(3), 1, 4))
    untraced = [harness.execute(inv) for inv in invocations]
    with tr.Tracer(tr.default_specs()) as t:
        traced = [harness.execute(inv) for inv in invocations]
    assert all(o.code == 0 for o in untraced + traced)
    assert [harness.comparable(o.text) for o in untraced] == \
           [harness.comparable(o.text) for o in traced]
    assert workload.check(traced) == []
    names = {s[tr.NAME] for s in t.spans}
    assert "cli.main" in names
    if name in ("lattice-oracles", "balancing"):
        assert "gaussian.mc_fraction" not in names


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tr.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
