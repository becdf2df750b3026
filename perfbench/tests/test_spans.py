"""Self-time arithmetic and wrapper installation of the tracer."""

import json
from pathlib import Path

import pytest

import spans
from workloads import WORKLOADS, experiment_names

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def test_nested_spans_self_time(clock):
    tracer = spans.Tracer(pass_id=7, clock=clock)

    def inner():
        clock.tick(2.0)

    inner = tracer.wrap("inner", inner)

    def outer():
        clock.tick(1.0)
        inner()
        clock.tick(3.0)
        inner()

    tracer.wrap("outer", outer)()
    assert tracer.stats["outer"].self_s == pytest.approx(4.0)
    assert tracer.stats["inner"].self_s == pytest.approx(4.0)
    assert tracer.stats["outer"].calls == 1
    assert tracer.stats["inner"].calls == 2
    assert tracer.total_self_s() == pytest.approx(8.0)
    by_name = {}
    for span_id, name, start, end, parent, pass_id in tracer.spans:
        by_name.setdefault(name, []).append((span_id, start, end, parent))
        assert pass_id == 7
    (outer_id, start, end, parent), = by_name["outer"]
    assert (start, end, parent) == (0.0, 8.0, -1)
    assert [s[3] for s in by_name["inner"]] == [outer_id, outer_id]
    assert [(s[1], s[2]) for s in by_name["inner"]] == [(1.0, 3.0), (6.0, 8.0)]


def test_recursive_span_counts_one_call_and_its_points_once(clock):
    """net_multiplicity(family=2) calls itself with family 1 on the same points."""
    tracer = spans.Tracer(clock=clock)

    def multiplicity(pts, family=1):
        clock.tick(1.0)
        if family == 2:
            return wrapped(pts, family=1)
        clock.tick(5.0)
        return [1] * len(pts)

    wrapped = tracer.wrap("net", multiplicity, count=spans._rows)
    wrapped([0, 0, 0], family=2)
    stat = tracer.stats["net"]
    assert stat.calls == 1
    assert stat.points == 3
    # outer self = 7 - 6; inner self = 6; together the whole span
    assert stat.self_s == pytest.approx(7.0)
    assert len(tracer.spans) == 2


def test_hot_calls_leave_no_span_but_count_against_the_parent(clock):
    tracer = spans.Tracer(clock=clock)
    hot = tracer.wrap("tau", lambda: clock.tick(0.5), hot=True)

    def validate():
        for _ in range(4):
            hot()
        clock.tick(1.0)

    tracer.wrap("validate", validate)()
    assert tracer.stats["tau"].calls == 4
    assert tracer.stats["tau"].self_s == pytest.approx(2.0)
    assert tracer.stats["validate"].self_s == pytest.approx(1.0)
    assert [s[1] for s in tracer.spans] == ["validate"]


def test_raising_call_still_books_its_time(clock):
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.tick(1.5)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.stats["boom"].calls == 1
    assert tracer.stats["boom"].self_s == pytest.approx(1.5)
    assert tracer._stack == []


def test_install_wraps_every_binding_and_uninstall_restores():
    import heislab
    import heislab.cli as cli
    import heislab.families as families
    import heislab.quadratics as quadratics

    original = quadratics.tau
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == {}
        wrapped = quadratics.tau
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert cli.tau is wrapped and families.tau is wrapped and heislab.tau is wrapped
        assert quadratics.tau(quadratics.Quadratic(1, 0, 0), quadratics.Quadratic(0, 0, 0)) > 0
        assert tracer.stats["quadratics.tau"].calls == 1
    finally:
        tracer.uninstall()
    assert quadratics.tau is original and cli.tau is original and families.tau is original


def test_missing_function_is_reported_not_zero():
    gone = spans.Target("bulk.core_distance", "_bulk", ("core_distance_batch_removed",),
                        ("calls", "points"))
    tracer = spans.Tracer()
    tracer.install(targets=(gone,))
    try:
        assert "heislab._bulk.core_distance_batch_removed" in tracer.missing["bulk.core_distance"]
        metrics = tracer.layer_metrics()
        assert not any(name.startswith("bulk.core_distance.") for name in metrics)
    finally:
        tracer.uninstall()


def test_benchmark_json_matches_the_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
    expected = (spans.layer_metric_names()
                + [f"cli.{e}.wall_s" for e in experiment_names()]
                + ["trace.overhead_frac", "trace.unattributed_s"])
    assert [m["name"] for m in bench["per_layer"]] == expected
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name in spans.layer_metric_names():
        assert units[name] == spans.UNITS[name.rsplit(".", 1)[1]]
