"""Checks of the benchmark's own span arithmetic.

    python3 -m pytest bench/test_spans.py
"""

import threading
import types

import numpy as np
import pytest

import spans


def table(rows):
    """Span rows (index, parent, name, t0, t1, c0, c1) with no payload."""
    return np.array([list(r) + [0.0] for r in rows], dtype=float)


def test_self_time_is_duration_minus_union_of_children():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] runs past
    # the parent's end; a grandchild [1.5, 2.5] sits inside the first child.
    # Rows are in end order, as a thread log records them.
    rows = [
        (2, 1, 0, 1.5, 2.5, 0.0, 0.5),
        (1, 0, 0, 1.0, 3.0, 0.0, 1.5),
        (3, 0, 0, 2.0, 5.0, 0.0, 2.0),
        (4, 0, 0, 8.0, 12.0, 0.0, 1.0),
        (0, -1, 0, 0.0, 10.0, 0.0, 7.0),
    ]
    cols = spans.span_columns(table(rows))
    by_index = {int(r[0]): k for k, r in enumerate(rows)}
    parent = by_index[0]
    covered = (5.0 - 1.0) + (10.0 - 8.0)
    assert cols["self_wall"][parent] == pytest.approx(10.0 - covered)
    assert cols["self_wall"][by_index[1]] == pytest.approx(2.0 - 1.0)
    assert cols["self_wall"][by_index[2]] == pytest.approx(1.0)
    # CPU is not an interval: self CPU subtracts the direct children's CPU
    assert cols["self_cpu"][parent] == pytest.approx(7.0 - (1.5 + 2.0 + 1.0))
    assert cols["self_cpu"][by_index[1]] == pytest.approx(1.5 - 0.5)


def test_wait_is_wall_minus_cpu():
    rows = [(1, 0, 0, 2.0, 6.0, 1.0, 2.5), (0, -1, 0, 0.0, 9.0, 0.0, 4.0)]
    cols = spans.span_columns(table(rows))
    np.testing.assert_array_equal(cols["wait"], cols["wall"] - cols["cpu"])
    assert list(cols["wait"]) == [4.0 - 1.5, 9.0 - 4.0]


def test_child_coverage_counts_disjoint_children_in_full():
    parent = [-1, 0, 0, 1]
    t0 = [0.0, 1.0, 4.0, 1.5]
    t1 = [10.0, 3.0, 6.0, 2.0]
    assert list(spans.child_coverage(parent, t0, t1)) == [4.0, 0.5, 0.0, 0.0]


def test_tracer_records_names_threads_and_parents():
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap(inner, "inner", elements=lambda args: args[0])

    def outer():
        return traced_inner(2) + traced_inner(3)

    traced_outer = tracer.wrap(outer, "outer")
    worker = threading.Thread(target=traced_outer, name="device-3")
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    (log,) = tracer.logs
    assert log.thread == "device-3"
    cols = spans.span_columns(log.table())
    names = [tracer.names[i] for i in cols["name"]]
    assert names == ["inner", "inner", "outer"]
    assert list(cols["parent"]) == [2, 2, -1]
    assert list(cols["elements"]) == [2.0, 3.0, 0.0]
    assert (cols["wall"] >= 0).all() and (cols["self_wall"] >= 0).all()


def test_patches_restore_the_originals():
    owner = types.SimpleNamespace(f=len)
    patches = spans.Patches()
    patches.install(owner, "f", lambda fn: lambda x: fn(x) * 10)
    assert owner.f("abc") == 30
    patches.restore()
    assert owner.f is len


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, (50.0, 10.0)), (99, (50.0, 50.0)), (100, (90.0, 90.0)),
    (1000, (99.0, 990.0)), (10000, (99.9, 9990.0)),
])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    values = list(np.arange(1.0, n + 1.0))
    assert spans.tail_percentile(values) == expected
    if expected is not None:
        p, v = expected
        assert sum(x > v for x in values) >= spans.MIN_BEYOND
        higher = [q for q in spans.PERCENTILE_LADDER if q > p]
        if higher:
            assert sum(x > spans.percentile(values, higher[0]) for x in values) < 10
