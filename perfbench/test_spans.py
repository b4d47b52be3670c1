"""Checks of the span tracer's self-time arithmetic.

    python3 -m pytest perfbench/test_spans.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer, traced  # noqa: E402


class FakeClock:
    """Each reading advances time by a fixed step, so durations are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer(clock=FakeClock())

    def leaf():
        return 1

    def middle():
        return f_leaf() + f_leaf()

    def root():
        return f_middle() + f_leaf() + f_middle()

    f_leaf = traced(tracer, "leaf", leaf)
    f_middle = traced(tracer, "middle", middle)
    f_root = traced(tracer, "root", root)
    assert f_root() == 5

    calls = tracer.calls()
    assert (calls["root"], calls["middle"], calls["leaf"]) == (1, 2, 5)
    root_span = tracer.names.index("root")
    root_duration = tracer.ends[root_span] - tracer.starts[root_span]
    self_s = tracer.self_times()
    assert sum(self_s.values()) == root_duration
    # each clock reading advances one unit: a leaf lasts 1, a middle span
    # lasts 5 with 2 covered by its leaves, the root lasts 15 with 11 covered
    assert root_duration == 15.0
    assert self_s == {"leaf": 5.0, "middle": 6.0, "root": 4.0}


def test_span_closed_when_the_call_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    f = traced(tracer, "boom", boom)
    try:
        f()
    except ValueError:
        pass
    assert tracer.ends[0] is not None
    assert tracer.self_times()["boom"] == 1.0

