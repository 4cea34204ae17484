"""The canonical sweep cell on the fast interpreter vs the generator runtime.

``make_sweep_runner`` runs eligible cells (default ADS, random scheduler,
n >= 2) as one fast-interpreter lane and everything else — including any
lane that falls back or fails a check — on the generator runtime.  The
oracle is ``REPRO_INTERPRETER=generator``: the same runner forced onto the
generator runtime must return the same value or raise the same exception.
"""

import contextlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.batch
from repro.batch import INTERPRETER_ENV, LaneResult, resolve_interpreter
from repro.runtime import StepBudgetExceeded
from repro.workloads import make_sweep_runner


@contextlib.contextmanager
def interpreter(value):
    saved = os.environ.get(INTERPRETER_ENV)
    if value is None:
        os.environ.pop(INTERPRETER_ENV, None)
    else:
        os.environ[INTERPRETER_ENV] = value
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(INTERPRETER_ENV, None)
        else:
            os.environ[INTERPRETER_ENV] = saved


def runner(metric, max_steps=50_000_000, forced=None):
    with interpreter(forced):
        return make_sweep_runner("ads", "random", metric, max_steps)


def outcome(run_once, n, seed):
    try:
        return ("value", run_once(n, seed))
    except StepBudgetExceeded as exc:
        return ("budget", str(exc))


@pytest.fixture
def lane_calls(monkeypatch):
    """Count the lanes the cells hand to the fast interpreter."""
    calls = []
    original = repro.batch.run_lanes

    def counting(specs, *args, **kwargs):
        calls.extend(specs)
        return original(specs, *args, **kwargs)

    monkeypatch.setattr(repro.batch, "run_lanes", counting)
    return calls


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**20),
    metric=st.sampled_from(["steps", "rounds"]),
)
def test_fast_cell_equals_generator_cell(n, seed, metric):
    fast = runner(metric)
    generator = runner(metric, forced="generator")
    assert outcome(fast, n, seed) == outcome(generator, n, seed)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**20),
    max_steps=st.integers(min_value=1, max_value=60),
)
def test_tiny_budget_matches_the_generator(n, seed, max_steps):
    # A lane that exhausts its budget falls back; the generator runtime
    # then raises exactly the StepBudgetExceeded the serial path raises.
    fast = outcome(runner("steps", max_steps), n, seed)
    generator = outcome(runner("steps", max_steps, forced="generator"), n, seed)
    assert fast == generator


@pytest.mark.parametrize("n", [2, 3, 5])
def test_forced_fallback_raises_step_budget_exceeded(n, lane_calls):
    fast = outcome(runner("steps", 5), n, 0)
    assert fast[0] == "budget"
    assert fast == outcome(runner("steps", 5, forced="generator"), n, 0)
    assert len(lane_calls) == 1  # the lane ran, fell back, then the generator


def test_eligible_cells_take_the_fast_path(lane_calls):
    run_once = runner("steps")
    run_once(1, 0)
    assert lane_calls == []  # n = 1 never reaches the fast interpreter
    run_once(3, 7)
    assert [(spec.n, spec.seed) for spec in lane_calls] == [(3, 7)]


def test_generator_override_skips_the_fast_path(lane_calls):
    runner("steps", forced="generator")(3, 7)
    assert lane_calls == []


def test_other_cells_never_take_the_fast_path(lane_calls):
    make_sweep_runner("ads", "round-robin", "steps", 50_000_000)(3, 1)
    make_sweep_runner("local-coin", "random", "steps", 50_000_000)(3, 1)
    assert lane_calls == []


def test_failed_check_falls_back_to_the_generator(monkeypatch):
    # A lane that violates agreement is never trusted: the cell re-runs
    # on the generator runtime and returns its value.
    expected = runner("steps", forced="generator")(3, 5)

    def disagreeing(specs, *args, **kwargs):
        return [
            LaneResult(spec=spec, decisions={0: 0, 1: 1, 2: 1}, total_steps=1)
            for spec in specs
        ]

    monkeypatch.setattr(repro.batch, "run_lanes", disagreeing)
    assert runner("steps")(3, 5) == expected


def test_memory_bound_violation_raises(monkeypatch):
    def overflowing(specs, *args, **kwargs):
        return [
            LaneResult(
                spec=spec,
                decisions={pid: spec.inputs[0] for pid in range(spec.n)},
                total_steps=1,
                max_magnitude=10**6,
            )
            for spec in specs
        ]

    monkeypatch.setattr(repro.batch, "run_lanes", overflowing)
    with pytest.raises(RuntimeError, match="memory bound exceeded"):
        runner("steps")(3, 5)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_lane_magnitude_within_static_bound(n):
    from repro.batch import LaneSpec, run_lanes
    from repro.coin.logic import default_m

    specs = [
        LaneSpec(tuple((seed + i) % 2 for i in range(n)), seed)
        for seed in range(10)
    ]
    lanes = run_lanes(specs)
    bound = max(default_m(2, n) + 1, 3 * 2 - 1)
    assert all(lane.fallback is None for lane in lanes)
    assert all(lane.max_magnitude <= bound for lane in lanes)
    # Flips happened, so the tracked magnitude is live, not a constant.
    assert any(lane.max_magnitude > 0 for lane in lanes)


def test_interpreter_default_and_override():
    with interpreter(None):
        assert resolve_interpreter() == "fast"
    with interpreter("  "):
        assert resolve_interpreter() == "fast"
    with interpreter("generator"):
        assert resolve_interpreter() == "generator"


@pytest.mark.parametrize("raw", ["bogus", "Generator", "batch"])
def test_invalid_interpreter_names_the_variable(raw):
    with interpreter(raw), pytest.raises(ValueError, match=INTERPRETER_ENV):
        make_sweep_runner("ads", "random", "steps", 1000)
