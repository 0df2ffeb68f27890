"""Token grants on demand: the replay equals the eager per-tick loop.

:func:`repro.core.scheduler.replay_grants` applies the period grants a
READY row is owed, grid point by grid point, when the row is read;
:func:`repro.core.scheduler.next_crossing` predicts the grid point where
the row's count first clears its next token level.  Both must agree bit
for bit with the loop the eager period clock ran: at every grid point,
``accrue_wait`` then (positive estimates only) ``grant_tokens`` of
``token_increment``.
"""

import dataclasses

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.context import TaskContext
from repro.core.scheduler import MAX_CROSSING_WALK, next_crossing, replay_grants
from repro.core.tokens import (
    TOKEN_LEVELS,
    Priority,
    candidate_bucket,
    token_increment,
)

PERIOD = 175_000.0


def eager(row, grant_at, until, period, inclusive):
    """The eager clock's ticks, one grid point at a time."""
    point = grant_at
    while point < until or (inclusive and point == until):
        row.accrue_wait(point)
        if row.estimated_cycles > 0:
            row.grant_tokens(
                token_increment(
                    row.priority, row.waited_since_grant, row.estimated_cycles
                )
            )
        point += period
    return point


def fields(row):
    return tuple(
        float(value).hex()
        for value in (
            row.tokens,
            row.waited_cycles,
            row.waited_since_grant,
            row.last_update_cycles,
        )
    )


def grid(anchor, period, steps):
    point = anchor
    for _ in range(steps):
        point += period
    return point


rows = st.builds(
    lambda priority, estimate, tokens, waited, since, last: TaskContext(
        task_id=1,
        priority=priority,
        estimated_cycles=estimate,
        tokens=tokens,
        waited_cycles=waited,
        waited_since_grant=since,
        last_update_cycles=last,
    ),
    priority=st.sampled_from(list(Priority)),
    estimate=st.one_of(
        st.floats(min_value=1e3, max_value=5e7),
        st.sampled_from([0.0, -5e5]),
    ),
    tokens=st.floats(min_value=0.5, max_value=12.0),
    waited=st.floats(min_value=0.0, max_value=1e7),
    since=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),
    # Before the anchor (an admitted row) or after it (a requeued
    # victim waits from a later tile-boundary commit).
    last=st.floats(min_value=0.0, max_value=4e6),
)


@given(
    row=rows,
    anchor=st.floats(min_value=0.0, max_value=3e6),
    period=st.sampled_from([PERIOD, 1e5 / 3, 0.1 + 0.2]),
    steps=st.integers(min_value=0, max_value=60),
    offset=st.one_of(st.just(0.0), st.floats(min_value=-0.9, max_value=0.9)),
    inclusive=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_replay_equals_the_eager_loop(
    row, anchor, period, steps, offset, inclusive
):
    # Read times land on a grid point (either tie rule decides it) or
    # between two.
    until = grid(anchor, period, steps) + offset * period
    reference = dataclasses.replace(row)
    expected_next = eager(reference, anchor, until, period, inclusive)
    assert replay_grants(row, anchor, until, period, inclusive) == expected_next
    assert fields(row) == fields(reference)


@given(
    row=rows,
    anchor=st.floats(min_value=0.0, max_value=3e6),
    first=st.integers(min_value=0, max_value=30),
    second=st.integers(min_value=0, max_value=30),
    inclusive=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_split_replays_equal_one_replay(row, anchor, first, second, inclusive):
    """Read points between two ticks change nothing: replaying to T1 and
    then to T2 is replaying to T2."""
    middle = grid(anchor, PERIOD, first)
    end = grid(middle, PERIOD, second)
    reference = dataclasses.replace(row)
    point = replay_grants(row, anchor, middle, PERIOD, inclusive)
    point = replay_grants(row, point, end, PERIOD, True)
    assert point == replay_grants(reference, anchor, end, PERIOD, True)
    assert fields(row) == fields(reference)


@given(row=rows, anchor=st.floats(min_value=0.0, max_value=3e6))
@settings(max_examples=300, deadline=None)
def test_predicted_crossing_is_the_first_eager_tick_above_the_level(
    row, anchor
):
    bucket = candidate_bucket(row.tokens)
    assume(bucket < len(TOKEN_LEVELS))
    level = TOKEN_LEVELS[bucket]
    before = fields(row)
    predicted = next_crossing(row, anchor, PERIOD, level)
    assert fields(row) == before  # prediction works on copies
    if row.estimated_cycles <= 0:
        assert predicted is None
        return
    reference = dataclasses.replace(row)
    point = anchor
    for _ in range(MAX_CROSSING_WALK):
        eager(reference, point, point, PERIOD, True)
        if reference.tokens > level:
            break
        point += PERIOD
    # Without a crossing inside the walk the prediction is a re-check
    # point: the first grid point the walk did not examine.
    assert predicted == point
    if reference.tokens > level:
        # Every earlier eager tick left the row at or below the level.
        probe = dataclasses.replace(row)
        crossing_tick = eager(probe, anchor, point, PERIOD, False)
        assert crossing_tick == point and probe.tokens <= level


def test_estimates_too_long_to_cross_return_a_recheck_point():
    row = TaskContext(
        task_id=1,
        priority=Priority.LOW,
        estimated_cycles=1e300,
        last_update_cycles=0.0,
    )
    point = next_crossing(row, PERIOD, PERIOD, TOKEN_LEVELS[0])
    assert point == grid(PERIOD, PERIOD, MAX_CROSSING_WALK)
