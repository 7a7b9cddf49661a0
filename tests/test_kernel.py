"""Event kernel: ordering, trains, timers, error handling, RNG stream stability."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubrsim.kernel import (NS_PER_SEC, RngStream, SchedulingError, Simulator,
                           Timer, derive_seed, seconds)


def test_events_fire_in_time_then_schedule_order():
    sim = Simulator()
    fired = []
    sim.schedule(50, fired.append, "b")
    sim.schedule(10, fired.append, "a")
    sim.schedule(50, fired.append, "c")  # same time: schedule order
    sim.schedule(99, fired.append, "d")
    sim.run_until(100)
    assert fired == ["a", "b", "c", "d"]
    assert sim.now == 100


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_fire_times_never_decrease(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.schedule(t, lambda _: seen.append(sim.now), None)
    sim.run_until(10_000)
    assert seen == sorted(seen)
    assert len(seen) == len(times)


def test_events_can_schedule_more_events():
    sim = Simulator()
    log = []

    def chain(n):
        log.append((sim.now, n))
        if n:
            sim.schedule(sim.now + 5, chain, n - 1)

    sim.schedule(0, chain, 3)
    sim.run_until(1000)
    assert log == [(0, 3), (5, 2), (10, 1), (15, 0)]


def test_run_until_leaves_future_events_queued():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.schedule(500, fired.append, "late")
    sim.run_until(100)
    assert fired == ["early"] and sim.now == 100
    sim.run_until(1000)
    assert fired == ["early", "late"]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.schedule(10, lambda _: None, None)
    sim.run_until(10)
    with pytest.raises(SchedulingError):
        sim.schedule(9, lambda _: None, None)


def test_schedule_at_now_is_allowed():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda _: sim.schedule(sim.now, fired.append, "x"), None)
    sim.run_until(20)
    assert fired == ["x"]


# an event (n == 0) or a train of n members: (at, step, n); a train's step
# is positive
EVENTS = st.tuples(st.integers(0, 40), st.integers(1, 4), st.integers(0, 6))
# what the j-th event to fire schedules if it is a single event or the last
# member of its train: at its own time or one step later, one event or a train
SPAWNS = st.tuples(st.sampled_from(("now", "next")), st.integers(1, 4),
                   st.integers(0, 6))


def _drive(use_trains, events, spawns, ends):
    """Fire every event, log (now, item) and snapshot the log at each end."""
    sim = Simulator()
    fired = []
    op_ids = itertools.count()

    def add(at, step, n):
        k = next(op_ids)
        items = [(k, i, step, i == max(n, 1) - 1) for i in range(max(n, 1))]
        if n == 0:
            sim.schedule(at, fire, items[0])
        elif use_trains:
            sim.schedule_train(at, step, len(items), fire_run, items)
        else:  # the oracle: every member scheduled on its own
            for i, item in enumerate(items):
                sim.schedule(at + i * step, fire, item)

    def fire(item):
        fired.append((sim.now, item))
        j = len(fired) - 1
        if item[3] and j < len(spawns):
            when, step, n = spawns[j]
            add(sim.now if when == "now" else sim.now + item[2], step, n)

    def fire_run(items, i, j, step):
        # members before the last must see their own times; only the last
        # one, at now, may spawn
        now = sim.now
        for k in range(i, j - 1):
            fired.append((now - (j - 1 - k) * step, items[k]))
        fire(items[j - 1])

    for at, step, n in events:
        add(at, step, n)
    snapshots = []
    for end in ends:
        sim.run_until(end)
        snapshots.append((list(fired), sim.events_processed, sim.now))
    return snapshots


@given(st.lists(EVENTS, min_size=1, max_size=12), st.lists(SPAWNS, max_size=20),
       st.lists(st.integers(0, 90), min_size=1, max_size=4).map(sorted))
@settings(max_examples=300, deadline=None)
def test_trains_fire_like_one_schedule_per_member(events, spawns, ends):
    got = _drive(True, events, spawns, ends)
    assert got == _drive(False, events, spawns, ends)
    for fired, processed, now in got:
        assert processed == len(fired)
        assert [t for t, _ in fired] == sorted(t for t, _ in fired)


def test_train_cut_by_run_end_resumes_at_its_next_member():
    sim = Simulator()
    fired = []
    runs = []

    def fire_run(items, i, j, step):
        runs.append((sim.now, items[i:j]))
        fired.extend((sim.now - (j - 1 - k) * step, items[k]) for k in range(i, j))

    sim.schedule_train(10, 5, 4, fire_run, "abcd")
    sim.schedule(15, lambda x: fired.append((sim.now, x)), "z")
    sim.run_until(20)
    assert fired == [(10, "a"), (15, "b"), (15, "z"), (20, "c")]
    assert runs == [(15, "ab"), (20, "c")]
    assert sim.events_processed == 4
    sim.run_until(100)
    assert fired[-1] == (25, "d") and sim.events_processed == 5
    assert runs[-1] == (25, "d")


def test_a_spawn_inside_a_run_raises():
    """A run's handler runs at its last member's time, so an event that an
    earlier member would put before that time is refused, not misordered."""
    sim = Simulator()
    runs = []

    def fire_run(items, i, j, step):
        runs.append((sim.now, items[i:j]))
        first = sim.now - (j - 1 - i) * step
        sim.schedule(first + 1, lambda _: None)  # before member i + 1

    sim.schedule_train(10, 5, 4, fire_run, "abcd")
    with pytest.raises(SchedulingError):
        sim.run_until(100)
    assert runs == [(25, "abcd")]


class GenTimer:
    """The idiom that `Timer` replaces: one `schedule` per set,
    and a generation counter that turns every superseded event into a
    no-op when it pops."""

    def __init__(self, sim, fn):
        self.sim, self.fn = sim, fn
        self.gen = 0
        self.armed = False

    def set(self, at):
        self.gen += 1
        self.armed = True
        self.sim.schedule(at, self._fire, self.gen)

    def cancel(self):
        self.gen += 1
        self.armed = False

    def _fire(self, gen):
        if gen == self.gen:
            self.armed = False
            self.fn()


# what a callback does, in order: set timer a to now + b, cancel timer a,
# schedule an event at now + a, or a train of 3 members at now + a, b apart
ACTIONS = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 1), st.integers(0, 6)),
    st.tuples(st.just("cancel"), st.integers(0, 1), st.just(0)),
    st.tuples(st.just("event"), st.integers(0, 6), st.just(0)),
    st.tuples(st.just("train"), st.integers(0, 6), st.integers(1, 3)))


def _drive_timers(use_timer, script, ends):
    """Run `script` (the k-th callback does script[k]) with two timers; log
    (now, label, both timers' armed flags) per callback and snapshot the log
    at each end.  With the kernel's timers, check after every callback that
    a timer holds one heap entry, plus at most one per earlier deadline, and
    never two with one key."""
    sim = Simulator()
    fired = []
    steps = iter(script)
    op_ids = itertools.count()
    timers = []
    earlier = [0, 0]        # sets that moved a timer's deadline earlier
    deadline = [None, None]

    def log(label):
        fired.append((sim.now, label, tuple(t.armed for t in timers)))

    def act():
        now = sim.now
        for kind, a, b in next(steps, ()):
            if kind == "set":
                if deadline[a] is not None and now + b < deadline[a]:
                    earlier[a] += 1
                deadline[a] = now + b
                timers[a].set(now + b)
            elif kind == "cancel":
                timers[a].cancel()
            elif kind == "event":
                sim.schedule(now + a, on_event, next(op_ids))
            else:
                sim.schedule_train(now + a, b, 3, on_run, next(op_ids))
        if use_timer:
            for t, extra in zip(timers, earlier):
                own = [e[:2] for e in sim._heap
                       if getattr(e[2], "__self__", None) is t]
                assert len(own) <= 1 + extra
                assert len(set(own)) == len(own)  # no key queued twice

    def on_event(k):
        log(("event", k))
        act()

    def on_run(k, i, j, step):
        for m in range(i, j):
            fired.append((sim.now - (j - 1 - m) * step, ("train", k, m)))
        if j == 3:
            act()  # only a train's last member acts

    def on_timer(i):
        log(("timer", i))
        act()

    make = functools.partial(Timer if use_timer else GenTimer, sim)
    timers.extend(make(functools.partial(on_timer, i)) for i in range(2))
    act()
    snapshots = []
    for end in ends:
        sim.run_until(end)
        snapshots.append((list(fired), sim.now))
    return snapshots


@given(st.lists(st.lists(ACTIONS, max_size=3), min_size=1, max_size=30),
       st.lists(st.integers(0, 60), min_size=1, max_size=4).map(sorted))
@settings(max_examples=400, deadline=None)
def test_timer_fires_like_one_schedule_per_set(script, ends):
    got = _drive_timers(True, script, ends)
    assert got == _drive_timers(False, script, ends)


def test_timer_reset_costs_no_event_and_cancel_drops_its_entry():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    for at in (10, 20, 30):  # each later: the entry at 10 stays the only one
        timer.set(at)
    assert len(sim._heap) == 1
    sim.run_until(100)
    assert fired == [30] and not timer.armed
    # the entry at 10 popped and moved to 30: two pops, not three
    assert sim.events_processed == 2
    timer.set(150)
    timer.set(120)  # earlier: a second entry until the one at 150 pops
    assert len(sim._heap) == 2
    timer.cancel()
    sim.run_until(200)
    assert fired == [30] and sim._heap == [] and sim.events_processed == 4
    with pytest.raises(SchedulingError):
        timer.set(199)


def test_schedule_train_in_the_past_raises():
    sim = Simulator()
    sim.run_until(10)
    with pytest.raises(SchedulingError):
        sim.schedule_train(9, 1, 2, lambda _: None, None)
    with pytest.raises(SchedulingError):
        sim.schedule_train(10, -1, 2, lambda _: None, None)
    # a train has a positive step and a member: neither is queued
    with pytest.raises(SchedulingError):
        sim.schedule_train(10, 0, 2, lambda _: None, None)
    with pytest.raises(SchedulingError):
        sim.schedule_train(10, 1, 0, lambda _: None, None)
    sim.run_until(20)
    assert sim.events_processed == 0


def test_seconds_conversion():
    assert seconds(1) == NS_PER_SEC
    assert seconds(0.25) == 250_000_000
    assert seconds(20.0) == 20 * NS_PER_SEC


def test_derive_seed_depends_on_every_label():
    base = derive_seed(1, "a", 0)
    assert derive_seed(1, "a", 0) == base
    assert derive_seed(2, "a", 0) != base
    assert derive_seed(1, "b", 0) != base
    assert derive_seed(1, "a", 1) != base


def test_streams_are_independent_and_reproducible():
    sim1, sim2 = Simulator(seed=7), Simulator(seed=7)
    a1 = [sim1.stream("a").random() for _ in range(5)]
    b1 = [sim1.stream("b").random() for _ in range(5)]
    a2 = [sim2.stream("a").random() for _ in range(5)]
    assert a1 == a2
    assert a1 != b1
    assert sim1.stream("a") is sim1.stream("a")


def test_uniform_bounds_and_determinism():
    rng = RngStream(3, "gap")
    vals = [rng.uniform(0.1, 0.5) for _ in range(10_000)]
    assert all(0.1 <= v < 0.5 for v in vals)
    again = RngStream(3, "gap")
    assert vals[:100] == [again.uniform(0.1, 0.5) for _ in range(100)]


def test_randint_covers_range_uniformly_enough():
    rng = RngStream(5, "idx")
    n = 90_000
    counts = [0] * 10
    for _ in range(n):
        v = rng.randint(1, 9)
        counts[v] += 1
    assert counts[0] == 0
    for k in range(1, 10):
        assert counts[k] == pytest.approx(n / 9, rel=0.05)


def test_run_stats_counts_events():
    sim = Simulator()
    for t in range(10):
        sim.schedule(t, lambda _: None, None)
    sim.run_until(100)
    assert sim.events_processed == 10
