"""Monitor phase: periodic performance-counter sampling.

The paper's monitoring driver "collects the counters every 10 ms with
negligible performance impact" (§III-B).  :class:`CounterSampler` is that
driver's user-level face: it programs the two physical counters, takes
wrap-aware snapshots, and converts deltas into per-cycle rates.

Because the Pentium M has only two programmable counters, a sampler
monitors at most two events at a time (plus unhalted cycles, which the
snapshot always carries).  PerformanceMaximizer needs one event
(``INST_DECODED``); PowerSave needs two (``INST_RETIRED`` and
``DCU_MISS_OUTSTANDING``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.drivers.pmu import PMU, CounterSnapshot
from repro.errors import PMUError
from repro.platform.events import Event
from repro.telemetry.bus import SampleTaken
from repro.telemetry.recorder import TelemetryRecorder


@dataclass(frozen=True)
class CounterSample:
    """One monitoring interval's worth of counter-derived rates.

    Attributes
    ----------
    interval_s:
        Wall-clock length of the interval.
    cycles:
        Unhalted cycles elapsed (the denominator of all rates).
    rates:
        Per-cycle event rates for the monitored events.
    """

    interval_s: float
    cycles: float
    rates: Mapping[Event, float]

    def rate(self, event: Event) -> float:
        """Per-cycle rate of a monitored event (KeyError if unmonitored)."""
        return self.rates[event]

    @property
    def effective_frequency_mhz(self) -> float:
        """Average clock frequency over the interval (cycles / time)."""
        if self.interval_s <= 0:
            return 0.0
        return self.cycles / self.interval_s / 1e6

    # -- convenience views used by the governors -------------------------------

    @property
    def dpc(self) -> float:
        """Decoded instructions per cycle (PM's model input)."""
        return self.rate(Event.INST_DECODED)

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle (PS's performance proxy)."""
        return self.rate(Event.INST_RETIRED)

    @property
    def dcu(self) -> float:
        """DCU-miss-outstanding cycles per cycle."""
        return self.rate(Event.DCU_MISS_OUTSTANDING)

    @property
    def dcu_per_ipc(self) -> float:
        """The paper's memory-boundedness metric (Eq. 3 discriminator).

        Returns +inf for an interval with zero retired instructions (a
        fully-stalled interval is maximally memory-bound).
        """
        if self.ipc <= 0:
            return float("inf")
        return self.dcu / self.ipc


def sample_event(time_s: float, sample: CounterSample) -> SampleTaken:
    """The telemetry event for one closed counter interval.

    ``time_s`` is the sampler's running elapsed time (its clock, not the
    machine's); rates are keyed by event name so the event is JSON-safe.
    """
    return SampleTaken(
        time_s=time_s,
        interval_s=sample.interval_s,
        cycles=sample.cycles,
        effective_frequency_mhz=sample.effective_frequency_mhz,
        rates={event.name: rate for event, rate in sample.rates.items()},
    )


@dataclass(frozen=True)
class CounterSampleBlock:
    """Array-valued counterpart of :class:`CounterSample` for K ticks.

    Produced by :meth:`CounterSampler.consume_block` from a
    :class:`~repro.platform.blockstep.TickBlock`.  Counts and cycles are
    per-tick floats (wrap-aware deltas, like the scalar path's
    ``CounterSnapshot.delta``); :meth:`sample` materializes the exact
    :class:`CounterSample` the scalar path would have produced for one
    tick -- same rate floats, same mapping order.
    """

    events: tuple[Event, ...]
    interval_s: tuple[float, ...]
    cycles: tuple[float, ...]
    counts: tuple[tuple[float, ...], ...]  #: per tick, one count per counter

    def __len__(self) -> int:
        return len(self.interval_s)

    def rates_at(self, index: int) -> dict[Event, float]:
        """Per-cycle rates of tick ``index`` (scalar-identical floats)."""
        cycles = self.cycles[index]
        counts = self.counts[index]
        rates = {}
        for position, event in enumerate(self.events):
            rates[event] = counts[position] / cycles if cycles > 0 else 0.0
        return rates

    def sample(self, index: int) -> CounterSample:
        """The scalar :class:`CounterSample` for tick ``index``."""
        return CounterSample(
            interval_s=self.interval_s[index],
            cycles=self.cycles[index],
            rates=self.rates_at(index),
        )


class CounterSampler:
    """Programs the PMU and produces :class:`CounterSample` streams."""

    def __init__(
        self,
        pmu: PMU,
        events: Sequence[Event],
        telemetry: TelemetryRecorder | None = None,
    ):
        if not events:
            raise PMUError("sampler needs at least one event")
        if len(events) > PMU.NUM_COUNTERS:
            raise PMUError(
                f"{len(events)} events exceed the {PMU.NUM_COUNTERS}-counter "
                "budget; PM/PS were designed to fit (paper §III)"
            )
        if len(set(events)) != len(events):
            raise PMUError(f"duplicate events: {events}")
        self._pmu = pmu
        self._events = tuple(events)
        self._last: CounterSnapshot | None = None
        self._telemetry = telemetry
        self._elapsed_s = 0.0

    @property
    def events(self) -> tuple[Event, ...]:
        """The monitored events."""
        return self._events

    def bind_telemetry(self, telemetry: TelemetryRecorder | None) -> None:
        """Reattach a recorder (used after checkpoint restore)."""
        self._telemetry = telemetry

    def __getstate__(self):
        # The recorder holds open exporter file handles; it is process
        # state, not run state, and is rebound on resume.
        state = self.__dict__.copy()
        state["_telemetry"] = None
        return state

    def start(self) -> None:
        """Program the counters and take the baseline snapshot."""
        self._pmu.program_events(self._events)
        self._last = self._pmu.snapshot()

    def sample(self, interval_s: float) -> CounterSample:
        """Close the current interval and return its rates.

        ``interval_s`` is supplied by the caller (the controller knows
        the tick length); the PMU itself provides cycle and event deltas.
        """
        if self._last is None:
            raise PMUError("sampler not started; call start() first")
        current = self._pmu.snapshot()
        c0, c1, cycles = self._last.delta(current)
        self._last = current
        counts = (c0, c1)
        rates = {}
        for index, event in enumerate(self._events):
            rates[event] = counts[index] / cycles if cycles > 0 else 0.0
        sample = CounterSample(
            interval_s=interval_s, cycles=cycles, rates=rates
        )
        self._elapsed_s += interval_s
        tel = self._telemetry
        if tel is not None and tel.enabled:
            tel.emit(sample_event(self._elapsed_s, sample))
        return sample

    def consume_block(self, block) -> CounterSampleBlock:
        """Turn a :class:`~repro.platform.blockstep.TickBlock` into samples.

        The block carries per-tick wrap-masked counter deltas measured
        against the PMU state at the start of each tick, i.e. exactly
        what per-tick :meth:`sample` calls would have seen.  After
        consuming a block the sampler re-baselines against the live PMU
        (the block kernel syncs hardware state back on exit), so scalar
        :meth:`sample` calls may resume seamlessly.
        """
        if self._last is None:
            raise PMUError("sampler not started; call start() first")
        # The block reports both physical counter slots (unused ones as
        # None); the sampler's events must fill the leading slots.
        slots = tuple(block.events)
        mine = len(self._events)
        if slots[:mine] != self._events or any(
            event is not None for event in slots[mine:]
        ):
            raise PMUError(
                f"block monitored {block.events}, sampler expects "
                f"{self._events}; reprogramming mid-run is unsupported"
            )
        n = len(block)
        intervals = tuple(block.duration_s)
        cycles_seq = tuple(block.cycles_delta)
        counts_seq = tuple(
            (block.counter0_delta[i], block.counter1_delta[i])
            for i in range(n)
        )
        out = CounterSampleBlock(
            events=self._events,
            interval_s=intervals,
            cycles=cycles_seq,
            counts=counts_seq,
        )
        self._last = self._pmu.snapshot()
        tel = self._telemetry
        emit = tel is not None and tel.enabled
        for i in range(n):
            self._elapsed_s += intervals[i]
            if emit:
                tel.emit(sample_event(self._elapsed_s, out.sample(i)))
        return out


class MultiplexedCounterSampler:
    """Rotates event groups through the two counters, one group per tick.

    Extension utility for policies that need more events than the PMU
    has counters (the Isci-style component power model).  Each
    :meth:`sample` call closes the interval for the *currently
    programmed* group, then programs the next group for the following
    interval.  Consumers keep their own last-known value per event;
    rates for unprogrammed events are simply absent from the sample.
    """

    def __init__(
        self,
        pmu: PMU,
        groups: Sequence[Sequence[Event]],
        telemetry: TelemetryRecorder | None = None,
    ):
        if not groups:
            raise PMUError("multiplexed sampler needs at least one group")
        # Inner samplers stay un-instrumented; the rotation emits its own
        # sample events so timestamps cover every tick, not every Nth.
        self._samplers = [CounterSampler(pmu, group) for group in groups]
        self._index = 0
        self._telemetry = telemetry
        self._elapsed_s = 0.0

    @property
    def groups(self) -> tuple[tuple[Event, ...], ...]:
        """The rotation's event groups."""
        return tuple(s.events for s in self._samplers)

    def bind_telemetry(self, telemetry: TelemetryRecorder | None) -> None:
        """Reattach a recorder (used after checkpoint restore)."""
        self._telemetry = telemetry

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_telemetry"] = None
        return state

    def start(self) -> None:
        """Program the first group and take its baseline snapshot."""
        self._index = 0
        self._samplers[0].start()

    def sample(self, interval_s: float) -> CounterSample:
        """Close the current group's interval and rotate to the next."""
        sample = self._samplers[self._index].sample(interval_s)
        self._index = (self._index + 1) % len(self._samplers)
        self._samplers[self._index].start()
        self._elapsed_s += interval_s
        tel = self._telemetry
        if tel is not None and tel.enabled:
            tel.emit(sample_event(self._elapsed_s, sample))
        return sample
