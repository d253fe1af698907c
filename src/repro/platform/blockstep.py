"""Batched tick kernel: K machine ticks per call, bit-identical to `step`.

``Machine.step`` resolves a full :class:`~repro.platform.pipeline.
ResolvedRates` object (17 event rates), builds an
:class:`~repro.platform.events.EventRates` dataclass and a
:class:`~repro.platform.machine.TickRecord` per 10 ms tick, then hands
power segments to the meter through a sink indirection.  Profiling
(``scripts/profile_tick.py``) shows >90% of a governed run is this
object churn, not arithmetic.  This module is the batched counterpart:

* :class:`RateTemplate` -- every quantity of ``resolve_rates`` +
  ``ground_truth_power`` that depends only on (phase, p-state, timing,
  power constants) is precomputed once and cached process-wide (the
  cache is exported/installed across sweep workers by
  :mod:`repro.exec.cache`).
* :func:`execute_segment` -- the per-segment hot math, shared by
  ``Machine.step_block`` and the controller fast loop
  (:mod:`repro.core.blockloop`) so the tricky expressions exist once.
* :func:`run_block` -- advance a machine by up to K ticks at the
  current p-state, returning a :class:`TickBlock` of per-tick arrays.

**Bit-identical contract.**  Every floating-point expression here
replicates the scalar path operation-for-operation in the same order
(Python floats are IEEE doubles; ``a + b + c`` associates left, ``**``
binds tighter than unary minus, cached subexpressions are only ever
whole subexpressions of the scalar code).  RNG draws (machine jitter,
sense-amplifier noise, ADC noise) happen in exactly the scalar order
and count.  The digest-equivalence suite
(``tests/core/test_block_equivalence.py``) pins this contract.

When a machine is *not* batchable (thermal model attached, exotic PMU
events, subclassed), ``run_block`` falls back to composing scalar
``step`` calls into the same ``TickBlock`` shape -- slower but always
correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

import numpy as np

from repro.acpi.pstates import PState
from repro.drivers.msr import (
    IA32_PMC0,
    IA32_PMC1,
    IA32_TIME_STAMP_COUNTER,
)
from repro.errors import ReproError
from repro.measurement.adc import ADCModel
from repro.measurement.power_meter import PowerMeter, PowerSample
from repro.measurement.sense import SenseResistorChannel
from repro.platform.caches import MemoryTiming
from repro.platform.events import Event
from repro.platform.pipeline import (
    DCU_OUTSTANDING_CAP,
    DECODE_WIDTH,
    _OCCUPANCY_CAP,
    _SOFTMIN_P,
    _WRITEBACK_FRACTION,
)
from repro.platform.power import PowerModelConstants, idle_power
from repro.units import mhz_to_hz
from repro.workloads.base import Phase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform.machine import Machine

#: ``ips_latency ** -p`` in the scalar soft-minimum; ``-p`` is unary
#: minus applied to ``_SOFTMIN_P``, reproduced here once.
_NEG_P = -_SOFTMIN_P
_NEG_INV_P = -1.0 / _SOFTMIN_P

_M40 = (1 << 40) - 1
_M64 = (1 << 64) - 1

#: Which per-segment rate feeds a programmed counter.  Only the events
#: the shipped governors sample are batchable; anything else falls back
#: to the scalar path (which resolves all 17 rates).
_SELECTOR: Dict[Event, int] = {
    Event.INST_DECODED: 0,
    Event.INST_RETIRED: 1,
    Event.DCU_MISS_OUTSTANDING: 2,
}


@dataclass(slots=True)
class RateTemplate:
    """Precomputed (phase, p-state, timing, constants) projection row.

    Every field is a cached *whole subexpression* of ``resolve_rates``
    / ``ground_truth_power`` / ``idle_power`` / ``_advance_jitter``, so
    combining them per tick reproduces the scalar floats bitwise.
    Plain floats only: templates are pickled into the exec-cache spawn
    payload.
    """

    freq_mhz: float
    hz: float
    cpi_core: float
    l2_stall_pi: float
    dram_stall_pi: float
    bytes_pi: float
    bw_neg_p: float  #: ``ips_bandwidth ** -p`` (0.0 when bytes_pi == 0)
    bus_bw: float
    dcu_occupancy_pi: float
    decode_ratio: float
    fp_ratio: float
    l2r_coeff: float  #: ``l1_mpi + 0.5 * prefetch_mpi``
    c_base: float
    c_gate: float
    c_dpc_f: float  #: ``c_dpc_0 + c_dpc_slope * f_ghz``
    c_fp: float
    c_l2: float
    c_bus: float
    v2f: float
    static_w: float  #: isothermal leakage ``k * V * V``
    idle_w: float
    instructions: float  #: phase length
    phase_end: float  #: ``instructions - 1e-9`` (advance threshold)
    sigma: float
    rho: float
    jitter_scale: float  #: ``sigma * sqrt(1 - rho * rho)``
    half_sig2: float  #: ``0.5 * sigma * sigma``


#: Process-wide template cache, value-keyed on the four frozen
#: dataclasses.  Hashing a Phase costs ~1 us, so kernels fetch into
#: per-run index tables and only touch this dict on first use.
_TEMPLATES: Dict[tuple, RateTemplate] = {}


def rate_template(
    phase: Phase,
    pstate: PState,
    timing: MemoryTiming,
    constants: PowerModelConstants,
) -> RateTemplate:
    """The cached projection template for one (phase, p-state) pair."""
    key = (phase, pstate, timing, constants)
    template = _TEMPLATES.get(key)
    if template is None:
        template = _TEMPLATES[key] = _build_template(
            phase, pstate, timing, constants
        )
    return template


def _build_template(
    phase: Phase,
    pstate: PState,
    timing: MemoryTiming,
    constants: PowerModelConstants,
) -> RateTemplate:
    freq_mhz = pstate.frequency_mhz
    l2_hit_mpi = max(0.0, phase.l1_mpi - phase.l2_mpi)
    dram_cycles = timing.dram_latency_cycles(freq_mhz)
    l2_stall_pi = l2_hit_mpi * timing.l2_latency_cycles / phase.l2_mlp
    dram_stall_pi = phase.l2_mpi * dram_cycles / phase.mlp
    hz = mhz_to_hz(freq_mhz)
    line = 64.0
    lines_pi = phase.l2_mpi + phase.prefetch_mpi
    bytes_pi = lines_pi * line * (1.0 + _WRITEBACK_FRACTION)
    if bytes_pi > 0:
        ips_bandwidth = timing.bus_bandwidth_bytes_per_s / bytes_pi
        bw_neg_p = ips_bandwidth ** _NEG_P
    else:
        bw_neg_p = 0.0
    dcu_occupancy_pi = (
        l2_hit_mpi * timing.l2_latency_cycles + phase.l2_mpi * dram_cycles
    )
    f_ghz = pstate.frequency_ghz
    sigma = phase.activity_jitter
    rho = phase.jitter_corr
    return RateTemplate(
        freq_mhz=freq_mhz,
        hz=hz,
        cpi_core=phase.cpi_core,
        l2_stall_pi=l2_stall_pi,
        dram_stall_pi=dram_stall_pi,
        bytes_pi=bytes_pi,
        bw_neg_p=bw_neg_p,
        bus_bw=timing.bus_bandwidth_bytes_per_s,
        dcu_occupancy_pi=dcu_occupancy_pi,
        decode_ratio=phase.decode_ratio,
        fp_ratio=phase.fp_ratio,
        l2r_coeff=phase.l1_mpi + 0.5 * phase.prefetch_mpi,
        c_base=constants.c_base,
        c_gate=constants.c_gate,
        c_dpc_f=constants.c_dpc(f_ghz),
        c_fp=constants.c_fp,
        c_l2=constants.c_l2,
        c_bus=constants.c_bus,
        v2f=pstate.v2f,
        static_w=constants.leakage.power(pstate.voltage),
        idle_w=idle_power(pstate, constants),
        instructions=phase.instructions,
        phase_end=phase.instructions - 1e-9,
        sigma=sigma,
        rho=rho,
        jitter_scale=sigma * math.sqrt(1.0 - rho * rho),
        half_sig2=0.5 * sigma * sigma,
    )


def export_rate_templates() -> dict:
    """Picklable snapshot of the template cache (for spawn workers)."""
    return dict(_TEMPLATES)


def install_rate_templates(payload: dict) -> None:
    """Merge a parent-process template snapshot into this process."""
    _TEMPLATES.update(payload)


def clear_rate_templates() -> None:
    """Drop all cached templates (tests only)."""
    _TEMPLATES.clear()


def execute_segment(
    template: RateTemplate,
    jitter: float,
    jitter_q: float,
    duty: float,
    budget: float,
    time_left: float,
) -> tuple:
    """One execution segment at fixed rates, bit-identical to the scalar
    ``resolve_rates`` + ``ground_truth_power`` + ``Machine.step`` body.

    ``jitter_q`` must be ``jitter ** 0.25`` (hoisted by the caller: all
    segments of a tick share one jitter draw).  Returns
    ``(seg_time, seg_instr, seg_cycles, power, dpc, ipc, dcu)``.
    """
    cpi_core = template.cpi_core / jitter
    cpi_latency = cpi_core + template.l2_stall_pi + template.dram_stall_pi
    ips = template.hz / cpi_latency
    if template.bytes_pi > 0:
        ips = (ips**_NEG_P + template.bw_neg_p) ** _NEG_INV_P
    ipc = ips / template.hz
    dcu = min(DCU_OUTSTANDING_CAP, template.dcu_occupancy_pi * ipc)
    dpc = min(DECODE_WIDTH, template.decode_ratio * ipc * jitter_q)
    bus = min(
        _OCCUPANCY_CAP,
        (ips * template.bytes_pi / template.bus_bw)
        if template.bytes_pi
        else 0.0,
    )
    gated_base = template.c_base * (
        1.0 - template.c_gate * min(1.0, dcu)
    )
    activity = (
        gated_base
        + template.c_dpc_f * dpc
        + template.c_fp * (template.fp_ratio * ipc)
        + template.c_l2 * (template.l2r_coeff * ipc)
        + template.c_bus * bus
    )
    static = template.static_w
    full_power = template.v2f * activity + static
    power = (full_power - static) * duty + static
    effective_ips = ips * duty
    seg_time = min(time_left, budget / effective_ips)
    seg_instr = min(budget, effective_ips * seg_time)
    seg_cycles = seg_time * template.freq_mhz * 1e6 * duty
    return seg_time, seg_instr, seg_cycles, power, dpc, ipc, dcu


def inline_meter(machine: "Machine") -> PowerMeter | None:
    """The machine's power meter, iff its sink list can be inlined.

    Inlining is only bit-safe when the machine feeds exactly one
    unmodified :class:`PowerMeter` (with stock sense/ADC front ends)
    through the stock bound ``accumulate``; anything else keeps the
    generic sink indirection.
    """
    meter = sink_meter(machine)
    return meter if is_stock_meter(meter) else None


def sink_meter(machine: "Machine"):
    """The object behind the machine's only power sink, iff that sink
    is the object's own bound ``accumulate`` (None otherwise)."""
    sinks = machine._power_sinks
    if len(sinks) != 1:
        return None
    sink = sinks[0]
    meter = getattr(sink, "__self__", None)
    func = getattr(sink, "__func__", None)
    if func is None or func is not getattr(type(meter), "accumulate", None):
        return None
    return meter


def is_stock_meter(meter) -> bool:
    """Whether ``meter`` is an unmodified :class:`PowerMeter` with stock
    sense/ADC front ends (the meter arithmetic the kernels inline)."""
    return (
        type(meter) is PowerMeter
        and type(meter._sense) is SenseResistorChannel
        and type(meter._adc) is ADCModel
    )


def make_meter_emit(meter: PowerMeter):
    """An ``(emit, sync)`` closure pair inlining ``PowerMeter.accumulate``.

    ``emit(power, duration)`` replicates the bucket-splitting loop and
    sample close (sense + ADC noise draws in scalar order) while keeping
    the meter's accumulator state in closure locals; samples append to
    the meter's real list live.  ``sync()`` writes the accumulators
    back -- call it before any checkpoint, at loop exit, and on error.
    """
    interval = meter.interval_s
    close_eps = interval - 1e-12
    sense = meter._sense
    adc = meter._adc
    supply = meter._supply_v
    realized = sense._realized_ohm
    nominal = sense.resistance_ohm
    amp_noise = sense.amplifier_noise_v
    sense_normal = sense._rng.normal
    adc_normal = adc._rng.normal
    noise_floor = adc.noise_floor_watts
    full_scale = adc.full_scale_watts
    lsb = adc.full_scale_watts / (1 << adc.bits)
    append = meter._samples.append
    state = [meter._time_s, meter._bucket_energy_j, meter._bucket_time_s]

    def emit(power: float, duration: float) -> None:
        m_time, bucket_e, bucket_t = state
        remaining = duration
        while remaining > 0:
            room = interval - bucket_t
            chunk = min(room, remaining)
            bucket_e += power * chunk
            bucket_t += chunk
            m_time += chunk
            remaining -= chunk
            if bucket_t >= close_eps:
                true_mean = bucket_e / bucket_t
                true_current = true_mean / supply
                v_sense = true_current * realized + sense_normal(
                    0.0, amp_noise
                )
                measured_current = v_sense / nominal
                sensed = measured_current * supply
                noisy = sensed + adc_normal(0.0, noise_floor)
                clipped = min(max(noisy, 0.0), full_scale)
                measured = round(clipped / lsb) * lsb
                append(PowerSample(m_time, measured, true_mean, bucket_t))
                bucket_e = 0.0
                bucket_t = 0.0
        state[0] = m_time
        state[1] = bucket_e
        state[2] = bucket_t

    def sync() -> None:
        meter._time_s = state[0]
        meter._bucket_energy_j = state[1]
        meter._bucket_time_s = state[2]

    return emit, sync


@dataclass(slots=True)
class TickBlock:
    """Per-tick arrays for a batch of machine ticks.

    Scalars are Python floats (json/digest-safe); the ``*_array``
    helpers expose numpy views for vectorized consumers.  Counter
    fields are wrap-aware per-tick deltas of the two programmable PMU
    counters and the cycle count, ready for
    ``CounterSampler.consume_block``.
    """

    pstate: PState
    duty: float
    events: tuple
    time_s: tuple
    duration_s: tuple
    instructions: tuple
    cycles: tuple
    energy_j: tuple
    mean_power_w: tuple
    jitter: tuple
    counter0_delta: tuple  #: int counts
    counter1_delta: tuple
    cycles_delta: tuple  #: int unhalted-cycle counts
    #: ``len(meter._samples)`` after each tick when the machine's meter
    #: was inlined; None when power went through generic sinks.
    meter_sample_counts: tuple | None
    finished: bool

    def __len__(self) -> int:
        return len(self.time_s)

    def as_arrays(self) -> dict:
        """Numpy views of the per-tick streams (analysis convenience)."""
        return {
            "time_s": np.asarray(self.time_s),
            "duration_s": np.asarray(self.duration_s),
            "instructions": np.asarray(self.instructions),
            "cycles": np.asarray(self.cycles),
            "energy_j": np.asarray(self.energy_j),
            "mean_power_w": np.asarray(self.mean_power_w),
            "jitter": np.asarray(self.jitter),
            "counter0_delta": np.asarray(self.counter0_delta),
            "counter1_delta": np.asarray(self.counter1_delta),
            "cycles_delta": np.asarray(self.cycles_delta),
        }


def block_capable(machine: "Machine") -> bool:
    """Whether ``machine`` can run the fused kernel (vs scalar fallback)."""
    from repro.platform.machine import Machine

    if type(machine) is not Machine:
        return False
    if machine.thermal is not None:
        return False
    for event in machine.pmu._events:
        if event is not None and event not in _SELECTOR:
            return False
    return True


def run_block(machine: "Machine", max_ticks: int) -> TickBlock:
    """Advance ``machine`` by up to ``max_ticks`` ticks at the current
    p-state, returning per-tick arrays.

    Stops early at workload completion.  Bit-identical to calling
    ``machine.step()`` ``max_ticks`` times (same RNG stream, same
    float operations, same PMU/meter side effects); falls back to
    exactly that when the machine is not :func:`block_capable`.
    """
    cursor = machine._require_cursor()
    if cursor.finished:
        raise ReproError("workload already finished; load a new one")
    if max_ticks <= 0:
        raise ReproError("step_block needs a positive tick count")
    if not block_capable(machine):
        return _run_block_scalar(machine, max_ticks)

    config = machine.config
    workload = cursor._workload
    phases = workload.phases
    n_phases = len(phases)
    total = workload.total_instructions
    finish_line = total - 1e-9
    dt = config.tick_s
    dt_eps = dt - 1e-12
    dvfs = machine.dvfs
    pstate = dvfs.current
    timing = machine._timing
    constants = config.power
    duty = machine.throttle.duty
    rng_normal = machine._rng.normal

    templates: List[RateTemplate | None] = [None] * n_phases

    def template_for(index: int) -> RateTemplate:
        template = rate_template(phases[index], pstate, timing, constants)
        templates[index] = template
        return template

    # Machine state -> locals.
    time_s = machine._time_s
    jitter_log = machine._jitter_log
    charged = machine._charged_dead_time_s
    dead_total = dvfs.total_dead_time_s
    phase_index = cursor._phase_index
    into_phase = cursor._into_phase
    retired = cursor._retired

    # PMU state -> locals.
    pmu = machine.pmu
    msr = machine.msr
    event0, event1 = pmu._events
    selector0 = _SELECTOR.get(event0)
    selector1 = _SELECTOR.get(event1)
    cycles_int = pmu._cycles
    cycle_res = pmu._cycle_residual
    res0, res1 = pmu._residuals
    pmc0 = msr.rdmsr(IA32_PMC0)
    pmc1 = msr.rdmsr(IA32_PMC1)
    tsc = msr.rdmsr(IA32_TIME_STAMP_COUNTER)

    meter = inline_meter(machine)
    if meter is not None:
        emit, meter_sync = make_meter_emit(meter)
        meter_samples = meter._samples
    else:
        emit = machine._emit_power
        meter_sync = None
        meter_samples = None

    times: List[float] = []
    durations: List[float] = []
    instrs: List[float] = []
    cycs: List[float] = []
    energies: List[float] = []
    means: List[float] = []
    jitters: List[float] = []
    deltas0: List[int] = []
    deltas1: List[int] = []
    cycle_deltas: List[int] = []
    sample_counts: List[int] | None = [] if meter is not None else None

    try:
        tick = 0
        while tick < max_ticks and retired < finish_line:
            start_time = time_s
            energy = 0.0
            tick_instr = 0.0
            tick_cycles = 0.0
            elapsed = 0.0
            pmc0_start = pmc0
            pmc1_start = pmc1
            cycles_start = cycles_int

            dead = dead_total - charged
            if dead > 0:
                dead = min(dead, dt)
                charged += dead
                idle_w = template_for(phase_index).idle_w
                energy += idle_w * dead
                emit(idle_w, dead)
                elapsed += dead

            template = templates[phase_index]
            if template is None:
                template = template_for(phase_index)
            if template.sigma == 0.0:
                jitter_log = 0.0
                jitter = 1.0
            else:
                innovation = rng_normal(0.0, template.jitter_scale)
                jitter_log = template.rho * jitter_log + innovation
                jitter = math.exp(jitter_log - template.half_sig2)
            jitter_q = jitter**0.25

            while elapsed < dt_eps and retired < finish_line:
                template = templates[phase_index]
                if template is None:
                    template = template_for(phase_index)
                remaining = max(0.0, total - retired)
                budget = min(template.instructions - into_phase, remaining)
                (
                    seg_time,
                    seg_instr,
                    seg_cycles,
                    power,
                    dpc,
                    ipc,
                    dcu,
                ) = execute_segment(
                    template, jitter, jitter_q, duty, budget, dt - elapsed
                )
                retired += seg_instr
                into_phase += seg_instr
                if into_phase >= template.phase_end:
                    into_phase = 0.0
                    phase_index = (phase_index + 1) % n_phases
                cycle_res += seg_cycles
                whole = int(cycle_res)
                cycle_res -= whole
                cycles_int += whole
                tsc = (tsc + whole) & _M64
                if selector0 is not None:
                    rate = (
                        dpc
                        if selector0 == 0
                        else (ipc if selector0 == 1 else dcu)
                    )
                    res0 += rate * seg_cycles
                    increment = int(res0)
                    res0 -= increment
                    pmc0 = (pmc0 + increment) & _M40
                if selector1 is not None:
                    rate = (
                        dpc
                        if selector1 == 0
                        else (ipc if selector1 == 1 else dcu)
                    )
                    res1 += rate * seg_cycles
                    increment = int(res1)
                    res1 -= increment
                    pmc1 = (pmc1 + increment) & _M40
                energy += power * seg_time
                emit(power, seg_time)
                tick_instr += seg_instr
                tick_cycles += seg_cycles
                elapsed += seg_time

            time_s = start_time + elapsed
            times.append(time_s)
            durations.append(elapsed)
            instrs.append(tick_instr)
            cycs.append(tick_cycles)
            energies.append(energy)
            means.append(energy / elapsed if elapsed > 0 else 0.0)
            jitters.append(jitter)
            deltas0.append((pmc0 - pmc0_start) & _M40)
            deltas1.append((pmc1 - pmc1_start) & _M40)
            cycle_deltas.append((cycles_int - cycles_start) & _M40)
            if sample_counts is not None:
                sample_counts.append(len(meter_samples))
            tick += 1
    finally:
        # Locals -> machine state (also on error, so the machine is
        # never left torn).
        machine._time_s = time_s
        machine._jitter_log = jitter_log
        machine._charged_dead_time_s = charged
        cursor._retired = retired
        cursor._into_phase = into_phase
        cursor._phase_index = phase_index
        pmu._cycles = cycles_int
        pmu._cycle_residual = cycle_res
        pmu._residuals[0] = res0
        pmu._residuals[1] = res1
        msr.poke(IA32_PMC0, pmc0)
        msr.poke(IA32_PMC1, pmc1)
        msr.poke(IA32_TIME_STAMP_COUNTER, tsc)
        if meter_sync is not None:
            meter_sync()

    return TickBlock(
        pstate=pstate,
        duty=duty,
        events=(event0, event1),
        time_s=tuple(times),
        duration_s=tuple(durations),
        instructions=tuple(instrs),
        cycles=tuple(cycs),
        energy_j=tuple(energies),
        mean_power_w=tuple(means),
        jitter=tuple(jitters),
        counter0_delta=tuple(deltas0),
        counter1_delta=tuple(deltas1),
        cycles_delta=tuple(cycle_deltas),
        meter_sample_counts=(
            tuple(sample_counts) if sample_counts is not None else None
        ),
        finished=retired >= finish_line,
    )


def _run_block_scalar(machine: "Machine", max_ticks: int) -> TickBlock:
    """Compose scalar ``step`` calls into a :class:`TickBlock`."""
    meter = inline_meter(machine)
    msr = machine.msr
    pmu = machine.pmu
    times: List[float] = []
    durations: List[float] = []
    instrs: List[float] = []
    cycs: List[float] = []
    energies: List[float] = []
    means: List[float] = []
    jitters: List[float] = []
    deltas0: List[int] = []
    deltas1: List[int] = []
    cycle_deltas: List[int] = []
    sample_counts: List[int] | None = [] if meter is not None else None
    pstate = machine.dvfs.current
    duty = machine.throttle.duty
    events = (pmu._events[0], pmu._events[1])
    tick = 0
    while tick < max_ticks and not machine.finished:
        pmc0_start = msr.rdmsr(IA32_PMC0)
        pmc1_start = msr.rdmsr(IA32_PMC1)
        cycles_start = pmu._cycles
        record = machine.step()
        times.append(record.time_s)
        durations.append(record.duration_s)
        instrs.append(record.instructions)
        cycs.append(record.cycles)
        energies.append(record.energy_j)
        means.append(record.mean_power_w)
        jitters.append(record.jitter)
        deltas0.append((msr.rdmsr(IA32_PMC0) - pmc0_start) & _M40)
        deltas1.append((msr.rdmsr(IA32_PMC1) - pmc1_start) & _M40)
        cycle_deltas.append((pmu._cycles - cycles_start) & _M40)
        if sample_counts is not None:
            sample_counts.append(len(meter._samples))
        tick += 1
    return TickBlock(
        pstate=pstate,
        duty=duty,
        events=events,
        time_s=tuple(times),
        duration_s=tuple(durations),
        instructions=tuple(instrs),
        cycles=tuple(cycs),
        energy_j=tuple(energies),
        mean_power_w=tuple(means),
        jitter=tuple(jitters),
        counter0_delta=tuple(deltas0),
        counter1_delta=tuple(deltas1),
        cycles_delta=tuple(cycle_deltas),
        meter_sample_counts=(
            tuple(sample_counts) if sample_counts is not None else None
        ),
        finished=machine.finished,
    )
