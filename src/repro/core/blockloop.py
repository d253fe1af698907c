"""Batched monitor->estimate->control loop (the controller fast path).

``PowerManagementController._run_loop`` pays for generality: every 10 ms
tick builds a ``TickRecord``, a ``ResolvedRates``, a ``CounterSample``
and several dict/dataclass intermediates.  For the common experiment
configuration -- stock :class:`~repro.platform.machine.Machine`, stock
:class:`~repro.core.sampling.CounterSampler`, one inline-able
:class:`~repro.measurement.power_meter.PowerMeter`, no fault injection,
no online adaptation -- this module runs the same loop batched:

* **Dynamic governors** (PerformanceMaximizer, PowerSave,
  DemandBasedSwitching) decide every tick, so their loop fuses the
  machine tick kernel (:func:`repro.platform.blockstep.execute_segment`
  + the inlined meter/PMU updates) with table-driven governor decisions
  (:meth:`PerformanceMaximizer.projection_table` /
  :meth:`PowerSave.projection_table`) entirely in local variables,
  syncing object state only at checkpoint boundaries and loop exit.
  Constraint schedules are boundaries inside this loop (a due change is
  delivered between two ticks, then the decision inputs are re-read),
  and with telemetry on the loop feeds the scalar loop's per-tick
  accounting helper from its locals, so observing a run keeps it fast.
* **Static governors** (StaticClocking, FixedFrequency) never change
  their mind, so their loop consumes whole
  :meth:`~repro.platform.machine.Machine.step_block` blocks between
  checkpoint boundaries and converts them with
  :meth:`~repro.core.sampling.CounterSampler.consume_block`.  Runs with
  telemetry or a schedule leave this arm to the scalar loop.

**Bit-identical contract.**  Both arms replicate the scalar loop's RNG
draws, float operation order and side effects exactly; ``RunResult``
digests, checkpoint contents and telemetry (metrics, span paths and
counts, events) are indistinguishable from the scalar path's
(``tests/core/test_block_equivalence.py`` and the generated-input
oracle ``tests/core/test_fast_scalar_oracle.py``).  Anything the fast
path cannot replicate exactly -- resilience runtimes, fault injection,
adaptation probation, multiplexed samplers, thermal models, wrapped
drivers/meters, exotic governors -- fails :func:`fallback_reason`, which
names the first failed check, and falls back to the scalar loop; with
telemetry on the run counts under
``controller.fast_path_fallback.<reason>``.

Kill switches (reason ``forced``): set module flag ``FAST_LOOP = False``
(tests monkeypatch this) or export ``REPRO_SCALAR_LOOP=1`` in the
environment.
"""

from __future__ import annotations

import math
import os
import time

from repro.core.governors.demand_based import DemandBasedSwitching
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.governors.powersave import PowerSave
from repro.core.governors.static import StaticClocking
from repro.core.governors.unconstrained import FixedFrequency
from repro.core.sampling import CounterSample, CounterSampler, sample_event
from repro.errors import ExperimentError
from repro.drivers.msr import (
    IA32_PMC0,
    IA32_PMC1,
    IA32_TIME_STAMP_COUNTER,
)
from repro.measurement.power_meter import PowerSample
from repro.platform.blockstep import (
    _M40,
    _M64,
    _NEG_INV_P,
    _NEG_P,
    _SELECTOR,
    block_capable,
    inline_meter,
    rate_template,
)
from repro.platform.pipeline import (
    DCU_OUTSTANDING_CAP,
    DECODE_WIDTH,
    _OCCUPANCY_CAP,
)

#: Master switch for the batched loop (tests monkeypatch this).
FAST_LOOP = True

#: Ticks per ``step_block`` call in the static-governor arm; bounded so
#: checkpoint boundaries and the simulated-time limit stay exact.
BLOCK_TICKS = 128

#: Chunked Gaussian pre-draws in the dynamic arm (checkpointer-free
#: runs only; see ``_run_dynamic``).  Module flag for tests/debugging.
BATCH_RNG = True
_RNG_CHUNK = 1024

_INF = float("inf")

#: Governors with an exact table-driven fast decide.  Exact-type checks:
#: subclasses (e.g. AdaptivePerformanceMaximizer) may override anything.
_DYNAMIC = (PerformanceMaximizer, PowerSave, DemandBasedSwitching)
_STATIC = (StaticClocking, FixedFrequency)


def fallback_reason(st, tel) -> str | None:
    """Why ``st`` cannot run the batched loop (None: it can).

    Names the first check that failed; the conditions mirror everything
    the fused kernels inline.  Any stateful boundary the batch cannot
    replicate exactly (resilience, injection, adaptation, wrappers,
    subclasses) routes the run back to the scalar loop.  Telemetry and
    constraint schedules are handled by the dynamic arm; the static arm
    leaves both to the scalar loop.  The kill switches report
    ``"forced"``.
    """
    if not FAST_LOOP or os.environ.get("REPRO_SCALAR_LOOP"):
        return "forced"
    if st.injecting:
        return "faults"
    if st.rt is not None:
        return "resilience"
    if st.adapting:
        return "adaptation"
    governor = st.governor
    gtype = type(governor)
    if gtype not in _DYNAMIC and gtype not in _STATIC:
        return "governor"
    if hasattr(governor, "observe_power"):
        return "power_feedback"
    machine = st.machine
    if tuple(governor.table) != tuple(machine.config.table):
        return "pstate_table"
    if not block_capable(machine):
        return "machine"
    if st.driver is not machine.speedstep:
        return "driver"
    sampler = st.sampler
    if type(sampler) is not CounterSampler:
        return "sampler"
    for event in sampler._events:
        if event not in _SELECTOR:
            return "events"
    if inline_meter(machine) is not st.meter:
        return "meter"
    if gtype in _STATIC:
        if tel is not None and tel.enabled:
            return "static_telemetry"
        if st.schedule is not None:
            return "static_schedule"
    return None


def run_fast(st, tel, checkpointer=None, resumed=False):
    """Drive ``st`` to completion on the batched path.

    Only call when :func:`eligible` returned True.  Returns the same
    :class:`~repro.core.controller.RunResult` (bit-identical) as the
    scalar loop.
    """
    if type(st.governor) in _STATIC:
        return _run_static(st, tel, checkpointer, resumed)
    return _run_dynamic(st, tel, checkpointer, resumed)


def _run_static(st, tel, checkpointer, resumed):
    """Block-consuming arm for constant-decision governors.

    The governor decides after every tick in the scalar loop but only
    the *first* decision can change the p-state, so the loop runs one
    scalar-equivalent tick, actuates, then consumes
    :meth:`Machine.step_block` blocks sized to never cross a checkpoint
    boundary or the simulated-time limit.
    """
    from repro.core.controller import TraceRow, _finish_run

    machine = st.machine
    governor = st.governor
    meter = st.meter
    sampler = st.sampler
    driver = st.driver
    workload_name = st.workload_name
    max_seconds = st.max_seconds
    keep_trace = st.keep_trace

    target = governor._pstate
    dt = machine.config.tick_s
    meter_samples = meter._samples

    residency = st.residency
    trace = st.trace
    trace_append = trace.append
    instructions = st.instructions
    true_energy = st.true_energy
    sample_index = st.sample_index
    tick_index = st.tick_index

    if checkpointer is not None:
        interval = checkpointer.interval_ticks
        next_checkpoint = (
            tick_index
            if tick_index == 0 and not resumed
            else tick_index + interval
        )

    pending_actuation = target != machine.current_pstate

    while not machine.finished:
        now = machine.now_s
        if now > max_seconds:
            raise ExperimentError(
                f"{workload_name} under {governor.name} exceeded "
                f"{max_seconds}s of simulated time"
            )
        if checkpointer is not None and tick_index >= next_checkpoint:
            st.instructions = instructions
            st.true_energy = true_energy
            st.tick_index = tick_index
            checkpointer.save(tick_index, st, tel)
            next_checkpoint = tick_index + interval
        if pending_actuation:
            # The scalar loop's first decision lands *after* the first
            # tick executes at the initial p-state.
            k = 1
        else:
            k = BLOCK_TICKS
            if checkpointer is not None:
                k = min(k, next_checkpoint - tick_index)
            # Never execute a tick whose start the scalar loop would
            # have refused (simulated-time limit raises at tick start).
            k = min(k, max(1, int((max_seconds - now) / dt)))
        block = machine.step_block(k)
        sblock = sampler.consume_block(block)
        block_freq = block.pstate.frequency_mhz
        duty = block.duty
        counts = block.meter_sample_counts
        times = block.time_s
        durations = block.duration_s
        instrs = block.instructions
        energies = block.energy_j
        means = block.mean_power_w
        for i in range(len(times)):
            instructions += instrs[i]
            true_energy += energies[i]
            residency[block_freq] = (
                residency.get(block_freq, 0.0) + durations[i]
            )
            n_samples = counts[i]
            measured = (
                meter_samples[n_samples - 1].watts
                if n_samples > sample_index
                else means[i]
            )
            if keep_trace:
                trace_append(
                    TraceRow(
                        time_s=times[i],
                        frequency_mhz=block_freq,
                        measured_power_w=measured,
                        true_power_w=means[i],
                        instructions=instrs[i],
                        rates=sblock.rates_at(i),
                        duty=duty,
                        temperature_c=None,
                    )
                )
            tick_index += 1
        if pending_actuation:
            driver.set_pstate(target)
            pending_actuation = False

    st.instructions = instructions
    st.true_energy = true_energy
    st.tick_index = tick_index
    return _finish_run(st, tel)


def _decision_inputs(governor, mode, state_index):
    """The governor's decision inputs, as the dynamic kernel's locals.

    Read at loop entry and again after every delivered constraint
    change, so a new limit, floor, guardband or model takes effect at
    the next decision, as in the scalar loop.  One fixed layout for all
    three governors (unused slots are None): ``(proj_rows, budget_w,
    raise_window, raise_streak, pending_index, floor_plus_eps,
    dcu_threshold, fastest_mhz, fast_factor, ascending_rows,
    up_threshold, down_threshold)``.
    """
    out = [None] * 12
    if mode == 0:  # PerformanceMaximizer
        pending = governor._pending_raise
        out[:5] = (
            governor.projection_table().rows,
            governor._limit - governor._guardband,
            governor._raise_window,
            governor._raise_streak,
            state_index[pending] if pending is not None else None,
        )
    elif mode == 1:  # PowerSave
        ps_proj = governor.projection_table()
        out[5:10] = (
            governor._floor + 1e-12,
            governor._model.dcu_threshold,
            ps_proj.fastest_mhz,
            ps_proj.fast_factor,
            ps_proj.ascending,
        )
    else:  # DemandBasedSwitching
        out[10:] = (governor._up, governor._down)
    return out


def _run_dynamic(st, tel, checkpointer, resumed):
    """Fully fused arm for per-tick-deciding governors.

    One Python loop holds the machine tick kernel, the inlined meter
    and PMU updates, the counter-sampler arithmetic and the governor's
    table-driven decision, all in local variables.  The segment math
    and the meter bucket loop are inlined bodily (no function calls on
    the tick path), template fields live in unpacked locals refreshed
    only on phase/p-state change, and ``min``/``max`` builtins are
    replaced by branch expressions with identical float semantics.

    On checkpointer-free runs the three per-tick Gaussian draws
    (jitter innovation, sense-amp noise, ADC noise) come from chunked
    ``standard_normal`` buffers: numpy array draws consume the exact
    same variate stream as repeated scalar calls and
    ``0.0 + scale * z`` is bitwise ``normal(0.0, scale)``, so every
    consumed value is identical -- only the generators' *final* states
    run ahead by the unconsumed tail, which nothing observes without a
    checkpoint.  Runs with a checkpointer keep scalar draws so pickled
    RNG states stay resume-exact.

    Object state is written back (`finally`) before every checkpoint
    save, on the simulated-time-limit raise and at loop exit, so
    checkpoints and error states are indistinguishable from the scalar
    path's.

    **Constraint schedules.**  A due change is a boundary at the top of
    a tick (``time_s >= next_change_s``; infinity without a schedule,
    so the plain kernel pays one float compare): the kernel writes PM's
    hysteresis back, delivers every due change through the scalar
    loop's helper and re-reads the decision inputs.

    **Telemetry.**  With an enabled recorder the kernel feeds the scalar
    loop's per-tick accounting helper from its own locals (same
    counters, histograms and events, in the same order) and times the
    ``execute``/``sample``/``decide``/``actuate`` phases with clock
    reads instead of span context managers.  PM's power estimate comes
    from the projection row the decision already used, which is
    bitwise ``estimate_power``.
    """
    from repro.core.controller import (
        TraceRow,
        _deliver_due,
        _finish_run,
        _next_change_s,
        _TickTelemetry,
    )

    machine = st.machine
    governor = st.governor
    meter = st.meter
    sampler = st.sampler
    driver = st.driver
    workload_name = st.workload_name
    max_seconds = st.max_seconds
    keep_trace = st.keep_trace

    config = machine.config
    cursor = machine._cursor
    workload = cursor._workload
    phases = workload.phases
    n_phases = len(phases)
    total = workload.total_instructions
    finish_line = total - 1e-9
    dt = config.tick_s
    dt_eps = dt - 1e-12
    dvfs = machine.dvfs
    timing = machine._timing
    constants = config.power
    rng_normal = machine._rng.normal
    mach_std = machine._rng.standard_normal
    _exp = math.exp
    _new = object.__new__
    # Only a constraint change can move the duty cycle; it is re-read
    # at each schedule boundary.
    duty = machine.throttle.duty

    table = config.table
    states = tuple(table)
    n_states = len(states)
    state_index = {state: i for i, state in enumerate(states)}

    pstate = dvfs.current
    current_index = state_index[pstate]
    freq = pstate.frequency_mhz
    freq_1e6 = freq * 1e6

    # One template row per p-state, filled lazily per phase.
    template_rows = [[None] * n_phases for _ in range(n_states)]
    templates = template_rows[current_index]

    gov_states = tuple(governor.table)
    gtype = type(governor)
    mode = (
        0 if gtype is PerformanceMaximizer else 1 if gtype is PowerSave else 2
    )
    (
        proj_rows, budget_w, raise_window, raise_streak, pending_index,
        floor_plus_eps, dcu_threshold, fastest_mhz, fast_factor,
        ascending_rows, up_threshold, down_threshold,
    ) = _decision_inputs(governor, mode, state_index)

    # Machine / PMU state -> locals (written back at sync points).
    time_s = machine._time_s
    jitter_log = machine._jitter_log
    charged = machine._charged_dead_time_s
    dead_total = dvfs.total_dead_time_s
    phase_index = cursor._phase_index
    into_phase = cursor._into_phase
    retired = cursor._retired

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

    # Meter state -> locals (PowerMeter.accumulate, inlined bodily).
    m_interval = meter.interval_s
    close_eps = m_interval - 1e-12
    sense = meter._sense
    adc = meter._adc
    supply = meter._supply_v
    realized = sense._realized_ohm
    nominal = sense.resistance_ohm
    amp_noise = sense.amplifier_noise_v
    sense_normal = sense._rng.normal
    sense_std = sense._rng.standard_normal
    adc_normal = adc._rng.normal
    noise_floor = adc.noise_floor_watts
    full_scale = adc.full_scale_watts
    lsb = adc.full_scale_watts / (1 << adc.bits)
    meter_samples = meter._samples
    samples_append = meter_samples.append
    n_samples = len(meter_samples)
    last_measured_w = meter_samples[-1].watts if n_samples else 0.0
    m_time = meter._time_s
    bucket_e = meter._bucket_energy_j
    bucket_t = meter._bucket_time_s

    sampler_elapsed = sampler._elapsed_s

    residency = st.residency
    trace = st.trace
    trace_append = trace.append
    instructions = st.instructions
    true_energy = st.true_energy
    sample_index = st.sample_index
    tick_index = st.tick_index

    # Chunked RNG only when no checkpoint can pickle a generator state.
    # The stock meter hands ONE generator to both front ends, so sense
    # and ADC noise interleave on a single stream: each sample close
    # consumes exactly two variates, in order, from one shared buffer
    # (_RNG_CHUNK is even, keeping refills aligned).  A meter with
    # split generators keeps scalar draws.
    batch_rng = BATCH_RNG and checkpointer is None
    batch_meter = batch_rng and sense._rng is adc._rng
    meter_std = sense_std
    jit_buf = m_buf = None
    jit_i = m_i = _RNG_CHUNK
    jit_refills = m_refills = 0
    if batch_rng:
        # Chunk refills run each generator ahead of the scalar script;
        # the `finally` below rewinds to these states and re-consumes
        # exactly the used counts (one array draw lands the generator
        # in the same state as that many scalar draws), so post-loop
        # consumers (the run-end meter flush) see scalar-exact streams.
        jit_state0 = machine._rng.bit_generator.state
        m_state0 = sense._rng.bit_generator.state

    # Current-p-state residency accumulates in a local; flushed to the
    # dict on p-state change and at every sync point -- but only once a
    # tick has run at that p-state (``tick_index > res_from``), so a
    # p-state requested on the final tick gets no entry, as in the
    # scalar loop.
    res_acc = residency.get(freq, 0.0)
    res_from = tick_index

    instrumented = tel is not None and tel.enabled
    if instrumented:
        acct = _TickTelemetry(tel, st, resumed)
        events = acct.events
        clock = time.perf_counter
    two_events = len(sampler._events) == 2
    next_change_s = _next_change_s(st)

    # Unpacked fields of the template the loop last touched.
    t_cur = None

    if checkpointer is not None:
        interval = checkpointer.interval_ticks
        next_checkpoint = (
            tick_index
            if tick_index == 0 and not resumed
            else tick_index + interval
        )
    else:
        next_checkpoint = _INF

    try:
        while retired < finish_line:
            if time_s > max_seconds:
                raise ExperimentError(
                    f"{workload_name} under {governor.name} exceeded "
                    f"{max_seconds}s of simulated time"
                )
            if tick_index >= next_checkpoint:
                # Locals -> objects so the pickled _RunState is exactly
                # what the scalar loop would have checkpointed.  (Only
                # reachable with a checkpointer, i.e. batch_rng off.)
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
                meter._time_s = m_time
                meter._bucket_energy_j = bucket_e
                meter._bucket_time_s = bucket_t
                sampler._elapsed_s = sampler_elapsed
                sampler._last = pmu.snapshot()
                if tick_index > res_from:
                    residency[freq] = res_acc
                if mode == 0:
                    governor._raise_streak = raise_streak
                    governor._pending_raise = (
                        gov_states[pending_index]
                        if pending_index is not None
                        else None
                    )
                st.instructions = instructions
                st.true_energy = true_energy
                st.tick_index = tick_index
                if instrumented:
                    acct.flush()
                checkpointer.save(tick_index, st, tel)
                next_checkpoint = tick_index + interval
            if time_s >= next_change_s:
                # A due constraint change: hysteresis -> governor,
                # deliver (PM's set_power_limit resets it), re-read.
                if mode == 0:
                    governor._raise_streak = raise_streak
                    governor._pending_raise = (
                        gov_states[pending_index]
                        if pending_index is not None
                        else None
                    )
                next_change_s = _deliver_due(st, time_s, tel)
                (
                    proj_rows, budget_w, raise_window, raise_streak,
                    pending_index, floor_plus_eps, dcu_threshold,
                    fastest_mhz, fast_factor, ascending_rows,
                    up_threshold, down_threshold,
                ) = _decision_inputs(governor, mode, state_index)
                duty = machine.throttle.duty

            if instrumented:
                t0 = clock()

            # ---- machine tick (mirrors Machine.step / run_block) ----
            start_time = time_s
            energy = 0.0
            tick_instr = 0.0
            elapsed = 0.0
            pmc0_start = pmc0
            pmc1_start = pmc1
            cycles_start = cycles_int

            template = templates[phase_index]
            if template is None:
                template = templates[phase_index] = rate_template(
                    phases[phase_index], pstate, timing, constants
                )
            if template is not t_cur:
                t_cur = template
                t_hz = template.hz
                t_cpi_core = template.cpi_core
                t_l2_stall = template.l2_stall_pi
                t_dram_stall = template.dram_stall_pi
                t_bytes_pi = template.bytes_pi
                t_bw_neg_p = template.bw_neg_p
                t_bus_bw = template.bus_bw
                t_dcu_occ = template.dcu_occupancy_pi
                t_decode = template.decode_ratio
                t_fp_ratio = template.fp_ratio
                t_l2r = template.l2r_coeff
                t_c_base = template.c_base
                t_c_gate = template.c_gate
                t_c_dpc_f = template.c_dpc_f
                t_c_fp = template.c_fp
                t_c_l2 = template.c_l2
                t_c_bus = template.c_bus
                t_v2f = template.v2f
                t_static = template.static_w
                t_idle_w = template.idle_w
                t_freq_mhz = template.freq_mhz
                t_instructions = template.instructions
                t_phase_end = template.phase_end
                t_sigma = template.sigma
                t_rho = template.rho
                t_jitter_scale = template.jitter_scale
                t_half_sig2 = template.half_sig2

            dead = dead_total - charged
            if dead > 0:
                if dead > dt:
                    dead = dt
                charged += dead
                energy += t_idle_w * dead
                # Inlined meter emit(t_idle_w, dead).
                remaining_t = dead
                while remaining_t > 0:
                    room = m_interval - bucket_t
                    chunk = remaining_t if remaining_t < room else room
                    bucket_e += t_idle_w * chunk
                    bucket_t += chunk
                    m_time += chunk
                    remaining_t -= chunk
                    if bucket_t >= close_eps:
                        true_mean = bucket_e / bucket_t
                        true_current = true_mean / supply
                        if batch_meter:
                            if m_i == _RNG_CHUNK:
                                m_buf = meter_std(_RNG_CHUNK).tolist()
                                m_i = 0
                                m_refills += 1
                            s_noise = 0.0 + amp_noise * m_buf[m_i]
                            a_noise = (
                                0.0 + noise_floor * m_buf[m_i + 1]
                            )
                            m_i += 2
                        else:
                            s_noise = sense_normal(0.0, amp_noise)
                            a_noise = adc_normal(0.0, noise_floor)
                        v_sense = true_current * realized + s_noise
                        sensed = (v_sense / nominal) * supply
                        noisy = sensed + a_noise
                        clipped = 0.0 if 0.0 > noisy else noisy
                        if full_scale < clipped:
                            clipped = full_scale
                        measured_w = round(clipped / lsb) * lsb
                        # Frozen-dataclass __init__ goes through
                        # object.__setattr__ four times; filling the
                        # instance dict directly builds an
                        # indistinguishable object at half the cost.
                        sample = _new(PowerSample)
                        sdict = sample.__dict__
                        sdict["time_s"] = m_time
                        sdict["watts"] = measured_w
                        sdict["true_watts"] = true_mean
                        sdict["duration_s"] = bucket_t
                        samples_append(sample)
                        last_measured_w = measured_w
                        n_samples += 1
                        bucket_e = 0.0
                        bucket_t = 0.0
                elapsed += dead

            if t_sigma == 0.0:
                jitter_log = 0.0
                jitter = 1.0
            else:
                if batch_rng:
                    if jit_i == _RNG_CHUNK:
                        jit_buf = mach_std(_RNG_CHUNK).tolist()
                        jit_i = 0
                        jit_refills += 1
                    innovation = 0.0 + t_jitter_scale * jit_buf[jit_i]
                    jit_i += 1
                else:
                    innovation = rng_normal(0.0, t_jitter_scale)
                jitter_log = t_rho * jitter_log + innovation
                jitter = _exp(jitter_log - t_half_sig2)
            jitter_q = jitter**0.25

            while elapsed < dt_eps and retired < finish_line:
                template = templates[phase_index]
                if template is None:
                    template = templates[phase_index] = rate_template(
                        phases[phase_index], pstate, timing, constants
                    )
                if template is not t_cur:
                    t_cur = template
                    t_hz = template.hz
                    t_cpi_core = template.cpi_core
                    t_l2_stall = template.l2_stall_pi
                    t_dram_stall = template.dram_stall_pi
                    t_bytes_pi = template.bytes_pi
                    t_bw_neg_p = template.bw_neg_p
                    t_bus_bw = template.bus_bw
                    t_dcu_occ = template.dcu_occupancy_pi
                    t_decode = template.decode_ratio
                    t_fp_ratio = template.fp_ratio
                    t_l2r = template.l2r_coeff
                    t_c_base = template.c_base
                    t_c_gate = template.c_gate
                    t_c_dpc_f = template.c_dpc_f
                    t_c_fp = template.c_fp
                    t_c_l2 = template.c_l2
                    t_c_bus = template.c_bus
                    t_v2f = template.v2f
                    t_static = template.static_w
                    t_idle_w = template.idle_w
                    t_freq_mhz = template.freq_mhz
                    t_instructions = template.instructions
                    t_phase_end = template.phase_end
                    t_sigma = template.sigma
                    t_rho = template.rho
                    t_jitter_scale = template.jitter_scale
                    t_half_sig2 = template.half_sig2
                remaining = total - retired
                if remaining < 0.0:
                    remaining = 0.0
                budget = t_instructions - into_phase
                if remaining < budget:
                    budget = remaining

                # Inlined execute_segment (bitwise: min(a, b) is
                # ``b if b < a else a`` for the float builtins).
                cpi_latency = (
                    t_cpi_core / jitter + t_l2_stall + t_dram_stall
                )
                ips = t_hz / cpi_latency
                if t_bytes_pi > 0:
                    ips = (ips**_NEG_P + t_bw_neg_p) ** _NEG_INV_P
                    bus = ips * t_bytes_pi / t_bus_bw
                    if bus > _OCCUPANCY_CAP:
                        bus = _OCCUPANCY_CAP
                else:
                    bus = 0.0
                ipc_rate = ips / t_hz
                dcu_rate = t_dcu_occ * ipc_rate
                if dcu_rate > DCU_OUTSTANDING_CAP:
                    dcu_rate = DCU_OUTSTANDING_CAP
                dpc_rate = t_decode * ipc_rate * jitter_q
                if dpc_rate > DECODE_WIDTH:
                    dpc_rate = DECODE_WIDTH
                activity = (
                    t_c_base
                    * (
                        1.0
                        - t_c_gate * (dcu_rate if dcu_rate < 1.0 else 1.0)
                    )
                    + t_c_dpc_f * dpc_rate
                    + t_c_fp * (t_fp_ratio * ipc_rate)
                    + t_c_l2 * (t_l2r * ipc_rate)
                    + t_c_bus * bus
                )
                full_power = t_v2f * activity + t_static
                power = (full_power - t_static) * duty + t_static
                effective_ips = ips * duty
                seg_time = budget / effective_ips
                time_left = dt - elapsed
                if time_left < seg_time:
                    seg_time = time_left
                seg_instr = effective_ips * seg_time
                if budget < seg_instr:
                    seg_instr = budget
                seg_cycles = seg_time * t_freq_mhz * 1e6 * duty

                retired += seg_instr
                into_phase += seg_instr
                if into_phase >= t_phase_end:
                    into_phase = 0.0
                    phase_index = (phase_index + 1) % n_phases
                cycle_res += seg_cycles
                whole = int(cycle_res)
                cycle_res -= whole
                cycles_int += whole
                tsc = (tsc + whole) & _M64
                if selector0 is not None:
                    rate = (
                        dpc_rate
                        if selector0 == 0
                        else (ipc_rate if selector0 == 1 else dcu_rate)
                    )
                    res0 += rate * seg_cycles
                    increment = int(res0)
                    res0 -= increment
                    pmc0 = (pmc0 + increment) & _M40
                if selector1 is not None:
                    rate = (
                        dpc_rate
                        if selector1 == 0
                        else (ipc_rate if selector1 == 1 else dcu_rate)
                    )
                    res1 += rate * seg_cycles
                    increment = int(res1)
                    res1 -= increment
                    pmc1 = (pmc1 + increment) & _M40
                energy += power * seg_time
                # Inlined meter emit(power, seg_time).
                remaining_t = seg_time
                while remaining_t > 0:
                    room = m_interval - bucket_t
                    chunk = remaining_t if remaining_t < room else room
                    bucket_e += power * chunk
                    bucket_t += chunk
                    m_time += chunk
                    remaining_t -= chunk
                    if bucket_t >= close_eps:
                        true_mean = bucket_e / bucket_t
                        true_current = true_mean / supply
                        if batch_meter:
                            if m_i == _RNG_CHUNK:
                                m_buf = meter_std(_RNG_CHUNK).tolist()
                                m_i = 0
                                m_refills += 1
                            s_noise = 0.0 + amp_noise * m_buf[m_i]
                            a_noise = (
                                0.0 + noise_floor * m_buf[m_i + 1]
                            )
                            m_i += 2
                        else:
                            s_noise = sense_normal(0.0, amp_noise)
                            a_noise = adc_normal(0.0, noise_floor)
                        v_sense = true_current * realized + s_noise
                        sensed = (v_sense / nominal) * supply
                        noisy = sensed + a_noise
                        clipped = 0.0 if 0.0 > noisy else noisy
                        if full_scale < clipped:
                            clipped = full_scale
                        measured_w = round(clipped / lsb) * lsb
                        # Frozen-dataclass __init__ goes through
                        # object.__setattr__ four times; filling the
                        # instance dict directly builds an
                        # indistinguishable object at half the cost.
                        sample = _new(PowerSample)
                        sdict = sample.__dict__
                        sdict["time_s"] = m_time
                        sdict["watts"] = measured_w
                        sdict["true_watts"] = true_mean
                        sdict["duration_s"] = bucket_t
                        samples_append(sample)
                        last_measured_w = measured_w
                        n_samples += 1
                        bucket_e = 0.0
                        bucket_t = 0.0
                tick_instr += seg_instr
                elapsed += seg_time

            time_s = start_time + elapsed
            mean_power = energy / elapsed if elapsed > 0 else 0.0

            # ---- sampler (mirrors CounterSampler.sample) ----
            if instrumented:
                t1 = clock()
            c0 = (pmc0 - pmc0_start) & _M40
            cyc = (cycles_int - cycles_start) & _M40
            r0 = c0 / cyc if cyc > 0 else 0.0
            if two_events:
                c1 = (pmc1 - pmc1_start) & _M40
                r1 = c1 / cyc if cyc > 0 else 0.0
            sampler_elapsed += elapsed
            if instrumented:
                if events:
                    tel.emit(
                        sample_event(
                            sampler_elapsed,
                            CounterSample(
                                interval_s=elapsed,
                                cycles=float(cyc),
                                rates=(
                                    {event0: r0, event1: r1}
                                    if two_events
                                    else {event0: r0}
                                ),
                            ),
                        )
                    )
                t2 = clock()

            # ---- accounting (mirrors the scalar loop body) ----
            instructions += tick_instr
            true_energy += energy
            tick_freq = freq
            res_acc += elapsed
            measured = (
                last_measured_w
                if n_samples > sample_index
                else mean_power
            )

            # ---- decide (table-driven, bit-identical to decide()) ----
            if mode == 0:  # PerformanceMaximizer
                row = proj_rows[current_index]
                desired_index = n_states - 1
                for i in range(n_states):
                    scale, alpha, beta = row[i]
                    if alpha * (r0 * scale) + beta <= budget_w:
                        desired_index = i
                        break
                if desired_index > current_index:
                    raise_streak = 0
                    pending_index = None
                    target_index = desired_index
                elif desired_index < current_index:
                    if pending_index is None or desired_index > pending_index:
                        pending_index = desired_index
                    raise_streak += 1
                    if raise_streak >= raise_window:
                        target_index = pending_index
                        raise_streak = 0
                        pending_index = None
                    else:
                        target_index = current_index
                else:
                    raise_streak = 0
                    pending_index = None
                    target_index = current_index
            elif mode == 1:  # PowerSave
                dcu_per_ipc = (r1 / r0) if r0 > 0 else _INF
                core_bound = dcu_per_ipc < dcu_threshold
                if core_bound:
                    peak = r0 * fastest_mhz * 1e6
                else:
                    peak = r0 * fast_factor[current_index] * fastest_mhz * 1e6
                target_index = 0
                for to_mhz, factor, candidate in ascending_rows[
                    current_index
                ]:
                    if core_bound:
                        throughput = r0 * to_mhz * 1e6
                    else:
                        throughput = r0 * factor * to_mhz * 1e6
                    relative = throughput / peak if peak > 0 else 1.0
                    if relative > floor_plus_eps:
                        target_index = candidate
                        break
            else:  # DemandBasedSwitching
                if elapsed <= 0:
                    utilization = 1.0
                else:
                    available = freq_1e6 * elapsed
                    utilization = min(1.0, cyc / available)
                if utilization >= up_threshold:
                    target_index = (
                        current_index - 1 if current_index > 0 else 0
                    )
                elif utilization <= down_threshold:
                    target_index = (
                        current_index + 1
                        if current_index < n_states - 1
                        else current_index
                    )
                else:
                    target_index = current_index

            # ---- actuate (through the real driver: MSR writes, DVFS
            # dead time and transition counts stay checkpoint-exact) ----
            if target_index != current_index:
                if instrumented:
                    t3 = clock()
                residency[freq] = res_acc
                driver.set_pstate(gov_states[target_index])
                pstate = dvfs.current
                current_index = state_index[pstate]
                templates = template_rows[current_index]
                freq = pstate.frequency_mhz
                freq_1e6 = freq * 1e6
                dead_total = dvfs.total_dead_time_s
                res_acc = residency.get(freq, 0.0)
                res_from = tick_index + 1

            if instrumented:
                # ---- telemetry (the scalar loop's accounting helper) ----
                t4 = clock()
                changed = freq != tick_freq
                if not changed:  # decide ran until now; no actuate span
                    t3 = t4
                    t4 = None
                acct.phases(t0, t1, t2, t3, t4)
                if mode == 0:
                    scale, alpha, beta = row[target_index]
                    estimate = alpha * (r0 * scale) + beta
                else:
                    estimate = None
                acct.tick(
                    time_s,
                    tick_freq,
                    elapsed,
                    measured,
                    mean_power,
                    tick_instr,
                    duty,
                    None,
                    tick_freq,
                    gov_states[target_index].frequency_mhz,
                    changed,
                    estimate,
                )

            if keep_trace:
                if two_events:
                    rates = {event0: r0, event1: r1}
                else:
                    rates = {event0: r0}
                trace_append(
                    TraceRow(
                        time_s=time_s,
                        frequency_mhz=tick_freq,
                        measured_power_w=measured,
                        true_power_w=mean_power,
                        instructions=tick_instr,
                        rates=rates,
                        duty=duty,
                        temperature_c=None,
                    )
                )
            tick_index += 1
    finally:
        # Locals -> objects (also on the max_seconds raise and any
        # unexpected error, so nothing is ever left torn).
        if jit_buf is not None:
            machine._rng.bit_generator.state = jit_state0
            used = (jit_refills - 1) * _RNG_CHUNK + jit_i
            if used:
                mach_std(used)
        if m_buf is not None:
            sense._rng.bit_generator.state = m_state0
            used = (m_refills - 1) * _RNG_CHUNK + m_i
            if used:
                meter_std(used)
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
        meter._time_s = m_time
        meter._bucket_energy_j = bucket_e
        meter._bucket_time_s = bucket_t
        sampler._elapsed_s = sampler_elapsed
        sampler._last = pmu.snapshot()
        if tick_index > res_from:
            residency[freq] = res_acc
        if mode == 0:
            governor._raise_streak = raise_streak
            governor._pending_raise = (
                gov_states[pending_index]
                if pending_index is not None
                else None
            )
        if instrumented:
            acct.flush()

    st.instructions = instructions
    st.true_energy = true_energy
    st.tick_index = tick_index
    return _finish_run(st, tel)
