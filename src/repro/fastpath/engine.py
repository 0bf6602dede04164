"""Engine selection for the timing core.

:func:`execute` is the one place that decides which engine runs a
:meth:`repro.sim.TimingSimulator.run`: the compiled replay
(:func:`repro.fastpath.compiled.execute_compiled`, which replays the
trace's memoized lowering) or the simulator's instrumented reference
loop (:meth:`~repro.sim.TimingSimulator._run_reference`). Both run the
one per-miss walk of :mod:`repro.fastpath.walk` and compute bit-identical
arithmetic, so results — including the committed figure-6 golden sweep
— do not depend on the choice.
"""

from __future__ import annotations

from .compiled import execute_compiled, ineligibility


def execute(sim, trace, warmup: float, sample_period: int,
            session) -> tuple[float, float, int]:
    """Run ``trace`` through ``sim`` on the engine this run qualifies for.

    Returns ``(now, measured_from, measured_instructions)``. The caller
    has already rebased the bus and reset statistics; ``session`` is the
    active :mod:`repro.obs` session or None. Compiled replay runs unless
    a session is active, the fast-path gate is off, or
    :func:`~repro.fastpath.compiled.ineligibility` names a reason it
    cannot model the run; the reference loop runs otherwise. The run is
    attributed on the simulator's :class:`~repro.fastpath.EngineTelemetry`,
    with the reason on a reference run.
    """
    from . import ENGINE_COMPILED, ENGINE_REFERENCE, enabled

    if session is not None:
        reason = "obs_session"
    elif not enabled():
        reason = "fastpath_gate_off"
    else:
        reason = ineligibility(sim, trace)
    if reason is None:
        sim.engine_telemetry.record(ENGINE_COMPILED)
        return execute_compiled(sim, trace, warmup, sample_period)
    sim.engine_telemetry.record(ENGINE_REFERENCE, reason)
    return sim._run_reference(trace, warmup, sample_period, session)
