"""Engine selection for the timing core.

:func:`execute` is the one place that decides how a
:meth:`repro.sim.TimingSimulator.run` is served: by the memoized replay
(:func:`repro.fastpath.compiled.execute_compiled`, which replays the
trace's memoized lowering and installs its final cache contents) or by a
live run (:func:`~repro.fastpath.compiled.execute_live`, a walk of the
simulator's own caches, then a replay of that walk). Both replay through
one clock and settle through one path, and both walk with the one
per-miss walk of :mod:`repro.fastpath.walk`, so results — including the
committed figure-6 golden sweep — do not depend on the choice.
"""

from __future__ import annotations

from .compiled import execute_compiled, execute_live, ineligibility


def execute(sim, trace, warmup: float, sample_period: int,
            session) -> tuple[float, float, int]:
    """Run ``trace`` through ``sim`` on the engine this run qualifies for.

    Returns ``(now, measured_from, measured_instructions)``. The caller
    has already rebased the bus and reset statistics; ``session`` is the
    active :mod:`repro.obs` session or None. The memoized replay runs
    unless a session is active, the fast-path gate is off, or
    :func:`~repro.fastpath.compiled.ineligibility` names a reason it
    cannot serve the run; a live run (engine ``reference``: live walk,
    then the clock) serves it otherwise. The run is attributed on the
    simulator's :class:`~repro.fastpath.EngineTelemetry`, with the reason
    on a live run.
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
    return execute_live(sim, trace, warmup, sample_period, session)
