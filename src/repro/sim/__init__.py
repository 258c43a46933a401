"""Discrete-event simulation kernel used by every WOW substrate.

The kernel is deliberately small and dependency-free: a binary-heap event
queue (:class:`~repro.sim.engine.Simulator`), generator-based processes
(:mod:`repro.sim.process`), condition variables (:class:`~repro.sim.process.Signal`),
deterministic named RNG streams (:mod:`repro.sim.rng`) and a tracing facility
(:mod:`repro.sim.trace`).

Time is a float in **seconds**; data sizes are **bytes**; bandwidth is
**bytes/second** throughout the code base (see :mod:`repro.sim.units`).
"""

from repro._lazy import lazy_exports

#: public name -> the submodule that defines it (imported on first use)
_ORIGIN = {
    "Event": "engine",
    "Simulator": "engine",
    "SimulationError": "engine",
    "ShardedKernel": "shards",
    "Process": "process",
    "Signal": "process",
    "Timeout": "process",
    "WaitSignal": "process",
    "AllOf": "process",
    "RngRegistry": "rng",
    "Tracer": "trace",
    "TimeSeries": "trace",
}

__all__ = list(_ORIGIN)
__getattr__ = lazy_exports(__name__, _ORIGIN)
