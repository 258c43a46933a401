"""Pluggable transports: the same protocol code over sim or real sockets.

A :class:`~repro.transport.base.Transport` owns one node's datagram
endpoint.  :class:`~repro.transport.sim.SimTransport` wraps the simulated
internet (today's ``Internet.send``/``Host.bind_udp`` delivery);
:class:`~repro.transport.udp.UdpTransport` binds a real asyncio UDP
socket and frames every message through :mod:`repro.wire`.  ``BrunetNode``
talks only to the transport interface, so the identical node/IPOP logic
runs in either world — the sim-vs-live equivalence argument of
DESIGN.md §12.

:class:`~repro.transport.runtime.RealtimeKernel` supplies the scheduler/
RNG/observability surface protocol code expects from a ``Simulator``, but
backed by the asyncio event loop and the wall clock.
"""

from repro._lazy import lazy_exports

#: public name -> the submodule that defines it (imported on first use)
_ORIGIN = {
    "Transport": "base",
    "SimTransport": "sim",
    "UdpTransport": "udp",
    "RealtimeKernel": "runtime",
}

__all__ = list(_ORIGIN)
__getattr__ = lazy_exports(__name__, _ORIGIN)
