"""Trace spans must always reach a closed state.

Two leak regressions pinned here:

* codec-mode receive dropped malformed frames *after* the physical
  transit span had adopted the trace — the trace's root then stayed open
  forever with no record of where the packet went;
* ``Linker.cancel_all`` (node shutdown) deregistered in-flight attempts
  without closing their ``link.attempt`` spans.
"""

from __future__ import annotations

import pytest

from repro.brunet.address import BrunetAddress
from repro.brunet.config import BrunetConfig
from repro.brunet.connection import ConnectionType
from repro.brunet.node import BrunetNode
from repro.brunet.uri import Uri
from repro.obs.spans import TraceRef
from repro.phys.endpoints import Endpoint
from repro.phys.packet import Datagram
from repro.phys.topology import Site
from repro.transport.sim import SimTransport


def test_codec_decode_drop_closes_the_trace(sim, internet):
    host = Site(internet, "pub").add_host("rx")
    spans = sim.obs.enable_spans()
    transport = SimTransport(sim, host, 7000, wire_mode="codec")
    transport.open(lambda msg, src, size: None)

    tid = spans.maybe_trace("ip")
    root = spans.start("ip.packet", "tx", sim.now, tid)
    dgram = Datagram(Endpoint("9.9.9.9", 1), Endpoint(host.ip, 7000),
                     b"\xffnot-a-frame", size=11)
    dgram.trace = TraceRef(tid, root)
    transport._on_codec_dgram(dgram)

    root_span = next(s for s in spans.spans if s.id == root)
    assert root_span.t1 is not None, "decode drop must close the trace"
    assert root_span.attrs and root_span.attrs.get("decode_error") is True
    drop = next(s for s in spans.spans if s.name == "wire.decode_drop")
    assert drop.node == transport.name
    assert sim.obs.metrics.counter("wire.decode_error",
                                   node=transport.name).value == 1


def test_codec_decode_drop_without_trace_only_counts(sim, internet):
    """An untraced frame goes to the node as bytes; the node counts the
    decode failure and records no span."""
    host = Site(internet, "pub").add_host("rx2")
    spans = sim.obs.enable_spans()
    node = BrunetNode(sim, host, BrunetAddress(54321),
                      BrunetConfig(wire_mode="codec"), port=7000, name="rx2")
    node.start([])
    dgram = Datagram(Endpoint("9.9.9.9", 1), Endpoint(host.ip, 7000),
                     b"\xffnope", size=5)
    node.transport._on_codec_dgram(dgram)  # must not raise
    assert sim.obs.metrics.counter("wire.decode_error",
                                   node=node.name).value == 1
    assert not any(s.name == "wire.decode_drop" for s in spans.spans)


def test_cancel_all_closes_link_attempt_spans(sim, internet):
    host = Site(internet, "pub").add_host("ln")
    spans = sim.obs.enable_spans()
    node = BrunetNode(sim, host, BrunetAddress(12345), BrunetConfig(),
                      name="leaky")
    node.start([])

    tid = spans.maybe_trace("ctm")
    root = spans.start("ctm.handshake", node.name, sim.now, tid)
    attempt = node.linker.start(
        BrunetAddress(99999), [Uri.udp("203.0.113.7", 4000)],
        ConnectionType.STRUCTURED_NEAR, trace=TraceRef(tid, root))
    assert attempt is not None and attempt.span is not None
    sim.run(until=sim.now + 2.0)  # request in flight, far from giving up

    node.stop()
    open_attempts = [s for s in spans.spans
                     if s.name == "link.attempt" and s.t1 is None]
    assert open_attempts == [], \
        "shutdown must not leave link.attempt spans open"
    ended = next(s for s in spans.spans if s.name == "link.attempt")
    assert ended.attrs.get("status") == "cancelled"
