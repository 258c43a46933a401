"""Codec mode runs the middleware on typed frames.

The codec frames protocol types only; the RPC layer hands the virtual
network its request and response as JSON bytes, which ride a ``T_BYTES``
frame.  On the paper's middleware path — a codec-mode testbed joining,
then one PBS job staging its files over NFS — every RPC frame a node
launches or sends carries such bytes, and the job completes.
"""

from __future__ import annotations

import json

from repro import wire
from repro.brunet.config import BrunetConfig
from repro.brunet.messages import IpEncap, RoutedPacket
from repro.core import build_paper_testbed
from repro.ipop.ippacket import VirtualIpPacket
from repro.middleware.nfs import NfsServer
from repro.middleware.pbs import JobSpec, PbsMom, PbsServer
from repro.sim import Simulator
from repro.sim.units import KB
from repro.wire import codec


def _udp_payload(msg):
    """The payload of the virtual UDP packet ``msg`` tunnels, else None."""
    if type(msg) is RoutedPacket:
        msg = msg.payload
    if type(msg) is IpEncap and type(msg.payload) is VirtualIpPacket \
            and msg.payload.proto == "udp":
        return msg.payload.payload
    return None


def test_a_codec_mode_pbs_job_runs_on_typed_rpc_frames(monkeypatch):
    sent = []
    encode, encode_origin = codec.encode, wire.encode_origin

    def tapped_encode(msg):
        sent.append(_udp_payload(msg))
        return encode(msg)

    def tapped_origin(src, dest, size, ttl, payload):
        sent.append(_udp_payload(payload))
        return encode_origin(src, dest, size, ttl, payload)

    monkeypatch.setattr(codec, "encode", tapped_encode)
    monkeypatch.setattr(wire, "encode_origin", tapped_origin)
    sim = Simulator(seed=51, trace=False)
    tb = build_paper_testbed(sim, brunet_config=BrunetConfig(wire_mode="codec"),
                             n_planetlab_routers=12, n_planetlab_hosts=4,
                             vm_stagger=2.0)
    tb.run_warmup(settle=120.0)
    nfs = NfsServer(tb.head)
    nfs.export("job.in", KB(50))
    pbs = PbsServer(tb.head)
    worker = tb.workers()[0]
    PbsMom(worker, tb.head.virtual_ip)
    pbs.register_worker(worker.virtual_ip)
    record = pbs.qsub(JobSpec("job", work_ref=5.0, input_size=KB(50),
                              output_size=KB(20)))
    sim.run(until=sim.now + 300)

    assert record.status == "done"
    rpcs = [payload for payload in sent if payload is not None]
    assert all(type(payload) is bytes for payload in rpcs)
    # requests [rid, method, body, reply_port], responses [rid, body]
    assert {len(json.loads(payload)) for payload in rpcs} == {4, 2}
