"""What still crosses the wire as a pickle.

Every protocol message has a typed frame; a value without one falls back
to an OPAQUE frame that pickles it.  On the paper's middleware path — a
codec-mode testbed joining, then one PBS job staging its files over NFS —
the only values that take that fallback are the RPC substrate's request
and response envelopes.  A typed RPC frame closes the rest of the pickle
hole; anything new that starts pickling shows up here first.
"""

from __future__ import annotations

from repro.brunet.config import BrunetConfig
from repro.core import build_paper_testbed
from repro.middleware.nfs import NfsServer
from repro.middleware.pbs import JobSpec, PbsMom, PbsServer
from repro.sim import Simulator
from repro.sim.units import KB
from repro.wire import codec


def test_only_rpc_envelopes_take_the_opaque_fallback(monkeypatch):
    pickled = []
    dumps = codec.pickle.dumps

    def recording_dumps(value, *args, **kwargs):
        pickled.append(type(value).__name__)
        return dumps(value, *args, **kwargs)

    monkeypatch.setattr(codec.pickle, "dumps", recording_dumps)
    before = codec.opaque_frames
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
    assert len(pickled) == codec.opaque_frames - before > 0
    assert set(pickled) <= {"RpcRequest", "RpcResponse"}, sorted(set(pickled))
