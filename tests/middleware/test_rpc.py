"""RPC substrate: calls, retries, idempotence, serialization, and the
JSON datagrams a call travels as."""

import itertools
import json

import pytest

from repro.middleware import rpc
from repro.middleware.nfs import NFS_PORT, NfsServer
from repro.middleware.pbs import JobRecord, JobSpec, PbsMom, PbsServer
from repro.middleware.pbs.server import PBS_MOM_PORT, PBS_SERVER_PORT
from repro.middleware.rpc import RpcClient, RpcFailure, RpcServer
from repro.sim.process import Process, Timeout, WaitSignal
from tests.conftest import make_mini_testbed


@pytest.fixture(scope="module")
def bed():
    return make_mini_testbed(seed=21)


def test_basic_call(bed):
    sim, tb = bed
    a, b = tb.vm(3), tb.vm(4)
    server = RpcServer(b, 6000, lambda m, body, src: {"echo": body})
    client = RpcClient(a)
    done = client.call(b.virtual_ip, 6000, "echo", 42)
    sim.run(until=sim.now + 10)
    assert done.fired and done.value == {"echo": 42}
    server.close()
    client.close()


def test_call_to_dead_vm_fails_after_retries(bed):
    sim, tb = bed
    a = tb.vm(5)
    client = RpcClient(a)
    done = client.call("172.16.77.1", 6000, "void", retries=3, timeout=1.0)
    sim.run(until=sim.now + 30)
    assert isinstance(done.value, RpcFailure)
    assert client.timeouts == 1
    client.close()


def test_handler_can_set_response_size(bed):
    sim, tb = bed
    a, b = tb.vm(6), tb.vm(7)
    server = RpcServer(b, 6001, lambda m, body, src: ({"big": True}, 4096))
    client = RpcClient(a)
    done = client.call(b.virtual_ip, 6001, "q")
    sim.run(until=sim.now + 10)
    assert done.value == {"big": True}
    server.close()
    client.close()


def test_duplicate_requests_execute_once(bed):
    """Retransmits after response loss must not double-execute."""
    sim, tb = bed
    a, b = tb.vm(8), tb.vm(9)
    calls = []
    server = RpcServer(b, 6002, lambda m, body, src: calls.append(body))
    client = RpcClient(a)
    # short timeout forces at least one retransmit against ~40ms+ RTT
    done = client.call(b.virtual_ip, 6002, "inc", 1, timeout=0.010)
    sim.run(until=sim.now + 10)
    assert done.fired
    assert len(calls) == 1
    server.close()
    client.close()


def test_serialized_server_processes_in_order(bed):
    sim, tb = bed
    a, b = tb.vm(10), tb.vm(11)
    seen = []
    server = RpcServer(b, 6003, lambda m, body, src: seen.append(body),
                       cpu_per_request=0.5, serialize=True)
    client = RpcClient(a)
    sigs = [client.call(b.virtual_ip, 6003, "job", i) for i in range(4)]
    t0 = sim.now
    sim.run(until=sim.now + 60)
    # all served exactly once (arrival order may differ from send order)
    assert sorted(seen) == [0, 1, 2, 3]
    assert all(s.fired for s in sigs)
    # serialized: 4 × 0.5 s of CPU means the batch took ≥ 2 s
    assert sim.now - t0 >= 2.0
    server.close()
    client.close()


def test_client_reply_ports_do_not_collide(bed):
    sim, tb = bed
    a = tb.vm(12)
    c1, c2 = RpcClient(a), RpcClient(a)
    assert c1.reply_port != c2.reply_port
    c1.close()
    c2.close()


def test_call_and_wait_in_process(bed):
    sim, tb = bed
    a, b = tb.vm(13), tb.vm(14)
    server = RpcServer(b, 6004, lambda m, body, src: body * 2)
    client = RpcClient(a)
    out = {}

    def proc():
        resp = yield from client.call_and_wait(b.virtual_ip, 6004, "x", 21)
        out["resp"] = resp

    Process(sim, proc())
    sim.run(until=sim.now + 10)
    assert out["resp"] == 42
    server.close()
    client.close()


def test_late_response_after_failure_is_ignored(bed):
    """A response that arrives after the client already gave up must not
    crash or resurrect the call."""
    sim, tb = bed
    a, b = tb.vm(20), tb.vm(21)
    # server that exists but is slower than the client's patience
    server = RpcServer(b, 6005, lambda m, body, src: body,
                       cpu_per_request=5.0, serialize=True)
    client = RpcClient(a)
    done = client.call(b.virtual_ip, 6005, "slow", 1,
                       timeout=0.5, retries=2)
    sim.run(until=sim.now + 60)
    assert isinstance(done.value, RpcFailure)
    # the slow server's (cached) responses eventually arrive: no effect
    sim.run(until=sim.now + 60)
    assert isinstance(done.value, RpcFailure)
    server.close()
    client.close()


#: datagrams that are no RPC envelope: not UTF-8, not JSON, no list, the
#: wrong arity or field types, nested past the stack, an int too long to
#: parse, and not bytes at all
GARBAGE = [
    b"\xff\xfe\x00", b"not json", b"", b"{}", b"17",
    b'{"a":1,"b":2,"c":3,"d":4}', b"[1]", b'[1,"m",2]', b'[1,"m",2,3,4]',
    b'["1","m",null,16000]', b'[true,"m",null,16000]', b"[1,2,null,16000]",
    b'[1,"m",null,70000]', b'[1,"m",null,"16000"]', b"[" * 10_000,
    b"[" + b"9" * 5000 + b',"m",null,16000]', "[1,\"m\",null,16000]",
]


def test_malformed_datagrams_are_dropped_at_both_ends(bed):
    sim, tb = bed
    a, b = tb.vm(15), tb.vm(16)
    seen = []
    server = RpcServer(b, 6006, lambda m, body, src: seen.append(body) or 1)
    client = RpcClient(a)
    for junk in GARBAGE:
        a.router.send_ip(b.virtual_ip, "udp", 6006, junk, 64)
        b.router.send_ip(a.virtual_ip, "udp", client.reply_port, junk, 64)
    sim.run(until=sim.now + 10)
    assert server.requests_served == 0 and seen == []
    done = client.call(b.virtual_ip, 6006, "ok", "after")
    sim.run(until=sim.now + 10)
    assert done.value == 1 and seen == ["after"]
    assert server.requests_served == 1
    server.close()
    client.close()


def _raw_request(rid, method, body, reply_port=16000) -> bytes:
    return json.dumps([rid, method, body, reply_port]).encode()


def test_a_body_its_handler_cannot_take_is_dropped(bed):
    """Well-formed envelopes whose bodies the middleware handlers choke
    on — a job that is a number, an NFS commit that is no pair, a
    job_done without a start time from a busy worker — are counted and
    dropped; the simulation runs on, and the services still answer."""
    sim, tb = bed
    a, b, c = tb.vm(19), tb.vm(20), tb.vm(21)
    mom = PbsMom(b, a.virtual_ip)
    nfs = NfsServer(c)
    pbs = PbsServer(a)
    pbs.busy[b.virtual_ip] = JobRecord(JobSpec("job", 1.0, 1.0, 1.0),
                                       sim.now, status="running")
    a.router.send_ip(b.virtual_ip, "udp", PBS_MOM_PORT,
                     _raw_request(1, "run", 5), 64)
    for body in (5, ["a", "b", "c"]):
        a.router.send_ip(c.virtual_ip, "udp", NFS_PORT,
                         _raw_request(2, "commit", body), 64)
    a.router.send_ip(c.virtual_ip, "udp", NFS_PORT,
                     _raw_request(3, "getattr", ["job.in"]), 64)
    b.router.send_ip(a.virtual_ip, "udp", PBS_SERVER_PORT,
                     _raw_request(4, "job_done", 5), 64)
    sim.run(until=sim.now + 10)
    servers = (mom.rpc_server, nfs.rpc, pbs.rpc_server)
    assert [s.requests_dropped for s in servers] == [1, 3, 1]
    assert [s.requests_served for s in servers] == [0, 0, 0]
    client = RpcClient(a)
    done = client.call(b.virtual_ip, PBS_MOM_PORT, "handshake", 7)
    sim.run(until=sim.now + 10)
    assert done.value == {"ok": True, "round": 7}
    client.close()
    for server in servers:
        server.close()


def test_a_forged_request_id_cannot_answer_another_client(bed,
                                                          monkeypatch):
    """The response cache is keyed by requester, not by request id
    alone: a VM that sends a request carrying another client's next id
    first does not make the server answer that client from its cache."""
    sim, tb = bed
    attacker, victim, b = tb.vm(22), tb.vm(23), tb.vm(24)
    rid = 1_000_000
    monkeypatch.setattr(rpc, "_rid_counter", itertools.count(rid))
    server = RpcServer(b, 6008, lambda m, body, src: body)
    attacker.router.send_ip(b.virtual_ip, "udp", 6008,
                            _raw_request(rid, "echo", "forged"), 64)
    sim.run(until=sim.now + 10)
    assert server.requests_served == 1
    client = RpcClient(victim)
    done = client.call(b.virtual_ip, 6008, "echo", "mine")
    sim.run(until=sim.now + 10)
    assert done.value == "mine"
    assert server.requests_served == 2
    server.close()
    client.close()


def test_bodies_cross_as_json(bed):
    """A float arrives exactly, a ``(name, size)`` pair as a list that
    unpacks the same, and a ``JobSpec`` as its fields, which rebuild it."""
    sim, tb = bed
    a, b = tb.vm(17), tb.vm(18)
    seen = {}
    server = RpcServer(b, 6007, lambda m, body, src: seen.setdefault(m, body))
    client = RpcClient(a)
    start_time = 0.1 + 0.2
    spec = JobSpec("job", work_ref=5.0, input_size=51200.0 / 3,
                   output_size=20480.0)
    bodies = {"job_done": {"job_id": 7, "start_time": start_time},
              "commit": ("job.out", 2e4 / 3), "run": vars(spec)}
    done = {method: client.call(b.virtual_ip, 6007, method, body)
            for method, body in bodies.items()}
    sim.run(until=sim.now + 10)
    assert {method: d.value for method, d in done.items()} == seen
    assert seen["job_done"]["start_time"] == start_time
    name, size = seen["commit"]
    assert seen["commit"] == ["job.out", 2e4 / 3] and size == 2e4 / 3
    assert JobSpec(**seen["run"]) == spec
    server.close()
    client.close()
