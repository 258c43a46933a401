"""The one ring verdict (``invariants.ring_verdict``) over census records.

On a settled simulated overlay the verdict over ``BrunetNode.census()``
records, the verdict over the same records after a JSON round trip (the
form a daemon's control socket returns) and ``Deployment.ring_consistent``
agree — clean, and after each corruption flagging exactly that node.
"""

from __future__ import annotations

import json

import pytest

from repro.brunet.connection import ConnectionType
from repro.check.invariants import ring_verdict
from repro.core.wow import Deployment
from repro.sim.engine import Simulator


@pytest.fixture
def settled():
    sim = Simulator(seed=7, trace=False)
    dep = Deployment(sim)
    site = dep.add_public_site("pub")
    for i in range(8):
        dep.add_router_node(site.add_host(f"h{i}"), seed=(i == 0),
                            name=f"n{i}")
        sim.run(until=sim.now + 3.0)
    sim.run(until=sim.now + 120.0)
    return dep, dep.ring_nodes()


def _verdict(dep: Deployment) -> set[str]:
    """Finding keys over the deployment's census; the three forms agree."""
    records = [n.census() for n in dep.ring_nodes()]
    keys = {v.key for v in ring_verdict(records)}
    wire = json.loads(json.dumps(records))
    assert {v.key for v in ring_verdict(wire)} == keys
    assert dep.ring_consistent() == (not keys)
    return keys


def _pop(node, peer) -> None:
    node.table._conns.pop(peer.addr)  # no close-notify, a real bug
    node.table.bump_version()


def test_settled_overlay_is_consistent_in_every_form(settled):
    dep, nodes = settled
    assert len(nodes) == 8
    assert _verdict(dep) == set()


def test_fewer_than_two_records_make_no_ring(settled):
    _, nodes = settled
    assert ring_verdict([]) == []
    assert ring_verdict([dict(nodes[0].census(), in_ring=False)]) == []


def test_popped_successor_link_flags_right(settled):
    dep, nodes = settled
    node, succ = nodes[2], nodes[3]
    _pop(node, succ)
    assert _verdict(dep) == {f"ring.neighbor-missing:{node.name}:right"}


def test_popped_predecessor_link_flags_left(settled):
    dep, nodes = settled
    node, pred = nodes[3], nodes[2]
    _pop(node, pred)
    assert _verdict(dep) == {f"ring.neighbor-missing:{node.name}:left"}


def test_node_not_in_ring_is_flagged(settled):
    dep, nodes = settled
    node = nodes[4]
    for conn in node.table.by_type(ConnectionType.STRUCTURED_NEAR):
        conn.discard_type(ConnectionType.STRUCTURED_NEAR)
    assert not node.in_ring
    assert _verdict(dep) == {f"ring.not-in-ring:{node.name}"}


def test_right_naming_a_departed_address_is_flagged(settled):
    dep, nodes = settled
    before, gone, after = nodes[4], nodes[5], nodes[6]
    gone.stop()
    dep.unregister_node(gone)
    # nobody has noticed yet: both neighbours still name the departed node
    assert before.census()["right"] == gone.addr.hex()
    assert _verdict(dep) == {f"ring.neighbor-missing:{before.name}:right",
                             f"ring.neighbor-missing:{after.name}:left"}
