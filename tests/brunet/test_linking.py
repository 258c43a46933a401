"""Linking handshake: URI trial order, back-off schedule, races."""

import pytest

from repro.brunet import BrunetConfig, BrunetNode, random_address
from repro.brunet.connection import ConnectionType
from repro.brunet.uri import Uri
from repro.phys import Internet, NatSpec, Site
from repro.phys.endpoints import Endpoint
from repro.sim import Simulator


@pytest.fixture
def world():
    sim = Simulator(seed=9)
    net = Internet(sim)
    return sim, net


def make_node(sim, net, site, name, config=None):
    host = site.add_host(f"h-{name}")
    rng = sim.rng.stream("linktest")
    node = BrunetNode(sim, host, random_address(rng),
                      config or BrunetConfig(), name=name)
    node.start([])
    return node


def test_direct_link_two_public_nodes(world):
    sim, net = world
    site = Site(net, "pub")
    a = make_node(sim, net, site, "a")
    b = make_node(sim, net, site, "b")
    a.linker.start(b.addr, b.uris.advertised(), ConnectionType.LEAF)
    sim.run(until=sim.now + 5)
    assert a.table.get(b.addr) is not None
    assert b.table.get(a.addr) is not None


def test_link_reply_teaches_nat_uri(world):
    sim, net = world
    priv = Site(net, "campus", subnet="10.7.", nat_spec=NatSpec.cone())
    pub = Site(net, "pub")
    a = make_node(sim, net, priv, "a")
    b = make_node(sim, net, pub, "b")
    a.linker.start(b.addr, b.uris.advertised(), ConnectionType.LEAF)
    sim.run(until=sim.now + 5)
    advertised = a.uris.advertised()
    assert advertised[0].endpoint.ip == priv.nat.public_ip
    assert advertised[-1] == a.uris.local


def test_dead_uri_burns_backoff_schedule(world):
    """5 sends with 5 s base and ×2 back-off ⇒ next URI tried at ~155 s
    (the paper's footnote-2 'order of 150 seconds')."""
    sim, net = world
    site = Site(net, "pub")
    a = make_node(sim, net, site, "a")
    b = make_node(sim, net, site, "b")
    dead = Uri.udp("99.0.0.1", 1)  # unroutable
    t0 = sim.now
    done = {}
    a.linker.start(b.addr, [dead, b.uris.local], ConnectionType.LEAF,
                   on_success=lambda c: done.setdefault("t", sim.now))
    sim.run(until=sim.now + 300)
    cfg = a.config
    assert cfg.uri_give_up_time() == pytest.approx(155.0)
    assert "t" in done
    assert done["t"] - t0 == pytest.approx(155.0, abs=2.0)


def test_all_uris_dead_fails(world):
    sim, net = world
    site = Site(net, "pub")
    a = make_node(sim, net, site, "a")
    failed = {}
    a.linker.start(random_address(sim.rng.stream("x")),
                   [Uri.udp("99.0.0.1", 1), Uri.udp("99.0.0.2", 1)],
                   ConnectionType.LEAF,
                   on_fail=lambda: failed.setdefault("t", sim.now))
    sim.run(until=sim.now + 400)
    assert failed["t"] == pytest.approx(310.0, abs=2.0)
    assert a.linker.failures == 1


def test_simultaneous_linking_race_converges(world):
    sim, net = world
    site = Site(net, "pub")
    a = make_node(sim, net, site, "a")
    b = make_node(sim, net, site, "b")
    a.linker.start(b.addr, b.uris.advertised(), ConnectionType.SHORTCUT)
    b.linker.start(a.addr, a.uris.advertised(), ConnectionType.SHORTCUT)
    sim.run(until=sim.now + 20)
    assert a.table.get(b.addr) is not None
    assert b.table.get(a.addr) is not None


def test_hole_punch_between_two_nated_sites(world):
    """Both ends behind port-restricted cone NATs: linking succeeds only
    because both sides initiate (§IV-D)."""
    sim, net = world
    s1 = Site(net, "c1", subnet="10.7.", nat_spec=NatSpec.cone())
    s2 = Site(net, "c2", subnet="10.8.", nat_spec=NatSpec.cone())
    pub = Site(net, "pub")
    rendezvous = make_node(sim, net, pub, "rv")
    a = make_node(sim, net, s1, "a")
    b = make_node(sim, net, s2, "b")
    # teach a and b their public URIs via the public node
    a.linker.start(rendezvous.addr, rendezvous.uris.advertised(),
                   ConnectionType.LEAF)
    b.linker.start(rendezvous.addr, rendezvous.uris.advertised(),
                   ConnectionType.LEAF)
    sim.run(until=sim.now + 5)
    # now both try each other simultaneously (as after a CTM exchange)
    a.linker.start(b.addr, b.uris.advertised(), ConnectionType.SHORTCUT)
    b.linker.start(a.addr, a.uris.advertised(), ConnectionType.SHORTCUT)
    sim.run(until=sim.now + 30)
    assert a.table.get(b.addr) is not None
    assert b.table.get(a.addr) is not None


def test_one_sided_attempt_against_nat_fails_alone(world):
    """Without bi-directionality, a public node cannot reach a NATed one
    whose filter has no hole."""
    sim, net = world
    s1 = Site(net, "c1", subnet="10.7.", nat_spec=NatSpec.cone())
    pub = Site(net, "pub")
    rendezvous = make_node(sim, net, pub, "rv")
    a = make_node(sim, net, s1, "a")
    p = make_node(sim, net, pub, "p")
    a.linker.start(rendezvous.addr, rendezvous.uris.advertised(),
                   ConnectionType.LEAF)
    sim.run(until=sim.now + 5)
    # p tries a's URIs (public mapping + private); a never sends to p
    failed = {}
    p.linker.start(a.addr, a.uris.advertised(), ConnectionType.SHORTCUT,
                   on_fail=lambda: failed.setdefault("t", sim.now))
    sim.run(until=sim.now + 400)
    assert "t" in failed
    assert p.table.get(a.addr) is None


def test_duplicate_link_requests_idempotent(world):
    sim, net = world
    site = Site(net, "pub")
    a = make_node(sim, net, site, "a")
    b = make_node(sim, net, site, "b")
    for _ in range(3):
        a.linker.start(b.addr, b.uris.advertised(), ConnectionType.LEAF)
    sim.run(until=sim.now + 10)
    assert len(b.table.all()) == 1
    assert len(a.table.all()) == 1


def test_existing_connection_gains_new_role(world):
    sim, net = world
    site = Site(net, "pub")
    a = make_node(sim, net, site, "a")
    b = make_node(sim, net, site, "b")
    a.linker.start(b.addr, b.uris.advertised(), ConnectionType.LEAF)
    sim.run(until=sim.now + 5)
    got = {}
    a.linker.start(b.addr, b.uris.advertised(), ConnectionType.SHORTCUT,
                   on_success=lambda c: got.setdefault("conn", c))
    assert ConnectionType.SHORTCUT in got["conn"].types
    assert ConnectionType.LEAF in got["conn"].types


def test_race_recheck_with_empty_uris_fires_on_fail(world):
    """Regression: when a race-abort recheck retries via ``Linker.start``
    and the peer's URI list has meanwhile become empty, ``start`` returns
    None without seeing the saved callbacks — waiters (e.g. a leaf
    overlord's ``_attempting`` flag) must still be failed, not hung."""
    from repro.brunet.messages import LinkError
    from repro.brunet import random_address
    sim, net = world
    site = Site(net, "pub")
    a = make_node(sim, net, site, "a")
    target = random_address(sim.rng.stream("tgt"))
    dead = Uri.udp("203.0.113.9", 14001)  # no such host: unroutable
    fails = []
    attempt = a.linker.start(target, [dead], ConnectionType.STRUCTURED_FAR,
                             on_fail=lambda: fails.append(1))
    assert attempt is not None
    # the peer wins the linking race and tells us to abandon the attempt
    a.linker.handle_error(LinkError(attempt.token, target), dead.endpoint)
    # by recheck time every advertised URI of the peer has been withdrawn
    a.peer_uris[target] = []
    sim.run(until=sim.now + 120.0)
    assert fails == [1]


def _unsolicited(node):
    return node.sim.obs.metrics.counter("brunet.link.unsolicited",
                                        node=node.name).value


def test_stranger_reply_with_unknown_token_is_dropped_and_counted(world):
    """A ``LinkReply`` that answers no attempt of ours — a private-URI probe
    that reached an unrelated host, or a forged one — adds no connection,
    records no peer URIs and teaches no observed URI."""
    from repro.brunet.messages import LinkReply
    sim, net = world
    site = Site(net, "pub")
    a = make_node(sim, net, site, "a")
    stranger = random_address(sim.rng.stream("stranger"))
    observed = Uri.udp("198.51.100.7", 4321)
    reply = LinkReply(4242, stranger, [Uri.udp("198.51.100.9", 14001)],
                      observed, ConnectionType.STRUCTURED_NEAR.value)
    a.linker.handle_reply(reply, Endpoint("198.51.100.9", 14001))
    assert a.table.get(stranger) is None
    assert stranger not in a.peer_uris
    assert observed not in a.uris
    assert _unsolicited(a) == 1


def test_reply_with_live_token_from_another_node_completes_nothing(world):
    """The token names a live attempt, but the reply comes from a node
    other than that attempt's target: the attempt stays open and the
    sender gets no connection."""
    from repro.brunet.messages import LinkReply
    sim, net = world
    site = Site(net, "pub")
    a = make_node(sim, net, site, "a")
    target = random_address(sim.rng.stream("tgt"))
    stranger = random_address(sim.rng.stream("stranger"))
    dead = Uri.udp("203.0.113.9", 14001)  # no such host: unroutable
    done = []
    attempt = a.linker.start(target, [dead], ConnectionType.SHORTCUT,
                             on_success=done.append)
    reply = LinkReply(attempt.token, stranger, [dead], Uri.udp(
        "198.51.100.7", 4321), ConnectionType.SHORTCUT.value)
    a.linker.handle_reply(reply, Endpoint("198.51.100.9", 14001))
    assert done == []
    assert a.linker.by_token.get(attempt.token) is attempt
    assert a.table.get(stranger) is None and len(a.table) == 0
    assert _unsolicited(a) == 1


def test_link_error_with_unknown_token_aborts_nothing(world):
    """A ``LinkError`` from the attempt's target must still name the
    attempt's token: one that names no attempt is counted and ignored."""
    from repro.brunet.messages import LinkError
    sim, net = world
    site = Site(net, "pub")
    a = make_node(sim, net, site, "a")
    target = random_address(sim.rng.stream("tgt"))
    dead = Uri.udp("203.0.113.9", 14001)
    attempt = a.linker.start(target, [dead], ConnectionType.STRUCTURED_FAR)
    a.linker.handle_error(LinkError(attempt.token + 1000, target),
                          dead.endpoint)
    assert a.linker.by_token.get(attempt.token) is attempt
    assert a.linker.by_addr.get(target) is attempt
    assert attempt.race_aborts == 0
    assert _unsolicited(a) == 1
