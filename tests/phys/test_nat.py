"""NAT middlebox semantics: mapping, filtering, hairpin, expiry."""

from types import SimpleNamespace

import pytest

from repro.phys.endpoints import Endpoint
from repro.phys.nat import (
    FilteringBehavior,
    FirewallPolicy,
    MappingBehavior,
    Nat,
    NatSpec,
)

INNER = Endpoint("10.1.0.2", 14001)
REMOTE_A = Endpoint("128.0.0.5", 9000)
REMOTE_B = Endpoint("128.0.0.6", 9000)
REMOTE_A2 = Endpoint("128.0.0.5", 9001)


def make_nat(spec, clock=None):
    return Nat("n", "200.0.0.1", "10.1.", spec, clock=clock)


def test_eim_mapping_is_stable_across_remotes():
    nat = make_nat(NatSpec.cone())
    pub_a = nat.translate_outbound("udp", INNER, REMOTE_A)
    pub_b = nat.translate_outbound("udp", INNER, REMOTE_B)
    assert pub_a == pub_b
    assert pub_a.ip == "200.0.0.1"


def test_symmetric_mapping_differs_per_remote():
    nat = make_nat(NatSpec.symmetric())
    pub_a = nat.translate_outbound("udp", INNER, REMOTE_A)
    pub_b = nat.translate_outbound("udp", INNER, REMOTE_B)
    assert pub_a != pub_b


def test_port_restricted_filtering():
    nat = make_nat(NatSpec.cone())
    pub = nat.translate_outbound("udp", INNER, REMOTE_A)
    # contacted remote passes
    assert nat.translate_inbound("udp", pub.port, REMOTE_A) == INNER
    # same IP, different port: blocked under APDF
    assert nat.translate_inbound("udp", pub.port, REMOTE_A2) is None
    # different host: blocked
    assert nat.translate_inbound("udp", pub.port, REMOTE_B) is None
    assert nat.drops["filtering"] == 2


def test_address_dependent_filtering_allows_other_port():
    spec = NatSpec(MappingBehavior.ENDPOINT_INDEPENDENT,
                   FilteringBehavior.ADDRESS_DEPENDENT, True, 120.0)
    nat = make_nat(spec)
    pub = nat.translate_outbound("udp", INNER, REMOTE_A)
    assert nat.translate_inbound("udp", pub.port, REMOTE_A2) == INNER
    assert nat.translate_inbound("udp", pub.port, REMOTE_B) is None


def test_full_cone_filtering_allows_anyone():
    spec = NatSpec(MappingBehavior.ENDPOINT_INDEPENDENT,
                   FilteringBehavior.ENDPOINT_INDEPENDENT, True, 120.0)
    nat = make_nat(spec)
    pub = nat.translate_outbound("udp", INNER, REMOTE_A)
    assert nat.translate_inbound("udp", pub.port, REMOTE_B) == INNER


def test_inbound_without_mapping_dropped():
    nat = make_nat(NatSpec.cone())
    assert nat.translate_inbound("udp", 20000, REMOTE_A) is None
    assert nat.drops["no_mapping"] == 1


def test_mapping_expiry():
    clock = SimpleNamespace(now=0.0)
    nat = make_nat(NatSpec.cone(timeout=120.0), clock=clock)
    pub = nat.translate_outbound("udp", INNER, REMOTE_A)
    clock.now = 100.0
    assert nat.translate_inbound("udp", pub.port, REMOTE_A) == INNER
    clock.now = 300.0  # idle > timeout since last use (100.0)
    assert nat.translate_inbound("udp", pub.port, REMOTE_A) is None


def test_traffic_refreshes_mapping():
    clock = SimpleNamespace(now=0.0)
    nat = make_nat(NatSpec.cone(timeout=120.0), clock=clock)
    pub = nat.translate_outbound("udp", INNER, REMOTE_A)
    for step in range(1, 10):
        clock.now = step * 100.0
        assert nat.translate_inbound("udp", pub.port, REMOTE_A) == INNER


def test_expired_mapping_gets_new_public_port():
    clock = SimpleNamespace(now=0.0)
    nat = make_nat(NatSpec.cone(timeout=120.0), clock=clock)
    pub1 = nat.translate_outbound("udp", INNER, REMOTE_A)
    clock.now = 500.0
    pub2 = nat.translate_outbound("udp", INNER, REMOTE_A)
    assert pub1.port != pub2.port


def test_expire_all_models_nat_reboot():
    nat = make_nat(NatSpec.cone())
    pub = nat.translate_outbound("udp", INNER, REMOTE_A)
    nat.expire_all()
    assert nat.translate_inbound("udp", pub.port, REMOTE_A) is None


def test_is_inside():
    nat = make_nat(NatSpec.cone())
    assert nat.is_inside("10.1.0.9")
    assert not nat.is_inside("10.10.0.9")


def test_firewall_policy():
    fw = FirewallPolicy(open_udp_ports=frozenset({14001}))
    assert fw.allows_inbound(14001)
    assert not fw.allows_inbound(22)
    assert FirewallPolicy().allows_inbound(12345)


class TestPortAllocation:
    """Regression: public ports must stay inside [20000, 65535] — long runs
    used to mint "ports" past 65535 (monotonic counter, no reclamation)."""

    def test_ports_wrap_within_valid_range(self):
        nat = make_nat(NatSpec.symmetric())
        nat._next_port = 65534
        ports = []
        for i in range(4):
            pub = nat.translate_outbound("udp", INNER,
                                         Endpoint("128.0.0.5", 9000 + i))
            ports.append(pub.port)
        assert all(20000 <= p <= 65535 for p in ports)
        assert len(set(ports)) == 4

    def test_wrapped_allocation_skips_held_ports(self):
        nat = make_nat(NatSpec.symmetric())
        nat._next_port = 65534
        nat.translate_outbound("udp", INNER, REMOTE_A)   # takes 65534
        nat.translate_outbound("udp", INNER, REMOTE_B)   # takes 65535
        nat._next_port = 65534  # force a second pass over held ports
        pub = nat.translate_outbound("udp", INNER, REMOTE_A2)
        assert pub.port == 20000  # skipped the two live mappings

    def test_wrapped_allocation_reclaims_expired_ports(self):
        t = SimpleNamespace(now=0.0)
        nat = make_nat(NatSpec.symmetric(), clock=t)
        nat._next_port = 65535
        old = nat.translate_outbound("udp", INNER, REMOTE_A)
        assert old.port == 65535
        t.now = 1e4  # far beyond mapping_timeout: the holder is dead
        nat._next_port = 65535
        pub = nat.translate_outbound("udp", INNER, REMOTE_B)
        assert pub.port == 65535
        # the expired holder was garbage-collected, not leaked
        assert nat.translate_inbound("udp", 65535, REMOTE_A) is None

    def test_exhausted_port_space_raises(self):
        nat = make_nat(NatSpec.symmetric())
        nat.PORT_MIN = nat._next_port = 20000
        nat.PORT_MAX = 20002
        for i in range(3):
            nat.translate_outbound("udp", INNER,
                                   Endpoint("128.0.0.5", 9000 + i))
        with pytest.raises(RuntimeError):
            nat.translate_outbound("udp", INNER, Endpoint("128.0.0.5", 9100))
