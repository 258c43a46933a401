"""Hosts, the latency model, endpoints/allocators."""

import numpy as np
import pytest

from repro.phys import Internet, Site
from repro.phys.endpoints import Endpoint, IpAllocator, ip_in_subnet
from repro.phys.latency import LatencyModel
from repro.sim import Simulator
from repro.sim.units import ms


def test_endpoint_str():
    assert str(Endpoint("1.2.3.4", 80)) == "1.2.3.4:80"


def test_ip_in_subnet_requires_dot_boundary():
    assert ip_in_subnet("10.5.1.7", "10.5.1")
    assert not ip_in_subnet("10.51.1.7", "10.5.1")


def test_allocator_sequential_and_bounded():
    alloc = IpAllocator("10.1.0.")
    assert alloc.allocate() == "10.1.0.2"
    assert alloc.allocate() == "10.1.0.3"
    for _ in range(300):
        try:
            alloc.allocate()
        except ValueError:
            break
    else:
        pytest.fail("allocator never exhausted")


class TestHost:
    def setup_method(self):
        self.sim = Simulator(seed=1)
        self.net = Internet(self.sim)
        self.site = Site(self.net, "pub")
        self.host = self.site.add_host("h", cpu_speed=2.0)

    def test_compute_time_inverse_speed(self):
        assert self.host.compute_time(10.0) == pytest.approx(5.0)

    def test_load_scales_compute(self):
        self.host.load = 1.5
        assert self.host.compute_time(10.0) == pytest.approx(12.5)

    def test_double_bind_rejected(self):
        self.host.bind_udp(5, lambda *a: None)
        with pytest.raises(ValueError):
            self.host.bind_udp(5, lambda *a: None)

    def test_ephemeral_ports_unique(self):
        ports = {self.host.ephemeral_port() for _ in range(100)}
        assert len(ports) == 100

    def test_closed_socket_raises_on_send(self):
        sock = self.host.bind_udp(6, lambda *a: None)
        sock.close()
        with pytest.raises(RuntimeError):
            sock.send(Endpoint("1.1.1.1", 1), "x")
        assert 6 not in self.host.sockets

    def test_socket_endpoint_follows_a_reassigned_host_ip(self):
        """The re-homing recipe of ``core/testbed.py`` (unregister, assign
        ``host.ip``, register) on a host that already holds a socket: the
        socket's endpoint is built once, not per send, and must still be
        the address the next datagram leaves from."""
        peer = self.site.add_host("peer")
        seen = []
        peer.bind_udp(7, lambda payload, src, size: seen.append(src))
        sock = self.host.bind_udp(7, lambda *a: None)
        before = sock.endpoint
        assert sock.endpoint is before              # built once
        self.net.unregister_host(self.host)
        self.host.ip = "150.1.0.200"
        self.net.register_host(self.host)
        assert sock.endpoint == Endpoint("150.1.0.200", 7) != before
        sock.send(Endpoint(peer.ip, 7), "x")
        self.sim.run()
        assert seen == [Endpoint("150.1.0.200", 7)]

    def test_processing_delay_zero_when_unloaded_model(self):
        rng = self.sim.rng.stream("t")
        assert self.host.processing_delay(rng) == 0.0
        loaded = self.site.add_host("pl", proc_delay_mean=ms(8.0))
        delays = [loaded.processing_delay(rng) for _ in range(500)]
        assert np.mean(delays) == pytest.approx(ms(8.0), rel=0.25)


class TestLatencyModel:
    def test_pair_override_and_default(self):
        rng = np.random.default_rng(0)
        lm = LatencyModel(rng, default_wan_latency=ms(25.0))
        lm.set_pair("a", "b", ms(10.0))
        assert lm.base_latency("a", "b") == ms(10.0)
        assert lm.base_latency("b", "a") == ms(10.0)  # symmetric
        assert lm.base_latency("a", "c") == ms(25.0)

    def test_intra_site_base_rejected(self):
        rng = np.random.default_rng(0)
        lm = LatencyModel(rng)
        with pytest.raises(ValueError):
            lm.base_latency("a", "a")

    def test_sampled_delay_positive_and_near_base(self):
        sim = Simulator(seed=9)
        net = Internet(sim)
        a_site, b_site = Site(net, "a"), Site(net, "b")
        net.latency.set_pair("a", "b", ms(20.0), loss=0.0)
        a, b = a_site.add_host("a0"), b_site.add_host("b0")
        samples = [net.latency.sample(a, b) for _ in range(300)]
        assert all(s > 0 for s in samples)
        assert np.mean(samples) == pytest.approx(ms(20.0), rel=0.15)

    def test_loss_probability_per_pair(self):
        rng = np.random.default_rng(0)
        lm = LatencyModel(rng, default_loss=0.0)
        lm.set_pair("a", "b", ms(5.0), loss=1.0)
        assert lm.loss_probability("a", "b") == 1.0
        assert lm.loss_probability("a", "c") == 0.0
        assert lm.loss_probability("a", "a") == 0.0


class TestSampleSeesReconfiguration:
    """``LatencyModel.sample`` reads the site-pair tables by ordered name
    pair on every datagram — nothing it looked up for earlier traffic may
    outlive a reconfiguration."""

    def setup_method(self):
        self.sim = Simulator(seed=3)
        self.net = Internet(self.sim)
        self.a = Site(self.net, "a").add_host("a0")
        self.b = Site(self.net, "b").add_host("b0")
        self.lm = self.net.latency
        self.lm.jitter_sigma = 0.0          # delay == base exactly

    def test_set_pair_after_traffic_changes_base_and_loss(self):
        lm, a, b = self.lm, self.a, self.b
        lm.default_loss = 0.0
        assert lm.sample(a, b) == lm.default_wan_latency   # pair has traffic
        assert lm.sample(b, a) == lm.default_wan_latency
        lm.set_pair("b", "a", ms(40.0))
        assert lm.sample(a, b) == lm.sample(b, a) == ms(40.0)
        lm.set_pair("a", "b", ms(5.0), loss=1.0)
        assert lm.sample(a, b) is None and lm.sample(b, a) is None
        lm.set_pair("a", "b", ms(5.0), loss=0.0)
        assert lm.sample(a, b) == ms(5.0)

    def test_default_loss_reassigned_after_traffic_is_seen(self):
        lm, a, b = self.lm, self.a, self.b
        lm.default_loss = 0.0
        assert lm.sample(a, b) is not None
        lm.default_loss = 1.0               # tests and fault drills do this
        assert lm.sample(a, b) is None

    def test_same_site_is_identity_for_delay_and_name_for_loss(self):
        """Two hosts share a LAN when they hold the *same* ``Site``
        object (delay by identity); a pair of distinct ``Site`` objects is
        looked up by name, where equal names mean "intra-site" to
        ``loss_probability`` (0) and are refused by ``base_latency`` — so
        such a pair never yields a delay, before or after this path was
        straightened."""
        lm = self.lm
        lm.default_loss = 1.0
        a1 = self.a.site.add_host("a1")
        assert lm.sample(self.a, a1) == self.a.site.lan_latency  # no loss
        twin = Site(self.net, "a").add_host("twin")
        assert lm.loss_probability("a", "a") == 0.0
        with pytest.raises(ValueError):
            lm.base_latency("a", "a")
        with pytest.raises(ValueError):
            lm.sample(self.a, twin)
