"""``LatencyModel.sample`` ≡ the ``sample_loss`` + ``sample_delay`` pair it
replaced: same answers, same generator state afterwards.

Every simulated outcome in this repo is downstream of the latency
stream's draw order — one uniform (only when the loss probability is
positive), one lognormal, one exponential per endpoint with a
``proc_delay_mean`` — so folding six calls into one may not move a single
draw.  The pair it replaced lives only in this file (``_Reference``, with
its frozenset-keyed tables and ``Host.processing_delay``); the two models
are driven side by side from generators with one seed and compared after
every datagram.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phys import Internet, Site
from repro.phys.latency import LatencyModel
from repro.sim import Simulator
from repro.sim.units import ms


class _Reference:
    """``LatencyModel`` as it was: loss and delay sampled by two calls
    that go through the accessors and ``Host.processing_delay``."""

    def __init__(self, rng, default_wan_latency=ms(25.0), jitter_sigma=0.08,
                 default_loss=0.0005):
        self.rng = rng
        self.default_wan_latency = default_wan_latency
        self.jitter_sigma = jitter_sigma
        self.default_loss = default_loss
        self._pair_latency: dict[frozenset, float] = {}
        self._pair_loss: dict[frozenset, float] = {}

    def set_pair(self, site_a, site_b, one_way, loss=None):
        key = frozenset((site_a, site_b))
        self._pair_latency[key] = one_way
        if loss is not None:
            self._pair_loss[key] = loss

    def base_latency(self, site_a, site_b):
        if site_a == site_b:
            raise ValueError("intra-site latency comes from the Site object")
        return self._pair_latency.get(frozenset((site_a, site_b)),
                                      self.default_wan_latency)

    def loss_probability(self, site_a, site_b):
        if site_a == site_b:
            return 0.0
        return self._pair_loss.get(frozenset((site_a, site_b)),
                                   self.default_loss)

    def sample_delay(self, src, dst):
        if src.site is dst.site:
            base = src.site.lan_latency
        else:
            base = self.base_latency(src.site.name, dst.site.name)
        jitter = float(self.rng.lognormal(mean=0.0, sigma=self.jitter_sigma))
        proc = src.processing_delay(self.rng) + dst.processing_delay(self.rng)
        return base * jitter + proc

    def sample_loss(self, src, dst):
        p = self.loss_probability(src.site.name, dst.site.name)
        p = min(1.0, p + src.extra_loss + dst.extra_loss)
        return bool(self.rng.random() < p) if p > 0 else False

    def sample(self, src, dst):
        """What ``Internet._resolve_and_schedule`` did with the pair."""
        if self.sample_loss(src, dst):
            return None
        return self.sample_delay(src, dst)


class _World:
    """Three sites and hosts with every mix of ``extra_loss`` and
    ``proc_delay_mean``, plus the two models on same-seed generators."""

    def __init__(self, seed: int, **model_kwargs):
        net = Internet(Simulator(seed=0, trace=False))
        sites = [Site(net, name) for name in ("a", "b", "c")]
        self.hosts = [
            site.add_host(f"{site.name}{k}", proc_delay_mean=proc,
                          extra_loss=loss)
            for site in sites
            for k, (proc, loss) in enumerate(
                [(0.0, 0.0), (ms(6.5), 0.0), (0.0, 0.2), (ms(1.1), 0.05)])]
        self.hosts[5].load = 2.5        # the load factor scales the draw
        self.new = LatencyModel(np.random.default_rng(seed), **model_kwargs)
        self.old = _Reference(np.random.default_rng(seed), **model_kwargs)

    def both(self, method: str, *args) -> None:
        getattr(self.new, method)(*args)
        getattr(self.old, method)(*args)

    def check(self, i: int, j: int) -> None:
        src, dst = self.hosts[i], self.hosts[j]
        got, want = self.new.sample(src, dst), self.old.sample(src, dst)
        assert got == want and type(got) is type(want), (src, dst)
        assert (self.new.rng.bit_generator.state
                == self.old.rng.bit_generator.state), (src, dst)

    def check_all_pairs(self) -> None:
        for i in range(len(self.hosts)):
            for j in range(len(self.hosts)):
                if i != j:
                    self.check(i, j)


@pytest.mark.parametrize("default_loss", [0.0, 0.0005, 0.3])
def test_every_host_pair_intra_site_and_default_wan(default_loss):
    world = _World(11, default_loss=default_loss)
    for _ in range(3):
        world.check_all_pairs()


def test_set_pair_with_and_without_loss_also_after_traffic():
    world = _World(12, default_loss=0.01)
    world.both("set_pair", "a", "b", ms(40.0))              # base only
    world.check_all_pairs()                                 # tables are warm
    world.both("set_pair", "b", "c", ms(3.0), 0.5)          # base and loss
    world.both("set_pair", "b", "a", ms(80.0), 0.0)         # reversed order
    world.check_all_pairs()
    for model in (world.new, world.old):
        model.default_loss = 0.25       # reassigned in place by tests/fault
        model.default_wan_latency = ms(9.0)
    world.check_all_pairs()


def test_certain_loss_draws_one_uniform_and_nothing_else():
    world = _World(13)
    world.both("set_pair", "a", "b", ms(10.0), 1.0)         # p == 1
    world.both("set_pair", "a", "c", ms(10.0), 0.9)         # p > 1 with extras
    before = world.new.rng.bit_generator.state
    world.check(0, 4)
    assert world.new.sample(world.hosts[0], world.hosts[4]) is None
    assert world.new.rng.bit_generator.state != before
    world.old.sample(world.hosts[0], world.hosts[4])
    world.check(2, 10)      # 0.9 + 0.2 + 0.2 > 1: lost, one draw
    world.check_all_pairs()


def test_lossless_unloaded_pair_draws_the_lognormal_only():
    world = _World(14, default_loss=0.0)
    twin = np.random.default_rng(14)
    delay = world.new.sample(world.hosts[0], world.hosts[4])
    assert delay == ms(25.0) * twin.lognormal(0.0, 0.08)
    assert world.new.rng.bit_generator.state == twin.bit_generator.state


_op = st.one_of(
    st.tuples(st.just("sample"), st.integers(0, 11), st.integers(0, 11)),
    st.tuples(st.just("set_pair"), st.sampled_from("abc"),
              st.sampled_from("abc"), st.floats(1e-4, 0.2),
              st.one_of(st.none(), st.sampled_from([0.0, 0.1, 1.0]))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(_op, min_size=1, max_size=60))
def test_any_interleaving_of_traffic_and_reconfiguration(seed, ops):
    world = _World(seed, default_loss=0.02)
    for op in ops:
        if op[0] == "sample":
            if op[1] != op[2]:
                world.check(op[1], op[2])
        elif op[1] != op[2]:
            world.both("set_pair", *op[1:])
