"""``LatencyModel.sample``: the per-kind block draw contract, and the
distributions of the scalar-draw model it replaced.

``sample`` takes every variate from one of three buffers: loss uniforms
(only when the loss probability is positive), standard normals (the
lognormal jitter, ``exp(jitter_sigma · z)``) and standard exponentials
(one per endpoint with a ``proc_delay_mean``, scaled by
``proc_delay_mean · (1 + load)``).  Each buffer is refilled ``BLOCK``
variates at a time by one call on the model's generator and consumed
from its end; a lost datagram takes its uniform and nothing else.

* *Exact.*  ``_Blocked`` writes that contract out plainly on top of
  ``_Reference``'s tables and is driven side by side with the model from
  a generator with the same seed: same answer for every datagram, same
  generator state afterwards.
* *Draw contract.*  The buffers themselves: which kinds a datagram takes.
* *Distribution.*  ``_Reference`` is the model as it was before the
  blocks: loss and delay sampled by two calls, one numpy call per
  variate, loss before jitter before one exponential per loaded
  endpoint.  It is the distribution oracle: a two-sample KS test of the
  delays and a binomial check of the loss count.
* *Amortised refill.*  One generator call per ``BLOCK`` draws of a kind.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phys import Internet, Site
from repro.phys.latency import BLOCK, LatencyModel
from repro.sim import Simulator
from repro.sim.units import ms

KINDS = ("random", "standard_normal", "standard_exponential")


class _Reference:
    """``LatencyModel`` as it was: loss and delay sampled by two calls
    that go through the accessors, one numpy call per variate."""

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

    def uniform(self):
        return self.rng.random()

    def jitter(self):
        return float(self.rng.lognormal(mean=0.0, sigma=self.jitter_sigma))

    def processing_delay(self, host):
        if host.proc_delay_mean <= 0.0:
            return 0.0
        scale = host.proc_delay_mean * (1.0 + max(0.0, host.load))
        return float(self.rng.exponential(scale))

    def sample_delay(self, src, dst):
        if src.site is dst.site:
            base = src.site.lan_latency
        else:
            base = self.base_latency(src.site.name, dst.site.name)
        jitter = self.jitter()
        proc = self.processing_delay(src) + self.processing_delay(dst)
        return base * jitter + proc

    def sample_loss(self, src, dst):
        p = self.loss_probability(src.site.name, dst.site.name)
        p = min(1.0, p + src.extra_loss + dst.extra_loss)
        return bool(self.uniform() < p) if p > 0 else False

    def sample(self, src, dst):
        """What ``Internet.send`` did with the pair."""
        if self.sample_loss(src, dst):
            return None
        return self.sample_delay(src, dst)


class _Blocked(_Reference):
    """The block contract written out: per kind, a block of ``BLOCK``
    variates drawn when the last one is used up, read last to first."""

    def __init__(self, rng, **kwargs):
        super().__init__(rng, **kwargs)
        self.blocks = {kind: (None, BLOCK) for kind in KINDS}
        self.refills = dict.fromkeys(KINDS, 0)

    def take(self, kind):
        block, used = self.blocks[kind]
        if used == BLOCK:
            block, used = getattr(self.rng, kind)(BLOCK), 0
            self.refills[kind] += 1
        self.blocks[kind] = (block, used + 1)
        return float(block[BLOCK - 1 - used])

    def uniform(self):
        return self.take("random")

    def jitter(self):
        return math.exp(self.jitter_sigma * self.take("standard_normal"))

    def processing_delay(self, host):
        if host.proc_delay_mean <= 0.0:
            return 0.0
        return (host.proc_delay_mean * (1.0 + max(0.0, host.load))
                * self.take("standard_exponential"))


class _World:
    """Three sites and hosts with every mix of ``extra_loss`` and
    ``proc_delay_mean``, plus the model and its twin on same-seed
    generators."""

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
        self.twin = _Blocked(np.random.default_rng(seed), **model_kwargs)

    def both(self, method: str, *args) -> None:
        getattr(self.new, method)(*args)
        getattr(self.twin, method)(*args)

    def check(self, i: int, j: int) -> None:
        src, dst = self.hosts[i], self.hosts[j]
        got, want = self.new.sample(src, dst), self.twin.sample(src, dst)
        assert got == want and type(got) is type(want), (src, dst)
        assert (self.new.rng.bit_generator.state
                == self.twin.rng.bit_generator.state), (src, dst)

    def check_all_pairs(self) -> None:
        for i in range(len(self.hosts)):
            for j in range(len(self.hosts)):
                if i != j:
                    self.check(i, j)

    def buffers(self) -> tuple[list, list, list]:
        return list(self.new._u), list(self.new._z), list(self.new._e)


@pytest.mark.parametrize("default_loss", [0.0, 0.0005, 0.3])
def test_every_host_pair_intra_site_and_default_wan(default_loss):
    world = _World(11, default_loss=default_loss)
    for _ in range(16):
        world.check_all_pairs()
    assert min(world.twin.refills.values()) >= 2    # past a block boundary


def test_set_pair_with_and_without_loss_also_after_traffic():
    world = _World(12, default_loss=0.01)
    world.both("set_pair", "a", "b", ms(40.0))              # base only
    world.check_all_pairs()                                 # tables are warm
    world.both("set_pair", "b", "c", ms(3.0), 0.5)          # base and loss
    world.both("set_pair", "b", "a", ms(80.0), 0.0)         # reversed order
    world.check_all_pairs()
    for model in (world.new, world.twin):
        model.default_loss = 0.25       # reassigned in place by tests/fault
        model.default_wan_latency = ms(9.0)
    world.check_all_pairs()


def test_certain_loss_draws_one_uniform_and_nothing_else():
    world = _World(13)
    world.both("set_pair", "a", "b", ms(10.0), 1.0)         # p == 1
    world.both("set_pair", "a", "c", ms(10.0), 0.9)         # p > 1 with extras
    world.check_all_pairs()                 # every buffer holds variates
    for i, j in ((0, 4), (2, 10)):          # 0.9 + 0.2 + 0.2 > 1: lost too
        u, z, e = world.buffers()
        world.check(i, j)
        assert world.new.sample(world.hosts[i], world.hosts[j]) is None
        assert world.buffers() == (u[:-2], z, e)
        world.twin.sample(world.hosts[i], world.hosts[j])
    world.check_all_pairs()


def test_lossless_unloaded_pair_draws_the_lognormal_only():
    world = _World(14, default_loss=0.0)
    twin = np.random.default_rng(14)
    delay = world.new.sample(world.hosts[0], world.hosts[4])
    normals = twin.standard_normal(BLOCK)
    assert delay == ms(25.0) * math.exp(0.08 * normals[-1])
    assert world.new.rng.bit_generator.state == twin.bit_generator.state
    assert world.buffers() == ([], normals[:-1].tolist(), [])
    world.new.sample(world.hosts[0], world.hosts[8])
    assert world.buffers() == ([], normals[:-2].tolist(), [])


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


def _ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov D: the largest gap between the two
    empirical CDFs (``scipy.stats.ks_2samp``'s statistic)."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


@pytest.mark.parametrize("pair, loss", [((0, 4), 0.03), ((0, 1), 0.0),
                                        ((1, 6), 0.03), ((5, 11), 0.1)])
def test_delays_and_loss_rate_match_the_scalar_draws(pair, loss):
    """20 000 datagrams per model on one host pair: a WAN pair with no
    processing delay (jitter only), a LAN pair with one loaded end, a WAN
    pair with one, a WAN pair with two (one of them under load).  The
    delays pass a two-sample KS test at α = 0.001, and each model's loss
    count is within 4.5 standard deviations of its binomial mean."""
    n = 20_000
    world = _World(15)
    old = _Reference(np.random.default_rng(16))
    src, dst = world.hosts[pair[0]], world.hosts[pair[1]]
    for model in (world.new, old):
        model.set_pair(src.site.name, dst.site.name, ms(30.0), loss)
    if src.site is not dst.site:
        p = loss + src.extra_loss + dst.extra_loss
    else:
        p = src.extra_loss + dst.extra_loss
    runs = [[model.sample(src, dst) for _ in range(n)]
            for model in (world.new, old)]
    delays = [np.array([d for d in run if d is not None]) for run in runs]
    for run in runs:
        lost = run.count(None)
        assert abs(lost - n * p) <= 4.5 * math.sqrt(n * p * (1 - p)) + 1e-9
    m, k = map(len, delays)
    critical = math.sqrt(-math.log(0.001 / 2) / 2) * math.sqrt((m + k) / (m * k))
    assert _ks_statistic(*delays) < critical


class _Counting:
    """A generator that counts, and sizes, every call ``sample`` makes."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.calls: list[tuple[str, int]] = []

    def __getattr__(self, kind):
        draw = getattr(self._rng, kind)

        def counted(size):
            self.calls.append((kind, size))
            return draw(size)
        return counted


@pytest.mark.parametrize("k, pair, loss", [(1, (0, 4), 0.0),
                                           (2, (1, 4), 0.0),
                                           (3, (1, 5), 0.0),
                                           (4, (1, 5), 1e-9)])
def test_refills_are_amortised_over_the_block(k, pair, loss):
    """5 000 datagrams that take k variates each cost at most
    ⌈5 000·k / BLOCK⌉ + 3 generator calls, each drawing a whole block."""
    world = _World(17, default_loss=loss)
    rng = world.new.rng = _Counting(17)
    src, dst = world.hosts[pair[0]], world.hosts[pair[1]]
    for _ in range(5_000):
        assert world.new.sample(src, dst) is not None
    drawn = sum(size for _, size in rng.calls)
    used = drawn - sum(map(len, world.buffers()))
    assert used == 5_000 * k
    assert len(rng.calls) <= math.ceil(5_000 * k / BLOCK) + 3
    assert {size for _, size in rng.calls} == {BLOCK}
