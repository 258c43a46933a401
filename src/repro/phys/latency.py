"""WAN latency model.

One-way delay between two hosts =

    base(site_a, site_b)        symmetric site-pair base latency
  + jitter                      lognormal multiplicative jitter
  + host processing             per-endpoint delay scaled by host load

Site-pair base latencies are stored in a symmetric table with a default for
unlisted pairs.  Intra-site delay is the site's ``lan_latency``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.phys.host import Host

#: variates drawn per vectorised refill of one of the three buffers
BLOCK = 1024


class LatencyModel:
    """Decides per datagram: lost, or delivered after a one-way delay
    (:meth:`sample`); the other methods hold the site-pair configuration."""

    def __init__(self, rng: np.random.Generator,
                 default_wan_latency: float = ms(25.0),
                 jitter_sigma: float = 0.08,
                 default_loss: float = 0.0005):
        self.rng = rng
        self.default_wan_latency = default_wan_latency
        self.jitter_sigma = jitter_sigma
        self.default_loss = default_loss
        # keyed by ordered name pair, both orders stored
        self._pair_latency: dict[tuple[str, str], float] = {}
        self._pair_loss: dict[tuple[str, str], float] = {}
        # loss uniforms, standard normals, standard exponentials: each
        # refilled by one ``rng`` call, popped from the end, one per use
        self._u: list[float] = []
        self._z: list[float] = []
        self._e: list[float] = []

    # -- configuration -------------------------------------------------
    def set_pair(self, site_a: str, site_b: str, one_way: float,
                 loss: float | None = None) -> None:
        """Configure the symmetric base latency (and loss) for a site pair."""
        for key in ((site_a, site_b), (site_b, site_a)):
            self._pair_latency[key] = one_way
            if loss is not None:
                self._pair_loss[key] = loss

    def base_latency(self, site_a: str, site_b: str) -> float:
        """One-way base latency between two (distinct) sites."""
        if site_a == site_b:
            raise ValueError("intra-site latency comes from the Site object")
        return self._pair_latency.get((site_a, site_b),
                                      self.default_wan_latency)

    def loss_probability(self, site_a: str, site_b: str) -> float:
        """Per-packet loss probability for the site pair (0 intra-site)."""
        if site_a == site_b:
            return 0.0
        return self._pair_loss.get((site_a, site_b), self.default_loss)

    # -- sampling --------------------------------------------------------
    @staticmethod
    def _refill(buf: list[float], draw) -> float:
        buf.extend(draw(BLOCK).tolist())
        return buf.pop()

    def sample(self, src: "Host", dst: "Host") -> float | None:
        """One-way delay for a datagram from ``src`` to ``dst``, or None
        when it is lost in transit.

        Takes a uniform for the loss decision (only when its probability
        is positive; a lost datagram takes nothing else), a standard
        normal for the lognormal jitter, and one standard exponential per
        endpoint with a ``proc_delay_mean``, scaled by ``1 + load``.  Each
        kind comes from its own buffer, refilled ``BLOCK`` variates at a
        time.  Hosts share a LAN when they hold the *same* ``Site``
        object; other pairs are looked up by name.
        """
        site = src.site
        if site is dst.site:
            base, p = site.lan_latency, 0.0
        else:
            names = (site.name, dst.site.name)
            if names[0] == names[1]:
                raise ValueError(f"two Site objects named {names[0]!r}")
            base = self._pair_latency.get(names, self.default_wan_latency)
            p = self._pair_loss.get(names, self.default_loss)
        p = p + src.extra_loss + dst.extra_loss
        if p > 0:
            u = self._u
            if (u.pop() if u else self._refill(u, self.rng.random)) < p:
                return None
        z = self._z
        delay = base * math.exp(self.jitter_sigma * (
            z.pop() if z else self._refill(z, self.rng.standard_normal)))
        e = self._e
        proc = 0.0
        if src.proc_delay_mean > 0.0:
            proc = (src.proc_delay_mean * (1.0 + max(0.0, src.load))
                    * (e.pop() if e else self._refill(
                        e, self.rng.standard_exponential)))
        if dst.proc_delay_mean > 0.0:
            proc += (dst.proc_delay_mean * (1.0 + max(0.0, dst.load))
                     * (e.pop() if e else self._refill(
                         e, self.rng.standard_exponential)))
        return delay + proc
