"""Protocol timing and sizing constants for the Brunet layer.

The defaults follow the paper where it is explicit (the linking footnote:
"conservative" retry constants → ~150 s before a bad URI is abandoned) and
are otherwise calibrated so the testbed reproduces the paper's measured
regimes (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BrunetConfig:
    """Tunable protocol parameters; one instance is shared per deployment."""

    # -- linking handshake (§IV-B) --------------------------------------
    #: first link-request resend interval, seconds
    link_resend_interval: float = 5.0
    #: multiplicative back-off between resends
    link_backoff_factor: float = 2.0
    #: resends per URI before giving up on it.  With 5 s base and factor 2
    #: a dead URI is abandoned after 5+10+20+40+80 = 155 s — the "delays of
    #: the order of 150 seconds" of the paper's footnote 2.
    link_max_retries: int = 5
    #: deterministic race resolution by address comparison (True) vs the
    #: paper's abort-and-exponential-back-off (False)
    race_tiebreak_by_address: bool = True
    #: base back-off when both ends abort a linking race (seconds)
    race_backoff_base: float = 2.0

    # -- keep-alive (§IV-B "ping messages") ------------------------------
    ping_interval: float = 15.0
    ping_retries: int = 3
    #: route periodic work (keep-alive sweeps, the leaf/near/far overlord
    #: ticks, and the shortcut overlord's tick while it is armed) through
    #: the kernel's shared :class:`~repro.sim.engine.SweepWheel` instead of
    #: one independent timer per node/overlord.  Off by default — batching
    #: quantizes timing to ``sweep_granularity`` and therefore changes
    #: same-seed trajectories; the 10k-node scaling runs turn it on, where
    #: n independent keep-alive timers would dominate the event kernel
    #: (an idle node fires 0.17 periodic timers per second: keep-alive
    #: / 7.5 s + re-announce / 30 s; DESIGN.md §16.2 has what batching
    #: buys at that load).
    batch_timers: bool = False
    #: sweep-wheel bucket width (seconds) when ``batch_timers`` is on
    sweep_granularity: float = 1.0
    #: a connection with this many consecutive unanswered pings is dropped
    ping_timeout: float = 4.0
    #: hard liveness backstop: drop a connection when *nothing* has been
    #: heard from the peer for this long, regardless of ping accounting
    #: (0 disables).  Healthy peers always answer pings well inside this.
    liveness_timeout: float = 90.0

    # -- overlords (§IV-A, §IV-C, §IV-E) ---------------------------------
    #: structured-near connections maintained on each side of the ring
    near_per_side: int = 1
    #: structured-far connection target count (k of §IV-A)
    far_count: int = 4
    #: spacing, seconds, of the grid leaf/near/far overlord ticks land on
    #: (a tick runs only where one is due: DESIGN.md §9.4)
    overlord_interval: float = 5.0
    #: shortcut score service rate c (packets/s) and threshold
    shortcut_service_rate: float = 0.4
    shortcut_threshold: float = 14.0
    #: shortcut score tick, seconds: the spacing of the grid (anchored at
    #: node start) on which the score recurrence runs.  Not a polling
    #: period — the overlord is demand-driven and schedules a tick only
    #: while it has scores, arrivals or pending attempts to work on
    #: (DESIGN.md §9.4); ``c`` per tick is ``shortcut_service_rate`` times
    #: this.
    shortcut_tick: float = 1.0
    #: master switch for the ShortcutConnectionOverlord — the paper's
    #: experiments compare shortcuts enabled vs disabled
    shortcuts_enabled: bool = True
    #: practical cap on simultaneous shortcut connections per node (§IV-E:
    #: maintenance overhead "poses a practical limit")
    shortcut_max: int = 8
    #: drop a shortcut whose score has been zero this long (0 = never)
    shortcut_idle_drop: float = 0.0

    # -- message sizes on the wire (bytes) --------------------------------
    size_ctm: int = 320
    size_link: int = 240
    size_ping: int = 96
    size_routed_header: int = 48

    #: how messages cross the (simulated) wire — see
    #: :class:`repro.transport.sim.SimTransport`:
    #: ``"reference"`` charges the paper-constant sizes above (default,
    #: byte-identical to the pre-codec simulator); ``"codec"`` moves real
    #: encoded bytes from :mod:`repro.wire`, charges their length plus
    #: real UDP/IP headers and decodes on delivery (the byte path the
    #: live UDP transport runs)
    wire_mode: str = "reference"

    #: overlay-packet TTL (max greedy hops)
    ttl: int = 32

    #: default UDP port IPOP/Brunet binds on every node
    default_port: int = 14001

    def uri_give_up_time(self) -> float:
        """Seconds spent on one dead URI before moving to the next."""
        total = 0.0
        interval = self.link_resend_interval
        for _ in range(self.link_max_retries):
            total += interval
            interval *= self.link_backoff_factor
        return total


DEFAULT_CONFIG = BrunetConfig()
