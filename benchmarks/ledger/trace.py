"""Timing shims installed from outside the program.

:func:`install` replaces public entry points of each layer — class
attributes, module attributes as their callers look them up, and (through
:meth:`Tracer.wrap`) per-instance hooks such as ``node.ip_handler`` — with
shims that record one span per call: (name, start, end, parent, op).
Spans live in preallocated arrays and are reduced (or written out) when
the run ends.  A span's *self time* is its duration minus the part its
child spans cover; the spans of one closed-loop operation share its
``op`` id (the echo ``seq``).

Nothing here edits ``src/``: :meth:`Tracer.uninstall` puts every original
back, and the gated metrics always come from a run without shims.
"""

from __future__ import annotations

from array import array
from collections import Counter, OrderedDict
from time import perf_counter_ns
from typing import Any, Callable

import numpy as np

#: spans kept per traced pass; once full, shims call straight through
CAPACITY = 1 << 20
#: frames remembered for ``wire.repeat_frame_frac`` — the size of the
#: codec's own content-keyed caches, so the share is an upper bound on
#: the hit rate any such cache can reach on this traffic
FRAME_MEMORY = 8192

#: bookkeeping done by the shims themselves; recorded as a child span so
#: it is subtracted from the self time of the layer it runs inside
TAP = "trace.tap"


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, capacity: int = CAPACITY):
        self.capacity = capacity
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i", bytes(4 * capacity))
        self.parent = array("i", bytes(4 * capacity))
        self.op = array("q", bytes(8 * capacity))
        self.start = array("q", bytes(8 * capacity))
        self.end = array("q", bytes(8 * capacity))
        self.n = 0
        self.cur = -1
        #: id of the operation in flight (set by the workload driver)
        self.op_id = -1
        self._patches: list[tuple[Any, str, Any]] = []
        # wire taps
        self.frames_decoded = 0
        self.frames_repeated = 0
        self.frame_bytes = 0
        self.msgs_encoded = 0
        self.msgs_repeated = 0
        self._recent_frames: OrderedDict[bytes, None] = OrderedDict()
        self._recent_msgs: dict[int, Any] = {}
        #: datagrams handed to a transport, by message type name
        self.sent_types: Counter = Counter()

    # -- recording ------------------------------------------------------
    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable, tap: Callable | None = None
             ) -> Callable:
        """A shim around ``fn`` recording one ``name`` span per call.
        ``tap(result, *args)`` runs after the span closes, inside its own
        :data:`TAP` child span."""
        nid = self._name(name)
        tap_id = self._name(TAP)
        cap = self.capacity
        nm, par, op = self.name_id, self.parent, self.op
        st, en = self.start, self.end
        clock = perf_counter_ns
        rec = self

        def shim(*args, **kwargs):
            i = rec.n
            if i >= cap:
                return fn(*args, **kwargs)
            rec.n = i + 1
            parent = rec.cur
            rec.cur = i
            nm[i] = nid
            par[i] = parent
            op[i] = rec.op_id
            st[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                en[i] = clock()
                rec.cur = parent
            if tap is not None:
                j = rec.n
                if j < cap:
                    rec.n = j + 1
                    nm[j] = tap_id
                    par[j] = parent
                    op[j] = rec.op_id
                    st[j] = clock()
                    tap(result, *args)
                    en[j] = clock()
            return result

        shim.__wrapped__ = fn
        return shim

    # -- wire taps --------------------------------------------------------
    def _tap_decode(self, _result: Any, buf: Any) -> None:
        frame = bytes(buf)
        self.frames_decoded += 1
        self.frame_bytes += len(frame)
        recent = self._recent_frames
        if frame in recent:
            self.frames_repeated += 1
            recent.move_to_end(frame)
        else:
            recent[frame] = None
            if len(recent) > FRAME_MEMORY:
                recent.popitem(last=False)

    def _tap_encode(self, _result: Any, msg: Any) -> None:
        self.msgs_encoded += 1
        seen = self._recent_msgs
        if seen.get(id(msg)) is msg:
            self.msgs_repeated += 1
        else:
            if len(seen) >= FRAME_MEMORY:
                seen.clear()
            # a strong reference, so a recycled id can never alias
            seen[id(msg)] = msg

    def _tap_send(self, _result: Any, _transport: Any, _dst: Any, msg: Any,
                  *_size_hint: Any) -> None:
        self.sent_types[type(msg).__name__] += 1

    # -- patching ---------------------------------------------------------
    def _patch(self, owner: Any, attr: str, name: str,
               tap: Callable | None = None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, tap))

    def _patch_open(self, transport_cls: Any) -> None:
        """Wrap the receive handler a node hands to ``Transport.open``."""
        original = transport_cls.open
        self._patches.append((transport_cls, "open", original))
        tracer = self

        def open_traced(transport, handler):
            return original(transport,
                            tracer.wrap("brunet.rx_dispatch", handler))

        transport_cls.open = open_traced

    def install(self) -> "Tracer":
        """Patch every layer's public entry points.  Call before the
        overlay is built (``Transport.open`` captures its handler then)."""
        import repro.brunet.node as node_mod
        import repro.wire as wire_pkg
        from repro.brunet.node import BrunetNode
        from repro.ipop.router import IpopRouter
        from repro.ipop.vtcp import VtcpSocket
        from repro.phys.network import Internet
        from repro.transport.sim import SimTransport
        from repro.transport.udp import UdpTransport
        from repro.wire import codec

        self._patch(BrunetNode, "route", "brunet.route")
        self._patch(BrunetNode, "send_over", "brunet.send_over")
        self._patch(BrunetNode, "send_routed", "brunet.send_routed")
        self._patch(node_mod, "next_hop", "brunet.next_hop")
        self._patch(IpopRouter, "send_ip", "ipop.send_ip")
        self._patch(VtcpSocket, "send", "ipop.vtcp_send")
        self._patch(VtcpSocket, "handle_segment", "ipop.vtcp_handle_segment")
        self._patch(UdpTransport, "send", "transport.udp_send",
                    self._tap_send)
        self._patch(SimTransport, "send", "transport.sim_send",
                    self._tap_send)
        self._patch_open(UdpTransport)
        self._patch_open(SimTransport)
        self._patch(Internet, "send", "phys.internet_send")
        # ``decode_lazy`` is what both transports call on arrival (it
        # hands non-routed frames to ``decode`` itself, so tapping both
        # would count those frames twice)
        taps = {"encode": self._tap_encode, "decode_lazy": self._tap_decode}
        for fn in ("encode", "decode", "decode_lazy", "materialize",
                   "peek_header"):
            self._patch(codec, fn, f"wire.{fn}", taps.get(fn))
            # ``from repro import wire; wire.materialize(...)`` callers
            # look the name up on the package, not on ``codec``
            original = getattr(wire_pkg, fn)
            self._patches.append((wire_pkg, fn, original))
            setattr(wire_pkg, fn, getattr(codec, fn))
        return self

    def uninstall(self) -> None:
        """Restore every original, most recent patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy columns (copies, ``n`` rows)."""
        n = self.n
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32)[:n].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[:n].copy(),
            "op": np.frombuffer(self.op, dtype=np.int64)[:n].copy(),
            "start": np.frombuffer(self.start, dtype=np.int64)[:n].copy(),
            "end": np.frombuffer(self.end, dtype=np.int64)[:n].copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``self_ns`` and ``dur_ns``."""
        cols = self.arrays()
        own = self_times(cols["start"], cols["end"], cols["parent"])
        dur = cols["end"] - cols["start"]
        out: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = cols["name"] == nid
            out[name] = {"calls": int(mask.sum()),
                         "self_ns": float(own[mask].sum()),
                         "dur_ns": float(dur[mask].sum())}
        return out

    def top_level_ns_by_op(self) -> dict[int, int]:
        """Per op id, the summed duration of its parentless spans — the
        traced share of that operation's critical path in a closed loop
        with one operation outstanding."""
        cols = self.arrays()
        top = cols["parent"] < 0
        ops = cols["op"][top]
        dur = (cols["end"] - cols["start"])[top]
        out: dict[int, int] = {}
        for o, d in zip(ops.tolist(), dur.tolist()):
            out[o] = out.get(o, 0) + d
        return out

    def write(self, path: str) -> None:
        """Dump every span as one TSV row (name, start, end, parent, op)."""
        cols = self.arrays()
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(self.n):
                fh.write(f"{self.names[cols['name'][i]]}\t{cols['start'][i]}"
                         f"\t{cols['end'][i]}\t{cols['parent'][i]}"
                         f"\t{cols['op'][i]}\n")


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Span duration minus the summed duration of its direct children
    (``parent[i]`` is a row index, or -1 for a top-level span)."""
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered
