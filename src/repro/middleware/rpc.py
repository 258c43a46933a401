"""Reliable request/response RPC over the virtual network.

Middleware protocols (PBS, NFS control traffic) are modelled as synchronous
RPCs over virtual UDP with timeout/retransmit — the reliability the real
systems get from TCP.  Requests are idempotent at the server via a
response cache keyed by (requester IP, reply port, request id), so
retransmits after a migration outage do not double-execute handlers; a
body its handler raises :data:`BAD_BODY` on is dropped and counted.

Servers can be **single-threaded** (``serialize=True``): requests queue and
are served in arrival order, each consuming server CPU — this is the PBS
head-node bottleneck the paper blames for the no-shortcut throughput
collapse ("the use of shortcuts also reduced queuing delays in the PBS head
node", §V-D1).

A request is the ``bytes`` of the JSON array ``[rid, method, body,
reply_port]`` and a response ``[rid, body]``, in both wire modes: bodies
are JSON values (a tuple arrives as a list, a float exactly), and the
reply goes to the request's source address.  Each call still charges its
explicit ``size``, so the simulated byte counts do not depend on the
encoding.
"""

from __future__ import annotations

import itertools
import json
from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.ipop.ippacket import VirtualIpPacket
from repro.sim.process import Process, Signal, Timeout, WaitSignal

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.machine import WowVm

_rid_counter = itertools.count(1)
_JSON = json.JSONEncoder(separators=(",", ":"))


class RpcFailure:
    """Sentinel fired when a call exhausts its retries."""

    def __init__(self, reason: str = "timeout"):
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RpcFailure {self.reason}>"

    def __bool__(self) -> bool:
        return False


def _pack(*fields) -> bytes:
    """One RPC datagram: the JSON array of ``fields``."""
    return _JSON.encode(fields).encode()


def _unpack(payload: Any, arity: int) -> Optional[list]:
    """The fields of an RPC datagram: a JSON array of ``arity`` values
    whose first is an int request id.  Anything else is None, dropped as
    a UDP application drops garbage."""
    if type(payload) is not bytes:
        return None
    try:
        fields = json.loads(payload.decode())
    except (ValueError, RecursionError):   # not UTF-8, not JSON, too deep,
        return None                        # an int over 4 300 digits
    if (type(fields) is not list or len(fields) != arity
            or type(fields[0]) is not int):
        return None
    return fields


#: handler return type: plain body, or (body, response_size_bytes)
Handler = Callable[[str, Any, str], Any]

#: what a handler raises on a body of the wrong shape
BAD_BODY = (AttributeError, IndexError, KeyError, TypeError, ValueError)
DEFAULT_REQUEST_SIZE = 256
DEFAULT_RESPONSE_SIZE = 256
RESPONSE_CACHE_SIZE = 512


class RpcServer:
    """Serves RPCs on one virtual UDP port."""

    def __init__(self, vm: "WowVm", port: int, handler: Handler,
                 cpu_per_request: float = 0.002, serialize: bool = False):
        self.vm = vm
        self.sim = vm.sim
        self.port = port
        self.handler = handler
        self.cpu_per_request = cpu_per_request
        self.serialize = serialize
        self.requests_served = 0
        self.requests_dropped = 0   # bodies the handler could not take
        #: (reply ip, reply port, rid) -> (encoded response, its size)
        self._cache: OrderedDict[tuple, tuple[bytes, int]] = OrderedDict()
        #: (rid, method, body, reply ip, reply port) awaiting service
        self._queue: deque[tuple] = deque()
        self._wake = Signal(self.sim, f"rpc{port}.wake")
        vm.router.bind("udp", port, self._on_packet)
        if serialize:
            Process(self.sim, self._serve_loop(), name=f"rpcserver.{port}")

    def close(self) -> None:
        """Unbind the service port."""
        self.vm.router.unbind("udp", self.port)

    # ------------------------------------------------------------------
    def _on_packet(self, pkt: VirtualIpPacket) -> None:
        fields = _unpack(pkt.payload, 4)
        if fields is None:
            return
        rid, method, body, reply_port = fields
        if (type(method) is not str or type(reply_port) is not int
                or not 0 <= reply_port <= 0xFFFF):
            return
        cached = self._cache.get((pkt.src_ip, reply_port, rid))
        if cached is not None:
            self._respond(pkt.src_ip, reply_port, *cached)
            return
        req = (rid, method, body, pkt.src_ip, reply_port)
        if self.serialize:
            self._queue.append(req)
            self._wake.fire()
        else:
            delay = self.vm.host.compute_time(self.cpu_per_request)
            self.sim.schedule(delay, self._handle, *req)

    def _serve_loop(self):
        while True:
            if not self._queue:
                yield WaitSignal(self._wake)
                continue
            req = self._queue.popleft()
            if (req[3], req[4], req[0]) in self._cache:     # already served
                continue
            yield Timeout(self.vm.host.compute_time(self.cpu_per_request))
            self._handle(*req)

    def _handle(self, rid: int, method: str, body: Any, src_ip: str,
                reply_port: int) -> None:
        key = (src_ip, reply_port, rid)
        if key in self._cache:
            return
        try:
            result = self.handler(method, body, src_ip)
        except BAD_BODY:
            self.requests_dropped += 1
            return
        self.requests_served += 1
        if isinstance(result, tuple):
            reply, size = result
        else:
            reply, size = result, DEFAULT_RESPONSE_SIZE
        cached = self._cache[key] = (_pack(rid, reply), size)
        while len(self._cache) > RESPONSE_CACHE_SIZE:
            self._cache.popitem(last=False)
        self._respond(src_ip, reply_port, *cached)

    def _respond(self, ip: str, port: int, data: bytes, size: int) -> None:
        if not self.vm.started or self.vm.suspended:
            return
        self.vm.router.send_ip(ip, "udp", port, data, size)


class RpcClient:
    """Issues reliable calls from one VM."""

    def __init__(self, vm: "WowVm", reply_port: Optional[int] = None):
        self.vm = vm
        self.sim = vm.sim
        calib = vm.deployment.calib
        self.timeout = calib.rpc_timeout
        self.retries = calib.rpc_retries
        self.backoff = calib.rpc_backoff
        self.reply_port = reply_port if reply_port is not None else 16000
        while True:
            try:
                vm.router.bind("udp", self.reply_port, self._on_packet)
                break
            except ValueError:
                self.reply_port += 1
        self._pending: dict[int, dict] = {}
        self.timeouts = 0
        self.calls = 0

    def close(self) -> None:
        """Unbind the reply port; outstanding calls will time out."""
        self.vm.router.unbind("udp", self.reply_port)

    # ------------------------------------------------------------------
    def call(self, dst_ip: str, port: int, method: str, body: Any = None,
             size: int = DEFAULT_REQUEST_SIZE,
             timeout: Optional[float] = None,
             retries: Optional[int] = None) -> Signal:
        """Returns a latched Signal fired with the response body, or with
        an :class:`RpcFailure` after all retries are spent."""
        rid = next(_rid_counter)
        self.calls += 1
        done = Signal(self.sim, f"rpc.{method}.{rid}", latch=True)
        state = {
            "rid": rid, "method": method,
            "data": _pack(rid, method, body, self.reply_port),
            "dst_ip": dst_ip, "port": port, "size": size,
            "attempts_left": (retries if retries is not None
                              else self.retries),
            "interval": timeout if timeout is not None else self.timeout,
            "done": done, "timer": None, "started": self.sim.now,
        }
        self._pending[rid] = state
        self._transmit(state)
        return done

    def call_and_wait(self, *args, **kwargs):
        """Convenience for processes: ``resp = yield from client.call_and_wait(...)``."""
        done = self.call(*args, **kwargs)
        resp = yield WaitSignal(done)
        return resp

    # ------------------------------------------------------------------
    def _transmit(self, state: dict) -> None:
        rid = state["rid"]
        if rid not in self._pending:
            return
        if state["attempts_left"] <= 0:
            self._pending.pop(rid, None)
            self.timeouts += 1
            self.sim.trace("rpc.failure", method=state["method"],
                           dst=state["dst_ip"])
            state["done"].fire(RpcFailure())
            return
        state["attempts_left"] -= 1
        if self.vm.started and not self.vm.suspended:
            self.vm.router.send_ip(state["dst_ip"], "udp", state["port"],
                                   state["data"], state["size"])
        state["timer"] = self.sim.schedule(state["interval"], self._transmit,
                                           state)
        state["interval"] *= self.backoff

    def _on_packet(self, pkt: VirtualIpPacket) -> None:
        fields = _unpack(pkt.payload, 2)
        if fields is None:
            return
        rid, body = fields
        state = self._pending.pop(rid, None)
        if state is None:
            return  # duplicate response
        if state["timer"] is not None:
            state["timer"].cancel()
        state["rtt"] = self.sim.now - state["started"]
        state["done"].fire(body)
