"""Transport URIs.

Connections "may operate over any transport.  The information about
transport protocol and the physical endpoint is contained inside a Uniform
Resource Indicator (URI), such as ``brunet.tcp:192.0.1.1:1024``" (§IV-A).
A NATed node accumulates several URIs over time: its locally-bound private
endpoint plus every NAT-assigned endpoint peers have observed for it.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.phys.endpoints import Endpoint

#: learned (NAT-assigned) URIs a node keeps and advertises besides its
#: local one; the codec rejects a longer list (``repro.wire.codec``)
MAX_LEARNED_URIS = 4


class Uri(NamedTuple):
    """A (transport, endpoint) pair a node can be contacted at."""

    transport: str  # "udp" or "tcp"
    endpoint: Endpoint

    def __str__(self) -> str:
        return f"brunet.{self.transport}:{self.endpoint.ip}:{self.endpoint.port}"

    @staticmethod
    def parse(text: str) -> "Uri":
        """Parse ``brunet.udp:1.2.3.4:1024`` back into a :class:`Uri`."""
        scheme, ip, port = text.split(":")
        if not scheme.startswith("brunet."):
            raise ValueError(f"not a brunet URI: {text!r}")
        return Uri(scheme[len("brunet."):], Endpoint(ip, int(port)))

    @staticmethod
    def udp(ip: str, port: int) -> "Uri":
        """Shorthand for a UDP-transport URI."""
        return Uri("udp", Endpoint(ip, port))


class UriSet:
    """Ordered collection of a node's own URIs.

    Ordering matters: "nodes first attempt the URIs corresponding to the NAT
    assigned public IP/port ... before ... the private IP/port" (§V-B), so
    learned (NAT-assigned) URIs precede the locally bound one, most recently
    confirmed first.
    """

    def __init__(self, local: Uri):
        self.local = local
        self._learned: list[Uri] = []

    def learn(self, uri: Uri) -> bool:
        """Record a peer-observed URI.  Returns True when it is new
        information (either unseen or freshly re-confirmed to the front)."""
        if uri == self.local:
            return False
        if self._learned and self._learned[0] == uri:
            return False
        if uri in self._learned:
            self._learned.remove(uri)
        self._learned.insert(0, uri)
        del self._learned[MAX_LEARNED_URIS:]  # keep the freshest few
        return True

    def advertised(self) -> list[Uri]:
        """URI list to put in CTM/link messages: NAT-assigned first."""
        return [*self._learned, self.local]

    def __contains__(self, uri: Uri) -> bool:
        return uri == self.local or uri in self._learned
