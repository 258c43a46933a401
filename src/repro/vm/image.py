"""VM appliance images.

"Our goal is to make the addition of a node to a pool of Grid resources as
simple as instantiating a pre-configured VM image" (§III-C).  The image is
configured once with the execution environment and shared by every node
built from it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class VmImage:
    """A base appliance: guest OS plus installed software manifest."""

    name: str
    guest_os: str = "Debian/Linux 2.4.27-2"
    software: tuple[str, ...] = (
        "ipop", "mono-1.1.9.2", "openpbs-2.3.16", "pvm-3.4.5",
        "nfs-3", "ssh",
    )
    disk_size: float = 2.0e9  # bytes


DEFAULT_IMAGE = VmImage("wow-base")
