"""VM appliance images.

"Our goal is to make the addition of a node to a pool of Grid resources as
simple as instantiating a pre-configured VM image" (§III-C).  The image is
configured once with the execution environment and cloned per node; the
clone count and software manifest are what deployment tooling (examples,
docs) reason about.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
    _clones: list[str] = field(default_factory=list)

    def clone(self, instance_name: str) -> "VmImage":
        """Record a clone; returns self (copy-on-write semantics)."""
        self._clones.append(instance_name)
        return self

    @property
    def clone_count(self) -> int:
        return len(self._clones)

    def has_software(self, package: str) -> bool:
        return any(s.startswith(package) for s in self.software)


DEFAULT_IMAGE = VmImage("wow-base")
