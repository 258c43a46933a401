"""Lazy package exports (PEP 562).

``repro.phys``, ``repro.sim``, ``repro.ipop`` and ``repro.transport``
each re-export their public names, and importing any submodule runs the
package's ``__init__`` first.  Done eagerly, that made a live node — which
needs ``repro.phys.endpoints``, ``repro.sim.engine``, ``repro.ipop.router``
and ``repro.transport.udp`` — import the whole simulator (NAT model,
flows, topology, sharded kernel, ...) before its first packet.  These
packages instead declare *where* each name lives and import the
submodule the first time the name is asked for, so
``from repro.phys import Internet`` works as ever and costs what it uses.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(package: str, origin: dict[str, str]) -> Callable[[str], Any]:
    """A module-level ``__getattr__`` for ``package`` that resolves
    ``name`` to ``getattr(package.<origin[name]>, name)`` and binds it
    on the package, so each name is looked up once."""

    def __getattr__(name: str) -> Any:
        try:
            submodule = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
