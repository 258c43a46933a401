"""Per-node protocol tokens: same-seed runs must be token-identical.

Tokens come from a per-node counter, so a second same-seed run in one
process draws the same tokens as the first.
"""

from repro.brunet import BrunetConfig, BrunetNode, random_address
from repro.brunet.uri import Uri
from repro.phys import Internet, Site
from repro.sim import Simulator

_NEXT_TOKEN = BrunetNode.next_token


def _run_and_collect_tokens(seed: int, monkeypatch) -> list[tuple[str, int]]:
    """Build a small overlay and record every token each node hands out,
    in order."""
    sim = Simulator(seed=seed, trace=False)
    net = Internet(sim)
    site = Site(net, "pub")
    rng = sim.rng.stream("tokens")
    cfg = BrunetConfig()
    boot = None
    nodes = []
    tokens: list[tuple[str, int]] = []

    def spying(self):
        t = _NEXT_TOKEN(self)
        if self.sim is sim:         # this overlay's nodes only
            tokens.append((self.name, t))
        return t

    monkeypatch.setattr(BrunetNode, "next_token", spying)
    for i in range(6):
        h = site.add_host(f"h{i}")
        node = BrunetNode(sim, h, random_address(rng), cfg, name=f"n{i}")
        node.start([boot] if boot else [])
        if boot is None:
            boot = Uri.udp(h.ip, node.port)
        nodes.append(node)
    sim.run(until=60.0)
    assert all(n.in_ring for n in nodes)
    return tokens


def test_same_seed_runs_produce_identical_token_sequences(monkeypatch):
    first = _run_and_collect_tokens(seed=77, monkeypatch=monkeypatch)
    second = _run_and_collect_tokens(seed=77, monkeypatch=monkeypatch)
    assert first == second
    assert first  # the overlay actually handed out tokens


def test_tokens_are_monotone_per_node(monkeypatch):
    tokens = _run_and_collect_tokens(seed=5, monkeypatch=monkeypatch)
    last: dict[str, int] = {}
    for node_name, tok in tokens:
        assert tok > last.get(node_name, 0)
        last[node_name] = tok
    # counters are per node: several nodes issue the same small tokens
    firsts = [tok for _, tok in tokens if tok == 1]
    assert len(firsts) > 1
