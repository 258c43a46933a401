"""Churn-recovery experiment: the overlay must heal after mass crashes."""

import pytest

from repro.experiments import churn_recovery


def _key(result):
    return (result.recovery_ring, result.recovery_routes, result.series,
            [(e.time, e.kind, e.detail) for e in result.fault_log])


def test_recovers_after_killing_a_quarter(capsys):
    """The acceptance bar: kill >=20% of the nodes at once, the ring must
    regain consistency and full all-pairs virtual-IP routability."""
    result = churn_recovery.run(seed=0, n_nodes=20, kill_fraction=0.25)
    assert result.n_killed == 5
    assert result.n_killed / result.n_nodes >= 0.20
    assert result.recovered
    assert result.recovery_ring is not None and result.recovery_ring > 0
    assert result.recovery_routes is not None and result.recovery_routes > 0
    # the crash actually broke routing before repair kicked in
    assert any(frac < 1.0 for _t, frac, _ring in result.series)
    # every kill is logged, at the scheduled instant
    assert [e.kind for e in result.fault_log] == ["node.crash"] * 5
    assert all(e.time == result.t_kill for e in result.fault_log)
    churn_recovery.report(result)
    out = capsys.readouterr().out
    assert "Churn recovery" in out and "never" not in out


def test_same_seed_is_bit_identical():
    a = churn_recovery.run(seed=3, n_nodes=12, kill_fraction=0.25,
                           settle=300.0)
    b = churn_recovery.run(seed=3, n_nodes=12, kill_fraction=0.25,
                           settle=300.0)
    assert _key(a) == _key(b)


def test_csv_export(tmp_path, capsys):
    result = churn_recovery.run(seed=1, n_nodes=12, kill_fraction=0.25,
                                settle=300.0)
    churn_recovery.report(result, csv_dir=str(tmp_path))
    assert (tmp_path / "churn_recovery.csv").exists()
    assert "[csv]" in capsys.readouterr().out


@pytest.mark.slow
def test_recovers_at_larger_scale_and_kill_fraction():
    result = churn_recovery.run(seed=0, n_nodes=32, kill_fraction=0.3,
                                settle=600.0, horizon=900.0)
    assert result.recovered


def test_peer_uris_name_only_current_peers(monkeypatch):
    """A node keeps a peer's advertised URIs only while it holds a link to
    that peer: after crashes and repair, no entry outlives its connection."""
    built = []
    build = churn_recovery._build_overlay

    def capture(*args, **kwargs):
        overlay = build(*args, **kwargs)
        built.append(overlay[1])
        return overlay

    monkeypatch.setattr(churn_recovery, "_build_overlay", capture)
    churn_recovery.run(seed=0)
    live = [n for n in built[0] if n.active]
    assert live
    for node in live:
        assert set(node.peer_uris) <= {c.peer_addr for c in node.table.all()}
