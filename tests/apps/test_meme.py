"""The real MEME EM implementation + property tests on its invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.meme import MemeMotifFinder
from repro.apps.sequences import implant_motif, random_dna


def test_recovers_implanted_motif():
    rng = np.random.default_rng(3)
    seqs = random_dna(rng, 30, 120)
    pos = implant_motif(rng, seqs, "TTGACAGCTA", mutation_rate=0.05)
    finder = MemeMotifFinder(width=10, max_iter=60, seed=1)
    res = finder.fit(seqs)
    hits = np.abs(res.positions - pos) <= 1
    assert hits.mean() >= 0.8


def test_consensus_matches_motif_core():
    rng = np.random.default_rng(5)
    motif = "GGGCGCCAAA"
    seqs = random_dna(rng, 40, 100)
    implant_motif(rng, seqs, motif, mutation_rate=0.02)
    finder = MemeMotifFinder(width=10, max_iter=80, seed=2)
    res = finder.fit(seqs)
    consensus = finder.consensus(res.pwm)
    # EM can lock onto a phase-shifted window; accept any shift with a
    # long exact overlap with the planted motif
    def best_overlap(a: str, b: str) -> int:
        best = 0
        for shift in range(-4, 5):
            pairs = [(a[i], b[i + shift]) for i in range(len(a))
                     if 0 <= i + shift < len(b)]
            best = max(best, sum(x == y for x, y in pairs))
        return best

    assert best_overlap(consensus, motif) >= 7


def test_pwm_rows_are_distributions():
    rng = np.random.default_rng(7)
    seqs = random_dna(rng, 10, 60)
    res = MemeMotifFinder(width=6, max_iter=10, seed=0).fit(seqs)
    assert res.pwm.shape == (6, 4)
    assert np.allclose(res.pwm.sum(axis=1), 1.0)
    assert (res.pwm > 0).all()


def test_log_likelihood_is_finite_and_improves():
    rng = np.random.default_rng(11)
    seqs = random_dna(rng, 20, 80)
    implant_motif(rng, seqs, "ACGTACGT")
    short = MemeMotifFinder(width=8, max_iter=1, seed=3).fit(seqs)
    long = MemeMotifFinder(width=8, max_iter=40, seed=3).fit(seqs)
    assert np.isfinite(short.log_likelihood)
    assert long.log_likelihood >= short.log_likelihood - 1e-6


def test_invalid_width_rejected():
    with pytest.raises(ValueError):
        MemeMotifFinder(width=1)


def test_sequences_shorter_than_motif_rejected():
    rng = np.random.default_rng(0)
    seqs = random_dna(rng, 5, 4)
    with pytest.raises(ValueError):
        MemeMotifFinder(width=8).fit(seqs)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(5, 20), length=st.integers(20, 60),
       width=st.integers(3, 8), seed=st.integers(0, 1000))
def test_em_always_converges_to_valid_state(n, length, width, seed):
    rng = np.random.default_rng(seed)
    seqs = random_dna(rng, n, length)
    res = MemeMotifFinder(width=width, max_iter=25, seed=seed).fit(seqs)
    assert np.allclose(res.pwm.sum(axis=1), 1.0)
    assert ((0 <= res.positions) & (res.positions <= length - width)).all()
    assert np.isfinite(res.log_likelihood)
    assert 1 <= res.iterations <= 25


def test_sequence_helpers():
    rng = np.random.default_rng(1)
    seqs = random_dna(rng, 3, 10)
    assert seqs.shape == (3, 10)
    assert seqs.dtype == np.int8
    assert set(np.unique(seqs)) <= {0, 1, 2, 3}


def test_implant_rejects_short_sequences():
    rng = np.random.default_rng(1)
    seqs = random_dna(rng, 3, 5)
    with pytest.raises(ValueError):
        implant_motif(rng, seqs, "ACGTACGTAC")
