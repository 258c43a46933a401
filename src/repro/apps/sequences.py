"""Synthetic DNA sequence generation for the application benchmarks."""

from __future__ import annotations

import numpy as np

#: nucleotide alphabet used throughout (indices 0..3)
ALPHABET = "ACGT"


def random_dna(rng: np.random.Generator, n_sequences: int,
               length: int) -> np.ndarray:
    """Uniform random DNA as an (n, length) int8 array of indices 0..3."""
    return rng.integers(0, 4, size=(n_sequences, length), dtype=np.int8)


def implant_motif(rng: np.random.Generator, sequences: np.ndarray,
                  motif: str, mutation_rate: float = 0.1) -> np.ndarray:
    """Implant one (possibly mutated) occurrence of ``motif`` at a random
    position in every sequence.  Returns the implant positions."""
    motif_idx = np.array([ALPHABET.index(c) for c in motif], dtype=np.int8)
    w = len(motif_idx)
    n, length = sequences.shape
    if length < w:
        raise ValueError("sequences shorter than the motif")
    positions = rng.integers(0, length - w + 1, size=n)
    for i, pos in enumerate(positions):
        site = motif_idx.copy()
        mutate = rng.random(w) < mutation_rate
        site[mutate] = rng.integers(0, 4, size=int(mutate.sum()),
                                    dtype=np.int8)
        sequences[i, pos:pos + w] = site
    return positions

