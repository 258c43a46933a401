"""fastDNAml: maximum-likelihood phylogenetics (paper refs [41], [48]).

:class:`FastDnaMl` is a real miniature of the algorithm: Jukes-Cantor (JC69)
site likelihoods computed by Felsenstein's pruning algorithm over unrooted
binary trees, driving the stepwise-addition search fastDNAml parallelizes —
taxa are added one at a time, and adding the *k*-th taxon evaluates one
candidate tree per branch of the current (2k-5)-branch topology.  That
"2i-5 trees per round, rounds synchronize on the best tree" structure is
exactly the master/worker task stream of Table III, which
:class:`FastDnamlWorkload` reproduces at the paper's 50-taxa scale via the
calibrated cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.middleware.pvm import PvmTask


# ---------------------------------------------------------------------------
# real algorithm: JC69 likelihood + stepwise addition
# ---------------------------------------------------------------------------

def jc69_transition(branch_length: float) -> np.ndarray:
    """JC69 transition probability matrix for one branch."""
    if branch_length < 0:
        raise ValueError("negative branch length")
    e = np.exp(-4.0 * branch_length / 3.0)
    same = 0.25 + 0.75 * e
    diff = 0.25 - 0.25 * e
    p = np.full((4, 4), diff)
    np.fill_diagonal(p, same)
    return p


@dataclass
class _TreeNode:
    """Node of a rooted view of the (conceptually unrooted) tree."""

    taxon: Optional[int] = None  # leaf: index into the alignment
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None
    branch: float = 0.1  # length of the edge to the parent

    @property
    def is_leaf(self) -> bool:
        return self.taxon is not None

    def copy(self) -> "_TreeNode":
        if self.is_leaf:
            return _TreeNode(taxon=self.taxon, branch=self.branch)
        return _TreeNode(left=self.left.copy(), right=self.right.copy(),
                         branch=self.branch)

    def edges(self) -> list["_TreeNode"]:
        """All nodes (≙ the edge to their parent) in this subtree."""
        out = [self]
        if not self.is_leaf:
            out += self.left.edges() + self.right.edges()
        return out

    def leaf_count(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.leaf_count() + self.right.leaf_count()


def _conditional(node: _TreeNode, alignment: np.ndarray) -> np.ndarray:
    """Felsenstein pruning: (sites, 4) conditional likelihoods at ``node``
    (before crossing its parent edge)."""
    if node.is_leaf:
        sites = alignment[node.taxon]
        cond = np.zeros((sites.size, 4))
        cond[np.arange(sites.size), sites] = 1.0
        return cond
    left = _conditional(node.left, alignment) @ jc69_transition(
        node.left.branch)
    right = _conditional(node.right, alignment) @ jc69_transition(
        node.right.branch)
    return left * right


def jc69_likelihood(root: _TreeNode, alignment: np.ndarray) -> float:
    """Log-likelihood of the alignment under JC69 on the given tree."""
    cond = _conditional(root, alignment)
    site_lik = cond @ np.full(4, 0.25)
    site_lik = np.maximum(site_lik, 1e-300)
    return float(np.log(site_lik).sum())


class FastDnaMl:
    """Stepwise-addition ML tree search (the sequential algorithm)."""

    def __init__(self, alignment: np.ndarray, branch: float = 0.08):
        alignment = np.asarray(alignment, dtype=np.int8)
        if alignment.shape[0] < 3:
            raise ValueError("need at least 3 taxa")
        self.alignment = alignment
        self.branch = branch
        self.trees_evaluated = 0
        self.round_sizes: list[int] = []

    def _insert_candidates(self, tree: _TreeNode,
                           taxon: int) -> list[_TreeNode]:
        """One candidate per edge: the new leaf grafted onto that edge."""
        candidates = []
        edges = tree.edges()
        for i in range(len(edges)):
            candidate = tree.copy()
            cedges = candidate.edges()
            target = cedges[i]
            grafted = _TreeNode(left=_TreeNode(taxon=taxon,
                                               branch=self.branch),
                                right=None, branch=target.branch)
            # splice: replace target with (new internal node: taxon, target)
            replacement = _TreeNode(
                left=grafted.left,
                right=_TreeNode(taxon=target.taxon, left=target.left,
                                right=target.right, branch=self.branch),
                branch=target.branch)
            target.taxon = None
            target.left = replacement.left
            target.right = replacement.right
            candidates.append(candidate)
        return candidates

    def search(self) -> tuple[_TreeNode, float]:
        """Add taxa 3..n one at a time, keeping the best insertion.

        Evaluating the candidate set of round *k* is the parallel unit of
        fastDNAml-PVM; ``round_sizes`` records the 2k-5-ish fan-outs.
        """
        aln = self.alignment
        tree = _TreeNode(
            left=_TreeNode(taxon=0, branch=self.branch),
            right=_TreeNode(left=_TreeNode(taxon=1, branch=self.branch),
                            right=_TreeNode(taxon=2, branch=self.branch),
                            branch=self.branch))
        for taxon in range(3, aln.shape[0]):
            candidates = self._insert_candidates(tree, taxon)
            self.round_sizes.append(len(candidates))
            scores = [jc69_likelihood(c, aln) for c in candidates]
            self.trees_evaluated += len(candidates)
            tree = candidates[int(np.argmax(scores))]
        return tree, jc69_likelihood(tree, aln)


# ---------------------------------------------------------------------------
# cost model at the paper's scale
# ---------------------------------------------------------------------------

class FastDnamlWorkload:
    """Table III workload: rounds of PVM tasks for the 50-taxa dataset.

    Round *r* (adding the r-th taxon) evaluates ``2r-5`` candidate trees;
    tree-evaluation work grows linearly with the number of taxa placed so
    far.  Calibrated so the sequential sum is ≈22272 ref-seconds (node002's
    measured sequential runtime).
    """

    def __init__(self, calib, rng: np.random.Generator):
        self.calib = calib
        self.rng = rng

    def task_work(self, round_index: int) -> float:
        c = self.calib
        scale = round_index / c.fastdnaml_taxa
        noise = float(self.rng.lognormal(0.0, c.fastdnaml_work_sigma))
        return c.fastdnaml_tree_work * scale * noise

    def rounds(self) -> list[list[PvmTask]]:
        c = self.calib
        out = []
        for r in range(4, c.fastdnaml_taxa + 1):
            tasks = [PvmTask(work_ref=self.task_work(r),
                             send_size=c.pvm_task_size,
                             recv_size=c.pvm_result_size)
                     for _ in range(2 * r - 5)]
            out.append(tasks)
        return out
