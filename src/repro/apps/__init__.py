"""The paper's two life-science benchmark applications.

Each module provides (a) a *real, runnable* miniature of the algorithm —
an EM motif finder for MEME [11], a Felsenstein-pruning maximum-likelihood
stepwise-addition search for fastDNAml [41,48] — used by the examples and
tested directly, and (b) the calibrated cost model the simulation uses to
generate Fig. 8 / Table III workloads at the paper's scale.
"""

from repro._lazy import lazy_exports

#: public name -> the submodule that defines it (imported on first use, so
#: a daemon, ``wowctl`` or ``swarm`` loads neither the miniatures nor numpy)
_ORIGIN = {
    "random_dna": "sequences",
    "implant_motif": "sequences",
    "MemeMotifFinder": "meme",
    "MemeWorkload": "meme",
    "FastDnaMl": "fastdnaml",
    "FastDnamlWorkload": "fastdnaml",
    "jc69_likelihood": "fastdnaml",
}

__all__ = list(_ORIGIN)
__getattr__ = lazy_exports(__name__, _ORIGIN)
