"""Cluster middleware running *inside* the WOW (paper §V-D).

The paper's point is that unmodified middleware — PBS, NFS, SSH, PVM —
just works over the virtual network.  These are compact but behaviourally
faithful models: synchronous windowed NFS, a single-threaded PBS head
node whose RPC chatter amplifies virtual-network RTT, PVM master/worker
dispatch whose messages ride the same overlay paths as everything else.
"""

from repro.middleware.rpc import RpcClient, RpcServer, RpcFailure
from repro.middleware.nfs import NfsClient, NfsServer
from repro.middleware.ssh import ScpServer, ScpClient
from repro.middleware.ttcp import ttcp_measure
from repro.middleware.pbs import PbsServer, PbsMom, JobSpec, JobRecord
from repro.middleware.pvm import PvmMaster, PvmWorker, PvmTask

__all__ = [
    "RpcClient", "RpcServer", "RpcFailure",
    "NfsClient", "NfsServer",
    "ScpServer", "ScpClient",
    "ttcp_measure",
    "PbsServer", "PbsMom", "JobSpec", "JobRecord",
    "PvmMaster", "PvmWorker", "PvmTask",
]
