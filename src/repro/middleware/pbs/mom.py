"""PBS MOM: the per-worker execution daemon.

Runs one job at a time: stage input from the head's NFS export, execute on
the guest CPU (surviving suspension — Fig. 7's migrated worker), write
output back over NFS, then report completion to the server.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.middleware.nfs import NfsClient
from repro.middleware.pbs.job import JobSpec
from repro.middleware.pbs.server import PBS_MOM_PORT, PBS_SERVER_PORT
from repro.middleware.rpc import RpcClient, RpcServer
from repro.sim.process import Process, WaitSignal

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.machine import WowVm


class PbsMom:
    """Worker-side daemon on one VM."""

    def __init__(self, vm: "WowVm", server_ip: str):
        self.vm = vm
        self.sim = vm.sim
        self.server_ip = server_ip
        self.rpc_server = RpcServer(vm, PBS_MOM_PORT, self._handle,
                                    cpu_per_request=0.002)
        self.rpc = RpcClient(vm)
        self.nfs = NfsClient(vm, server_ip)
        self.jobs_run = 0
        self.current_job_id = None

    def register(self) -> None:
        """Announce this worker to the head node."""
        self.rpc.call(self.server_ip, PBS_SERVER_PORT, "register",
                      self.vm.virtual_ip)

    def _handle(self, method: str, body, src_ip: str):
        if method == "handshake":
            return {"ok": True, "round": body}
        if method == "run":
            job_id = body["job_id"]
            if job_id != self.current_job_id:
                self.current_job_id = job_id
                spec = JobSpec(**body["spec"])
                Process(self.sim, self._run_job(spec, job_id),
                        name=f"mom.{self.vm.name}.job{job_id}")
            return {"started": job_id}
        return {"error": "bad method"}

    def _run_job(self, spec: JobSpec, job_id: int):
        start = self.sim.now
        yield from self.nfs.read(spec.name + ".in", spec.input_size)
        yield from self.vm.compute(spec.work_ref)
        yield from self.nfs.write(f"{spec.name}.out.{job_id}",
                                  spec.output_size)
        self.jobs_run += 1
        done = self.rpc.call(self.server_ip, PBS_SERVER_PORT, "job_done",
                             {"job_id": job_id, "start_time": start},
                             retries=30)
        yield WaitSignal(done)
