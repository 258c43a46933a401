"""PBS head node (pbs_server + scheduler).

The scheduler is single-threaded: it dispatches one job at a time, and each
dispatch spends ``pbs_dispatch_rpc_rounds`` *sequential* RPC round trips to
the target MOM (authentication, stage-in negotiation, start handshake,
status polls) plus head CPU.  Over 146 ms no-shortcut paths this chain is
what throttles Fig. 8's throughput to ~22 jobs/min; over single-hop
shortcut paths the same chain costs ~1 s and throughput triples.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.middleware.pbs.job import JobRecord, JobSpec
from repro.middleware.rpc import RpcClient, RpcFailure, RpcServer
from repro.sim.process import Process, Signal, Timeout, WaitSignal

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.machine import WowVm

PBS_SERVER_PORT = 15001
PBS_MOM_PORT = 15002


class PbsServer:
    """Head-node queue + scheduler + completion tracking."""

    def __init__(self, vm: "WowVm"):
        self.vm = vm
        self.sim = vm.sim
        self.calib = vm.deployment.calib
        self.queue: deque[JobRecord] = deque()
        self.records: list[JobRecord] = []
        self.free_workers: deque[str] = deque()  # worker virtual IPs
        self.busy: dict[str, JobRecord] = {}
        self.rpc_server = RpcServer(vm, PBS_SERVER_PORT, self._handle,
                                    cpu_per_request=0.25 / 10,
                                    serialize=True)
        self.rpc = RpcClient(vm)
        self._wake = Signal(self.sim, "pbs.wake")
        self.completed = 0
        self.failed = 0
        self.all_done = Signal(self.sim, "pbs.all_done", latch=False)
        self._expected: Optional[int] = None
        Process(self.sim, self._scheduler(), name="pbs.scheduler")

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def register_worker(self, worker_ip: str) -> None:
        """Add a MOM to the free pool (local configuration path)."""
        self.free_workers.append(worker_ip)
        self._wake.fire()

    def qsub(self, spec: JobSpec) -> JobRecord:
        """Submit one job; returns its accounting record."""
        record = JobRecord(spec, self.sim.now)
        self.queue.append(record)
        self.records.append(record)
        self._wake.fire()
        return record

    def expect(self, total: int) -> Signal:
        """``all_done`` fires when ``total`` jobs have finished."""
        self._expected = total
        return self.all_done

    def throughput_jobs_per_minute(self) -> float:
        """Completed jobs per minute, first submit to last completion."""
        done = [r for r in self.records if r.end_time is not None]
        if len(done) < 2:
            return 0.0
        t0 = min(r.submit_time for r in done)
        t1 = max(r.end_time for r in done)
        return 60.0 * len(done) / (t1 - t0) if t1 > t0 else 0.0

    # ------------------------------------------------------------------
    # scheduler (single thread)
    # ------------------------------------------------------------------
    def _scheduler(self):
        calib = self.calib
        dispatch_cpu = calib.pbs_head_cpu_per_job * 0.65
        while True:
            if not self.queue or not self.free_workers:
                yield WaitSignal(self._wake)
                continue
            record = self.queue.popleft()
            worker_ip = self.free_workers.popleft()
            record.dispatch_time = self.sim.now
            record.node_name = worker_ip
            # head CPU: queue run, accounting, stage-in setup
            yield Timeout(self.vm.host.compute_time(dispatch_cpu))
            # sequential RPC chatter with the MOM
            ok = True
            for round_no in range(calib.pbs_dispatch_rpc_rounds):
                resp = yield WaitSignal(self.rpc.call(
                    worker_ip, PBS_MOM_PORT, "handshake", round_no))
                if isinstance(resp, RpcFailure):
                    ok = False
                    break
            if ok:
                resp = yield WaitSignal(self.rpc.call(
                    worker_ip, PBS_MOM_PORT, "run",
                    {"job_id": record.job_id, "spec": vars(record.spec),
                     "server_ip": self.vm.virtual_ip}))
                ok = not isinstance(resp, RpcFailure)
            if not ok:
                record.status = "failed"
                self.failed += 1
                self._free_worker(worker_ip)
                self._check_done()
                continue
            record.status = "running"
            self.busy[worker_ip] = record

    # ------------------------------------------------------------------
    # MOM-facing RPC handlers
    # ------------------------------------------------------------------
    def _free_worker(self, worker_ip: str) -> None:
        """Return a worker to the free list exactly once (a lost 'run' ack
        can otherwise surface the same worker twice)."""
        if worker_ip not in self.free_workers:
            self.free_workers.append(worker_ip)

    def _handle(self, method: str, body, src_ip: str):
        if method == "job_done":
            record = self.busy.pop(src_ip, None)
            if record is not None and record.status == "running":
                record.status = "done"
                record.start_time = body["start_time"]
                record.end_time = self.sim.now
                self.completed += 1
            self._free_worker(src_ip)
            self._wake.fire()
            self._check_done()
            return {"ok": True}
        if method == "register":
            if src_ip not in self.busy:
                self._free_worker(src_ip)
                self._wake.fire()
            return {"ok": True}
        return {"error": "bad method"}

    def _check_done(self) -> None:
        if self._expected is not None and \
                self.completed + self.failed >= self._expected:
            self.all_done.fire(self.completed)
