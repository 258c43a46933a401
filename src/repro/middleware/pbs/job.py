"""PBS job descriptions and accounting records."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

_job_ids = itertools.count(1)


@dataclass(frozen=True)
class JobSpec:
    """What a job costs: compute work (reference-CPU seconds) plus the NFS
    input/output it stages through the head node."""

    name: str
    work_ref: float
    input_size: float
    output_size: float


@dataclass
class JobRecord:
    """Lifecycle timestamps of one queued job."""

    spec: JobSpec
    submit_time: float
    job_id: int = field(default_factory=lambda: next(_job_ids))
    dispatch_time: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    node_name: str = ""
    status: str = "queued"  # queued | running | done | failed

    @property
    def wall_time(self) -> Optional[float]:
        """Execution wall-clock (start to end) — Fig. 8's histogram metric."""
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time
