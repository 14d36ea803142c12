"""The benchmark's local_sweep jobs (perfbench/workloads.py), each run once
with its own check: the `local` reports against their closed forms and
factored_local_action_holds against True. A broken oracle fails here, not
first in a benchmark run. perfbench/ is only read: its modules are loaded
from their files without writing bytecode, and the jobs write nothing.
"""

import sys

from helpers import PERFBENCH, load_perfbench


def test_every_local_sweep_job_passes_its_check(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # workloads imports hardtier by name
    monkeypatch.setitem(sys.modules, "hardtier", load_perfbench("hardtier"))
    workloads = load_perfbench("workloads")
    jobs = workloads.local_sweep(PERFBENCH.parent, 1, tmp_path)
    assert len(jobs) == 36
    failures = [(job.name, message) for job in jobs
                if (message := job.check(job.run())) is not None]
    assert not failures
