"""The benchmark's nf_queries jobs (perfbench/workloads.py), each run once
with its own check: Weyl membership through contains_relation and
commutative membership through groebner.normal_form, against answers the
workload certifies (left combinations and points of the variety). A broken
read side fails here, not first in a benchmark run. perfbench/ is only read:
its modules are loaded from their files without writing bytecode, and the
jobs write nothing.
"""

import sys

from helpers import PERFBENCH, load_perfbench


def test_every_nf_queries_job_passes_its_check(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # workloads imports hardtier by name
    monkeypatch.setitem(sys.modules, "hardtier", load_perfbench("hardtier"))
    workloads = load_perfbench("workloads")
    jobs = workloads.nf_queries(PERFBENCH.parent, 1, tmp_path)
    # 64 Weyl queries on the four fixture fans, 32 commutative ones on them
    # and 64 on the proper saturated ideals of the frozen hard tier
    assert len(jobs) == 160
    failures = [(job.name, message) for job in jobs
                if (message := job.check(job.run())) is not None]
    assert not failures
