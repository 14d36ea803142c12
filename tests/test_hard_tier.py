"""The nine timed jobs of the benchmark's hard tier (perfbench/hardtier.py):
`charvar --charts --saturate` prints each frozen report byte for byte, for
the relations as frozen and for the relations rescaled by the nonzero
rationals the benchmark's seed 1 draws (the module, hence the report, is the
same). perfbench/ is only read: its modules are loaded from their files
without writing bytecode, and the documents are written to a temporary
directory.
"""

import json
import sys

from helpers import PERFBENCH, load_perfbench

FIXTURES = PERFBENCH.parent / "tests" / "fixtures"


def test_timed_hard_tier_reports_match_their_frozen_copies(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    hardtier = load_perfbench("hardtier")
    # workloads imports hardtier by name
    monkeypatch.setitem(sys.modules, "hardtier", hardtier)
    workloads = load_perfbench("workloads")
    tier = json.loads(hardtier.DATA.read_text())["tier"]
    timed = [(k, entry) for k, entry in enumerate(tier) if not entry["baseline_timeout"]]
    assert len(timed) == 9
    failures = []
    for k, entry in timed:
        doc = tmp_path / f"tier{k}.mod"
        doc.write_text(hardtier.tier_document(entry))
        fan = str(FIXTURES / f"{entry['fan']}.fan")
        if hardtier.run_charvar(fan, str(doc)) != entry["report"]:
            failures.append((k, "frozen relations"))
    seeded = tmp_path / "seed1"
    seeded.mkdir()
    rescaled = [job for job in workloads.charvar_hard(PERFBENCH.parent, 1, seeded)
                if not job.baseline_timeout]
    assert len(rescaled) == 9
    failures += [(job.name, message) for job in rescaled
                 if (message := job.check(job.run())) is not None]
    assert not failures
