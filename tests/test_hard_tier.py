"""The nine timed jobs of the benchmark's hard tier (perfbench/hardtier.py):
`charvar --charts --saturate` prints each frozen report byte for byte, for
the relations as frozen and for the relations rescaled by the nonzero
rationals the benchmark's seed 1 draws (the module, hence the report, is the
same). Every frozen report and every `charvar` golden passes the tier's
independent check (`hardtier.invariant_problems`: sympy's reduced bases, Z
in the radical of J, and the flags against the dimensions). perfbench/ is
only read: its modules are loaded from their files without writing
bytecode, and the documents are written to a temporary directory.
"""

import json
import sys

import pytest

from helpers import PERFBENCH, load_perfbench
from toric_dmod.cli import load_fan
from toric_dmod.fan_cox import grading_data

FIXTURES = PERFBENCH.parent / "tests" / "fixtures"
GOLDEN = PERFBENCH.parent / "tests" / "golden"


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


def test_frozen_reports_and_charvar_goldens_pass_the_independent_check(monkeypatch):
    pytest.importorskip("sympy")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    hardtier = load_perfbench("hardtier")
    tier = json.loads(hardtier.DATA.read_text())["tier"]
    reports = [(entry["fan"], entry["report"]) for entry in tier if entry["report"] is not None]
    assert len(reports) == 10
    reports += [(fan, (GOLDEN / f"{fan}_charvar_dl0.txt").read_text())
                for fan in ("p1", "p2", "p1p1", "hirzebruch1")]
    failures = []
    for fan, report in reports:
        gd = grading_data(load_fan(str(FIXTURES / f"{fan}.fan")))
        problems, checked = hardtier.invariant_problems(report, gd.d, gd.n, gd.dual_basis)
        if problems or not checked:
            failures.append((fan, problems, checked))
    assert not failures
