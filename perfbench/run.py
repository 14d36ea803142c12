"""Benchmark of toric-dmod: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. Each workload runs in its own process and
workloads run one after another. Set-up is measured in the measured process
and eight set-up-only ones (four before it, four after); ``setup_s`` is the
median of the nine. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones. Every output is checked against its reference; the last
stdout line is the JSON result. Run records (environment, metrics, count fingerprints) are appended
to ``.perfbench_out/runs.jsonl``; spans of traced runs go to
``.perfbench_out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.BUILDERS)
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "job_s.p50": "s",
                    "job_s.tail": "s", "peak_rss_mb": "MB"}

# per-layer metrics reported by a traced run: the named function stats, the
# self time of every layer, the tracing overhead and the failure ratio
FUNCTION_STATS = [
    ("groebner.weyl_buchberger", ("calls", "self_s", "out_len", "coeff_bits")),
    ("groebner.groebner_basis", ("calls", "self_s", "out_len", "coeff_bits")),
    ("groebner.eliminate_front", ("calls",)),
    ("groebner.saturation_by_monomials", ("calls", "s", "out_len", "coeff_bits")),
    ("groebner.intersect_ideals", ("calls",)),
    ("groebner.krull_dimension", ("calls", "s")),
    ("groebner.toric_ideal", ("s",)),
    ("groebner.normal_form", ("calls", "self_s")),
    ("groebner.weyl_normal_form", ("calls", "self_s")),
    ("weyl.tp_eval", ("calls", "self_s")),
    ("weyl.tp_mul", ("calls", "self_s")),
    ("weyl.act", ("calls", "self_s")),
    ("weyl.parse_weyl", ("calls", "self_s")),
    ("dmod.i_p_matches_y_p", ("self_s",)),
    ("dmod.y_p_points", ("self_s",)),
    ("dmod.j_p_oracle", ("self_s",)),
    ("dmod.h_p", ("self_s",)),
    ("dmod.local_op_image", ("s",)),
    ("dmod.factored_local_action_holds", ("s",)),
    ("dmod.check_theta_condition", ("calls", "s")),
    ("charvar.characteristic_ideal", ("s", "out_len", "coeff_bits")),
    ("charvar.dimension_report", ("s",)),
    ("charvar.chart_ideal_from_saturated", ("s",)),
    ("lattice.smith_normal_form", ("calls", "self_s")),
    ("fan_cox.grading_data", ("self_s",)),
    ("fan_cox.validate_smooth_fan", ("self_s",)),
    ("parsing.parse_terms", ("calls", "self_s")),
    ("cli.load_fan", ("self_s",)),
    ("cli.load_module", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
]
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "errors": "count",
              "out_len": "count", "coeff_bits": "bits"}


def per_layer_units() -> dict:
    units = {}
    for qual, stats in FUNCTION_STATS:
        for stat in stats:
            units[f"{qual}.{stat}"] = STAT_UNITS[stat]
    for layer in tracing.LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({"trace.pass_s": "s", "trace.untraced_pass_s": "s",
                  "trace.overhead_s": "s", "trace.count_mismatches": "count",
                  "failed_frac": "ratio"})
    return units


def tail(values):
    """The highest nearest-rank percentile of p95, p90, p75 with at least ten
    samples beyond it, as (value, percentile, samples beyond); None when
    there are too few samples for any. Every workload but charvar_hard
    collects worker.TAIL_SAMPLES job times, so it gets p95 on every run; p99
    would need 1000, which only some runs of the fastest workloads reach."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (95, 90, 75):
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            return ordered[rank - 1], p, n - rank
    return None


def source_digest() -> str:
    """Digest of the program and of the benchmark: either decides which calls
    a job makes, so a stored count fingerprint holds only for both."""
    h = hashlib.sha256()
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")) + [
        HERE / "data" / "hard_tier.json"]
    for path in paths:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def spawn_worker(args, scratch, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(scratch),
           "--spawned", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def count_fingerprint(stats: dict) -> dict:
    return {f"{qual}.{stat}": st[k] for qual, st in sorted(stats.items())
            for k, stat in enumerate(tracing.STATS) if stat not in ("s", "self_s")}


def check_counts(workload, seed, fingerprints) -> int:
    """Count metrics must repeat exactly for the same code and seed: within
    this run (pass to pass) and against earlier runs recorded in OUT."""
    mismatches = 0
    first = fingerprints[0]
    for other in fingerprints[1:]:
        mismatches += sum(1 for k in set(first) | set(other) if first.get(k) != other.get(k))
    digest = source_digest()
    store = OUT / "counts" / f"{workload}-{seed}-{digest}.json"
    if store.exists():
        earlier = json.loads(store.read_text())
        mismatches += sum(1 for k in set(first) | set(earlier)
                          if first.get(k) != earlier.get(k))
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(first, sort_keys=True))
    return mismatches


def run_one(args) -> dict:
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}-{args.workload}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "loadavg_start": os.getloadavg(), "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "why": workloads.WHY[args.workload],
           "one_workload_per_process": True, "workloads_sequential": True}
    try:
        # half of the set-up probes before the measured process, half after,
        # so that they do not all fall into one slow stretch of the machine
        setups = [spawn_worker(args, scratch, setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROBES // 2)]
        res = spawn_worker(args, scratch)
        setups += [res["setup_s"]] + [spawn_worker(args, scratch, setup_only=True)["setup_s"]
                                      for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        spans_src = res.get("spans_file")
        if spans_src:
            shutil.move(spans_src, OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    attempted = res["attempted"]
    failed = res["timeouts"] + res["raised"] + res["wrong"]
    # a job that met the deadline when the tier was frozen and passes it now
    # has no time to report: the run fails instead
    late = sorted(set(res["timeout_jobs"]) - set(res["baseline_timeout_jobs"]))
    correct = res["raised"] == 0 and res["wrong"] == 0 and not late
    info = {"setup_s.samples": len(setups), "timeouts": res["timeouts"],
            "timeout_jobs": res["timeout_jobs"],
            "baseline_timeout_jobs": res["baseline_timeout_jobs"],
            "baseline_finished_s": res["baseline_finished_s"],
            "failed_frac.base": attempted,
            "jobs_per_pass": len(res["job_names"]), "passes": res["passes"]}
    # a job's time is its median over the passes that timed it (baseline
    # timeouts are never timed); a pass is the sum of those, and the median
    # job is their median (a few distinct jobs would make the median of all
    # samples jump between their clusters)
    timed = [(name, times) for name, times in zip(res["job_names"], res["job_s"]) if times]
    per_job = [median(times) for _, times in timed]
    if args.trace == 0:
        job_s = [t for _, times in timed for t in times]
        info["per_job_s"] = {name: median(times) for name, times in timed}
        # with too few samples for a tail the median job stands in for it
        value, pct, beyond = tail(job_s) or (median(per_job), 50, None)
        info.update({"raw_pass_s": median(res["raw_pass_s"]),
                     "job_s.tail.percentile": pct, "job_s.tail.beyond": beyond,
                     "job_s.samples": len(job_s)})
        values = {"setup_s": median(setups), "pass_s": sum(per_job),
                  "job_s.p50": median(per_job), "job_s.tail": value,
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END_UNITS
    else:
        units = per_layer_units()
        per_pass = res["traced_stats"]
        values = {}
        for qual, stats in FUNCTION_STATS:
            for stat in stats:
                k = tracing.STATS.index(stat)
                samples = [p.get(qual, [0] * len(tracing.STATS))[k] for p in per_pass]
                # counts repeat exactly (checked below); times take the median
                values[f"{qual}.{stat}"] = median(samples) if STAT_UNITS[stat] == "s" \
                    else samples[0]
        layer_self = [tracing.layer_self_seconds(p) for p in per_pass]
        for layer in tracing.LAYERS:
            values[f"{layer}.self_s"] = median(ls[layer] for ls in layer_self)
        traced, untraced = median(res["traced_pass_s"]), sum(per_job)
        fingerprints = [count_fingerprint(p) for p in per_pass]
        mismatches = check_counts(args.workload, args.seed, fingerprints)
        values.update({"trace.pass_s": traced, "trace.untraced_pass_s": untraced,
                       "trace.overhead_s": traced - untraced,
                       "trace.count_mismatches": mismatches,
                       "failed_frac": failed / attempted})
        info["spans_dropped"] = res["spans_dropped"]
        info["count_fingerprint"] = fingerprints[0]
        if mismatches:
            correct = False
            print(f"COUNT MISMATCH: {mismatches} count metrics differ between runs "
                  f"of the same code and seed", file=sys.stderr)
    for msg in res["messages"]:
        print(f"FAILED {msg}", file=sys.stderr)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    record = {"env": env, "info": info, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def print_metrics(record, prefix=""):
    for name, m in record["metrics"].items():
        print(f"{prefix}{name}\t{m['value']:.6g}\t{m['unit']}")
    info = record["info"]
    print(f"{prefix}# env {json.dumps(record['env'])}")
    shown = {k: v for k, v in info.items() if k not in ("count_fingerprint", "per_job_s")}
    print(f"{prefix}# info {json.dumps(shown)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/toric_dmod/cli.py", "tests/golden", "tests/fixtures")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a toric-dmod checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        record = run_one(args)
        print_metrics(record)
        print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed",
                                                  "metrics")}))
        return 0
    # every workload, untraced then traced, one after another
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            record = run_one(argparse.Namespace(workload=name, seed=args.seed,
                                                seconds=args.seconds, trace=trace))
            print_metrics(record, prefix=f"{name}/")
            summary["correct"] &= record["correct"]
            summary["attempted"] += record["attempted"]
            summary["failed"] += record["failed"]
            for k, m in record["metrics"].items():
                summary["metrics"][f"{name}/{k}"] = m
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
