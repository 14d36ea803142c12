"""One workload in one process: set-up, the timed closed loop, the checks.

Run by ``run.py``; prints one JSON object as its last stdout line. A closed
loop with one caller: each job starts only after the previous one finished.
A pass runs the job set; passes repeat while another one fits in
``--seconds`` (at least ``workloads.MIN_PASSES``, and until TAIL_SAMPLES job
times are in if that ends within TAIL_WINDOW_S). Baseline-timeout jobs run in the
first pass only and are not timed; a job that passed its deadline is not run
again. With ``--trace 1`` the passes alternate traced and untraced, traced
first and at least one of each, so the tracing overhead is measured in the
same process; the first pass also pays the interpreter's warm-up, which
biases the overhead up when there are only two passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from statistics import median

import tracer as tracing
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

# The machine's speed changes by up to half for seconds at a time (other
# tenants), in CPU time as much as in wall time. Job and set-up times and the
# deadline are normalised to the speed at which one iteration of _work takes
# REF_ITERATION_S. The program's time moves by less than _work's when the
# speed changes: over ten runs per workload, log raw pass time against log
# probe time had slopes of 0.84 (charvar_hard, the largest heap) to 0.98, so
# the speed ratio is raised to SPEED_EXPONENT. A job is stopped at
# DEADLINE_CAP times the deadline in raw wall time whatever the speed.
REF_ITERATION_S = 3.75e-6
SPEED_EXPONENT = 0.9
SAMPLE_EVERY_S = 0.1
SAMPLE_ITERATIONS = 500
DEADLINE_CAP = 2.0
# job times a run collects before it may stop early: enough for a p95 with
# ten samples beyond it (see run.tail); not past TAIL_WINDOW_S of passes,
# which charvar_hard's two passes always exceed
TAIL_SAMPLES = 200
TAIL_WINDOW_S = 30.0


def _work(iterations: int) -> float:
    """Seconds for a fixed piece of stdlib work like the program's own:
    Fraction arithmetic, dict and tuple churn. The cyclic GC is off while it
    runs, so that its cost does not depend on the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, iterations + 1):
            acc += Fraction(i % 7 + 1, i % 5 + 1)
            table[(i, i % 13)] = acc
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(iteration_s: float) -> float:
    """Factor from raw seconds to seconds at the reference speed, given the
    time one iteration of _work takes now."""
    return (REF_ITERATION_S / iteration_s) ** SPEED_EXPONENT


def calibrate() -> float:
    """Seconds one iteration of _work takes now; the median of three runs."""
    return sorted(_work(4000) for _ in range(3))[1] / 4000


class SpeedProbe:
    """Samples the machine's speed while jobs run.

    Every SAMPLE_EVERY_S of CPU time a SIGPROF handler times SAMPLE_ITERATIONS
    of _work (about 2 ms). A job's time, less the time spent in the handler,
    is scaled by speed_factor of the median iteration time of the samples
    taken during the job, or of the last four when it was too short for any.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None):
        took = _work(SAMPLE_ITERATIONS)
        self.samples.append(took / SAMPLE_ITERATIONS)
        self.spent += took

    def start(self):
        for _ in range(4):
            self._sample()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def mark(self):
        return len(self.samples), self.spent

    def scale(self, seconds: float, mark) -> float:
        count, spent = mark
        during = self.samples[count:] or self.samples[-4:]
        return (seconds - (self.spent - spent)) * speed_factor(median(during))


class Deadline:
    """The per-job deadline in normalised seconds, by SIGALRM: when the raw
    deadline rings, the job's normalised time so far decides whether it is
    stopped or the alarm is set again for the estimated rest."""

    def __init__(self, seconds, probe):
        self.seconds, self.probe = seconds, probe
        self.start = self.mark = None
        signal.signal(signal.SIGALRM, self._ring)

    def arm(self):
        self.mark, self.start = self.probe.mark(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _ring(self, signum, frame):
        raw = time.perf_counter() - self.start
        done = max(self.probe.scale(raw, self.mark), 1e-9)
        rest = min((self.seconds - done) * raw / done, DEADLINE_CAP * self.seconds - raw)
        if rest < 0.01:
            raise tracing.JobTimeout()
        signal.setitimer(signal.ITIMER_REAL, rest)


def run_pass(jobs, deadline, probe, tracer=None, pass_no=0):
    """Run every job once. Returns (normalised seconds per job, raw seconds
    per job, statuses, messages, per-layer stats of the completed timed
    jobs). Statistics of baseline-timeout jobs are left out, so that counts
    do not depend on whether one finished."""
    times, raw, statuses, messages, stats = [], [], [], [], {}
    for k, job in enumerate(jobs):
        frame = tracer.begin_job(f"{pass_no}.{k}", job.name) if tracer else None
        output, status = None, "ok"
        mark = probe.mark()
        start = time.perf_counter()
        try:
            deadline.arm()
            try:
                output = job.run()
            finally:
                deadline.disarm()
        except tracing.JobTimeout:
            status = "timeout"
        except Exception:
            status = "raised"
            messages.append(f"{job.name}: {traceback.format_exc(limit=3)}")
        elapsed = time.perf_counter() - start
        times.append(probe.scale(elapsed, mark))
        raw.append(elapsed)
        job_stats = tracer.end_job(frame, status) if tracer else {}
        if status == "timeout":
            # free what the interrupted job left before the next one runs
            gc.collect()
            if not job.baseline_timeout:
                messages.append(f"{job.name}: passed the {deadline.seconds:g} s deadline, "
                                f"which it met when the tier was frozen")
        elif status == "ok":
            wrong = job.check(output)
            if wrong:
                status = "wrong"
                messages.append(f"{job.name}: {wrong}")
            if not job.baseline_timeout:
                tracing.merge_stats(stats, job_stats)
        statuses.append(status)
    return times, raw, statuses, messages, stats


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.time() when run.py spawned this process")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import toric_dmod
    if pathlib.Path(toric_dmod.__file__).resolve().parent != ROOT / "src" / "toric_dmod":
        sys.exit(f"imported toric_dmod from {toric_dmod.__file__}, not from the checkout")
    scratch = pathlib.Path(args.scratch)
    jobs = workloads.BUILDERS[args.workload](ROOT, args.seed, scratch)
    setup_s = (time.time() - args.spawned) * speed_factor(calibrate())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    min_passes = 2 if args.trace else workloads.MIN_PASSES.get(args.workload, 1)
    tracer = tracing.Tracer() if args.trace else None
    active = list(range(len(jobs)))
    job_times = [[] for _ in jobs]          # normalised, untraced passes
    raw_pass_s, traced_pass_s, traced_stats = [], [], []
    statuses, messages, timeout_jobs = [], [], set()
    baseline_finished = {}
    probe = SpeedProbe()
    deadline = Deadline(workloads.DEADLINE_S, probe)
    probe.start()
    started = time.perf_counter()
    passes = samples = 0
    while active:
        traced = bool(tracer) and passes % 2 == 0
        if traced:
            tracer.install()
        try:
            times, raw, st, msgs, stats = run_pass([jobs[k] for k in active], deadline,
                                                   probe, tracer if traced else None,
                                                   passes)
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
        statuses += st
        messages += msgs
        timeout_jobs |= {jobs[k].name for k, s in zip(active, st) if s == "timeout"}
        baseline_finished.update({jobs[k].name: r for k, s, r in zip(active, st, raw)
                                  if s != "timeout" and jobs[k].baseline_timeout})
        timed = [(k, t, r) for k, s, t, r in zip(active, st, times, raw)
                 if s != "timeout" and not jobs[k].baseline_timeout]
        if traced:
            traced_pass_s.append(sum(t for _, t, _ in timed))
            traced_stats.append(stats)
        else:
            raw_pass_s.append(sum(r for _, _, r in timed))
            for k, t, _ in timed:
                job_times[k].append(t)
            samples += len(timed)
        # baseline-timeout jobs run once; a job that passed its deadline
        # would only spend it again
        active = [k for k, _, _ in timed]
        used = time.perf_counter() - started
        ends = used + used / passes         # when another pass would end
        if (passes >= min_passes and ends > args.seconds
                and (samples >= TAIL_SAMPLES or ends > TAIL_WINDOW_S)):
            break
    probe.stop()

    result = {
        "setup_s": setup_s,
        "job_s": job_times,
        "job_names": [job.name for job in jobs],
        "raw_pass_s": raw_pass_s,
        "traced_pass_s": traced_pass_s,
        "passes": passes,
        "attempted": len(statuses),
        "timeouts": statuses.count("timeout"),
        "raised": statuses.count("raised"),
        "wrong": statuses.count("wrong"),
        "timeout_jobs": sorted(timeout_jobs),
        "baseline_timeout_jobs": sorted(job.name for job in jobs if job.baseline_timeout),
        "baseline_finished_s": baseline_finished,
        "messages": messages[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced_stats": traced_stats,
    }
    if tracer:
        spans = scratch / "spans.jsonl"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans)
        result["spans_dropped"] = tracer.spans_dropped
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
