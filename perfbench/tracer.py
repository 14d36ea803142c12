"""Span tracing by wrapping the package's public functions from outside.

Each layer is a module of ``toric_dmod``. The tracer replaces a chosen set of
module-level functions with timing wrappers in every module namespace that
binds them (``dmod`` and ``charvar`` import from ``groebner`` by name, ``cli``
imports from ``fan_cox`` and ``weyl``), so internal calls are seen too. The
program itself is not modified; ``uninstall`` puts the originals back.

A span is (id, parent id, job id, name, start, end, error). Spans are kept in
memory, up to a cap, and written out when the run ends. Statistics are
accumulated per job and merged into the pass totals only for jobs that
completed, so counts do not depend on where a deadline interrupted a job.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

LAYERS = ("lattice", "fan_cox", "parsing", "weyl", "groebner", "dmod",
          "charvar", "cli")

# layer -> functions to wrap; the issue-named ones plus enough entry points
# that every layer has a self time
TRACED = {
    "lattice": ("smith_normal_form", "cokernel", "dual_lattice_basis"),
    "fan_cox": ("grading_data", "validate_smooth_fan", "irrelevant_ideal",
                "euler_operators"),
    "parsing": ("parse_terms", "format_terms"),
    "weyl": ("tp_eval", "tp_mul", "act", "parse_weyl", "parse_theta_poly",
             "format_weyl", "tp_format", "tau"),
    "groebner": ("weyl_buchberger", "groebner_basis", "eliminate_front",
                 "saturation", "saturation_by_monomials", "intersect_ideals",
                 "krull_dimension", "toric_ideal", "normal_form",
                 "weyl_normal_form", "initial_forms",
                 "annihilator_of_graded_quotient", "radical_membership",
                 "format_poly"),
    "dmod": ("i_p_matches_y_p", "y_p_points", "j_p_oracle", "h_p", "i_p_ideal",
             "local_op_image", "factored_local_action_holds",
             "check_theta_condition", "left_right_swap", "d_module_left",
             "rho"),
    "charvar": ("characteristic_ideal", "dimension_report",
                "chart_ideal_from_saturated"),
    "cli": ("main", "load_fan", "load_module", "read_document"),
}

# functions that return a basis: their out_len and coeff_bits are recorded
BASIS_FUNCS = {"groebner.weyl_buchberger", "groebner.groebner_basis",
               "groebner.eliminate_front", "groebner.saturation",
               "groebner.saturation_by_monomials", "groebner.intersect_ideals",
               "groebner.toric_ideal", "charvar.characteristic_ideal"}

STATS = ("calls", "s", "self_s", "errors", "out_len", "coeff_bits")
CALLS, S, SELF_S, ERRORS, OUT_LEN, COEFF_BITS = range(6)


class JobTimeout(BaseException):
    """Raised by the per-job deadline; a BaseException so that no handler in
    the program swallows it."""


def _coeffs(item):
    """Every Fraction coefficient of a Poly, WeylElement or a tuple of them."""
    if isinstance(item, tuple):
        for part in item:
            yield from _coeffs(part)
        return
    terms = getattr(item, "terms", None)
    if isinstance(terms, dict):
        yield from terms.values()


def basis_size_and_bits(result) -> tuple[int, int]:
    """Length of a returned basis and its largest numerator or denominator
    bit length (Fractions and ints both have numerator and denominator)."""
    if not isinstance(result, list):
        return 0, 0
    bits = 0
    for item in result:
        for c in _coeffs(item):
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return len(result), bits


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.next_id = 0
        self.job = None
        self.stack: list[list] = []      # [span id, child seconds]
        self.depth: dict[str, int] = {}
        self.job_stats: dict[str, list] = {}
        self._patches: list[tuple] = []

    # installation

    def _targets(self):
        """(qualified name, original function, [(namespace, attribute)])."""
        modules = {layer: importlib.import_module(f"toric_dmod.{layer}")
                   for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("toric_dmod")]
        for layer, names in TRACED.items():
            for attr in names:
                fn = getattr(modules[layer], attr)
                sites = [(ns, nm) for ns in namespaces
                         for nm, val in vars(ns).items() if val is fn]
                yield f"{layer}.{attr}", fn, sites

    def install(self):
        """Replace every binding of every traced function with its wrapper."""
        for qual, fn, sites in self._targets():
            wrapper = self._wrap(qual, fn)
            for ns, nm in sites:
                self._patches.append((ns, nm, fn))
                setattr(ns, nm, wrapper)

    def uninstall(self):
        for ns, nm, fn in reversed(self._patches):
            setattr(ns, nm, fn)
        self._patches.clear()

    # recording

    def _record(self, span):
        if len(self.spans) < self.span_cap:
            self.spans.append(span)
        else:
            self.spans_dropped += 1

    def _wrap(self, qual, fn):
        tracer = self
        measure = qual in BASIS_FUNCS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span_id = tracer.next_id
            tracer.next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            depth = tracer.depth.get(qual, 0)
            tracer.depth[qual] = depth + 1
            error = 0
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                error = 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.depth[qual] = depth
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                st = tracer.job_stats.get(qual)
                if st is None:
                    st = tracer.job_stats[qual] = [0, 0.0, 0.0, 0, 0, 0]
                st[CALLS] += 1
                st[SELF_S] += dur - frame[1]
                if depth == 0:
                    st[S] += dur
                st[ERRORS] += error
                if measure and result is not None:
                    size, bits = basis_size_and_bits(result)
                    st[OUT_LEN] += size
                    st[COEFF_BITS] = max(st[COEFF_BITS], bits)
                tracer._record((span_id, parent[0] if parent else None,
                                tracer.job, qual, start, end, error))

        return wrapper

    def begin_job(self, job_id, name):
        """Open the root span of one job; returns its frame."""
        self.job = job_id
        self.job_stats = {}
        self.depth = {}
        span_id = self.next_id
        self.next_id += 1
        frame = [span_id, 0.0, name, perf_counter()]
        self.stack = [frame]
        return frame

    def end_job(self, frame, status: str) -> dict:
        """Close the root span; return the job's statistics."""
        end = perf_counter()
        self._record((frame[0], None, self.job, f"job:{frame[2]}", frame[3], end,
                      0 if status == "ok" else 1))
        self.stack = []
        stats, self.job_stats = self.job_stats, {}
        return stats

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, job, name, start, end, error in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "job": job,
                                     "name": name, "start": start, "end": end,
                                     "error": error}) + "\n")


def merge_stats(total: dict, stats: dict):
    for qual, st in stats.items():
        acc = total.get(qual)
        if acc is None:
            total[qual] = list(st)
            continue
        for k in (CALLS, S, SELF_S, ERRORS, OUT_LEN):
            acc[k] += st[k]
        acc[COEFF_BITS] = max(acc[COEFF_BITS], st[COEFF_BITS])


def layer_self_seconds(stats: dict) -> dict:
    out = {layer: 0.0 for layer in LAYERS}
    for qual, st in stats.items():
        out[qual.split(".", 1)[0]] += st[SELF_S]
    return out
