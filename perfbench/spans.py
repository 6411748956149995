"""Span recording around fillprobe's layer boundaries, from outside the library.

A ``Tracer`` replaces each public function at every module that bound it
(``from .x import f`` copies the name, so each binding is wrapped on its
own) with a wrapper that records a span: name, start, end, parent span,
job id, and a few sizes read from arguments and return values.  Spans
stay in memory; ``per_layer`` turns one pass's spans into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module that binds the name, attribute, span name).  Span names are
# "<layer>.<function>"; the layer is the module that defines the function.
WRAPS = (
    ("fillprobe.cli", "_max_feasible_radius", "cli.radius_probe"),
    ("fillprobe.cli", "build_ball", "complexes.build_ball"),
    ("fillprobe.cli", "attach_cells", "complexes.attach_cells"),
    ("fillprobe.cli", "complex_to_json", "complexes.complex_to_json"),
    ("fillprobe.cli", "norm_with_escalation", "filling.norm_with_escalation"),
    ("fillprobe.cli", "probe_hyperbolicity", "probes.probe_hyperbolicity"),
    ("fillprobe.cli", "probe_amenability", "probes.probe_amenability"),
    ("fillprobe.cli", "parse_presentation", "presentation.parse_presentation"),
    ("fillprobe.cli", "knuth_bendix_bounded", "rewriting.knuth_bendix_bounded"),
    ("fillprobe.cli", "system_from_rules", "rewriting.system_from_rules"),
    ("fillprobe.catalog", "load", "catalog.load"),
    ("fillprobe.catalog", "parse_presentation", "presentation.parse_presentation"),
    ("fillprobe.catalog", "knuth_bendix_bounded", "rewriting.knuth_bendix_bounded"),
    ("fillprobe.catalog", "system_from_rules", "rewriting.system_from_rules"),
    # cli._max_feasible_radius imports get_complex at call time
    ("fillprobe.complexes", "get_complex", "complexes.get_complex"),
    ("fillprobe.complexes", "build_ball", "complexes.build_ball"),
    ("fillprobe.complexes", "attach_cells", "complexes.attach_cells"),
    ("fillprobe.complexes", "complex_to_json", "complexes.complex_to_json"),
    ("fillprobe.complexes", "complex_from_json", "complexes.complex_from_json"),
    ("fillprobe.filling", "get_complex", "complexes.get_complex"),
    ("fillprobe.filling", "filling_norm_q", "filling.filling_norm_q"),
    ("fillprobe.filling", "filling_norm_z", "filling.filling_norm_z"),
    ("fillprobe.filling", "solve_lp", "exactlp.solve_lp"),
    ("fillprobe.filling", "solve_ilp", "exactlp.solve_ilp"),
    ("fillprobe.probes", "get_complex", "complexes.get_complex"),
    ("fillprobe.probes", "enumerate_circuits", "complexes.enumerate_circuits"),
    ("fillprobe.probes", "_sampled_circuits", "probes.sampled_circuits"),
    ("fillprobe.probes", "norm_with_escalation", "filling.norm_with_escalation"),
    ("fillprobe.probes", "solve_minmax", "exactlp.solve_minmax"),
    # probe_hyperbolicity calls it through the probes module; cli fv imports it at call time
    ("fillprobe.probes", "estimate_fv", "probes.estimate_fv"),
)


def _lp_shape(args, kwargs):
    lp = args[0] if args else kwargs["lp"]
    return {"rows": len(lp.rows), "cols": lp.num_vars,
            "nnz": sum(len(row) for row in lp.rows)}


def _minmax_cols(args, kwargs):
    num_vars = args[2] if len(args) > 2 else kwargs["num_vars"]
    free = args[3] if len(args) > 3 else kwargs.get("free")
    if free is None:
        free = [True] * num_vars
    # the homogenized program splits each free variable and adds s
    return {"cols": sum(2 if f else 1 for f in free) + 1}


# span name -> function(args, kwargs, result) -> info dict
_INFO = {
    "exactlp.solve_lp": lambda a, k, r: {"pivots": r.pivots, **_lp_shape(a, k)},
    "exactlp.solve_ilp": lambda a, k, r: {"pivots": r.pivots, **_lp_shape(a, k)},
    "exactlp.solve_minmax": lambda a, k, r: {"pivots": r.pivots, **_minmax_cols(a, k)},
    "complexes.build_ball": lambda a, k, r: {"vertices": r.num_vertices,
                                             "edges": r.num_edges},
    "complexes.attach_cells": lambda a, k, r: {"cells": r.num_cells},
    "complexes.enumerate_circuits": lambda a, k, r: {"circuits": len(r)},
    "probes.sampled_circuits": lambda a, k, r: {"circuits": len(r)},
    "probes.probe_amenability": lambda a, k, r: {"radii": len(r.table)},
    "rewriting.knuth_bendix_bounded": lambda a, k, r: {"rules": len(r.rules)},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "info", "child_s")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.info = {}
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    def to_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job, "info": self.info}


class Tracer:
    """Records spans while installed; ``job`` brackets one CLI invocation."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._job = None
        self._saved: list = []

    def install(self):
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._job)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _wrap(self, name, fn):
        info_of = _INFO.get(name)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info_of is not None:
                span.info = info_of(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def job(self, job_id, command):
        """The root span of one CLI invocation."""
        self._job = job_id
        span = self._open("cli.main")
        span.info = {"command": command}
        try:
            yield
        finally:
            self._close(span)
            self._job = None


def per_layer(spans) -> dict:
    """Per-layer metrics of one pass.  Names ending in ``_s`` are times in
    seconds; every other value is a count or ratio that repeats exactly."""
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in named(name))

    def self_of(layer):
        return sum(s.self_s for s in spans if s.name.split(".")[0] == layer)

    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)

    def parent_name(span):
        return None if span.parent is None else spans[span.parent].name

    filling_lps = named("exactlp.solve_lp") + named("exactlp.solve_ilp")

    write_s = read_s = 0.0
    writes = reads = hits = 0
    for i, span in enumerate(spans):
        if span.name != "complexes.get_complex":
            continue
        kids = children[i]
        kid_names = {k.name for k in kids}
        if "complexes.complex_from_json" in kid_names:
            reads += 1
            read_s += span.duration
        elif "complexes.complex_to_json" in kid_names:
            writes += 1
            write_s += span.duration - sum(
                k.duration for k in kids
                if k.name in ("complexes.build_ball", "complexes.attach_cells"))
        elif "complexes.build_ball" not in kid_names:
            hits += 1
    get_calls = len(named("complexes.get_complex"))

    escalation_radii = sum(
        1 for s in named("complexes.get_complex")
        if parent_name(s) == "filling.norm_with_escalation")
    reach_ball_s = sum(
        s.duration for s in named("complexes.build_ball")
        if parent_name(s) == "cli.main"
        and spans[s.parent].info["command"] == "fill")
    circuit_spans = named("complexes.enumerate_circuits") + named("probes.sampled_circuits")

    return {
        "exactlp.lp_s": total("exactlp.solve_lp"),
        "exactlp.lp_calls": len(named("exactlp.solve_lp")),
        "exactlp.lp_pivots": info_sum("exactlp.solve_lp", "pivots"),
        "exactlp.ilp_s": total("exactlp.solve_ilp"),
        "exactlp.ilp_calls": len(named("exactlp.solve_ilp")),
        "exactlp.ilp_pivots": info_sum("exactlp.solve_ilp", "pivots"),
        "exactlp.minmax_s": total("exactlp.solve_minmax"),
        "exactlp.minmax_calls": len(named("exactlp.solve_minmax")),
        "exactlp.minmax_pivots": info_sum("exactlp.solve_minmax", "pivots"),
        "exactlp.minmax_cols": info_sum("exactlp.solve_minmax", "cols"),
        "filling.lp_rows_max": max((s.info.get("rows", 0) for s in filling_lps), default=0),
        "filling.lp_cols_max": max((s.info.get("cols", 0) for s in filling_lps), default=0),
        "filling.lp_nnz_sum": sum(s.info.get("nnz", 0) for s in filling_lps),
        "filling.escalation_radii": escalation_radii,
        "filling.norm_q_s": total("filling.filling_norm_q"),
        "filling.norm_z_s": total("filling.filling_norm_z"),
        "filling.self_s": self_of("filling"),
        "cli.self_s": self_of("cli"),
        "cli.radius_probe_s": total("cli.radius_probe"),
        "cli.radius_probe_calls": len(named("cli.radius_probe")),
        "cli.reach_ball_s": reach_ball_s,
        "complexes.build_ball_s": total("complexes.build_ball"),
        "complexes.build_ball_calls": len(named("complexes.build_ball")),
        "complexes.vertices": info_sum("complexes.build_ball", "vertices"),
        "complexes.edges": info_sum("complexes.build_ball", "edges"),
        "complexes.attach_cells_s": total("complexes.attach_cells"),
        "complexes.cells": info_sum("complexes.attach_cells", "cells"),
        "complexes.cache_write_s": write_s,
        "complexes.cache_read_s": read_s,
        "complexes.cache_writes": writes,
        "complexes.cache_reads": reads,
        "complexes.get_complex_calls": get_calls,
        "complexes.memo_hit_ratio": hits / get_calls if get_calls else 0.0,
        "complexes.circuits_s": sum(s.duration for s in circuit_spans),
        "complexes.circuits": sum(s.info.get("circuits", 0) for s in circuit_spans),
        "probes.fv_self_s": sum(s.self_s for s in named("probes.estimate_fv")
                                + named("probes.probe_hyperbolicity")),
        "probes.amenable_self_s": sum(s.self_s for s in named("probes.probe_amenability")),
        "probes.amenable_radii": info_sum("probes.probe_amenability", "radii"),
        "rewriting.complete_s": total("rewriting.knuth_bendix_bounded"),
        "rewriting.complete_rules": info_sum("rewriting.knuth_bendix_bounded", "rules"),
        "rewriting.verify_s": total("rewriting.system_from_rules"),
        "presentation.parse_s": total("presentation.parse_presentation"),
    }
