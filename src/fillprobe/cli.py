"""Command-line front end.

Machine-readable output only: JSON reports and CSV tables, rationals
always serialized as num/den strings.  Identical configuration and seed
produce byte-identical files.

Exit codes: 0 success, 2 presentation/syntax problem or a file that
cannot be read or written (an ``OSError``), 3 fill word not closed, 4 no
filling within the allowed balls, 5 resource caps or an incomplete
rewriting system (partial reports are flagged, never silently
truncated).

Every report, error reports included, leaves through ``_emit``; ``main``
turns an error that a command raises into its report and exit code.
With ``--out PREFIX`` every run writes ``PREFIX.json``, and ``PREFIX.csv``
when its report has a table; otherwise it removes a stale ``PREFIX.csv``.
When those files cannot be written, the error report goes to stdout
alone.  A command line that argparse rejects exits 2 with argparse's
usage and message on stderr; its error report goes to the ``--out``
files only, wherever ``--out`` stands on that line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

from . import catalog
from .complexes import (
    DEFAULT_VERTEX_CAP,
    DEFAULT_WALK_CAP,
    attach_cells,
    build_ball,
    complex_to_json,
    word_to_edge_chain,
)
from .errors import (
    FillprobeError,
    NotABoundaryError,
    PresentationSyntaxError,
    ResourceLimitError,
)
from .exactlp import DEFAULT_NODE_BUDGET
from .filling import RING_Q, RING_Z, norm_with_escalation
from .presentation import parse_presentation, presentation_rules_from_json
from .rationals import qstr
from .probes import (
    EXHAUSTIVE,
    EXHAUSTIVE_K_CAP,
    SAMPLED,
    ProbeConfig,
    probe_amenability,
    probe_hyperbolicity,
)
from .rewriting import DEFAULT_MAX_LEN, DEFAULT_MAX_RULES, knuth_bendix_bounded, system_from_rules

EXIT_OK = 0
EXIT_SYNTAX = 2
EXIT_NOT_CLOSED = 3
EXIT_NOT_BOUNDARY = 4
EXIT_RESOURCE = 5


class _Rejection(Exception):
    """A command line that argparse rejected; its usage and this message
    are already on stderr."""


class _ArgumentParser(argparse.ArgumentParser):
    # subparsers are made of the parent's class, so they reject this way too
    def error(self, message):
        try:
            super().error(message)
        except SystemExit:
            raise _Rejection(message) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fillprobe",
        description="filling norms and growth probes on Cayley 2-complexes")
    parser.add_argument("--vertex-cap", type=int, default=DEFAULT_VERTEX_CAP,
                        help="abort ball construction beyond this many vertices")
    parser.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
                        help="branch-and-bound node budget for integral norms")
    parser.add_argument("--walk-cap", type=int, default=DEFAULT_WALK_CAP,
                        help="abort circuit enumeration beyond this many steps")
    parser.add_argument("--radius-cap", type=int, default=None,
                        help="top of fill's radius window; fv and probe echo it "
                             "in the report's config without applying it")
    parser.add_argument("--kb-max-rules", type=int, default=DEFAULT_MAX_RULES,
                        help="completion budget: maximum rule count")
    parser.add_argument("--kb-max-len", type=int, default=DEFAULT_MAX_LEN,
                        help="completion budget: maximum rule word length")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for sampled circuit generation")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility and echoed in reports; "
                             "has no effect")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="stdout format for table-producing commands")
    parser.add_argument("--out", default=None,
                        help="path prefix for report files (JSON and CSV)")
    parser.add_argument("--cache-dir", default=None,
                        help="complex cache directory (default: $FILLPROBE_CACHE_DIR); "
                             "a file is reused only when it is byte-identical to "
                             "a fresh build's export, and rewritten otherwise")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a presentation")
    p.add_argument("source", help="file path or catalog name")
    p.set_defaults(run=_cmd_parse)

    p = sub.add_parser("ball", help="build a truncated complex and report sizes")
    p.add_argument("source")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--export", default=None,
                   help="write the complex as coordinate-form JSON")
    p.set_defaults(run=_cmd_ball)

    p = sub.add_parser("fill", help="filling norms of a closed word, both rings")
    p.add_argument("source")
    p.add_argument("word", help="closed word, e.g. 'a b a^-1 b^-1'")
    p.add_argument("--radius", type=int, default=None,
                   help="starting ball radius (default: the loop's reach)")
    p.set_defaults(run=_cmd_fill)

    p = sub.add_parser("fv", help="tabulate the filling-function estimate")
    p.add_argument("source")
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--mode", choices=(EXHAUSTIVE, SAMPLED), default=None,
                   help="circuit source (default: exhaustive up to the cap)")
    p.set_defaults(run=_cmd_fv)

    p = sub.add_parser("probe", help="desk-scale verdicts")
    probe_sub = p.add_subparsers(dest="probe_kind", required=True)
    ph = probe_sub.add_parser("hyperbolic", help="filling growth verdict")
    ph.add_argument("source")
    ph.add_argument("--k-max", type=int, default=8)
    ph.add_argument("--mode", choices=(EXHAUSTIVE, SAMPLED), default=None)
    ph.set_defaults(run=_cmd_probe_hyperbolic)
    pa = probe_sub.add_parser("amenable", help="bounded-flow verdict")
    pa.add_argument("source")
    pa.add_argument("--radii", default="2,3,4,5",
                    help="comma-separated ball radii")
    pa.set_defaults(run=_cmd_probe_amenable)

    p = sub.add_parser("catalog", help="built-in presentations")
    catalog_sub = p.add_subparsers(dest="catalog_action", required=True)
    p = catalog_sub.add_parser("list", help="list catalog entries")
    p.set_defaults(run=_cmd_catalog)

    return parser


class _Refusal(Exception):
    """Ends a command early; its args are the report and the exit code."""


def _load_source(args, confluent=True):
    """Resolve a source argument to (name, presentation, rewriting system).

    With ``confluent``, an incomplete rewriting system refuses the
    command (exit 5): only ``parse`` reports on one."""
    source = args.source
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
        presentation = parse_presentation(text)
        rule_texts = presentation_rules_from_json(text)
        if rule_texts is not None:
            pairs = [(presentation.word(l), presentation.word(r))
                     for l, r in rule_texts]
            try:
                rws = system_from_rules(presentation.num_generators, pairs)
            except ValueError as exc:
                raise PresentationSyntaxError(f"bad rules: {exc}")
            if rws.confluent:
                for i, relator in enumerate(presentation.relators):
                    if rws.reduce(relator) != ():
                        raise PresentationSyntaxError(
                            f"rules do not trivialize relator {i + 1}")
        else:
            rws = knuth_bendix_bounded(presentation,
                                       max_rules=args.kb_max_rules,
                                       max_len=args.kb_max_len)
        name = os.path.basename(source)
    elif source in catalog.CATALOG:
        presentation, rws = catalog.load(source, max_rules=args.kb_max_rules,
                                         max_len=args.kb_max_len)
        name = source
    else:
        raise PresentationSyntaxError(f"source {source!r}: no such file or catalog entry")
    if confluent and not rws.confluent:
        raise _Refusal({"error": "rewriting system is incomplete within the "
                                 "completion budget; supply rules or raise "
                                 "--kb-max-rules",
                        "rewriting": {"status": rws.status.value,
                                      "rules": len(rws.rules)}}, EXIT_RESOURCE)
    return name, presentation, rws


def _config(args) -> ProbeConfig:
    return ProbeConfig(
        vertex_cap=args.vertex_cap,
        walk_cap=args.walk_cap,
        node_budget=args.node_budget,
        cache_dir=args.cache_dir,
    )


def _config_echo(args) -> dict:
    return {
        "vertex_cap": args.vertex_cap,
        "node_budget": args.node_budget,
        "walk_cap": args.walk_cap,
        "radius_cap": args.radius_cap,
        "seed": args.seed,
        "workers": args.workers,
    }


def _emit(args, report: dict, csv_rows=None, csv_header=None, *, echo=True) -> None:
    """When --out is given, write the report files: always PREFIX.json,
    and PREFIX.csv exactly when there is a table; then, with ``echo``,
    print to stdout, so a report whose files fail to write is never
    printed."""
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    csv_text = None
    if csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        csv_text = buf.getvalue()
    if args.out:
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            fh.write(text)
        if csv_text is not None:
            with open(args.out + ".csv", "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        else:
            with contextlib.suppress(FileNotFoundError):
                os.remove(args.out + ".csv")
    if not echo:
        return
    if args.format == "csv" and csv_text is not None:
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(text)


def _cmd_parse(args) -> int:
    name, presentation, rws = _load_source(args, confluent=False)
    report = {
        "valid": True,
        "source": name,
        "generators": list(presentation.generators),
        "relators": [presentation.text(r) for r in presentation.relators],
        "warnings": list(presentation.warnings),
        "rewriting": {"status": rws.status.value, "rules": len(rws.rules)},
    }
    _emit(args, report)
    return EXIT_OK


def _cmd_ball(args) -> int:
    name, presentation, rws = _load_source(args)
    ball = build_ball(presentation, rws, args.radius, vertex_cap=args.vertex_cap)
    complex_ = attach_cells(ball, presentation)
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(complex_to_json(complex_))
    _emit(args, {
        "source": name,
        "radius": args.radius,
        "vertices": ball.num_vertices,
        "edges": ball.num_edges,
        "cells": complex_.num_cells,
        "export": args.export,
    })
    return EXIT_OK


def _cmd_fill(args) -> int:
    from .complexes import get_complex

    name, presentation, rws = _load_source(args)
    word = presentation.word(args.word)
    # the walk must stay inside the starting ball; its last vertex is
    # the word's normal form
    prefix_reach = 0
    prefix = ()
    for x in word:
        prefix = rws.reduce((x,), prefix)
        prefix_reach = max(prefix_reach, len(prefix))
    if prefix != ():
        _emit(args, {"error": "word is not closed (does not represent the identity)",
                     "word": args.word})
        return EXIT_NOT_CLOSED
    reach = get_complex(presentation, rws, prefix_reach,
                        vertex_cap=args.vertex_cap, cache_dir=args.cache_dir)
    chain = word_to_edge_chain(reach.ball, word)
    # the radius only has to hold the loop: a value in a ball is exact
    # for that ball and an upper bound for the group
    r_start = max(args.radius or 0, prefix_reach)
    r_max = args.radius_cap if args.radius_cap is not None else \
        _max_feasible_radius(presentation, rws, r_start, r_start + 2,
                             args.vertex_cap, args.cache_dir)
    if r_max < r_start:
        _emit(args, {"error": "radius cap below the required starting radius"})
        return EXIT_RESOURCE
    report = {
        "source": name,
        "word": args.word,
        "l1": qstr(chain.l1()),
        "radius_window": [r_start, r_max],
        "certificates": {},
        "config": _config_echo(args),
    }
    try:
        for ring in (RING_Q, RING_Z):
            cert = norm_with_escalation(
                chain, presentation, rws, r_start, r_max, ring=ring,
                vertex_cap=args.vertex_cap, node_budget=args.node_budget,
                cache_dir=args.cache_dir)
            report["certificates"][ring] = cert.to_dict()
    except NotABoundaryError as exc:
        report["error"] = f"NoWithinBall: {exc}"
        _emit(args, report)
        return EXIT_NOT_BOUNDARY
    except ResourceLimitError as exc:
        report["error"] = str(exc)
        _emit(args, report)
        return EXIT_RESOURCE
    _emit(args, report)
    return EXIT_OK


def _max_feasible_radius(presentation, rws, floor, target, vertex_cap,
                         cache_dir) -> int:
    """Largest radius <= target whose ball fits under the vertex cap.

    Builds upward from ``floor`` (balls are memoized and reused by the
    escalation that follows).  Never returns less than ``floor``."""
    from .complexes import get_complex

    best = floor
    for radius in range(floor, target + 1):
        try:
            get_complex(presentation, rws, radius,
                        vertex_cap=vertex_cap, cache_dir=cache_dir)
        except ResourceLimitError:
            break
        best = radius
    return best


def _fv_mode(args) -> str:
    if args.mode is not None:
        return args.mode
    return EXHAUSTIVE if args.k_max <= EXHAUSTIVE_K_CAP else SAMPLED


def _fv_csv(estimate):
    header = ["k", "value", "radius", "status"]
    rows = []
    for k, row in sorted(estimate.table.items()):
        status = "empty" if row.witness_word is None else (
            "stabilized" if row.stabilized else "upper-bound")
        rows.append([k, qstr(row.value),
                     "" if row.radius is None else row.radius, status])
    return header, rows


def _cmd_fv(args) -> int:
    name, presentation, rws = _load_source(args)
    from .probes import estimate_fv
    try:
        estimate = estimate_fv(presentation, rws, args.k_max, _fv_mode(args),
                               seed=args.seed, config=_config(args),
                               presentation_id=name)
    except ResourceLimitError as exc:
        _emit(args, {"error": str(exc), "presentation": name})
        return EXIT_RESOURCE
    report = {"fv": estimate.to_dict(), "config": _config_echo(args)}
    header, rows = _fv_csv(estimate)
    _emit(args, report, rows, header)
    return EXIT_RESOURCE if estimate.capped else EXIT_OK


def _cmd_probe_hyperbolic(args) -> int:
    name, presentation, rws = _load_source(args)
    report_obj = probe_hyperbolicity(
        presentation, rws, k_max=args.k_max, mode=_fv_mode(args),
        seed=args.seed, config=_config(args), presentation_id=name)
    report = {"probe": "hyperbolic", "report": report_obj.to_dict(),
              "config": _config_echo(args)}
    header, rows = _fv_csv(report_obj.estimate)
    _emit(args, report, rows, header)
    return EXIT_RESOURCE if report_obj.estimate.capped else EXIT_OK


def _cmd_probe_amenable(args) -> int:
    name, presentation, rws = _load_source(args)
    try:
        radii = [int(r) for r in args.radii.split(",") if r.strip()]
    except ValueError:
        raise ValueError(f"bad radii list {args.radii!r}") from None
    try:
        probe = probe_amenability(presentation, rws, radii,
                                  config=_config(args), presentation_id=name)
    except ResourceLimitError as exc:
        _emit(args, {"error": str(exc), "presentation": name})
        return EXIT_RESOURCE
    report = {"probe": "amenable", "report": probe.to_dict(),
              "config": _config_echo(args)}
    header = ["R", "t", "radius", "status"]
    rows = []
    for r in sorted(probe.table):
        row = probe.table[r]
        value = "" if row.value is None else qstr(row.value)
        rows.append([r, value, r, row.status])
    _emit(args, report, rows, header)
    capped = any(row.status != "optimal" for row in probe.table.values())
    return EXIT_RESOURCE if capped else EXIT_OK


def _cmd_catalog(args) -> int:
    entries = []
    for entry_name in catalog.catalog_names():
        entry = catalog.get_entry(entry_name)
        entries.append({
            "name": entry.name,
            "description": entry.description,
            "confluent_rules": None if entry.completion_required else len(entry.rules),
            "completion_required": entry.completion_required,
        })
    _emit(args, {"catalog": entries})
    return EXIT_OK


def _out_prefix(argv):
    """The ``--out`` prefix on a command line, read without the rest of
    it: argparse stops at the first argument it rejects, which may come
    before ``--out``."""
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    parser.add_argument("--out")
    try:
        return parser.parse_known_args(argv)[0].out
    except argparse.ArgumentError:
        return None


def main(argv=None) -> int:
    args, echo = argparse.Namespace(), True
    try:
        build_parser().parse_args(argv, namespace=args)
        for flag in ("vertex_cap", "node_budget", "walk_cap",
                     "kb_max_rules", "kb_max_len"):
            if getattr(args, flag) <= 0:
                raise ValueError(f"--{flag.replace('_', '-')} must be positive")
        return args.run(args)
    except _Rejection as exc:
        # argparse has printed the usage, so stdout stays empty
        args.out = _out_prefix(argv)
        report, code, echo = {"error": str(exc)}, EXIT_SYNTAX, False
    except _Refusal as exc:
        report, code = exc.args
    except (ValueError, OSError) as exc:
        report, code = {"error": str(exc)}, EXIT_SYNTAX
    except PresentationSyntaxError as exc:
        report, code = {"valid": False, "error": str(exc),
                        "line": exc.line, "column": exc.column}, EXIT_SYNTAX
    except FillprobeError as exc:
        report, code = {"error": str(exc)}, EXIT_RESOURCE
    try:
        _emit(args, report, echo=echo)
    except OSError as exc:
        # the --out write itself failed; its error goes to stdout alone
        args.out = None
        _emit(args, {"error": str(exc)})
        code = EXIT_SYNTAX
    return code


if __name__ == "__main__":
    sys.exit(main())
