"""fillprobe benchmark (stdlib only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fillprobe source checkout; the library is imported
from ``src/``.  Each workload in ``workloads.json`` is a closed loop with
one caller: its job list runs in this process through
``fillprobe.cli.main`` (with ``--workers 1``), pass after pass, until
``--seconds`` is used up.  Every job starts cold, as a fresh ``fillprobe``
invocation would: empty complex memo and catalog system cache, no
``FILLPROBE_CACHE_DIR``, and fresh cache/export directories per pass.
Every answer is checked against the pinned values (or, for sampled Z2
tables, a winding-number oracle).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``wall_s``
is the job list's time once, as the sum over jobs of each job's median
across the run's passes; ``setup_s`` the median over fresh interpreters
of importing fillprobe and loading the workload's catalog entries;
``peak_rss_mb`` this process's peak resident memory.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
derived from the spans (see spans.py), which it also writes to
``perfbench/results/``.  The last line of standard output is the JSON
result; lines before it are the environment record and per-job detail.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

from spans import Tracer, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 7
SUBCOMMANDS = ("parse", "ball", "fill", "fv", "probe", "catalog")

# Set-up as a fresh invocation pays it: import fillprobe and load the
# catalog entries the workload uses.  Completion-required entries are only
# parsed here, because their completion is the work of the parse jobs.
_SETUP_CHILD = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fillprobe
from fillprobe import catalog
from fillprobe.presentation import parse_presentation
for name in sys.argv[2:]:
    entry = catalog.get_entry(name)
    if entry.completion_required:
        parse_presentation(entry.source)
    else:
        catalog.load(name)
print(repr(time.perf_counter() - t0))
"""


def measure_setup(entries) -> float:
    """Median over SETUP_REPS fresh interpreters of import plus catalog load."""
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), *entries],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def z2_area(word: str) -> int:
    """l1 filling norm of a closed word over Z2 = <a, b | [a, b]>.

    The square complex of Z2 is the plane, so the filling is unique: the
    coefficient of each unit square is the winding number of the loop
    around it.  The square with lower-left corner (i, j) is wound by the
    a-steps across column i at heights y <= j, signed by direction.
    """
    x = y = 0
    crossings: dict = {}
    for token in word.split():
        name, _, power = token.partition("^")
        n = int(power) if power else 1
        step = 1 if n > 0 else -1
        for _ in range(abs(n)):
            if name == "a":
                column = crossings.setdefault(x if step > 0 else x - 1, Counter())
                column[y] += step
                x += step
            elif name == "b":
                y += step
            else:
                raise ValueError(f"letter {name!r} is not a Z2 generator")
    if (x, y) != (0, 0):
        raise ValueError(f"word {word!r} is not closed in Z2")
    area = 0
    for column in crossings.values():
        heights = sorted(column)
        winding = 0
        for lo, hi in zip(heights, heights[1:]):
            winding += column[lo]
            area += abs(winding) * (hi - lo)
    return area


def _mismatch(got: dict, want: dict):
    bad = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
    return None if not bad else "; ".join(
        f"{k}: got {g!r}, want {w!r}" for k, (g, w) in sorted(bad.items()))


def check_z2_sampled(report: dict, k_max: int):
    rep = report["report"]
    if rep["verdict"] not in ("consistent-with-hyperbolic",
                              "non-hyperbolic-evidence", "inconclusive"):
        return f"unknown verdict {rep['verdict']!r}"
    table = rep["fv"]["table"]
    if sorted(int(k) for k in table) != list(range(3, k_max + 1)):
        return f"table rows {sorted(table)}"
    previous = -1
    for k in range(3, k_max + 1):
        row = table[str(k)]
        num, den = (int(p) for p in row["value"].split("/"))
        if den != 1:
            return f"k={k}: fractional value {row['value']} in Z2"
        if row["witness"] is None:
            if num != 0:
                return f"k={k}: value {row['value']} without a witness"
        else:
            l1_num, l1_den = (int(p) for p in row["witness_l1"].split("/"))
            if l1_den != 1 or l1_num > k:
                return f"k={k}: witness_l1 {row['witness_l1']} exceeds k"
            area = z2_area(row["witness"])
            if num != area:
                return f"k={k}: value {row['value']}, oracle area {area} of {row['witness']!r}"
        if num < previous:
            return f"k={k}: table decreases"
        previous = num
    return None


def check_job(check: dict, rc: int, stdout: str, ctx: dict):
    """None when the job's output matches its pinned answer, else why not."""
    if rc != check.get("exit", 0):
        return f"exit code {rc}, want {check.get('exit', 0)}"
    report = json.loads(stdout)
    kind = check["kind"]
    if kind == "fill":
        for ring in ("Q", "Z"):
            cert = report["certificates"][ring]
            bad = _mismatch(cert, {"value": check[ring], "witness_l1": check[ring],
                                   "status": check["status"]})
            if bad:
                return f"{ring}: {bad}"
        if "cache_files" in check:
            files = len(os.listdir(ctx["cache"]))
            if files != check["cache_files"]:
                return f"cache holds {files} files, want {check['cache_files']}"
        return None
    if kind == "hyperbolic":
        rep = report["report"]
        table = [row["value"] for _, row in
                 sorted(rep["fv"]["table"].items(), key=lambda kv: int(kv[0]))]
        return _mismatch({"verdict": rep["verdict"], "table": table},
                         {"verdict": check["verdict"], "table": check["table"]})
    if kind == "z2-oracle":
        return check_z2_sampled(report, check["k_max"])
    if kind == "amenable":
        rep = report["report"]
        t = {r: row["t"] for r, row in rep["table"].items()}
        return _mismatch({"verdict": rep["verdict"], "t": t},
                         {"verdict": check["verdict"], "t": check["t"]})
    if kind == "parse":
        return _mismatch(report["rewriting"],
                         {"status": check["status"], "rules": check["rules"]})
    if kind == "ball":
        bad = _mismatch(report, {k: check[k] for k in ("vertices", "edges", "cells")})
        if bad or not check["export"]:
            return bad
        with open(ctx["export"], encoding="utf-8") as fh:
            exported = json.load(fh)
        return _mismatch({"vertices": len(exported["vertices"]),
                          "cells": len(exported["cells"])},
                         {"vertices": check["vertices"], "cells": check["cells"]})
    raise ValueError(f"unknown check kind {kind!r}")


def run_pass(jobs, fp, ctx, tracer=None):
    """Run the job list once; return (per-job seconds, per-job error or None)."""
    seconds, errors = [], []
    for job_id, job in enumerate(jobs):
        argv = ["--workers", "1"] + [a.format(**ctx) for a in job["argv"]]
        fp.complexes.clear_memo()
        fp.catalog._SYSTEM_CACHE.clear()
        gc.collect()
        out = io.StringIO()
        command = next(a for a in job["argv"] if a in SUBCOMMANDS)
        span = tracer.job(job_id, command) if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), span:
                rc = fp.cli.main(argv)
        except (Exception, SystemExit) as exc:   # a crashing job is a failed job
            seconds.append(time.perf_counter() - t0)
            errors.append(f"raised {type(exc).__name__}: {exc}")
            continue
        seconds.append(time.perf_counter() - t0)
        try:
            errors.append(check_job(job["check"], rc, out.getvalue(), ctx))
        except (KeyError, ValueError, OSError) as exc:
            errors.append(f"malformed output: {type(exc).__name__}: {exc}")
    return seconds, errors


def environment() -> dict:
    from fillprobe.rationals import RationalType

    digest = hashlib.sha256()
    for path in sorted((SRC / "fillprobe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"backend": f"{RationalType.__module__}.{RationalType.__name__}",
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit,
            "source_sha256": digest.hexdigest()}


class _Fillprobe:
    """The library modules a pass drives, imported from the checkout."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        from fillprobe import catalog, cli, complexes

        self.catalog, self.cli, self.complexes = catalog, cli, complexes


def measure(jobs, fp, args, work: Path) -> dict:
    """Alternate passes until the time budget is spent (at least one).

    Returns per-job seconds of each untraced pass, traced pass walls and
    per-layer metrics, the last traced pass's spans, job counts and errors."""
    out = {"traced_walls": [], "layers": [], "spans": None,
           "attempted": 0, "failed": 0, "errors": [], "job_s": []}
    deadline = time.perf_counter() + args.seconds
    n = 0
    while True:
        started = time.perf_counter()
        for traced in ((False, True) if args.trace else (False,)):
            pass_dir = work / f"pass{n}"
            (pass_dir / "cache").mkdir(parents=True)
            ctx = {"seed": args.seed, "cache": str(pass_dir / "cache"),
                   "export": str(pass_dir / "ball.json")}
            tracer = Tracer() if traced else None
            if tracer:
                tracer.install()
            try:
                seconds, errors = run_pass(jobs, fp, ctx, tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            shutil.rmtree(pass_dir)
            n += 1
            out["attempted"] += len(jobs)
            for job, err in zip(jobs, errors):
                if err:
                    out["failed"] += 1
                    out["errors"].append(f"{job['id']}: {err}")
            if traced:
                out["traced_walls"].append(sum(seconds))
                out["layers"].append(per_layer(tracer.spans))
                out["spans"] = tracer.spans
            else:
                out["job_s"].append(seconds)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fillprobe" / "__init__.py").is_file():
        print(f"perfbench: no fillprobe sources at {SRC}; run from the root "
              "of a fillprobe checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    jobs = workloads[args.workload]["jobs"]

    os.environ.pop("FILLPROBE_CACHE_DIR", None)
    fp = _Fillprobe()
    env = environment()
    print(json.dumps({"environment": env}, sort_keys=True))
    entries = sorted({a for job in jobs for a in job["argv"] if a in fp.catalog.CATALOG})
    setup_s = None if args.trace else measure_setup(entries)

    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result = measure(jobs, fp, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass   # another run is using it

    job_medians = [statistics.median(times) for times in zip(*result["job_s"])]
    for job, times, median in zip(jobs, zip(*result["job_s"]), job_medians):
        print(f"job {job['id']}: median {median:.3f} s over {len(times)} untraced passes")
    print("pass walls " + " ".join(f"{sum(p):.3f}" for p in result["job_s"]))
    for err in result["errors"][:20]:
        print(f"FAILED {err}")
    print(f"failed_ratio {result['failed']}/{result['attempted']}")

    correct = result["failed"] == 0
    if args.trace:
        layers = result["layers"]
        values = {}
        for name in layers[0]:
            series = [layer[name] for layer in layers]
            if name.endswith("_s"):
                values[name] = float(statistics.median(series))
            elif len(set(series)) == 1:
                values[name] = series[0]
            else:
                correct = False
                print(f"NONDETERMINISTIC {name}: {series}")
        values["trace.overhead_ratio"] = (
            statistics.median(result["traced_walls"])
            / statistics.median([sum(p) for p in result["job_s"]]))
        wanted = bench["per_layer"]
        results_dir = HERE / "results"
        results_dir.mkdir(exist_ok=True)
        spans_path = results_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"environment": env, "workload": args.workload, "seed": args.seed,
             "spans": [s.to_dict() for s in result["spans"]]}), encoding="utf-8")
    else:
        values = {"wall_s": sum(job_medians),
                  "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
