"""Self-test of the benchmark on a one-job slice (about 10 s).

    python3 perfbench/selftest.py

Checks that a deliberately wrong pinned answer is counted as a failure,
that the per-layer counters repeat exactly across two traced passes, and
that the Z2 winding-number oracle gives known areas.  Exits 0 when all
hold.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile

import run
from spans import Tracer, per_layer


def _slice():
    workloads = json.loads((run.HERE / "workloads.json").read_text(encoding="utf-8"))
    job = workloads["workloads"]["filling-lp"]["jobs"][0]
    wrong = copy.deepcopy(job)
    wrong["check"]["Q"] = "2/1"
    return job, wrong


def _traced_counts(job, fp, ctx):
    tracer = Tracer()
    tracer.install()
    try:
        _, errors = run.run_pass([job], fp, ctx, tracer)
    finally:
        tracer.uninstall()
    counts = {k: v for k, v in per_layer(tracer.spans).items() if not k.endswith("_s")}
    return errors, counts


def main() -> int:
    problems = []
    areas = {"a b a^-1 b^-1": 1, "a^2 b^2 a^-2 b^-2": 4,
             "a b a^-1 b^-1 b a b^-1 a^-1": 0, "a^2 b a^-1 b a^-1 b^-2": 3}
    for word, area in areas.items():
        if run.z2_area(word) != area:
            problems.append(f"oracle area of {word!r} is {run.z2_area(word)}, want {area}")

    fp = run._Fillprobe()
    job, wrong = _slice()
    (run.HERE / "work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.HERE / "work")
    ctx = {"seed": 0, "cache": work, "export": work + "/ball.json"}
    try:
        _, errors = run.run_pass([job, wrong], fp, ctx)
        if errors[0] is not None:
            problems.append(f"correct pin reported as failed: {errors[0]}")
        if errors[1] is None:
            problems.append("wrong pinned answer was not counted as a failure")
        first_errors, first = _traced_counts(job, fp, ctx)
        second_errors, second = _traced_counts(job, fp, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if any(first_errors + second_errors):
        problems.append(f"traced passes failed: {first_errors + second_errors}")
    if first != second:
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        problems.append(f"per-layer counters differ between traced passes: {diff}")
    if not first.get("exactlp.lp_pivots"):
        problems.append("traced pass recorded no LP pivots")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
