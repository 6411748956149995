"""Pinned report bytes and exit codes for cheap CLI commands.

The expected files under ``tests/data/golden/`` hold the exact stdout of
each command, success and error reports alike.  A refactor that changes any report byte (a value, a
witness entry, a radius, key order or whitespace) fails here, which a
comparison of two runs of the same code cannot catch.
"""

from pathlib import Path

import pytest

from fillprobe.cli import main
from fillprobe.complexes import clear_memo

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

CASES = {
    "fill_z2_commutator_r2": ["--radius-cap", "3", "fill", "Z2", "a b a^-1 b^-1",
                              "--radius", "2"],
    "fill_z3_commutator_r3": ["--radius-cap", "4", "fill", "Z3", "a b c a^-1 b^-1 c^-1",
                              "--radius", "3"],
    # the default fill window; CI compares the console script's stdout
    # with this file
    "fill_z2_commutator": ["fill", "Z2", "a b a^-1 b^-1"],
    # filling-lp's fill-s2-r4 job
    "fill_s2_r4": ["--radius-cap", "5", "fill", "S2", "a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1",
                   "--radius", "4"],
    "probe_amenable_f2": ["probe", "amenable", "F2", "--radii", "2,3"],
    "probe_hyperbolic_z2_k6": ["probe", "hyperbolic", "Z2", "--k-max", "6"],
    "probe_hyperbolic_z2_k10": ["probe", "hyperbolic", "Z2", "--k-max", "10"],
    "probe_hyperbolic_z3_k6": ["probe", "hyperbolic", "Z3", "--k-max", "6"],
    # filling-lp's hyp-s2-k8 job, which solves on the S2 r4 and r5
    # complexes; CI compares the console script's stdout with this file
    "probe_hyperbolic_s2_k8": ["probe", "hyperbolic", "S2", "--k-max", "8"],
    "probe_hyperbolic_z2_sampled_seed3": ["--seed", "3", "probe", "hyperbolic", "Z2",
                                          "--mode", "sampled", "--k-max", "8"],
    "ball_s2_r2": ["ball", "S2", "--radius", "2"],
    # <a | a^3, a^6>: the Q optimum 1/2 is fractional, so Z branches
    "fill_z3_cube_sixth_a3": ["fill", str(DATA / "z3_cube_sixth.txt"), "a^3"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, capsys):
    clear_memo()
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


# one command per error path: (exit code, argv)
ERROR_CASES = {
    "error_unknown_source": (2, ["parse", "NoSuchGroup"]),
    "error_unknown_generator": (2, ["fill", "Z2", "a z"]),
    "error_negative_cap": (2, ["--vertex-cap", "-5", "parse", "Z2"]),
    "error_k_max_too_small": (2, ["fv", "Z2", "--k-max", "2"]),
    "error_bad_radii": (2, ["probe", "amenable", "F2", "--radii", "x,y"]),
    "error_not_closed": (3, ["fill", "Z2", "a b"]),
    # rules without relators: a graph with no 2-cells
    "error_no_cells": (4, ["fill", str(DATA / "torus_graph.json"), "a b a^-1 b^-1"]),
    "error_incomplete_system": (5, ["--kb-max-rules", "8", "ball", "BS12", "--radius", "1"]),
    "error_vertex_cap_ball": (5, ["--vertex-cap", "10", "ball", "Z2", "--radius", "3"]),
    "error_vertex_cap_fill": (5, ["--vertex-cap", "10", "fill", "Z2", "a b a^-1 b^-1"]),
    "error_vertex_cap_fv": (5, ["--vertex-cap", "10", "fv", "Z2", "--k-max", "4"]),
    "error_radius_cap": (5, ["--radius-cap", "1", "fill", "Z2", "a b a^-1 b^-1"]),
    # a partial report: the Q certificate, and the budget error for Z
    "error_node_budget": (5, ["--node-budget", "1", "fill",
                              str(DATA / "z3_cube_sixth.txt"), "a^3"]),
}


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_error_report_bytes_match_golden(name, capsys):
    clear_memo()
    expected_code, argv = ERROR_CASES[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
