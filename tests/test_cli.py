import json
from pathlib import Path

import pytest

from fillprobe import cli, complexes
from fillprobe.catalog import CATALOG, load
from fillprobe.cli import main
from fillprobe.complexes import clear_memo
from fillprobe.presentation import parse_presentation
from fillprobe.rationals import parse_q

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_catalog_ok(capsys):
    code, out = run_cli(capsys, "parse", "Z2")
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["rewriting"]["status"] == "confluent"


def test_parse_file(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("generators: x, y\nrelator: x y x^-1 y^-1\n")
    code, out = run_cli(capsys, "parse", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["generators"] == ["x", "y"]


def test_parse_json_file_with_rules(tmp_path, capsys):
    payload = {
        "generators": ["a", "b"],
        "relators": ["a b a^-1 b^-1"],
        "rules": [["b a", "a b"], ["b a^-1", "a^-1 b"],
                  ["b^-1 a", "a b^-1"], ["b^-1 a^-1", "a^-1 b^-1"]],
    }
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "parse", str(path))
    assert code == 0
    assert json.loads(out)["rewriting"] == {"status": "confluent", "rules": 4}


def test_parse_syntax_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("generators a\n")
    code, out = run_cli(capsys, "parse", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["valid"] is False
    assert report["line"] == 1


def test_parse_unknown_source_exit_2(capsys):
    code, out = run_cli(capsys, "parse", "NoSuchGroup")
    assert code == 2


def test_fill_z2_both_rings(capsys):
    code, out = run_cli(capsys, "fill", "Z2", "a b a^-1 b^-1")
    assert code == 0
    report = json.loads(out)
    assert report["certificates"]["Q"]["value"] == "1/1"
    assert report["certificates"]["Z"]["value"] == "1/1"


def test_fill_builds_start_ball_once_when_it_is_the_reach_ball(capsys, monkeypatch):
    # the S2 product of commutators reaches radius 4, the start radius, so
    # the chain and the escalation share one radius-4 ball
    built = []
    real_build_ball = complexes.build_ball

    def counting_build_ball(presentation, rws, radius, **kwargs):
        built.append(radius)
        return real_build_ball(presentation, rws, radius, **kwargs)

    monkeypatch.setattr(complexes, "build_ball", counting_build_ball)
    monkeypatch.setattr(cli, "build_ball", counting_build_ball)
    monkeypatch.delenv("FILLPROBE_CACHE_DIR", raising=False)
    clear_memo()
    code, out = run_cli(capsys, "--radius-cap", "5", "fill", "S2",
                        "a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1", "--radius", "4")
    clear_memo()
    assert code == 0
    assert json.loads(out)["certificates"]["Q"]["value"] == "1/1"
    assert built.count(4) == 1


def test_fill_not_closed_exit_3(capsys):
    code, out = run_cli(capsys, "fill", "Z2", "a b")
    assert code == 3
    # in the free group the commutator does not close either
    code, out = run_cli(capsys, "fill", "F2", "a b a^-1 b^-1")
    assert code == 3


def test_fill_no_cells_exit_4(capsys):
    # normal forms supplied by rules, but no relators: the graph carries
    # no 2-cells, so the closed commutator cannot bound
    code, out = run_cli(capsys, "fill", str(DATA / "torus_graph.json"),
                        "a b a^-1 b^-1")
    assert code == 4
    assert "NoWithinBall" in json.loads(out)["error"]


def test_fill_radius_cap_too_small_exit_5(capsys):
    code, out = run_cli(capsys, "--radius-cap", "1", "fill", "Z2", "a b a^-1 b^-1")
    assert code == 5


def test_fill_surface_clamps_radius_to_vertex_cap(capsys):
    # the loop reaches radius 4, where escalation starts; the radius-5
    # ball (22289 vertices) would blow the cap, so the top of the window
    # must clamp down to the feasible radius 4 and the fill still succeed
    code, out = run_cli(capsys, "--vertex-cap", "5000", "fill", "S2",
                        "a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1")
    assert code == 0
    report = json.loads(out)
    assert report["certificates"]["Q"]["value"] == "1/1"
    assert report["radius_window"] == [4, 4]


def test_fill_default_window_starts_at_the_loop_reach(capsys):
    # the walk's prefixes reach normal-form length 3 (a b c)
    code, out = run_cli(capsys, "fill", "Z3", "a b c a^-1 b^-1 c^-1")
    assert code == 0
    report = json.loads(out)
    assert report["radius_window"] == [3, 5]
    assert report["certificates"]["Q"]["value"] == "3/1"
    assert report["certificates"]["Z"]["value"] == "3/1"


def _old_start_radius(source, l1):
    """The start radius that fill took before it started at the loop's
    reach: half the loop's mass, plus one, plus the longest relator."""
    if source in CATALOG:
        presentation, _ = load(source)
    else:
        presentation = parse_presentation(Path(source).read_text())
    return int(parse_q(l1)) // 2 + 1 + presentation.max_relator_length()


@pytest.mark.parametrize("source, word", [
    ("Z2", "a b a^-1 b^-1"),
    ("Z2", "a^2 b^2 a^-2 b^-2"),
    ("Z2", "a^3 b^3 a^-3 b^-3"),
    ("Z2", "a^2 b a^-2 b^-1"),
    ("Z2", "a b^2 a^-1 b^-2"),
    ("Z2", "a b a^-1 b^-1 a b a^-1 b^-1"),
    ("Z2", "a b a^-1 b^-1 b a b^-1 a^-1"),
    ("Z2", "a^2 b^-1 a^-2 b"),
    ("Z2", "a b a b^-1 a^-2"),
    ("F1", "a a a^-1 a^-1"),
    ("F2", "a b b^-1 a^-1"),
    ("z3_cube_sixth.txt", "a^3"),
    ("z3_cube_sixth.txt", "a^6"),
    ("z3_cube_sixth.txt", "a^9"),
    ("z3_cube_sixth.txt", "a^12"),
])
def test_fill_from_reach_matches_old_start_radius(capsys, source, word):
    # the default window starts at the loop's reach, below the old
    # start; both must stabilize at the same value with the same filling
    if source not in CATALOG:
        source = str(DATA / source)
    clear_memo()
    code, out = run_cli(capsys, "fill", source, word)
    assert code == 0
    new = json.loads(out)
    start = _old_start_radius(source, new["l1"])
    code, out = run_cli(capsys, "--radius-cap", str(start + 2),
                        "fill", source, word, "--radius", str(start))
    assert code == 0
    old = json.loads(out)
    for ring in ("Q", "Z"):
        for key in ("value", "status", "witness"):
            assert new["certificates"][ring][key] == old["certificates"][ring][key]


def test_fv_sampled_mode_auto_switch(capsys):
    code, out = run_cli(capsys, "fv", "Z2", "--k-max", "13")
    assert code == 0
    report = json.loads(out)
    assert report["fv"]["mode"] == "sampled"
    assert report["fv"]["table"]["4"]["value"] == "1/1"


def test_fv_writes_csv_and_json(tmp_path, capsys):
    prefix = str(tmp_path / "z2")
    code, out = run_cli(capsys, "--out", prefix, "fv", "Z2", "--k-max", "6")
    assert code == 0
    report = json.loads((tmp_path / "z2.json").read_text())
    assert report["fv"]["table"]["4"]["value"] == "1/1"
    assert report["fv"]["table"]["6"]["value"] == "2/1"
    lines = (tmp_path / "z2.csv").read_text().splitlines()
    assert lines[0] == "k,value,radius,status"
    assert lines[2].startswith("4,1/1,")


@pytest.mark.parametrize("argv, expected", [
    (["fv", "Z2", "--k-max", "2"], 2),
    (["parse", "Z2"], 0),
], ids=["error-report", "report-without-table"])
def test_out_files_hold_only_the_latest_report(tmp_path, capsys, argv, expected):
    prefix = str(tmp_path / "p")
    assert run_cli(capsys, "--out", prefix, "fv", "Z2", "--k-max", "5")[0] == 0
    assert (tmp_path / "p.csv").exists()
    code, out = run_cli(capsys, "--out", prefix, *argv)
    assert code == expected
    assert (tmp_path / "p.json").read_text() == out
    assert not (tmp_path / "p.csv").exists()


def test_argparse_rejection_replaces_out_files_with_error_report(tmp_path, capsys):
    (tmp_path / "p.json").write_text("{}\n")
    (tmp_path / "p.csv").write_text("k,value,radius,status\n")
    code = main(["--out", str(tmp_path / "p"), "fv", "Z2", "--k-max", "x"])
    captured = capsys.readouterr()
    message = "argument --k-max: invalid int value: 'x'"
    # argparse's usage and message go to stderr, and stdout stays empty
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: fillprobe fv ")
    assert captured.err.endswith(f"fillprobe fv: error: {message}\n")
    assert json.loads((tmp_path / "p.json").read_text()) == {"error": message}
    assert not (tmp_path / "p.csv").exists()


def test_argparse_rejection_before_out_replaces_out_files(tmp_path, capsys):
    # argparse stops at --vertex-cap x, before it reads --out
    prefix = str(tmp_path / "p")
    assert main(["--out", prefix, "fv", "Z2", "--k-max", "5"]) == 0
    assert (tmp_path / "p.csv").exists()
    code = main(["--vertex-cap", "x", "--out", prefix, "parse", "Z2"])
    captured = capsys.readouterr()
    message = "argument --vertex-cap: invalid int value: 'x'"
    assert code == 2
    assert captured.err.endswith(f"fillprobe: error: {message}\n")
    assert json.loads((tmp_path / "p.json").read_text()) == {"error": message}
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("argv, out_written", [
    (["--out", "{missing}/p", "parse", "Z2"], False),
    (["--out", "{tmp}/p", "ball", "Z2", "--radius", "1",
      "--export", "{missing}/b.json"], True),
    (["--out", "{tmp}/p", "parse", "{tmp}"], True),
], ids=["out-dir-missing", "export-dir-missing", "source-is-a-directory"])
def test_os_error_gives_one_error_report_exit_2(tmp_path, capsys, argv, out_written):
    argv = [a.format(tmp=tmp_path, missing=tmp_path / "missing") for a in argv]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    # one report on stdout, and no success report before it
    assert list(json.loads(out)) == ["error"]
    if out_written:
        assert (tmp_path / "p.json").read_text() == out
    else:
        assert "p.json" in json.loads(out)["error"]


def test_fv_csv_stdout_format(capsys):
    code, out = run_cli(capsys, "--format", "csv", "fv", "Z2", "--k-max", "4")
    assert code == 0
    assert out.splitlines()[0] == "k,value,radius,status"


def test_probe_hyperbolic_verdicts(capsys):
    code, out = run_cli(capsys, "probe", "hyperbolic", "F2", "--k-max", "6")
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "consistent-with-hyperbolic"

    code, out = run_cli(capsys, "probe", "hyperbolic", "Z2", "--k-max", "8")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["verdict"] == "non-hyperbolic-evidence"
    assert report["witness"]["ratio"] == "1/2"


def test_probe_amenable_report(capsys):
    code, out = run_cli(capsys, "probe", "amenable", "F2", "--radii", "2,3")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["table"]["2"]["t"] == "5/12"
    assert report["table"]["3"]["t"] == "17/36"


def test_probe_amenable_bad_radii_exit_2(capsys):
    code, out = run_cli(capsys, "probe", "amenable", "F2", "--radii", "x,y")
    assert code == 2


def test_ball_report_and_export(tmp_path, capsys):
    export = str(tmp_path / "complex.json")
    code, out = run_cli(capsys, "ball", "Z2", "--radius", "2",
                        "--export", export)
    assert code == 0
    report = json.loads(out)
    assert report["vertices"] == 13
    assert report["cells"] == 4
    data = json.loads((tmp_path / "complex.json").read_text())
    assert len(data["vertices"]) == 13
    assert data["radius"] == 2


def test_ball_incomplete_system_exit_5(capsys):
    code, out = run_cli(capsys, "--kb-max-rules", "8",
                        "ball", "BS12", "--radius", "1")
    assert code == 5
    assert "incomplete" in json.loads(out)["error"]


def test_bad_rules_exit_2(tmp_path, capsys):
    payload = {"generators": ["a", "b"], "relators": [],
               "rules": [["a b", "b a a"]]}   # not shortlex-reducing
    path = tmp_path / "bad_rules.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "parse", str(path))
    assert code == 2
    assert "bad rules" in out


def test_rules_inconsistent_with_relators_exit_2(tmp_path, capsys):
    # confluent rules that present a different group than the relators
    payload = {"generators": ["a", "b"],
               "relators": ["a b a^-1 b^-1"],
               "rules": []}   # free-group normal forms
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "parse", str(path))
    assert code == 2
    assert "trivialize" in out


def test_bad_k_max_exit_2(capsys):
    code, out = run_cli(capsys, "fv", "Z2", "--k-max", "2")
    assert code == 2


def test_negative_cap_exit_2(capsys):
    code, out = run_cli(capsys, "--vertex-cap", "-5", "parse", "Z2")
    assert code == 2


def test_parse_completion_required_entry(capsys):
    # parsing succeeds even when bounded completion cannot finish; the
    # report carries the incomplete status
    code, out = run_cli(capsys, "--kb-max-rules", "16", "parse", "H3")
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["rewriting"]["status"] == "incomplete"


def test_catalog_list(capsys):
    code, out = run_cli(capsys, "catalog", "list")
    assert code == 0
    names = [e["name"] for e in json.loads(out)["catalog"]]
    assert names == ["F1", "F2", "Z2", "Z3", "H3", "S2", "BS12"]


def test_reproducible_reports(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert run_cli(capsys, "--seed", "0", "--out", a, "fv", "Z2", "--k-max", "6")[0] == 0
    assert run_cli(capsys, "--seed", "0", "--out", b, "fv", "Z2", "--k-max", "6")[0] == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sampled_mode_reproducible(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    args = ["--seed", "7", "fv", "Z2", "--k-max", "13", "--mode", "sampled"]
    assert run_cli(capsys, "--out", a, *args)[0] == 0
    assert run_cli(capsys, "--out", b, *args)[0] == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_cache_dir_roundtrip(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("FILLPROBE_CACHE_DIR", str(cache))
    clear_memo()
    code, first = run_cli(capsys, "fill", "Z2", "a b a^-1 b^-1")
    assert code == 0
    cached_files = list(cache.iterdir())
    assert cached_files
    clear_memo()
    code, second = run_cli(capsys, "fill", "Z2", "a b a^-1 b^-1")
    assert code == 0
    assert first == second
    clear_memo()


def test_cache_dir_recovers_from_truncated_file(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["--cache-dir", str(cache), "--radius-cap", "3",
            "fill", "Z2", "a b a^-1 b^-1", "--radius", "2"]
    clear_memo()
    code, clean = run_cli(capsys, *args)
    assert code == 0
    (r2,) = cache.glob("*_r2.json")
    r2.write_bytes(r2.read_bytes()[:99])
    for _ in range(2):
        clear_memo()
        code, out = run_cli(capsys, *args)
        assert code == 0
        assert out == clean
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        p.name for p in cache.glob("*.json"))
    clear_memo()


def _assert_edited_cache_file_is_rebuilt(tmp_path, capsys, edit):
    """Fill Z2 at radius 4, apply ``edit`` to the cached radius-4 file's
    JSON, and fill again: same report, and the file rewritten as it was."""
    cache = tmp_path / "cache"
    args = ["--cache-dir", str(cache), "--radius-cap", "5",
            "fill", "Z2", "a b a^-1 b^-1", "--radius", "4"]
    clear_memo()
    code, clean = run_cli(capsys, *args)
    assert code == 0
    (r4,) = cache.glob("*_r4.json")
    good = r4.read_bytes()
    data = json.loads(good)
    edit(data)
    r4.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")))
    clear_memo()
    code, out = run_cli(capsys, *args)
    assert code == 0
    assert out == clean
    assert r4.read_bytes() == good
    clear_memo()


def test_cache_dir_rebuilds_inconsistent_file(tmp_path, capsys):
    # a well-formed file with one d2 sign flipped loads as a miss
    def flip_first_d2_sign(data):
        data["d2"][0][2] = -data["d2"][0][2]
    _assert_edited_cache_file_is_rebuilt(tmp_path, capsys, flip_first_d2_sign)


def test_cache_dir_rebuilds_file_with_another_cycle_for_a_cell(tmp_path, capsys):
    # cell 0's column replaced by the sum of cells 0 and 1's columns:
    # still a cycle, so d1 d2 = 0, but not the complex the system gives
    def replace_first_d2_column(data):
        col = {}
        for e, ci, c, _ in data["d2"]:
            if ci < 2:
                col[e] = col.get(e, 0) + c
        data["d2"] = sorted([[e, 0, c, 1] for e, c in col.items() if c]
                            + [entry for entry in data["d2"] if entry[1]],
                            key=lambda entry: (entry[1], entry[0]))
    _assert_edited_cache_file_is_rebuilt(tmp_path, capsys, replace_first_d2_column)


def test_cache_dir_rebuilds_file_with_edges_out_of_order(tmp_path, capsys):
    # the same complex with its last two edges swapped, d2 following
    # them: edge ids are found by bisection, which needs the edge order
    def swap_last_two_edges(data):
        edges, last = data["edges"], len(data["edges"]) - 1
        edges[last - 1], edges[last] = edges[last], edges[last - 1]
        swap = {last - 1: last, last: last - 1}
        for entry in data["d2"]:
            entry[0] = swap.get(entry[0], entry[0])
    _assert_edited_cache_file_is_rebuilt(tmp_path, capsys, swap_last_two_edges)


@pytest.mark.parametrize("new", ["b a", "a^2"],
                         ids=["reducible-word", "repeated-word"])
def test_cache_dir_rebuilds_file_whose_words_are_not_normal_forms(
        tmp_path, capsys, new):
    # vertex a b renamed to a word of the same length, so depths still
    # check out: b a reduces to a b, and a^2 is another vertex's word
    def rename(data):
        data["vertices"][data["vertices"].index("a b")] = new
    _assert_edited_cache_file_is_rebuilt(tmp_path, capsys, rename)


@pytest.mark.parametrize("new", ["q", "a^x"],
                         ids=["unknown-generator", "malformed-letter"])
def test_cache_dir_rebuilds_file_whose_words_do_not_parse(tmp_path, capsys, new):
    def rename(data):
        data["vertices"][1] = new
    _assert_edited_cache_file_is_rebuilt(tmp_path, capsys, rename)


def test_probe_amenable_vertex_cap_gives_capped_row(capsys):
    # Z2 balls of radius 2, 3, 4 have 13, 25 and 41 vertices
    code, out = run_cli(capsys, "--vertex-cap", "30",
                        "probe", "amenable", "Z2", "--radii", "2,3,4")
    assert code == 5
    report = json.loads(out)["report"]
    assert report["table"]["2"]["status"] == "optimal"
    assert report["table"]["3"]["status"] == "optimal"
    assert report["table"]["4"]["status"] == "capped"
    assert report["verdict"] == "Inconclusive"
