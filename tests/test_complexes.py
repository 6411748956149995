import copy
import dataclasses
import hashlib
import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fillprobe import complexes
from fillprobe.catalog import CATALOG, load
from fillprobe.complexes import (
    CayleyBall,
    Chain,
    TwoComplex,
    _sign_canonical,
    _walk,
    attach_cells,
    build_ball,
    complex_from_json,
    complex_to_json,
    d1_composed_with_d2_is_zero,
    enumerate_circuits,
    get_complex,
    clear_memo,
    word_to_edge_chain,
)
from fillprobe.errors import IncompleteSystemError, ResourceLimitError
from fillprobe.presentation import (
    parse_presentation,
    presentation_rules_from_json,
    word_to_text,
)
from fillprobe.rationals import Q
from fillprobe.rewriting import knuth_bendix_bounded, system_from_rules


def f2_ball_size(radius):
    return 1 + sum(4 * 3 ** (k - 1) for k in range(1, radius + 1))


def test_f2_ball_counts(f2):
    presentation, rws = f2
    for radius in range(6):
        ball = build_ball(presentation, rws, radius)
        assert ball.num_vertices == f2_ball_size(radius)
    ball = build_ball(presentation, rws, 2)
    assert ball.num_vertices == 17
    assert ball.num_edges == 16


def test_z2_ball_counts(z2):
    presentation, rws = z2
    for radius in range(6):
        ball = build_ball(presentation, rws, radius)
        assert ball.num_vertices == 2 * radius * radius + 2 * radius + 1


def test_z3_ball_counts(z3):
    presentation, rws = z3
    # centered octahedral numbers
    for radius, expect in enumerate((1, 7, 25, 63, 129)):
        ball = build_ball(presentation, rws, radius)
        assert ball.num_vertices == expect


def test_radius_zero_trivial(z2):
    presentation, rws = z2
    ball = build_ball(presentation, rws, 0)
    assert ball.num_vertices == 1
    assert ball.num_edges == 0
    assert ball.word(0) == ()


_TRIVIAL_A = "generators: a, b\nrelator: a\n"


def test_trivial_generator_loops_by_radius():
    # a = 1, so every vertex carries an a-loop, boundary layer included;
    # the radius-0 ball stays edgeless
    presentation = parse_presentation(_TRIVIAL_A)
    rws = knuth_bendix_bounded(presentation)
    for radius, edges in ((0, 0), (1, 5), (2, 9)):
        assert build_ball(presentation, rws, radius).num_edges == edges


def _system(source):
    """A catalog entry, or a presentation text with the rules it supplies
    or, if none, its completed system."""
    if source in CATALOG:
        return load(source)
    presentation = parse_presentation(source)
    rules = presentation_rules_from_json(source)
    if rules is None:
        return presentation, knuth_bendix_bounded(presentation)
    pairs = [(presentation.word(l), presentation.word(r)) for l, r in rules]
    return presentation, system_from_rules(presentation.num_generators, pairs)


# sha256 of complex_to_json(attach_cells(build_ball(...))) by (source, radius)
_COMPLEX_SHA256 = {
    ("S2", 0): "cedae4c3a07189a3fb7a2f67b357f28d7f99d4eab1d368e38d3530420368e17a",
    ("S2", 4): "9187625d40640a6c2b8f32a3c42cd31f07f2dfcdf4a919145cf884e1d82d6fa6",
    ("S2", 5): "122c84c4a8e252bb5e42058f6f298cbcb89f867f6d2c52724b945907bab22a0e",
    ("F2", 7): "744823efae8bac61759c1b68641e73f5191a2235890fd01be131b8841842f3a4",
    ("Z2", 1): "433f8c66bb24fc3484387bd607a38c7a9f09d21a73b48f3906754dd8204ec921",
    ("Z2", 9): "690229886e81246d36486ae3c2beee51abbf57d2883848fe8773ac52493cadd8",
    ("Z3", 0): "90a76b46794b3d7548ed21df1909c02e41c0a6bb32e94ef20f2ef7f07f1d72f2",
    ("Z3", 4): "e2bb1acacd5129a6644e4ccab54aa220aafbc58dab3738c981816c080339e791",
    (_TRIVIAL_A, 0): "b4bbc49f048c16d437aaf82686f5e69ac588123bb2e458e58a40de0f1783d56a",
    (_TRIVIAL_A, 1): "e8abab74d8a209de3b1efb87151ff30945d874c07724083fa1fb57cd68dab6d7",
    (_TRIVIAL_A, 2): "579e25a7a2485e46b388a4b53e13ffe07457ba1a97737f2979d9554e115b8a02",
    (_TRIVIAL_A, 3): "326eb5c1ea185d1cc551c34a2e2cfff67b8f50720267f967b2f0a3f374e585d4",
}


@pytest.mark.parametrize("source, radius", list(_COMPLEX_SHA256),
                         ids=lambda v: "a,b|a" if v == _TRIVIAL_A else None)
def test_complex_bytes_pinned(source, radius):
    # vertex order, edge order, cells and d2 columns, byte for byte
    presentation, rws = _system(source)
    complex_ = attach_cells(build_ball(presentation, rws, radius), presentation)
    text = complex_to_json(complex_)
    assert hashlib.sha256(text.encode()).hexdigest() == _COMPLEX_SHA256[source, radius]


@pytest.mark.parametrize("source, radius", [k for k in _COMPLEX_SHA256 if k[1] >= 2],
                         ids=lambda v: "a,b|a" if v == _TRIVIAL_A else None)
def test_grown_complex_bytes_pinned(monkeypatch, source, radius):
    # get_complex grows each radius from the one below it in the memo
    presentation, rws = _system(source)
    grown_from, build = [], complexes.build_ball

    def recording_build(*args, grow_from=None, **kwargs):
        grown_from.append(grow_from and grow_from.radius)
        return build(*args, grow_from=grow_from, **kwargs)

    monkeypatch.setattr(complexes, "build_ball", recording_build)
    clear_memo()
    try:
        for r in range(radius + 1):
            complex_ = get_complex(presentation, rws, r)
    finally:
        clear_memo()
    assert grown_from == [None, *range(radius)]
    text = complex_to_json(complex_)
    assert hashlib.sha256(text.encode()).hexdigest() == _COMPLEX_SHA256[source, radius]


@pytest.mark.parametrize("source, radius", [
    ("F1", 8), ("F2", 7), ("Z2", 9), ("Z3", 4), ("S2", 5), (_TRIVIAL_A, 3)],
    ids=lambda v: "a,b|a" if v == _TRIVIAL_A else None)
def test_depth_is_normal_form_length(source, radius):
    # a shortlex normal form is a shortest word for its element, so BFS
    # depth (graph distance) is its length
    presentation, rws = _system(source)
    assert rws.confluent
    ball = build_ball(presentation, rws, radius)
    assert list(ball.depth) == [len(ball.word(v)) for v in range(ball.num_vertices)]


def _reference_ball(presentation, rws, radius):
    """build_ball's BFS as it was before the index automaton: every move
    reduces from the vertex word with the appended letter pending.
    Returns (vertices, depth, edges, index, neighbors)."""
    ngens = presentation.num_generators
    letters = [g for g in range(1, ngens + 1)] + [-g for g in range(1, ngens + 1)]
    vertices, depth, index, neighbors = [()], [0], {(): 0}, [dict()]
    v = 0
    while radius > 0 and v < len(vertices):
        word = vertices[v]
        for x in letters:
            if x in neighbors[v]:
                continue
            target = rws.reduce((x,), word)
            t = index.get(target)
            if t is None:
                if depth[v] == radius:
                    continue
                t = len(vertices)
                vertices.append(target)
                depth.append(depth[v] + 1)
                index[target] = t
                neighbors.append(dict())
            neighbors[v][x] = t
            neighbors[t][-x] = v
        v += 1
    raw_edges = sorted(
        (max(depth[v], depth[t]), v, g, t)
        for v in range(len(vertices)) for g in range(1, ngens + 1)
        if (t := neighbors[v].get(g)) is not None)
    edges = [(v, g, t) for _, v, g, t in raw_edges]
    return vertices, depth, edges, index, neighbors


# S3 = <a, b | a^2, b^2, (ab)^3> with its confluent rules supplied in the
# file; a^-1 -> a and b^-1 -> b have one-letter left-hand sides
_S3_RULES_FILE = json.dumps({
    "generators": ["a", "b"], "relators": ["a^2", "b^2", "a b a b a b"],
    "rules": [["a^-1", "a"], ["b^-1", "b"], ["a^2", ""], ["b^2", ""],
              ["b a b", "a b a"]]})


# its relator keeps word length mod 2, but its rules a -> 1 and
# a^-1 -> 1 do not: every vertex carries an a-loop
_EVEN_RELATOR_ODD_RULES = json.dumps({
    "generators": ["a", "b"], "relators": ["a^2"],
    "rules": [["a", ""], ["a^-1", ""]]})


# b -> a^-1 fires before a^-1 itself: from a^-1, the move on b makes
# a^-2, whose parent link is a^-1's move on a^-1
_B_IS_A_INVERSE = "a, b | a b"
# a group of order 16 whose completed rules make some vertex one letter
# deeper by a firing move from a vertex other than its parent, and whose
# automaton state differs from the one reached from that vertex
_ORDER_16 = "a, b, c | b c^-1, c^-1 a c^-1 a, c b^-3 a^-2"


_BALL_CASES = [*_COMPLEX_SHA256, ("F1", 8), (_S3_RULES_FILE, 2), (_S3_RULES_FILE, 4),
               *((_EVEN_RELATOR_ODD_RULES, r) for r in (1, 2, 3)),
               (_B_IS_A_INVERSE, 3), (_ORDER_16, 3)]


def _case_id(value):
    return {_TRIVIAL_A: "a,b|a", _S3_RULES_FILE: "S3-rules-file",
            _EVEN_RELATOR_ODD_RULES: "a,b|a^2-odd-rules", _B_IS_A_INVERSE: "a,b|ab",
            _ORDER_16: "order-16"}.get(value)


def _flat_links(neighbors, ngens):
    """Per-vertex {signed letter: vertex id} dicts as one flat table."""
    span = 2 * ngens + 1
    links = [-1] * (len(neighbors) * span)
    for v, row in enumerate(neighbors):
        for x, t in row.items():
            links[v * span + ngens + x] = t
    return links


@pytest.mark.parametrize("source, radius", _BALL_CASES, ids=_case_id)
def test_ball_matches_reference_ball(source, radius):
    presentation, rws = _system(source)
    assert rws.confluent
    ball = build_ball(presentation, rws, radius)
    vertices, depth, edges, index, neighbors = _reference_ball(
        presentation, rws, radius)
    ngens = presentation.num_generators
    assert [ball.word(v) for v in range(ball.num_vertices)] == vertices
    assert [ball.edge(e) for e in range(ball.num_edges)] == edges
    assert list(ball.depth) == depth
    assert list(ball.last) == [w[-1] if w else 0 for w in vertices]
    assert list(ball.links) == _flat_links(neighbors, ngens)
    assert all(typecode == "i" for typecode in (
        ball.depth.typecode, ball.last.typecode, ball.links.typecode,
        ball.edges.typecode))
    layers = [max(depth[s], depth[t]) for s, _, t in edges]
    assert [ball.layer(e) for e in range(ball.num_edges)] == layers
    assert ball.starts == [sum(1 for layer in layers if layer < bound)
                           for bound in range(radius + 2)]


@pytest.mark.parametrize("source, radius", _BALL_CASES, ids=_case_id)
def test_grown_ball_matches_a_fresh_build(source, radius):
    # the BFS resumes at the smaller ball's boundary layer, in a copy of
    # its arrays; the smaller ball is left as it was
    presentation, rws = _system(source)
    fresh = build_ball(presentation, rws, radius)
    for r0 in range(1, radius):
        smaller = build_ball(presentation, rws, r0)
        kept = copy.deepcopy(smaller)
        grown = build_ball(presentation, rws, radius, grow_from=smaller)
        for name in ("depth", "last", "links", "edges", "starts"):
            assert getattr(grown, name) == getattr(fresh, name), (r0, name)
        assert smaller == kept


def test_growth_from_radius_zero_builds_fresh():
    # the radius-0 ball made no move, so it lacks the a-loop that layer 0
    # of every larger ball carries
    presentation = parse_presentation(_TRIVIAL_A)
    rws = knuth_bendix_bounded(presentation)
    zero = build_ball(presentation, rws, 0)
    for radius in (1, 2):
        grown = build_ball(presentation, rws, radius, grow_from=zero)
        assert grown == build_ball(presentation, rws, radius)
        assert grown.starts[1] == 1


def test_grow_from_must_be_a_smaller_ball(z2):
    presentation, rws = z2
    b2 = build_ball(presentation, rws, 2)
    for radius in (1, 2):
        with pytest.raises(ValueError, match="smaller ball"):
            build_ball(presentation, rws, radius, grow_from=b2)


@pytest.mark.parametrize("source, radius", _BALL_CASES, ids=_case_id)
def test_edge_ids_match_a_dict_of_edges(source, radius):
    # the bisection within a layer against the (source, generator) ->
    # edge id dict it replaces, on the built ball and on its reload
    presentation, rws = _system(source)
    ball = build_ball(presentation, rws, radius)
    vertices, _, edges, _, _ = _reference_ball(presentation, rws, radius)
    text = complex_to_json(attach_cells(ball, presentation))
    ids = {(s, g): i for i, (s, g, _) in enumerate(edges)}
    for b in (ball, complex_from_json(text, presentation, rws, radius).ball):
        assert [b.word(v) for v in range(b.num_vertices)] == vertices
        assert [b.edge(e) for e in range(b.num_edges)] == edges
        for s, g, t in edges:
            assert b.edge_id(s, g, t) == ids[s, g]
            # one-letter walks along the edge and back against it
            assert _walk(b, s, (g,)) == ({ids[s, g]: 1}, t)
            assert _walk(b, t, (-g,)) == ({ids[s, g]: -1}, s)


@pytest.mark.parametrize("s, g, t", [
    (0, 1, 2),          # vertex 0's link on a is vertex 1, not 2
    (5, 1, 0), (5, 1, -1),  # a from vertex 5 (a^2) leaves the ball
    (0, 0, 0), (0, 3, 1), (0, -1, 3),   # not a generator
    (-1, 1, 0), (13, 1, 0),             # not a vertex
], ids=["other-target", "outside", "outside-to-none", "g-zero", "g-past",
        "g-negative", "s-negative", "s-past"])
def test_edge_id_rejects_an_edge_not_in_the_ball(z2, s, g, t):
    # bisection alone would give a neighboring edge's id
    presentation, rws = z2
    ball = build_ball(presentation, rws, 2)
    assert (ball.num_vertices, ball.edge_id(0, 1, 1)) == (13, 0)
    with pytest.raises(ValueError, match="not in the ball"):
        ball.edge_id(s, g, t)


@pytest.mark.parametrize("letter", [0, 3, -3])
def test_walk_rejects_a_letter_outside_the_generators(z2, letter):
    # without the check, a letter past +-ngens reads a slot of the next
    # or the previous vertex's row
    presentation, rws = z2
    ball = build_ball(presentation, rws, 2)
    with pytest.raises(ValueError, match="outside"):
        word_to_edge_chain(ball, (1, letter))


def _traced_build(source, radius):
    """The ball, and the bytes that tracemalloc sees it hold and peak at
    while it is built."""
    presentation, rws = load(source)
    rws.index_automaton
    tracemalloc.start()
    try:
        ball = build_ball(presentation, rws, radius)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return ball, size, peak


def test_s2_radius_5_ball_stays_small():
    # arrays of C ints, with no word tuple per vertex and no triple per
    # edge: on Python 3.11 the ball holds 1.1 MB and peaks at 2.2 MB
    # while it is built, against 5.6 and 6.0 MB with them (7.0 and
    # 7.7 MB with a word -> vertex id dict as well)
    ball, size, peak = _traced_build("S2", 5)
    assert ball.num_vertices == 22289
    assert size < 1_500_000
    assert peak < 2_600_000


def _held_bytes(obj, seen):
    """sys.getsizeof of obj and of every object it holds, each once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        size += sum(_held_bytes(item, seen) for item in obj)
    elif isinstance(obj, dict):
        size += sum(_held_bytes(item, seen) for pair in obj.items() for item in pair)
    return size


def test_s2_radius_6_ball_stays_small():
    # counted object by object, since tracemalloc makes this build about
    # 40 times slower: the arrays hold 7.5 MB on 64-bit Python, against
    # 44 MB with a word tuple per vertex and a triple per edge
    presentation, rws = load("S2")
    ball = build_ball(presentation, rws, 6)
    assert ball.num_vertices == 155577
    assert _held_bytes(ball, set()) < 10_000_000


def test_s2_radius_5_export_stays_small():
    # written from per-section strings: on Python 3.11 the export peaks
    # 5.7 MB above the complex, its 1.6 MB text included, against 13.9 MB
    # through a payload dict of per-entry lists
    presentation, rws = load("S2")
    complex_ = attach_cells(build_ball(presentation, rws, 5), presentation)
    tracemalloc.start()
    try:
        text = complex_to_json(complex_)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hashlib.sha256(text.encode()).hexdigest() == _COMPLEX_SHA256["S2", 5]
    assert peak < 9_000_000


@pytest.mark.parametrize("source, radius", _BALL_CASES, ids=_case_id)
def test_exported_vertices_are_word_texts(source, radius):
    # complex_to_json builds each vertex's text from its parent's
    presentation, rws = _system(source)
    ball = build_ball(presentation, rws, radius)
    exported = json.loads(complex_to_json(attach_cells(ball, presentation)))
    assert exported["vertices"] == [
        word_to_text(ball.word(v), presentation.generators)
        for v in range(ball.num_vertices)]


def _reference_json(complex_):
    """complex_to_json as it was through a payload dict: json.dumps of
    per-entry lists, with the vertex texts from word_to_text."""
    ball = complex_.ball
    edges = [ball.edge(e) for e in range(ball.num_edges)]
    d1 = []
    for e, (s, _, t) in enumerate(edges):
        if s != t:
            d1 += sorted(([s, e, -1, 1], [t, e, 1, 1]))
    payload = {
        "radius": ball.radius,
        "generators": list(complex_.presentation.generators),
        "vertices": [word_to_text(ball.word(v), complex_.presentation.generators)
                     for v in range(ball.num_vertices)],
        "depth": list(ball.depth),
        "edges": [list(e) for e in edges],
        "cells": [list(c) for c in complex_.cells],
        "d1": d1,
        "d2": [[e, ci, c, 1] for ci, col in enumerate(complex_.d2)
               for e, c in sorted(col.items())],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("source, radius", _BALL_CASES, ids=_case_id)
def test_export_matches_json_dumps_of_its_payload(source, radius):
    presentation, rws = _system(source)
    complex_ = attach_cells(build_ball(presentation, rws, radius), presentation)
    assert complex_to_json(complex_) == _reference_json(complex_)


@pytest.mark.parametrize("source, radius", list(_COMPLEX_SHA256), ids=_case_id)
def test_json_export_survives_a_load(source, radius):
    presentation, rws = _system(source)
    built = attach_cells(build_ball(presentation, rws, radius), presentation)
    text = complex_to_json(built)
    loaded = complex_from_json(text, presentation, rws, radius)
    for f in dataclasses.fields(CayleyBall):
        assert getattr(loaded.ball, f.name) == getattr(built.ball, f.name), f.name
    assert (loaded.cells, loaded.d2) == (built.cells, built.d2)
    assert complex_to_json(loaded) == text


@pytest.mark.parametrize("source, radius", [("S2", 5), ("F2", 7)])
def test_vertex_cap_trips_at_the_vertex_count(source, radius):
    presentation, rws = load(source)
    n = build_ball(presentation, rws, radius).num_vertices
    assert build_ball(presentation, rws, radius, vertex_cap=n).num_vertices == n
    with pytest.raises(ResourceLimitError):
        build_ball(presentation, rws, radius, vertex_cap=n - 1)


@pytest.mark.parametrize("source, radius, cap", [
    ("Z2", 4, 30),              # tripped while radius 4 grows from 25 vertices
    ("Z2", 4, 20),              # already exceeded by the radius-3 ball
    # all 6 elements lie within radius 3, so growth from radius 4 has no
    # vertex of depth 4 to resume at and makes no vertex
    (_S3_RULES_FILE, 5, 5),
], ids=_case_id)
def test_grown_ball_honors_a_smaller_vertex_cap(source, radius, cap):
    # radius - 1 is memoized under the default cap; radius, grown from it
    # under a smaller cap, must fail as a fresh build does
    presentation, rws = _system(source)
    with pytest.raises(ResourceLimitError) as fresh:
        build_ball(presentation, rws, radius, vertex_cap=cap)
    clear_memo()
    try:
        smaller = get_complex(presentation, rws, radius - 1).ball
        with pytest.raises(ResourceLimitError) as grown:
            build_ball(presentation, rws, radius, vertex_cap=cap, grow_from=smaller)
        with pytest.raises(ResourceLimitError) as fetched:
            get_complex(presentation, rws, radius, vertex_cap=cap)
    finally:
        clear_memo()
    for error in (grown, fetched):
        assert (str(error.value), error.value.limit) == (str(fresh.value), cap)


def test_ball_requires_confluence():
    p = parse_presentation("a, t | t a t^-1 a^-2")
    rws = knuth_bendix_bounded(p, max_rules=4)
    with pytest.raises(IncompleteSystemError):
        build_ball(p, rws, 2)


def test_vertex_cap(z2):
    presentation, rws = z2
    with pytest.raises(ResourceLimitError):
        build_ball(presentation, rws, 5, vertex_cap=10)


def test_z2_cells_by_radius(z2):
    presentation, rws = z2
    assert attach_cells(build_ball(presentation, rws, 1), presentation).num_cells == 0
    complex_ = attach_cells(build_ball(presentation, rws, 2), presentation)
    assert complex_.num_cells == 4
    bases = sorted(complex_.ball.word(v) for v, _ in complex_.cells)
    assert len(bases) == 4


def test_f2_no_cells(f2):
    presentation, rws = f2
    complex_ = attach_cells(build_ball(presentation, rws, 3), presentation)
    assert complex_.num_cells == 0


def test_boundary_product_zero(z2, surface):
    for presentation, rws in (z2, surface):
        complex_ = attach_cells(build_ball(presentation, rws, 3), presentation)
        assert d1_composed_with_d2_is_zero(complex_)


def test_boundary_matrices_shapes(z2):
    presentation, rws = z2
    complex_ = attach_cells(build_ball(presentation, rws, 2), presentation)
    for e in range(complex_.ball.num_edges):
        assert sorted(complex_.ball.d1_column(e).values()) == [-1, 1]
    assert len(complex_.d2) == complex_.num_cells
    for col in complex_.d2:
        assert sorted(abs(c) for c in col.values()) == [1, 1, 1, 1]


def test_torsion_presentation_bigon():
    p = parse_presentation("a | a^2")
    rws = knuth_bendix_bounded(p)
    ball = build_ball(p, rws, 1)
    assert ball.num_vertices == 2
    assert ball.num_edges == 2
    complex_ = attach_cells(ball, p)
    # both traversals of the relator loop land on distinct parallel edges,
    # and the two base points give sign-equal columns, merged to one cell
    assert complex_.num_cells == 1
    assert sorted(complex_.d2[0].values()) == [1, 1]
    assert d1_composed_with_d2_is_zero(complex_)


def test_attach_cells_rejects_mismatched_rules():
    # free-group normal forms cannot close a commutator relator loop
    from fillprobe.rewriting import RewritingSystem
    p = parse_presentation("a, b | a b a^-1 b^-1")
    free_rws = RewritingSystem.empty(2)
    ball = build_ball(p, free_rws, 2)
    with pytest.raises(IncompleteSystemError):
        attach_cells(ball, p)


def _reference_cells(ball, presentation):
    """attach_cells as it was before the frontier walk: one _walk per
    (vertex, relator).  Returns (cells, d2)."""
    candidates = []
    for v in range(ball.num_vertices):
        for ri, rel in enumerate(presentation.relators):
            walk = _walk(ball, v, rel)
            if walk is None:
                continue
            col, end = walk
            if end != v:
                raise IncompleteSystemError(
                    "relator loop does not close under this rewriting system; "
                    "the rules and the relators disagree about the group")
            if not col:
                continue
            candidates.append((ball.layer(max(col)), v, ri, col))
    candidates.sort(key=lambda c: c[:3])
    cells, columns, seen = [], [], set()
    for _, v, ri, col in candidates:
        key = _sign_canonical(col)
        if key not in seen:
            seen.add(key)
            cells.append((v, ri))
            columns.append(col)
    return cells, columns


@pytest.mark.parametrize("source, radius", _BALL_CASES, ids=_case_id)
def test_cells_match_reference_cells(source, radius):
    # S2 r5 among them: 56 of its 22289 vertices base a loop in the ball
    presentation, rws = _system(source)
    ball = build_ball(presentation, rws, radius)
    complex_ = attach_cells(ball, presentation)
    assert (complex_.cells, complex_.d2) == _reference_cells(ball, presentation)


@pytest.mark.parametrize("relators", [
    "c a c^-1 a^-1",    # the first letter: its slice would read other slots
    "a c a^-1 c^-1",
    "a^-1 b c^-1",
    "a^5 c",            # every walk leaves the radius-2 ball before c
], ids=["first", "second", "last-negative", "after-every-exit"])
def test_attach_cells_rejects_a_letter_outside_the_generators(z2, relators):
    # the relators of a three-generator presentation on a Z2 ball
    presentation, rws = z2
    ball = build_ball(presentation, rws, 2)
    with pytest.raises(ValueError, match=r"letter -?3 is outside \+-1\.\.\+-2"):
        attach_cells(ball, parse_presentation(f"a, b, c | {relators}"))


@pytest.mark.parametrize("radius", [2, 3])
def test_attach_cells_rejects_a_loop_that_does_not_close(z2, radius):
    # Z2's rules with the Klein bottle's relator: every loop that stays
    # in the ball ends at a^2 from its base
    _, rws = z2
    presentation = parse_presentation("a, b | a b a b^-1")
    ball = build_ball(presentation, rws, radius)
    for attach in (attach_cells, _reference_cells):
        with pytest.raises(IncompleteSystemError, match="does not close"):
            attach(ball, presentation)


def test_s2_radius_5_cells_stay_small():
    # the frontier of one relator is two lists of ints: on Python 3.11
    # attaching the cells peaks at 0.45 MB, against 0.03 MB walking
    # vertex by vertex and 2.0 MB for building the ball
    presentation, rws = load("S2")
    ball = build_ball(presentation, rws, 5)
    tracemalloc.start()
    try:
        complex_ = attach_cells(ball, presentation)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert complex_.num_cells == 56
    assert peak < 1_000_000


def test_index_stability_under_radius_growth(z2):
    presentation, rws = z2
    b3 = build_ball(presentation, rws, 3)
    b4 = build_ball(presentation, rws, 4)
    assert b4.depth[:b3.num_vertices] == b3.depth
    assert b4.last[:b3.num_vertices] == b3.last
    assert b4.edges[:b3.num_edges] == b3.edges
    assert ([b4.word(v) for v in range(b3.num_vertices)]
            == [b3.word(v) for v in range(b3.num_vertices)])
    assert ([b4.edge(e) for e in range(b3.num_edges)]
            == [b3.edge(e) for e in range(b3.num_edges)])
    x3 = attach_cells(b3, presentation)
    x4 = attach_cells(b4, presentation)
    assert x4.cells[:x3.num_cells] == x3.cells
    assert x4.d2[:x3.num_cells] == x3.d2


def test_deterministic_construction(surface):
    presentation, rws = surface
    a = attach_cells(build_ball(presentation, rws, 3), presentation)
    b = attach_cells(build_ball(presentation, rws, 3), presentation)
    assert a.ball == b.ball
    assert a.cells == b.cells
    assert a.d2 == b.d2


def test_circuit_enumeration_z2(z2):
    presentation, rws = z2
    ball = build_ball(presentation, rws, 2)
    circuits = enumerate_circuits(ball, 4)
    assert len(circuits) == 4
    for c in circuits:
        assert c.length == 4
        assert c.chain.l1() == 4

    ball3 = build_ball(presentation, rws, 3)
    circuits6 = enumerate_circuits(ball3, 6)
    by_length = {}
    for c in circuits6:
        by_length[c.length] = by_length.get(c.length, 0) + 1
    # length <= 6: the four unit squares plus twelve 2x1 dominoes
    assert by_length == {4: 4, 6: 12}


def test_circuits_are_cycles(z2):
    presentation, rws = z2
    ball = build_ball(presentation, rws, 3)
    complex_ = attach_cells(ball, presentation)
    for circuit in enumerate_circuits(ball, 6):
        assert complex_.apply_d1(circuit.chain).is_zero()


def test_circuit_walk_cap(z2):
    presentation, rws = z2
    ball = build_ball(presentation, rws, 3)
    with pytest.raises(ResourceLimitError):
        enumerate_circuits(ball, 6, walk_cap=10)


def test_f2_has_no_circuits(f2):
    presentation, rws = f2
    ball = build_ball(presentation, rws, 3)
    assert enumerate_circuits(ball, 6) == []


def test_max_len_minimum(z2):
    presentation, rws = z2
    ball = build_ball(presentation, rws, 2)
    with pytest.raises(ValueError):
        enumerate_circuits(ball, 2)


def test_surface_octagons(surface):
    presentation, rws = surface
    ball = build_ball(presentation, rws, 4)
    circuits = enumerate_circuits(ball, 8)
    assert len(circuits) == 8
    assert all(c.length == 8 for c in circuits)
    complex_ = attach_cells(ball, presentation)
    assert complex_.num_cells == 8


def test_json_roundtrip(z2):
    presentation, rws = z2
    complex_ = attach_cells(build_ball(presentation, rws, 2), presentation)
    text = complex_to_json(complex_)
    loaded = complex_from_json(text, presentation, rws, 2)
    assert loaded.ball == complex_.ball
    assert loaded.cells == complex_.cells
    assert loaded.d2 == complex_.d2


def _corrupt(text, edit):
    data = json.loads(text)
    edit(data)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _flip_first_d2_sign(data):
    data["d2"][0][2] = -data["d2"][0][2]


def _swap_last_two_edges(data):
    """Swap the last two edges and their ids in d2: the same complex with
    its edges out of (layer, source, generator, target) order."""
    edges, last = data["edges"], len(data["edges"]) - 1
    edges[last - 1], edges[last] = edges[last], edges[last - 1]
    swap = {last - 1: last, last: last - 1}
    for entry in data["d2"]:
        entry[0] = swap.get(entry[0], entry[0])


def _repeat_a_link(data):
    # (0, 1, 1) and (0, 2, 2) become (0, 1, 1) and (0, 1, 2), still in
    # order, but vertex 0 has two links on the letter 1
    assert data["edges"][:2] == [[0, 1, 1], [0, 2, 2]]
    data["edges"][1][1] = 1


def _swap_words(first, second):
    """Two vertices trade words: depths, edges, d2 and the set of
    (irreducible) words still check out."""
    def edit(data):
        i, j = data["vertices"].index(first), data["vertices"].index(second)
        data["vertices"][i], data["vertices"][j] = second, first
    return edit


def _shift_depths(data):
    # every depth one more, and the radius too: the edges stay in order
    # and each vertex is still one layer below its parent
    data["depth"] = [d + 1 for d in data["depth"]]
    data["radius"] += 1


def _put_a_vertex_before_its_parent(data):
    """Vertices 1 (a) and 5 (a^2) trade ids, with the edges re-sorted and
    d2 and the cells following them: the same complex, but a^2 comes
    before its parent a."""
    assert (data["vertices"][1], data["vertices"][5]) == ("a", "a^2")
    ids = {1: 5, 5: 1}
    new = lambda v: ids.get(v, v)
    for key in ("vertices", "depth"):
        data[key][1], data[key][5] = data[key][5], data[key][1]
    depth, old_edges = data["depth"], data["edges"]
    edges = sorted(([new(s), g, new(t)] for s, g, t in old_edges),
                   key=lambda e: (max(depth[e[0]], depth[e[2]]), e))
    edge_ids = {tuple(e): i for i, e in enumerate(edges)}
    for entry in data["d2"]:
        s, g, t = old_edges[entry[0]]
        entry[0] = edge_ids[new(s), g, new(t)]
    data["cells"] = [[new(v), ri] for v, ri in data["cells"]]
    data["edges"] = edges


def _replace_first_d2_column_by_another_cycle(data):
    """Cell 0's column becomes the sum of cells 0 and 1's columns: still
    a cycle, so d1 d2 = 0 holds, but not cell 0's boundary."""
    col: dict = {}
    for e, ci, c, _ in data["d2"]:
        if ci < 2:
            col[e] = col.get(e, 0) + c
    data["d2"] = sorted([[e, 0, c, 1] for e, c in col.items() if c]
                        + [entry for entry in data["d2"] if entry[1]],
                        key=lambda entry: (entry[1], entry[0]))


def _repeat_a_vertex_word(data):
    # vertices 1 and 2 both a: depths, edges and d2 still check out
    assert data["vertices"][1:3] == ["a", "b"]
    data["vertices"][2] = "a"


@pytest.mark.parametrize("edit", [
    lambda d: d["depth"].__setitem__(1, 2),
    lambda d: d.__setitem__("radius", 1),
    lambda d: d.__setitem__("radius", 3),
    lambda d: d["edges"][0].__setitem__(2, len(d["vertices"])),
    lambda d: d["edges"][0].__setitem__(1, 3),
    _swap_last_two_edges,
    _repeat_a_link,
    lambda d: d["d2"][0].__setitem__(0, len(d["edges"])),
    lambda d: d["d2"][0].__setitem__(1, len(d["cells"])),
    _flip_first_d2_sign,
    _repeat_a_vertex_word,
    _swap_words("a b", "a b^-1"),
    _swap_words("a b", "a^-1 b"),
    lambda d: d["depth"].__setitem__(1, 0),
    _shift_depths,
    _put_a_vertex_before_its_parent,
    _replace_first_d2_column_by_another_cycle,
    lambda d: d["cells"][0].__setitem__(0, 10**6),
], ids=["depth", "radius", "radius-past-the-ball", "edge-endpoint",
        "edge-generator", "edge-order", "edge-repeated-link", "d2-edge", "d2-cell", "d2-sign", "vertex-repeated",
        "vertex-word-off-its-links", "vertex-prefix-off-its-links",
        "depth-in-edge-order", "depth-shifted", "vertex-before-its-parent",
        "d2-column-replaced-by-another-cycle", "cell-base-out-of-range"])
def test_json_rejects_inconsistent_complex(z2, edit):
    presentation, rws = z2
    text = complex_to_json(attach_cells(build_ball(presentation, rws, 2), presentation))
    complex_from_json(text, presentation, rws, 2)
    with pytest.raises(ValueError):
        complex_from_json(_corrupt(text, edit), presentation, rws, 2)


def test_disk_cache(tmp_path, z2):
    presentation, rws = z2
    clear_memo()
    built = get_complex(presentation, rws, 2, cache_dir=str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    clear_memo()
    loaded = get_complex(presentation, rws, 2, cache_dir=str(tmp_path))
    assert loaded.ball.edges == built.ball.edges
    assert loaded.d2 == built.d2
    clear_memo()


def test_disk_cache_rebuilds_truncated_file(tmp_path, z2):
    presentation, rws = z2
    clear_memo()
    built = get_complex(presentation, rws, 2, cache_dir=str(tmp_path))
    (path,) = tmp_path.iterdir()
    good = path.read_bytes()
    path.write_bytes(good[:99])
    clear_memo()
    rebuilt = get_complex(presentation, rws, 2, cache_dir=str(tmp_path))
    assert rebuilt.ball.edges == built.ball.edges
    assert rebuilt.d2 == built.d2
    # the file was rewritten whole, and no temporary file is left behind
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == good
    clear_memo()


def test_disk_cache_rebuilds_file_of_another_radius(tmp_path, z2):
    presentation, rws = z2
    clear_memo()
    get_complex(presentation, rws, 2, cache_dir=str(tmp_path))
    built = get_complex(presentation, rws, 3, cache_dir=str(tmp_path))
    (r2,) = tmp_path.glob("*_r2.json")
    (r3,) = tmp_path.glob("*_r3.json")
    good = r3.read_bytes()
    r3.write_bytes(r2.read_bytes())
    clear_memo()
    rebuilt = get_complex(presentation, rws, 3, cache_dir=str(tmp_path))
    assert rebuilt.ball.radius == 3
    assert rebuilt.ball.edges == built.ball.edges
    assert rebuilt.d2 == built.d2
    assert r3.read_bytes() == good
    clear_memo()


def test_disk_cache_rebuilds_file_of_other_normal_forms(tmp_path, z2):
    # the free group's radius-2 ball with Z2's generators is consistent in
    # itself, but it is not the export of Z2's ball, where b a reduces to
    # a b
    from fillprobe.rewriting import RewritingSystem
    presentation, rws = z2
    clear_memo()
    built = get_complex(presentation, rws, 2, cache_dir=str(tmp_path))
    (path,) = tmp_path.iterdir()
    good = path.read_bytes()
    free = build_ball(presentation, RewritingSystem.empty(2), 2)
    path.write_text(complex_to_json(TwoComplex(free, presentation, [], [])))
    with pytest.raises(ValueError):
        complex_from_json(path.read_text(), presentation, rws, 2)
    clear_memo()
    rebuilt = get_complex(presentation, rws, 2, cache_dir=str(tmp_path))
    assert rebuilt.ball == built.ball
    assert path.read_bytes() == good
    clear_memo()


def test_word_to_edge_chain_rejects_walk_leaving_ball(z2):
    presentation, rws = z2
    ball = build_ball(presentation, rws, 1)
    # the walk closes up, but its prefix "a a" reaches distance 2
    with pytest.raises(ResourceLimitError):
        word_to_edge_chain(ball, presentation.word("a a a^-1 a^-1"))
    assert word_to_edge_chain(ball, presentation.word("a a^-1")).is_zero()


def test_word_to_edge_chain_is_cycle_iff_closed(z2):
    presentation, rws = z2
    ball = build_ball(presentation, rws, 2)
    complex_ = attach_cells(ball, presentation)
    loop = word_to_edge_chain(ball, presentation.word("a b a^-1 b^-1"))
    assert complex_.apply_d1(loop).is_zero()
    path = word_to_edge_chain(ball, presentation.word("a b"))
    assert not complex_.apply_d1(path).is_zero()


def test_chain_arithmetic():
    c = Chain(1, {0: Q(3, 2), 5: Q(-1, 2)})
    assert c.l1() == 2
    assert (c + (-c)).is_zero()
    assert c.scaled(Q(-2)).l1() == 4
    assert not c.is_integral()
    assert Chain(1, {1: Q(4)}).is_integral()
    assert Chain(1, {1: Q(0)}).is_zero()


@given(st.integers(min_value=-60, max_value=60),
       st.integers(min_value=1, max_value=9))
@settings(max_examples=40)
def test_chain_l1_homogeneity(num, den):
    c = Chain(1, {0: Q(1), 3: Q(-2, 3)})
    r = Q(num, den)
    scaled = c.scaled(r)
    assert scaled.l1() == abs(r) * c.l1()
