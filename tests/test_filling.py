import dataclasses
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from fillprobe import exactlp, filling
from fillprobe.complexes import (
    Chain,
    TwoComplex,
    attach_cells,
    build_ball,
    get_complex,
    word_to_edge_chain,
)
from fillprobe.errors import NodeBudgetError, NotABoundaryError, NotACycleError
from fillprobe.exactlp import LinearProgram, LPStatus, solve_lp
from fillprobe.filling import (
    filling_norm_q,
    filling_norm_z,
    norm_with_escalation,
)
from fillprobe.catalog import load
from fillprobe.presentation import inverse_word, parse_presentation
from fillprobe.rationals import Q
from fillprobe.rewriting import knuth_bendix_bounded


@pytest.fixture(scope="module")
def z2_r2(z2):
    presentation, rws = z2
    return attach_cells(build_ball(presentation, rws, 2), presentation)


@pytest.fixture(scope="module")
def z2_square(z2, z2_r2):
    presentation, _ = z2
    return word_to_edge_chain(z2_r2.ball, presentation.word("a b a^-1 b^-1"))


def test_l1_norm_values():
    assert Chain(1, {}).l1() == 0
    assert Chain(1, {0: Q(3, 2), 1: Q(-1, 2)}).l1() == 2


@given(st.integers(-40, 40), st.integers(1, 7))
@settings(max_examples=30)
def test_l1_homogeneity(num, den):
    chain = Chain(1, {0: Q(2, 3), 4: Q(-5), 9: Q(1, 7)})
    r = Q(num, den)
    assert chain.scaled(r).l1() == abs(r) * chain.l1()


def test_is_boundary_unit_square(z2_r2, z2_square):
    witness = filling_norm_q(z2_square, z2_r2).witness
    assert (z2_r2.apply_d2(witness) + (-z2_square)).is_zero()


def test_is_boundary_zero_chain(z2_r2):
    assert filling_norm_q(Chain(1, {}), z2_r2).witness.is_zero()


def test_is_boundary_rejects_non_cycle(z2_r2):
    with pytest.raises(NotACycleError):
        filling_norm_q(Chain(1, {0: Q(1)}), z2_r2)


def test_unit_square_norms(z2_r2, z2_square):
    cq = filling_norm_q(z2_square, z2_r2)
    cz = filling_norm_z(z2_square, z2_r2)
    assert cq.value == 1 and cz.value == 1
    assert cq.ring == "Q" and cz.ring == "Z"
    assert cq.status == "upper-bound"
    assert cz.witness.is_integral()


def test_zero_chain_short_circuit(z2_r2):
    cert = filling_norm_q(Chain(1, {}), z2_r2)
    assert cert.value == 0 and cert.witness.is_zero()
    cert = filling_norm_z(Chain(1, {}), z2_r2)
    assert cert.value == 0


def test_triple_square_integral_norm(z2_r2, z2_square):
    cert = filling_norm_z(z2_square.scaled(3), z2_r2)
    assert cert.value == 3
    assert sorted(cert.witness.entries.values()) == [Q(3)]


def test_two_by_two_square_norm(z2):
    presentation, rws = z2
    complex_ = get_complex(presentation, rws, 4)
    loop = word_to_edge_chain(complex_.ball, presentation.word("a^2 b^2 a^-2 b^-2"))
    cq = filling_norm_q(loop, complex_)
    cz = filling_norm_z(loop, complex_)
    assert cq.value == 4
    assert cz.value == 4
    assert cz.witness.l1() == 4


def _count_ilp_calls(monkeypatch):
    calls, solve = [], filling.solve_ilp

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(filling, "solve_ilp", counting)
    return calls


def test_integral_norm_reuses_integral_rational_optimum(z2, monkeypatch):
    presentation, rws = z2
    fresh, solved = (attach_cells(build_ball(presentation, rws, 3), presentation)
                     for _ in range(2))
    loop = word_to_edge_chain(fresh.ball, presentation.word("a^2 b a^-2 b^-1"))
    expected = filling_norm_z(loop, fresh)
    filling_norm_q(loop, solved)
    calls = _count_ilp_calls(monkeypatch)
    assert filling_norm_z(loop, solved) == expected
    assert expected.value == 2 and calls == []


def _count_simplex_solves(monkeypatch):
    solves, solve = [], exactlp._Simplex.solve

    def counting(simplex):
        solves.append(simplex)
        return solve(simplex)

    monkeypatch.setattr(exactlp._Simplex, "solve", counting)
    return solves


def test_integral_norm_branches_on_fractional_rational_optimum(monkeypatch):
    # the a^6 cell runs twice around the a^3 triangle, so half of it
    # fills the triangle at mass 1/2; an integral filling needs mass 1
    presentation = parse_presentation("generators: a\nrelator: a^3\nrelator: a^6\n")
    rws = knuth_bendix_bounded(presentation)
    fresh, solved = (attach_cells(build_ball(presentation, rws, 2), presentation)
                     for _ in range(2))
    triangle = word_to_edge_chain(solved.ball, presentation.word("a^3"))
    assert filling_norm_q(triangle, solved).value == Q(1, 2)
    calls = _count_ilp_calls(monkeypatch)
    solves = _count_simplex_solves(monkeypatch)
    expected = filling_norm_z(triangle, fresh)
    from_scratch = len(solves)
    cert = filling_norm_z(triangle, solved)
    assert cert == expected
    assert cert.value == 1 and cert.witness.is_integral()
    assert len(calls) == 2
    # the rational optimum already found is branch and bound's root node
    assert len(solves) - from_scratch == from_scratch - 1


def test_fractional_boundary_norm(z2_r2, z2_square):
    cert = filling_norm_q(z2_square.scaled(Q(5, 7)), z2_r2)
    assert cert.value == Q(5, 7)
    with pytest.raises(NotACycleError):
        filling_norm_z(z2_square.scaled(Q(5, 7)), z2_r2)


def test_scaling_law_exact_at_fixed_radius(z2_r2, z2_square):
    base = filling_norm_q(z2_square, z2_r2)
    for r in (Q(2), Q(-3), Q(5, 7), Q(-11, 4)):
        cert = filling_norm_q(z2_square.scaled(r), z2_r2)
        assert cert.value == abs(r) * base.value


def test_ring_inequality_on_random_boundaries(z2):
    presentation, rws = z2
    complex_ = get_complex(presentation, rws, 3)
    rng = random.Random(5)
    for _ in range(8):
        coeffs = {c: Q(rng.randint(-2, 2)) for c in
                  rng.sample(range(complex_.num_cells), 3)}
        b = complex_.apply_d2(Chain(2, coeffs))
        if b.is_zero():
            continue
        cq = filling_norm_q(b, complex_)
        cz = filling_norm_z(b, complex_)
        assert cz.value >= cq.value


def test_radius_monotonicity(z2, z2_square):
    presentation, rws = z2
    values = []
    for radius in (2, 3, 4):
        complex_ = get_complex(presentation, rws, radius)
        values.append(filling_norm_q(z2_square, complex_).value)
    assert values[0] >= values[1] >= values[2]


def test_f2_loop_not_boundary(f2):
    presentation, rws = f2
    complex_ = get_complex(presentation, rws, 2)
    # the zero chain is the only cycle in a tree; a nonzero non-cycle is
    # rejected upstream
    with pytest.raises(NotACycleError):
        filling_norm_q(Chain(1, {0: Q(1)}), complex_)


def test_not_boundary_when_no_cells(z2):
    # unit square expressed at radius 2 but asked in a complex whose only
    # cells are dropped: use F2-like situation via the R=1 complex
    presentation, rws = z2
    complex1 = get_complex(presentation, rws, 1)
    # the square chain cannot even be expressed at radius 1
    square_at_2 = word_to_edge_chain(get_complex(presentation, rws, 2).ball,
                                     presentation.word("a b a^-1 b^-1"))
    with pytest.raises(NotACycleError):
        filling_norm_q(square_at_2, complex1)


def test_is_boundary_no_within_ball_without_cells():
    # normal forms from rules alone: the graph is the right Cayley graph
    # but carries no 2-cells, so nontrivial cycles cannot bound
    from fillprobe.presentation import parse_presentation
    from fillprobe.rewriting import system_from_rules
    p = parse_presentation('{"generators": ["a", "b"], "relators": []}')
    z2_rules = [((2, 1), (1, 2)), ((2, -1), (-1, 2)),
                ((-2, 1), (1, -2)), ((-2, -1), (-1, -2))]
    rws = system_from_rules(2, z2_rules)
    assert rws.confluent
    complex_ = attach_cells(build_ball(p, rws, 2), p)
    assert complex_.num_cells == 0
    loop = word_to_edge_chain(complex_.ball, p.word("a b a^-1 b^-1"))
    with pytest.raises(NotABoundaryError):
        filling_norm_q(loop, complex_)


def test_certificate_export_fields(z2_r2, z2_square):
    cert = filling_norm_q(z2_square, z2_r2)
    data = cert.to_dict()
    assert data["value"] == "1/1"
    assert data["ring"] == "Q"
    assert data["radius"] == 2
    assert data["witness_l1"] == "1/1"


def test_escalation_stabilizes(z2, z2_square):
    presentation, rws = z2
    cert = norm_with_escalation(z2_square, presentation, rws, 2, 4)
    assert cert.value == 1
    assert cert.stabilized
    assert cert.status == "exact-within-ball"
    assert cert.radius == 3


def test_escalation_skips_infeasible_radius(z2, z2_square):
    presentation, rws = z2
    cert = norm_with_escalation(z2_square, presentation, rws, 1, 4)
    assert cert.value == 1
    assert cert.stabilized


def test_escalation_single_radius_upper_bound(z2, z2_square):
    presentation, rws = z2
    cert = norm_with_escalation(z2_square, presentation, rws, 2, 2)
    assert cert.value == 1
    assert not cert.stabilized
    assert cert.status == "upper-bound"


def test_escalation_surfaces_no_within_ball(z2, z2_square):
    presentation, rws = z2
    with pytest.raises(NotABoundaryError):
        norm_with_escalation(z2_square, presentation, rws, 1, 1)


def test_escalation_integral_ring(z2, z2_square):
    presentation, rws = z2
    cert = norm_with_escalation(z2_square.scaled(2), presentation, rws, 2, 3,
                                ring="Z")
    assert cert.value == 2
    assert cert.witness.is_integral()


def test_surface_octagon_norm(surface):
    presentation, rws = surface
    complex_ = get_complex(presentation, rws, 4)
    octagon = word_to_edge_chain(complex_.ball, presentation.relators[0])
    cert = filling_norm_q(octagon, complex_)
    assert cert.value == 1
    certz = filling_norm_z(octagon, complex_)
    assert certz.value == 1


def test_surface_norms_match_unique_solve(surface):
    """The octagon columns in a small surface ball are independent, so
    each filling is unique and sympy's exact solve is an oracle."""
    sympy = pytest.importorskip("sympy")
    presentation, rws = surface
    complex_ = get_complex(presentation, rws, 4)
    ncells = complex_.num_cells
    edges = sorted({e for col in complex_.d2 for e in col})
    row_of = {e: i for i, e in enumerate(edges)}
    d2 = sympy.zeros(len(edges), ncells)
    for ci, col in enumerate(complex_.d2):
        for e, inc in col.items():
            d2[row_of[e], ci] = inc
    assert d2.rank() == ncells

    rng = random.Random(23)
    for _ in range(5):
        coeffs = {c: Q(rng.randint(-2, 2)) for c in rng.sample(range(ncells), 3)}
        b = complex_.apply_d2(Chain(2, coeffs))
        if b.is_zero():
            continue
        rhs = sympy.zeros(len(edges), 1)
        for e, v in b.entries.items():
            rhs[row_of[e], 0] = sympy.Rational(v.numerator, v.denominator)
        sol, params = d2.gauss_jordan_solve(rhs)
        assert not params.free_symbols
        expected = sum(abs(v) for v in sol)
        cert = filling_norm_q(b, complex_)
        assert sympy.Rational(cert.value.numerator, cert.value.denominator) == expected


def test_scaling_law_on_surface_boundaries(surface):
    presentation, rws = surface
    complex_ = get_complex(presentation, rws, 4)
    rng = random.Random(11)
    for _ in range(4):
        coeffs = {c: Q(rng.randint(-2, 2), rng.randint(1, 2))
                  for c in rng.sample(range(complex_.num_cells), 2)}
        b = complex_.apply_d2(Chain(2, coeffs))
        if b.is_zero():
            continue
        base = filling_norm_q(b, complex_)
        for r in (Q(2), Q(-3), Q(5, 7)):
            assert filling_norm_q(b.scaled(r), complex_).value == abs(r) * base.value


def _full_row_program(b, complex_, cells):
    """The filling program over the columns of ``cells`` with one row
    per edge those cells cover, spanning-forest edges included: the
    reference for the reduced one."""
    covered = set()
    for ci in cells:
        covered.update(complex_.d2[ci])
    if any(e not in covered for e in b.entries):
        return None
    row_of = {e: i for i, e in enumerate(sorted(covered))}
    rows = [dict() for _ in row_of]
    for k, ci in enumerate(cells):
        for e, inc in complex_.d2[ci].items():
            r = rows[row_of[e]]
            r[2 * k] = inc
            r[2 * k + 1] = -inc
    rhs = [0] * len(row_of)
    for e, coeff in b.entries.items():
        rhs[row_of[e]] = coeff
    objective = [1] * (2 * len(cells))
    return LinearProgram(2 * len(cells), rows, rhs, objective)


def _core(complex_):
    """The cells that the maximal collapse leaves."""
    collapsed = {cell for cell, _ in complex_.collapses()}
    return [cell for cell in range(complex_.num_cells) if cell not in collapsed]


# small balls with parallel edges and self-loops (a | a^3, a, b | a)
# and finite groups; the last two attach only some of the relators'
# cells, so some loops bound and others do not
_DIFFERENTIAL_BALLS = [
    ("Z2", 2, None), ("Z2", 3, None), ("Z3", 2, None), ("S2", 4, None),
    ("a | a^3", 2, None), ("a, b | a", 2, None), ("a, b | a b a b^-1", 3, None),
    ("a, b | a^2, b^2, a b a^-1 b^-1", 2, None),
    ("Z2", 4, "a, b | a^2 b^2 a^-2 b^-2"),
    ("a, b | a^2, b^2, a b a^-1 b^-1", 2, "a, b | a^2, b^2"),
]
_COMPLEXES: dict = {}


def _differential_complex(source, radius, cells):
    key = (source, radius, cells)
    if key not in _COMPLEXES:
        if "|" in source:
            presentation = parse_presentation(source)
            rws = knuth_bendix_bounded(presentation)
        else:
            presentation, rws = load(source)
        if cells is not None:
            presentation = parse_presentation(cells)
        _COMPLEXES[key] = attach_cells(
            build_ball(presentation, rws, radius), presentation)
    return _COMPLEXES[key]


def _loop(ball, steps):
    """A closed walk from the identity: ``steps`` picks letters, then the
    walk goes home along its end vertex's normal form, which stays in
    the ball."""
    n, links = ball.ngens, ball.links
    v, word = 0, []
    for step in steps:
        row = links[v * (2 * n + 1):(v + 1) * (2 * n + 1)]
        letters = [x for x in range(-n, n + 1) if row[n + x] >= 0]
        x = letters[step % len(letters)]
        word.append(x)
        v = row[n + x]
    return word_to_edge_chain(ball, tuple(word) + inverse_word(ball.word(v)))


_STEPS = st.lists(st.integers(min_value=0, max_value=7), max_size=12)


@given(st.sampled_from(_DIFFERENTIAL_BALLS), _STEPS, _STEPS,
       st.sampled_from([Q(1), Q(-2), Q(1, 3)]),
       st.lists(st.tuples(st.integers(min_value=0), st.integers(-2, 2)),
                max_size=4))
@settings(max_examples=300, deadline=None)
def test_forest_rows_dropped_keep_status_and_value(ball_key, steps1, steps2,
                                                   scale, cells):
    # b: two closed walks plus a few cell boundaries
    complex_ = _differential_complex(*ball_key)
    b = _loop(complex_.ball, steps1) + _loop(complex_.ball, steps2).scaled(scale)
    for cell, coeff in cells:
        if complex_.num_cells:
            b = b + Chain(1, complex_.d2[cell % complex_.num_cells]).scaled(coeff)
    # the whole program for b, and the core's program for the cycle
    # that substitution along the collapse order leaves
    _, residual = filling._substitute(b, complex_)
    for rhs, cells in ((b, range(complex_.num_cells)), (residual, _core(complex_))):
        full = _full_row_program(rhs, complex_, cells)
        reduced = filling._filling_program(rhs, complex_, cells)
        if full is None:
            assert reduced is None
            continue
        assert len(reduced.rows) <= len(full.rows)
        want, got = solve_lp(full), solve_lp(reduced)
        assert got.status is want.status
        if got.status is LPStatus.OPTIMAL:
            assert got.value == want.value
            # the dropped rows hold at the reduced program's optimum
            witness = filling._witness_chain(got.witness, cells)
            assert (complex_.apply_d2(witness) + (-rhs)).is_zero()


# --- the collapse path -------------------------------------------------

def _simplex_reference(b, complex_):
    """The whole filling program solved by the simplex: (value, witness),
    or the text of the error that says b has no filling in the ball."""
    cells = range(complex_.num_cells)
    lp = filling._filling_program(b, complex_, cells)
    if lp is None:
        return "no filling within this ball (uncovered edge)"
    result = solve_lp(lp)
    if result.status is LPStatus.INFEASIBLE:
        return "no filling within this ball"
    return result.value, filling._witness_chain(result.witness, cells)


def _sign(x):
    return (x > 0) - (x < 0)


def _dual_from_order(complex_, order, c):
    """A 1-cochain f read off the collapse order, walking it backwards:
    f on a pair's edge makes <f, d sigma> = sign(c_sigma) on its cell.
    f is zero off the pairs' edges."""
    f: dict = {}
    for cell, e in reversed(order):
        col = complex_.d2[cell]
        rest = sum(f.get(g, 0) * inc for g, inc in col.items() if g != e)
        f[e] = (_sign(c.entries.get(cell, 0)) - Q(rest)) / col[e]
    return f


def _is_lower_bound_witness(complex_, f, b, value):
    """||delta f||_inf <= 1 and <f, b> = value: then no filling of b in
    the ball has l1 mass below value."""
    pairing = lambda chain: sum(f.get(e, 0) * v for e, v in chain.items())  # noqa: E731
    return all(abs(pairing(col)) <= 1 for col in complex_.d2) \
        and pairing(b.entries) == value


def _boundaries(complex_, seed):
    """Cell boundaries, sums of a few of them, and closed walks (some of
    which bound nothing in the ball)."""
    rng, n = random.Random(seed), complex_.num_cells
    out = [Chain(1, col) for col in complex_.d2[:4]]
    for _ in range(6):
        if n:
            coeffs = {c: Q(rng.randint(-3, 3)) for c in rng.sample(range(n), min(n, 3))}
            out.append(complex_.apply_d2(Chain(2, coeffs)))
        out.append(_loop(complex_.ball, [rng.randrange(8) for _ in range(8)]))
    return [b for b in out if not b.is_zero()]


def _differential_cases():
    """The complexes with cells of test_complexes' ball cases and of
    this module's differential balls (Z3 r4 among them), and two more
    whose collapse leaves a core: Z3 r3, and the a | a^3, a^6 ball of
    tests/data/z3_cube_sixth.txt, which has no free edge at all."""
    from test_complexes import _BALL_CASES, _system
    cases = []
    for source, radius in [*_BALL_CASES, ("Z3", 3)]:
        presentation, rws = _system(source)
        cases.append(attach_cells(build_ball(presentation, rws, radius), presentation))
    cases += [_differential_complex(*key) for key in _DIFFERENTIAL_BALLS]
    cases.append(_differential_complex("a | a^3, a^6", 2, None))
    return [c for c in cases if c.num_cells]


def test_collapse_matches_simplex():
    cases = _differential_cases()
    # 20 collapse completely: the ball cases S2 r4 and r5, Z2 r9,
    # a,b|a r1-3, S3 r2, a,b|a^2 r1-3 and a,b|ab r3, and the
    # differential balls but Z2 x Z2 with its commutator cells.  The
    # cores: all 2 cells of the a^3, a^6 ball, all 8 of S3 r4 and of
    # Z2 x Z2, 27 of order-16 r3's 31, 36 of Z3 r3's 60 and 132 of
    # Z3 r4's 168
    assert sorted(len(_core(c)) for c in cases) == [0] * 20 + [2, 8, 8, 27, 36, 132]
    assert not cases[-1].collapses()
    swaps_rejected = 0
    for index, complex_ in enumerate(cases):
        order = complex_.collapses()
        assert len({cell for cell, _ in order}) == len(order)
        for b in _boundaries(complex_, index):
            want = _simplex_reference(b, complex_)
            if isinstance(want, str):
                with pytest.raises(NotABoundaryError, match=rf"^{re.escape(want)}$"):
                    filling_norm_q(b, complex_)
                continue
            cert = filling_norm_q(b, complex_)
            assert (cert.value, cert.witness) == want
            if _core(complex_):
                continue
            f = _dual_from_order(complex_, order, cert.witness)
            assert _is_lower_bound_witness(complex_, f, b, cert.value)
            # mutants: f moved on the free edge of a used cell, so that
            # |<f, d sigma>| = 3 there; the order's first and last swapped
            cell, e = next((cell, e) for cell, e in order if cell in cert.witness.entries)
            step = Q(2 * _sign(cert.witness.entries[cell]), complex_.d2[cell][e])
            moved = {**f, e: f[e] + step}
            assert not _is_lower_bound_witness(complex_, moved, b, cert.value)
            swapped = [order[-1], *order[1:-1], order[0]]
            swaps_rejected += not _is_lower_bound_witness(
                complex_, _dual_from_order(complex_, swapped, cert.witness), b, cert.value)
    assert swaps_rejected


_COLLAPSIBLE = [("Z2", 2), ("Z2", 3), ("Z3", 2), ("S2", 4), ("a, b | a b", 3)]


@given(st.sampled_from(_COLLAPSIBLE), st.lists(
    st.tuples(st.integers(min_value=0), st.integers(-3, 3)), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_collapse_recovers_the_chain_it_bounds(key, entries):
    complex_ = _differential_complex(*key, None)
    c = Chain(2, {cell % complex_.num_cells: Q(v) for cell, v in entries})
    b = complex_.apply_d2(c)
    assert b.is_zero() == c.is_zero()    # d2 is injective
    if c.is_zero():
        return
    for cert in (filling_norm_q(b, complex_), filling_norm_z(b, complex_)):
        assert cert.witness == c and cert.value == c.l1()
    f = _dual_from_order(complex_, complex_.collapses(), c)
    assert _is_lower_bound_witness(complex_, f, b, c.l1())


def test_cube_ball_sends_only_its_core_to_the_simplex(z3, monkeypatch):
    presentation, rws = z3
    complex_ = attach_cells(build_ball(presentation, rws, 3), presentation)
    assert (len(complex_.collapses()), len(_core(complex_))) == (24, 36)
    calls = []
    solve = filling.solve_lp
    monkeypatch.setattr(filling, "solve_lp", lambda lp: calls.append(lp) or solve(lp))
    loop = word_to_edge_chain(complex_.ball, presentation.word("a b c a^-1 b^-1 c^-1"))
    q = filling_norm_q(loop, complex_)
    assert q.value == 3
    assert [lp.num_vars for lp in calls] == [2 * 36]
    # the integral norm's branch and bound starts at the rational
    # optimum, lifted to the whole program; it is integral, so no
    # program is solved again
    z = filling_norm_z(loop, complex_)
    assert (z.value, z.witness) == (q.value, q.witness)
    assert len(calls) == 1


def test_partial_collapse_with_a_fractional_forced_cell(z2_r2, z2_square, monkeypatch):
    # Z2 r2's columns with the first doubled and a copy of the last: the
    # copies are the core, and the first cell collapses with value 1/2
    d2 = z2_r2.d2
    columns = [{e: 2 * v for e, v in d2[0].items()}, *d2[1:], d2[-1]]
    complex_ = TwoComplex(z2_r2.ball, z2_r2.presentation, [(0, 0)] * len(columns), columns)
    assert len(complex_.collapses()) == 3 and _core(complex_) == [3, 4]
    cert = filling_norm_q(z2_square, complex_)
    assert cert.value == Q(1, 2) and cert.witness == Chain(2, {0: Q(1, 2)})

    def refuse(*args, **kwargs):
        raise AssertionError("branch and bound ran on a fractional forced cell")

    monkeypatch.setattr(filling, "solve_ilp", refuse)
    for complex_ in (complex_, dataclasses.replace(complex_, relaxations={})):
        assert _error_text(filling_norm_z, z2_square, complex_) == \
            "no integral filling within this ball"


def test_collapsible_ball_solves_q_without_the_simplex(z2, monkeypatch):
    presentation, rws = z2
    complex_ = attach_cells(build_ball(presentation, rws, 3), presentation)
    calls = []
    solve = filling.solve_lp

    def refuse(*args, **kwargs):
        raise AssertionError("the simplex ran on a collapsible complex")

    monkeypatch.setattr(filling, "solve_ilp", refuse)
    for word in ("a b a^-1 b^-1", "a^2 b a^-2 b^-1", "a b^-2 a^-1 b^2", "a^-1 b a b^-1"):
        loop = word_to_edge_chain(complex_.ball, presentation.word(word)).scaled(3)
        monkeypatch.setattr(filling, "solve_lp", refuse)
        q = filling_norm_q(loop, complex_)
        # the integral norm still solves the program: its one point is
        # integral, so branch and bound stops at the root
        monkeypatch.setattr(filling, "solve_lp", lambda lp: calls.append(lp) or solve(lp))
        z = filling_norm_z(loop, complex_)
        assert (q.value, q.witness) == (z.value, z.witness)
    assert len(calls) == 4


def _variant(complex_, d2):
    """``complex_``'s ball with other cell columns, and the same complex
    with its collapse order hidden, so that every cell is in the core
    and the simplex solves the whole program."""
    cells = [(0, 0)] * len(d2)
    collapsed = TwoComplex(complex_.ball, complex_.presentation, cells, d2)
    simplex = TwoComplex(complex_.ball, complex_.presentation, cells, d2)
    simplex._collapses = []
    assert not _core(collapsed)
    return collapsed, simplex


def _error_text(norm, b, complex_):
    with pytest.raises(NotABoundaryError) as info:
        norm(b, complex_)
    return str(info.value)


@pytest.mark.parametrize("kind, q_text, z_text", [
    # one cell dropped: its outer edges meet no cell
    ("uncovered", "no filling within this ball (uncovered edge)",
     "no filling within this ball (uncovered edge)"),
    # columns d sigma_0 + d sigma_k: every edge of sigma_0 is covered,
    # but d sigma_0 is not in their span
    ("not-in-span", "no filling within this ball", "no integral filling within this ball"),
    # the first column doubled: the one filling is half of it.  The
    # collapse makes d2 injective, so Z needs no search; branch and bound
    # does not close this case on the simplex path (a+ - a- = 1/2 keeps a
    # fractional point under every bound, so it runs out of nodes)
    ("fractional", None, "no integral filling within this ball"),
])
def test_collapse_path_error_texts(z2_r2, z2_square, kind, q_text, z_text):
    d2 = z2_r2.d2
    assert z2_square == Chain(1, d2[0])
    if kind == "uncovered":
        columns = d2[1:]
    elif kind == "not-in-span":
        columns = [{e: d2[0].get(e, 0) + d2[k].get(e, 0) for e in {*d2[0], *d2[k]}}
                   for k in (1, 2, 3)]
        columns = [{e: v for e, v in col.items() if v} for col in columns]
    else:
        columns = [{e: 2 * v for e, v in d2[0].items()}, *d2[1:]]
    collapsed, simplex = _variant(z2_r2, columns)
    for complex_ in (collapsed, simplex):
        if q_text is None:
            cert = filling_norm_q(z2_square, complex_)
            assert cert.value == Q(1, 2) and cert.witness == Chain(2, {0: Q(1, 2)})
        else:
            assert _error_text(filling_norm_q, z2_square, complex_) == q_text
        if z_text is not None and (kind != "fractional" or complex_ is collapsed):
            assert _error_text(filling_norm_z, z2_square, complex_) == z_text


def test_zero_node_budget_still_raises(z2_r2, z2_square):
    assert not _core(z2_r2)
    with pytest.raises(NodeBudgetError):
        filling_norm_z(z2_square, z2_r2, node_budget=0)


def test_cycle_check_texts(z2_r2):
    with pytest.raises(NotACycleError, match="expected a 1-chain"):
        filling_norm_q(Chain(2, {0: Q(1)}), z2_r2)
    with pytest.raises(NotACycleError, match="outside this complex"):
        filling_norm_q(Chain(1, {z2_r2.ball.num_edges: Q(1)}), z2_r2)
    with pytest.raises(NotACycleError, match="nonzero boundary"):
        filling_norm_q(Chain(1, {0: Q(1)}), z2_r2)


def _certificate_case(name, z2, z3):
    """A complex, a boundary on it and its rational certificate: the
    collapse path on Z2 r2, and on Z3 r3 a core the simplex fills."""
    (presentation, rws), radius, word = {
        "z2-collapse": (z2, 2, "a b a^-1 b^-1"),
        "z3-simplex": (z3, 3, "a b c a^-1 b^-1 c^-1")}[name]
    complex_ = attach_cells(build_ball(presentation, rws, radius), presentation)
    assert bool(_core(complex_)) == (name == "z3-simplex")
    loop = word_to_edge_chain(complex_.ball, presentation.word(word))
    return complex_, loop, filling_norm_q(loop, complex_)


@pytest.mark.parametrize("name", ["z2-collapse", "z3-simplex"])
@pytest.mark.parametrize("fault, text", [
    ("off-by-half", "filling witness does not bound b"),
    # half of b and no cells: b's denominators count in the scale too
    ("half-boundary", "filling witness does not bound b"),
    ("wrong-value", "filling witness norm does not match value"),
    ("fractional-z", "integral certificate has fractional witness"),
])
def test_certificate_rejects_a_bad_witness(z2, z3, name, fault, text):
    complex_, b, cert = _certificate_case(name, z2, z3)
    # the computed certificate passes in either ring
    for ring in ("Q", "Z"):
        assert filling._certificate(b, complex_, ring, cert.value, cert.witness) == \
            dataclasses.replace(cert, ring=ring)
    witness, value, ring = cert.witness, cert.value, "Q"
    if fault == "off-by-half":
        witness = witness + Chain(2, {min(witness.entries): Q(1, 2)})
        value = witness.l1()
    elif fault == "half-boundary":
        b, witness, value = b.scaled(Q(1, 2)), Chain(2, {}), Q(0)
    elif fault == "wrong-value":
        value += 1
    else:
        # half the boundary and half its filling: the checks before the
        # ring's hold
        b, witness, value, ring = b.scaled(Q(1, 2)), witness.scaled(Q(1, 2)), value / 2, "Z"
    with pytest.raises(AssertionError, match=text):
        filling._certificate(b, complex_, ring, value, witness)
