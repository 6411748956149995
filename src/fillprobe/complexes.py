"""Truncated Cayley 2-complexes with exact sparse boundary maps.

A ball is built by BFS from the identity through generator moves on
normal forms, so BFS depth equals graph distance; a shortlex normal form
is a shortest word for its element, so the depth is also the word's
length.  Each vertex also keeps its state in the rewriting system's
index automaton, and a move on letter x looks up the state after x: if
no rewrite applies, the neighbor's normal form is the word with x
appended, and only a move that fires a rewrite reduces.  So a vertex on
the boundary layer tries only the letters that fire from its state, and
none when every rule keeps word length mod 2 (then no edge joins two
vertices of one layer).  Every vertex is linked from its parent (its
word minus the last letter), so there is no word -> vertex id dict: a
normal form is found by following its letters from the identity.  A
vertex with no child yet whose firing letters are all linked makes its
plain children in one batch.  A ball can also be grown from a copy of
the ball one radius smaller, resuming the BFS at its boundary layer;
``get_complex`` does so when that ball is in its memo.
Cells are relator loops based at ball vertices, kept only when the whole
loop stays inside the ball, which a walk of each relator from every
vertex at once finds; the resulting column of the 2-boundary records
signed edge traversals.  Vertex, edge and cell indices are
stable under radius growth: enlarging the ball only appends.

A ball is held in flat arrays of C ints, not in Python objects per
vertex or per edge: its links, a row of 2n + 1 slots per vertex (n
generators), each vertex's depth and last letter, and each edge as the
code of its link slot.  A vertex's word is read back along its parent
links when needed, and an edge's triple is decoded from its code.  A
container or a tuple per vertex took most of a ball's memory, and each
list or tuple is one more object for the garbage collector to track.
Edge ids are found by bisection of the codes within the edge's layer,
so there is no (source, generator) -> edge id dict either.
"""

from __future__ import annotations

import hashlib
import json
import os
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice

from .errors import IncompleteSystemError, ResourceLimitError
from .presentation import GroupPresentation, Word
from .rationals import Q
from .rewriting import RewritingSystem

DEFAULT_VERTEX_CAP = 200_000
DEFAULT_WALK_CAP = 1_000_000


@dataclass(frozen=True)
class Chain:
    """Sparse exact-rational vector over cells of one dimension."""

    dimension: int
    entries: dict

    def __post_init__(self):
        clean = {i: Q(c) for i, c in self.entries.items() if c != 0}
        object.__setattr__(self, "entries", clean)

    def l1(self):
        total = Q(0)
        for c in self.entries.values():
            total += c if c > 0 else -c
        return total

    def scaled(self, r) -> "Chain":
        r = Q(r)
        return Chain(self.dimension, {i: r * c for i, c in self.entries.items()})

    def __neg__(self) -> "Chain":
        return Chain(self.dimension, {i: -c for i, c in self.entries.items()})

    def __add__(self, other: "Chain") -> "Chain":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        merged = dict(self.entries)
        for i, c in other.entries.items():
            merged[i] = merged.get(i, Q(0)) + c
        return Chain(self.dimension, merged)

    def is_zero(self) -> bool:
        return not self.entries

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.entries.values())


@dataclass
class CayleyBall:
    """Truncated Cayley graph: vertex 0 is the identity.

    Every per-vertex and per-edge field is an ``array`` of C ints
    (typecode ``"i"``), not a list of Python objects.  ``links`` has
    ``span = 2 * ngens + 1`` slots per vertex, as a row of
    ``IndexAutomaton.goto`` has: vertex v's neighbor along the signed
    letter x sits at ``v * span + ngens + x``, and a move that leaves
    the ball (and the unused slot of x = 0) holds -1.  ``last[v]`` is
    the last letter x of v's normal form (0 for the identity); v is
    linked from its parent on x, so its parent is its link on -x, and
    ``word(v)`` reads the normal form back along the parent links.
    Edge e, from s to t on the generator g > 0, is stored as the code
    ``edges[e] = s * span + ngens + g`` of its link slot, so
    ``links[edges[e]] == t``.  Edges are ordered by (layer, code), which
    is (layer, source, generator, target) order, where an edge's layer
    is the larger depth of its ends; the layer-L edges are
    ``edges[starts[L]:starts[L + 1]]``.
    """

    radius: int
    ngens: int
    depth: array              # BFS depth per vertex
    last: array               # last letter of each vertex's normal form
    links: array              # vertex id or -1 per (vertex, signed letter)
    edges: array              # link-slot code per edge
    starts: list              # first edge id per layer, radius + 2 entries
    span: int = field(init=False, repr=False)

    def __post_init__(self):
        self.span = 2 * self.ngens + 1

    @property
    def num_vertices(self) -> int:
        return len(self.depth)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def word(self, v: int) -> Word:
        """Normal form of vertex v, read back along its parent links."""
        links, last, ngens, span = self.links, self.last, self.ngens, self.span
        letters = []
        while v:
            x = last[v]
            letters.append(x)
            v = links[v * span + ngens - x]
        return tuple(reversed(letters))

    def edge(self, e: int) -> tuple:
        """Edge e as its (source, generator, target) triple."""
        code = self.edges[e]
        s, slot = divmod(code, self.span)
        return s, slot - self.ngens, self.links[code]

    def layer(self, e: int) -> int:
        """Layer of edge e: the larger depth of its ends."""
        return bisect_right(self.starts, e) - 1

    def edge_id(self, s: int, g: int, t: int) -> int:
        """Id of the edge (s, g, t); ValueError if the ball has no such
        edge."""
        depth, ngens = self.depth, self.ngens
        code = s * self.span + ngens + g
        if not (0 <= s < len(depth) and 1 <= g <= ngens and t >= 0
                and self.links[code] == t):
            raise ValueError(f"edge {(s, g, t)} is not in the ball")
        layer = depth[s] if depth[s] > depth[t] else depth[t]
        return bisect_left(self.edges, code, self.starts[layer], self.starts[layer + 1])

    def d1_column(self, edge_id: int) -> dict:
        s, _, t = self.edge(edge_id)
        return {} if s == t else {t: 1, s: -1}

    def adjacency(self):
        """Per-vertex incident edge list: (edge id, sign, other endpoint)."""
        links, span = self.links, self.span
        adj = [[] for _ in range(self.num_vertices)]
        for e, code in enumerate(self.edges):
            s, t = code // span, links[code]
            adj[s].append((e, 1, t))
            adj[t].append((e, -1, s))
        for lst in adj:
            lst.sort()
        return adj


def _cap_error(vertex_cap: int) -> ResourceLimitError:
    return ResourceLimitError(f"ball exceeds vertex cap {vertex_cap}", limit=vertex_cap)


def build_ball(presentation: GroupPresentation, rws: RewritingSystem,
               radius: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP,
               grow_from: CayleyBall | None = None) -> CayleyBall:
    """BFS ball of the given radius around the identity.

    Each vertex keeps the state its irreducible word reaches in
    ``rws.index_automaton`` and is linked from its parent when made.  A
    move on x into a non-terminal state fires no rewrite: the neighbor
    is the vertex's word followed by x, new exactly when the link on x
    is unset.  Only a move into a terminal state reduces, as
    ``rws.reduce((x,), ball.word(v))``, and follows the target's letters
    through the links from the identity.  A boundary-layer vertex
    (depth == radius) tries only its state's firing letters, and none
    when every rule keeps word length mod 2.  An inner vertex whose
    firing letters are all linked, and to which no other vertex's move
    has given a child, has no child yet: it makes the children of all
    its plain (non-firing) letters in one batch, with their depths,
    last letters and states extended from per-state tables.  Each
    edge's code is put in the bucket of its layer (the larger depth of
    its ends) when its link is made; edges are ordered by (layer, code).

    ``grow_from``, the ball of some radius r0 with 1 <= r0 < radius of
    the same system, is copied, not changed: the BFS resumes at its
    first vertex of depth r0, whose links to depths <= r0 are all made,
    so only the layers above r0 get new edges and the result is the
    fresh build's.  The radius-0 ball made no move, not even a loop, so
    from it the ball is built fresh.

    Requires a confluent rewriting system; aborts with a resource error
    if the vertex cap is exceeded.  A link-slot code past the range of a
    C int makes the array raise OverflowError; it never wraps.
    """
    if not rws.confluent:
        raise IncompleteSystemError("ball construction requires a confluent system")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    ngens = presentation.num_generators
    letters = [*range(1, ngens + 1), *range(-1, -ngens - 1, -1)]
    goto, terminal = rws.index_automaton.goto, rws.index_automaton.terminal
    reduce = rws.reduce
    firing = [[x for x in letters if terminal[row[x]]] for row in goto]
    # per state: its plain letters in letter order, and their children's states
    plain = [array("i", [x for x in letters if not terminal[row[x]]]) for row in goto]
    plain_states = [[row[x] for x in xs] for row, xs in zip(goto, plain)]
    # cancellation and every rule keep word length mod 2, so no edge joins
    # two vertices of one layer; the relators alone do not say so, since
    # supplied rules may define a quotient of their group
    bipartite = all((len(lhs) - len(rhs)) % 2 == 0 for lhs, rhs in rws.rules)

    span = 2 * ngens + 1
    blank = array("i", [-1]) * span
    blanks = [blank * k for k in range(span)]
    # per depth d and count k: k copies of d + 1
    deeper = [[array("i", [d + 1]) * k for k in range(span)] for d in range(radius)]
    if grow_from is not None and grow_from.radius:
        if not grow_from.radius < radius or grow_from.ngens != ngens:
            raise ValueError("grow_from must be a smaller ball of the same system")
        if grow_from.num_vertices > vertex_cap:
            raise _cap_error(vertex_cap)
        depth, last, links = grow_from.depth[:], grow_from.last[:], grow_from.links[:]
        # each vertex's state is its parent's after its last letter
        state = [0] * len(depth)
        for v in range(1, len(depth)):
            x = last[v]
            state[v] = goto[state[links[v * span + ngens - x]]][x]
        ball = CayleyBall(radius, ngens, depth, last, links, grow_from.edges[:],
                          grow_from.starts[:])
        done = grow_from.radius + 1         # layers whose edges are all made
        first = bisect_left(depth, grow_from.radius)
    else:
        depth, last, links, state = array("i", [0]), array("i", [0]), blank[:], [0]
        ball = CayleyBall(radius, ngens, depth, last, links, array("i"), [0])
        done = first = 0
    layers = [[] for _ in range(radius + 1)]
    touched = set()     # parents of a vertex made by another vertex's move
    # the loop also visits the vertices appended while it runs, so by
    # depth, and a boundary-layer vertex links only to vertices already
    # found.  The radius-0 ball has no edges, not even loops.
    for v, d in enumerate(islice(depth, first, None) if radius else (), first):
        base = v * span + ngens
        inner = d < radius
        if not inner and bipartite:
            break
        s = state[v]
        if inner and v not in touched:
            for x in firing[s]:
                if links[base + x] < 0:
                    break
            else:
                xs = plain[s]
                t, k = len(depth), len(xs)
                if t + k > vertex_cap:
                    raise _cap_error(vertex_cap)
                depth += deeper[d][k]
                last += xs
                state += plain_states[s]
                links += blanks[k]
                bucket = layers[d + 1]
                for x in xs:
                    links[base + x] = t
                    code = t * span + ngens - x
                    links[code] = v
                    bucket.append(base + x if x > 0 else code)
                    t += 1
                continue
        row = goto[s]
        for x in letters if inner else firing[s]:
            if links[base + x] >= 0:
                continue
            if terminal[row[x]]:
                # every vertex is linked from its parent, so the target's
                # letters lead from the identity to it, or to -1 on the
                # last one, y, when it lies at depth d + 1 and is still new
                t = 0
                for y in reduce((x,), ball.word(v)):
                    p, t = t, links[t * span + ngens + y]
            else:
                # v's word followed by x would have been linked from v
                y, p, t = x, v, -1
            if t < 0:
                if not inner:
                    continue
                t = len(depth)
                if t >= vertex_cap:
                    raise _cap_error(vertex_cap)
                if p != v:
                    touched.add(p)
                depth.append(d + 1)
                last.append(y)
                state.append(goto[state[p]][y])
                links += blank
                links[p * span + ngens + y] = t
                links[t * span + ngens - y] = p
                layers[d + 1].append(p * span + ngens + y if y > 0 else
                                     t * span + ngens - y)
                if p == v and y == x:       # the move was the parent link
                    continue
            links[base + x] = t
            links[t * span + ngens - x] = v
            layer = depth[t] if depth[t] > d else d
            layers[layer].append(base + x if x > 0 else t * span + ngens - x)
    edges, starts = ball.edges, ball.starts
    for bucket in layers[done:]:
        bucket.sort()
        edges.extend(bucket)
        starts.append(len(edges))
    return ball


@dataclass
class TwoComplex:
    """Ball plus attached 2-cells and their exact boundary columns."""

    ball: CayleyBall
    presentation: GroupPresentation
    cells: list               # (base vertex, relator index) representatives
    d2: list                  # per cell: {edge id: int coefficient}
    # optimal rational fillings of the whole program, keyed by the
    # boundary's entries, kept where the rational norm solved a core
    # program; the integral norm's branch and bound starts here
    relaxations: dict = field(default_factory=dict, repr=False, compare=False)
    _collapses: list = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def collapses(self) -> list:
        """(cell, free edge) pairs of a maximal collapse: each edge meets
        its cell and no later pair's cell, and no cell of the core, the
        cells that never get a free edge (none when the collapse is
        complete).  Computed on the first call and kept."""
        if self._collapses is None:
            left, ids = {}, {}      # per edge: cells left on it, sum of their ids
            for ci, col in enumerate(self.d2):
                for e in col:
                    left[e], ids[e] = left.get(e, 0) + 1, ids.get(e, 0) + ci
            free, order = [e for e, n in left.items() if n == 1], []
            while free:
                e = free.pop()
                if left[e] == 1:
                    order.append((ci := ids[e], e))
                    for f in self.d2[ci]:
                        left[f], ids[f] = left[f] - 1, ids[f] - ci
                        if left[f] == 1:
                            free.append(f)
            self._collapses = order
        return self._collapses

    def apply_d2(self, chain: Chain) -> Chain:
        if chain.dimension != 2:
            raise ValueError("apply_d2 expects a 2-chain")
        out: dict = {}
        for cell, coeff in chain.entries.items():
            for e, inc in self.d2[cell].items():
                out[e] = out.get(e, Q(0)) + coeff * inc
        return Chain(1, out)

    def apply_d1(self, chain: Chain) -> Chain:
        if chain.dimension != 1:
            raise ValueError("apply_d1 expects a 1-chain")
        out: dict = {}
        for e, coeff in chain.entries.items():
            s, _, t = self.ball.edge(e)
            out[s] = out.get(s, 0) - coeff
            out[t] = out.get(t, 0) + coeff
        return Chain(0, out)


def _check_letters(ngens: int, word) -> None:
    # another letter would read a slot of some other vertex
    for x in word:
        if not -ngens <= x <= ngens or not x:
            raise ValueError(f"letter {x} is outside +-1..+-{ngens}")


def _walk(ball: CayleyBall, start: int, word) -> tuple[dict, int] | None:
    """Signed edge traversals (plain ints, zeros dropped) of the walk
    spelled by ``word`` from ``start``, and its end vertex; None if some
    prefix leaves the ball; ValueError for a letter outside
    +-1..+-ngens.  The walk follows the links first, so edge ids are
    looked up only for a walk that stays in the ball."""
    links, ngens, span = ball.links, ball.ngens, ball.span
    _check_letters(ngens, word)
    v, path = start, [start]
    for x in word:
        v = links[v * span + ngens + x]
        if v < 0:
            return None
        path.append(v)
    edge_id, coeffs = ball.edge_id, {}
    for x, s, t in zip(word, path, path[1:]):
        e = edge_id(s, x, t) if x > 0 else edge_id(t, -x, s)
        coeffs[e] = coeffs.get(e, 0) + (1 if x > 0 else -1)
    return {e: c for e, c in coeffs.items() if c}, path[-1]


def _sign_canonical(col: dict):
    items = tuple(sorted(col.items()))
    if items and items[0][1] < 0:
        items = tuple((e, -c) for e, c in items)
    return items


def attach_cells(ball: CayleyBall, presentation: GroupPresentation) -> TwoComplex:
    """One candidate cell per (vertex, relator) whose loop stays in the
    ball, found by walking the relator from every vertex at once: the
    first letter's ends are a strided slice of ``links``, each later one
    maps the (start, end) lists through ``links`` and drops ends that
    read -1, and only the survivors go through ``_walk`` for their column
    and closure check.  Zero columns dropped; sign-duplicates merged."""
    links, ngens, span = ball.links, ball.ngens, ball.span
    candidates = []
    for ri, rel in enumerate(presentation.relators):
        _check_letters(ngens, rel)
        starts = range(ball.num_vertices)
        ends = links[ngens + rel[0]::span] if rel else ()
        for x in rel[1:]:
            starts = [s for s, t in zip(starts, ends) if t >= 0]
            ends = [links[t * span + ngens + x] for t in ends if t >= 0]
        for v in [s for s, t in zip(starts, ends) if t >= 0]:
            col, end = _walk(ball, v, rel)
            if end != v:
                raise IncompleteSystemError(
                    "relator loop does not close under this rewriting system; "
                    "the rules and the relators disagree about the group")
            if col:
                candidates.append((ball.layer(max(col)), v, ri, col))
    candidates.sort(key=lambda c: c[:3])
    cells, columns, seen = [], [], set()
    for _, v, ri, col in candidates:
        key = _sign_canonical(col)
        if key in seen:
            continue
        seen.add(key)
        cells.append((v, ri))
        columns.append(col)
    return TwoComplex(ball, presentation, cells, columns)


def d1_composed_with_d2_is_zero(complex_: TwoComplex) -> bool:
    for col in complex_.d2:
        acc: dict = {}
        for e, c in col.items():
            for v, inc in complex_.ball.d1_column(e).items():
                acc[v] = acc.get(v, 0) + c * inc
        if any(acc.values()):
            return False
    return True


@dataclass(frozen=True)
class Circuit:
    """Simple circuit through the identity as a signed edge chain."""

    chain: Chain
    letters: Word
    length: int


def add_circuit(found: dict, ball: CayleyBall, steps) -> None:
    """Record the closed walk ``steps`` ((edge id, sign) pairs) in ``found``
    under its sign-canonical edge chain.  Walks whose chain is zero or
    already recorded (e.g. the reversed orientation) are skipped."""
    coeffs: dict = {}
    for e, sign in steps:
        coeffs[e] = coeffs.get(e, 0) + sign
    col = {e: c for e, c in coeffs.items() if c}
    if not col:
        return
    key = _sign_canonical(col)
    if key not in found:
        letters = tuple(ball.edge(e)[1] * sign for e, sign in steps)
        found[key] = Circuit(Chain(1, col), letters, len(steps))


def enumerate_circuits(ball: CayleyBall, max_len: int,
                       *, walk_cap: int = DEFAULT_WALK_CAP) -> list:
    """All simple circuits based at the identity of length <= max_len,
    deduplicated up to orientation reversal, in a deterministic order."""
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    adj = ball.adjacency()
    depth = ball.depth
    results = {}
    steps = 0

    path_edges: list = []
    on_path = {0}

    def dfs(v: int):
        nonlocal steps
        for e, sign, w in adj[v]:
            steps += 1
            if steps > walk_cap:
                raise ResourceLimitError(
                    f"circuit search exceeded walk cap {walk_cap}", limit=walk_cap)
            used = len(path_edges) + 1
            if w == 0:
                if used >= 3:
                    path_edges.append((e, sign))
                    add_circuit(results, ball, path_edges)
                    path_edges.pop()
                continue
            if w in on_path or used + depth[w] > max_len:
                continue
            on_path.add(w)
            path_edges.append((e, sign))
            dfs(w)
            path_edges.pop()
            on_path.remove(w)

    dfs(0)
    return sorted(results.values(), key=lambda c: (c.length, c.letters))


def _vertex_texts(ball: CayleyBall, generators) -> list:
    """Each vertex's word as ``word_to_text`` writes it.  A vertex's text
    extends that of its parent, its link on -x for its last letter x:
    the letter raises the last token's power when it is also the
    parent's last letter, and starts a new token otherwise."""
    links, last, ngens, span = ball.links, ball.last, ball.ngens, ball.span
    # per vertex: its text, that text before its last token, its last run
    texts, heads, runs = [""], [""], [0]
    for v, x in enumerate(last[1:], 1):
        p = links[v * span + ngens - x]
        run = runs[p] + 1 if last[p] == x else 1
        head = heads[p] if run > 1 else texts[p]
        power = run if x > 0 else -run
        token = (generators[x - 1] if power == 1 else
                 f"{generators[abs(x) - 1]}^{power}")
        texts.append(f"{head} {token}" if head else token)
        heads.append(head)
        runs.append(run)
    return texts


def complex_to_json(complex_: TwoComplex) -> str:
    """Coordinate-form JSON of the complex, as compact ``json.dumps`` with
    sorted keys writes it, built section by section from strings with no
    list per entry.  An edge's (source, generator, target) is decoded
    from its code, and ``d1`` is read off the edges (s -> t has -1 at s
    and +1 at t; a loop has none)."""
    ball = complex_.ball
    edges, links, ngens, span = ball.edges, ball.links, ball.ngens, ball.span
    gens = complex_.presentation.generators
    compact = (",", ":")
    return "".join((
        '{"cells":[', ",".join(f"[{v},{ri}]" for v, ri in complex_.cells),
        '],"d1":[', ",".join(
            f"[{s},{e},-1,1],[{t},{e},1,1]" if s < t else
            f"[{t},{e},1,1],[{s},{e},-1,1]"
            for e, code in enumerate(edges)
            if (s := code // span) != (t := links[code])),
        '],"d2":[', ",".join(f"[{e},{ci},{c},1]" for ci, col in enumerate(complex_.d2)
                             for e, c in sorted(col.items())),
        '],"depth":[', ",".join(map(str, ball.depth)),
        '],"edges":[', ",".join(f"[{code // span},{code % span - ngens},{links[code]}]"
                                for code in edges),
        '],"generators":', json.dumps(list(gens), separators=compact),
        ',"radius":', str(ball.radius),
        ',"vertices":', json.dumps(_vertex_texts(ball, gens), separators=compact),
        "}"))


def complex_from_json(text: str, presentation: GroupPresentation, rws: RewritingSystem,
                      radius: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> TwoComplex:
    """The complex at ``radius`` whose export is ``text``.  Export bytes
    are canonical, so the complex is built (under ``vertex_cap``) and
    returned only when ``complex_to_json`` of it equals ``text`` byte for
    byte; any other text raises ValueError.  No field of ``text`` is
    parsed, so none of it is trusted."""
    complex_ = attach_cells(build_ball(presentation, rws, radius, vertex_cap=vertex_cap),
                            presentation)
    if complex_to_json(complex_) != text:
        raise ValueError(f"text is not the export of this system's radius-{radius} complex")
    return complex_


_MEMO: dict = {}


def _write_replacing(path: str, text: str) -> None:
    """Write through a temporary file in the same directory, then rename
    it over ``path``, so readers never see a partial file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _cache_key(presentation: GroupPresentation, rws: RewritingSystem, radius: int) -> str:
    digest = hashlib.sha256(
        (presentation.content_key() + "\n" + rws.rules_key()).encode()).hexdigest()[:16]
    return f"{digest}_r{radius}"


def get_complex(presentation: GroupPresentation, rws: RewritingSystem, radius: int,
                *, vertex_cap: int = DEFAULT_VERTEX_CAP,
                cache_dir: str | None = None) -> TwoComplex:
    """Build (or fetch) the truncated complex at the given radius.

    In-process memoization, keyed by the frozen presentation and
    rewriting system, always applies; if ``cache_dir`` (or the
    FILLPROBE_CACHE_DIR environment variable) is set, complexes are also
    persisted as their coordinate-form JSON export.  A file is reused
    only when it is byte-identical to the export of a fresh build (see
    ``complex_from_json``), so a warm load costs a build and one export;
    any other file (truncated, edited, or of another radius or system)
    is rebuilt and rewritten.  Files are replaced atomically.  A ball
    not loaded from a file is grown from the memoized ball of radius - 1
    when there is one (see ``build_ball``).
    """
    key = (presentation, rws, radius)
    complex_ = _MEMO.get(key)
    if complex_ is None:
        cache_dir = cache_dir or os.environ.get("FILLPROBE_CACHE_DIR")
        path = cache_dir and os.path.join(cache_dir, _cache_key(*key) + ".json")
        if path and os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    complex_ = complex_from_json(fh.read(), presentation, rws, radius,
                                                 vertex_cap=vertex_cap)
            except ValueError:
                complex_ = None
        if complex_ is None:
            smaller = _MEMO.get((presentation, rws, radius - 1))
            ball = build_ball(presentation, rws, radius, vertex_cap=vertex_cap,
                              grow_from=smaller.ball if smaller else None)
            complex_ = attach_cells(ball, presentation)
            if path:
                _write_replacing(path, complex_to_json(complex_))
        _MEMO[key] = complex_
    # cached copies must still honor the caller's cap, or results would
    # depend on what happened to be built earlier in the process
    if complex_.ball.num_vertices > vertex_cap:
        raise _cap_error(vertex_cap)
    return complex_


def clear_memo():
    _MEMO.clear()


def word_to_edge_chain(ball: CayleyBall, word) -> Chain:
    """Signed edge chain of the walk spelled by ``word`` from the identity.

    Every prefix of the walk must stay inside the ball.
    """
    walk = _walk(ball, 0, word)
    if walk is None:
        raise ResourceLimitError("walk leaves the ball; enlarge the radius")
    return Chain(1, walk[0])
