"""Orbit-bounded cochains on finite groups.

The chain model is the homogeneous bar resolution: degree-d cells are
(d+1)-tuples of group elements with the diagonal left action, and the
differential is the alternating sum over omitted coordinates.  A plain
cochain assigns a rational vector to every cell; an equivariant cochain
assigns a function from the group to vectors.  The two are exchanged by

    eval_at_identity:  f  |->  (x |-> f(x)(1))
    spread:            t  |->  (x |-> (g |-> g . t(g^-1 x)))

which are mutually inverse chain maps (the coefficient action is
trivial by default, which loses no generality here).  Finite groups
keep every check total and exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from .rationals import Q

MAX_DEGREE = 3


@dataclass(frozen=True)
class FiniteGroupTable:
    """Multiplication table of a finite group, fully validated."""

    order: int
    mult: tuple          # mult[a][b] = index of a*b
    identity: int
    inverse: tuple

    @classmethod
    def from_mult_table(cls, table) -> "FiniteGroupTable":
        n = len(table)
        mult = tuple(tuple(int(v) for v in row) for row in table)
        if any(len(row) != n for row in mult):
            raise ValueError("multiplication table must be square")
        for row in mult:
            for v in row:
                if not 0 <= v < n:
                    raise ValueError("table entry out of range")
        identity = None
        for e in range(n):
            if all(mult[e][x] == x and mult[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        inverse = [None] * n
        for x in range(n):
            for y in range(n):
                if mult[x][y] == identity and mult[y][x] == identity:
                    inverse[x] = y
                    break
            if inverse[x] is None:
                raise ValueError(f"element {x} has no inverse")
        if n <= 64:
            for a in range(n):
                for b in range(n):
                    ab = mult[a][b]
                    for c in range(n):
                        if mult[ab][c] != mult[a][mult[b][c]]:
                            raise ValueError("multiplication is not associative")
        return cls(n, mult, identity, tuple(inverse))

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroupTable":
        return cls.from_mult_table([[(a + b) % n for b in range(n)] for a in range(n)])

    @classmethod
    def symmetric3(cls) -> "FiniteGroupTable":
        perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms]
                 for p in perms]
        return cls.from_mult_table(table)

    @classmethod
    def from_json(cls, text: str) -> "FiniteGroupTable":
        data = json.loads(text)
        if isinstance(data, dict):
            data = data["table"]
        return cls.from_mult_table(data)

    def act(self, g: int, cell: tuple) -> tuple:
        """Diagonal left action on a cell."""
        row = self.mult[g]
        return tuple(row[y] for y in cell)

    def cells(self, degree: int):
        """All degree-d cells: (d+1)-tuples, lexicographic order."""
        return product(range(self.order), repeat=degree + 1)


GROUP_CATALOG = {
    "Z2": lambda: FiniteGroupTable.cyclic(2),
    "Z3": lambda: FiniteGroupTable.cyclic(3),
    "Z6": lambda: FiniteGroupTable.cyclic(6),
    "S3": FiniteGroupTable.symmetric3,
}


def group_table(name: str) -> FiniteGroupTable:
    try:
        return GROUP_CATALOG[name]()
    except KeyError:
        raise KeyError(f"unknown group {name!r}; catalog: {sorted(GROUP_CATALOG)}")


def sup_norm(vector):
    m = Q(0)
    for v in vector:
        a = v if v >= 0 else -v
        if a > m:
            m = a
    return m


def _as_vector(value, dim):
    vec = tuple(Q(v) for v in value)
    if len(vec) != dim:
        raise ValueError("vector dimension mismatch")
    return vec


@dataclass(frozen=True)
class PlainCochain:
    """Total assignment of rational vectors to degree-d cells."""

    group: FiniteGroupTable
    degree: int
    dim: int
    values: dict     # cell -> vector

    def __post_init__(self):
        expected = self.group.order ** (self.degree + 1)
        if len(self.values) != expected:
            raise ValueError(f"cochain must be total: {expected} cells")
        clean = {tuple(c): _as_vector(v, self.dim) for c, v in self.values.items()}
        object.__setattr__(self, "values", clean)

    @classmethod
    def build(cls, group, degree, dim, fn) -> "PlainCochain":
        values = {cell: fn(cell) for cell in group.cells(degree)}
        return cls(group, degree, dim, values)

    @classmethod
    def zero(cls, group, degree, dim=1) -> "PlainCochain":
        z = tuple([Q(0)] * dim)
        return cls.build(group, degree, dim, lambda cell: z)

    def __add__(self, other: "PlainCochain") -> "PlainCochain":
        self._compat(other)
        return PlainCochain(self.group, self.degree, self.dim,
                            {c: tuple(a + b for a, b in zip(v, other.values[c]))
                             for c, v in self.values.items()})

    def scaled(self, r) -> "PlainCochain":
        r = Q(r)
        return PlainCochain(self.group, self.degree, self.dim,
                            {c: tuple(r * a for a in v) for c, v in self.values.items()})

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in v) for v in self.values.values())

    def _compat(self, other):
        if (self.group is not other.group and self.group != other.group) \
                or self.degree != other.degree or self.dim != other.dim:
            raise ValueError("cochain shape mismatch")


@dataclass(frozen=True)
class EquivariantCochain:
    """Total assignment of functions (group -> vector) to degree-d cells."""

    group: FiniteGroupTable
    degree: int
    dim: int
    values: dict     # cell -> {g: vector}

    def __post_init__(self):
        expected = self.group.order ** (self.degree + 1)
        if len(self.values) != expected:
            raise ValueError(f"cochain must be total: {expected} cells")
        clean = {}
        for cell, fn in self.values.items():
            if len(fn) != self.group.order:
                raise ValueError("value functions must be total on the group")
            clean[tuple(cell)] = {g: _as_vector(v, self.dim) for g, v in fn.items()}
        object.__setattr__(self, "values", clean)

    @classmethod
    def build(cls, group, degree, dim, fn) -> "EquivariantCochain":
        values = {cell: {g: fn(cell, g) for g in range(group.order)}
                  for cell in group.cells(degree)}
        return cls(group, degree, dim, values)

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in vec) for fn in self.values.values()
                   for vec in fn.values())

    def __eq__(self, other):
        return (isinstance(other, EquivariantCochain)
                and self.degree == other.degree and self.dim == other.dim
                and self.values == other.values)


def is_equivariant(f: EquivariantCochain) -> bool:
    """Check f(h.x)(g) = f(x)(h^-1 g) on all cells and elements."""
    G = f.group
    for cell in G.cells(f.degree):
        fx = f.values[cell]
        for h in range(G.order):
            moved = f.values[G.act(h, cell)]
            hinv = G.inverse[h]
            for g in range(G.order):
                if moved[g] != fx[G.mult[hinv][g]]:
                    return False
    return True


def eval_at_identity(f: EquivariantCochain) -> PlainCochain:
    """Evaluate every value function at the identity element."""
    e = f.group.identity
    return PlainCochain(f.group, f.degree, f.dim,
                        {cell: fn[e] for cell, fn in f.values.items()})


def spread(theta: PlainCochain) -> EquivariantCochain:
    """Equivariant extension: (x, g) |-> theta(g^-1 x), trivial action."""
    G = theta.group
    inv = G.inverse

    def fn(cell, g):
        return theta.values[G.act(inv[g], cell)]

    return EquivariantCochain.build(G, theta.degree, theta.dim, fn)


# Operation names used elsewhere mirror the displayed formulas.
phi = eval_at_identity
psi = spread


def coboundary(c):
    """Alternating-sum coboundary; raises degree by one.

    Works on both cochain kinds and satisfies coboundary(coboundary(x)) = 0.
    """
    if c.degree + 1 > MAX_DEGREE:
        raise ValueError(f"degree cap {MAX_DEGREE} exceeded")
    if isinstance(c, PlainCochain):
        def face_value(face):
            return c.values[face]
    elif isinstance(c, EquivariantCochain):
        def face_value(face, g):
            return c.values[face][g]
    else:
        raise TypeError("expected a cochain")
    zero_vec = tuple([Q(0)] * c.dim)

    def value(cell, *g):
        acc = list(zero_vec)
        for i in range(len(cell)):
            sign = -1 if i % 2 else 1
            for t, a in enumerate(face_value(cell[:i] + cell[i + 1:], *g)):
                acc[t] += sign * a
        return tuple(acc)

    return type(c).build(c.group, c.degree + 1, c.dim, value)
