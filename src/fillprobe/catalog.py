"""Built-in presentation catalog.

Each entry ships a presentation plus, where one is known, a confluent
shortlex rewriting system (verified at load).  Entries without one are
flagged completion-required: ball construction first needs a successful
bounded completion run.

The genus-2 surface group lists its generators as a1, a2, b1, b2; with
that declared order the relator completes to the 8-rule confluent
system below.  The interleaved order a1, b1, a2, b2 makes completion
diverge, so the order here is load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import parse_presentation
from .rewriting import DEFAULT_MAX_LEN, DEFAULT_MAX_RULES, knuth_bendix_bounded, system_from_rules


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    source: str
    rules: tuple | None = None        # (lhs text, rhs text) pairs
    completion_required: bool = False


_COMMUTATION_AB = (
    ("b a", "a b"),
    ("b a^-1", "a^-1 b"),
    ("b^-1 a", "a b^-1"),
    ("b^-1 a^-1", "a^-1 b^-1"),
)

_Z3_RULES = (
    ("b a", "a b"),
    ("b a^-1", "a^-1 b"),
    ("b^-1 a", "a b^-1"),
    ("b^-1 a^-1", "a^-1 b^-1"),
    ("c a", "a c"),
    ("c a^-1", "a^-1 c"),
    ("c^-1 a", "a c^-1"),
    ("c^-1 a^-1", "a^-1 c^-1"),
    ("c b", "b c"),
    ("c b^-1", "b^-1 c"),
    ("c^-1 b", "b c^-1"),
    ("c^-1 b^-1", "b^-1 c^-1"),
)

_SURFACE_RULES = (
    ("b1 a1 b1^-1 a1^-1", "a2 b2 a2^-1 b2^-1"),
    ("b1 a1^-1 b1^-1 a2", "a1^-1 b2 a2 b2^-1"),
    ("b1^-1 a1^-1 b2 a2", "a1^-1 b1^-1 a2 b2"),
    ("b1^-1 a2 b2 a2^-1", "a1 b1^-1 a1^-1 b2"),
    ("b2 a2 b2^-1 a2^-1", "a1 b1 a1^-1 b1^-1"),
    ("b2 a2^-1 b2^-1 a1", "a2^-1 b1 a1 b1^-1"),
    ("b2^-1 a2^-1 b1 a1", "a2^-1 b2^-1 a1 b1"),
    ("b2^-1 a1 b1 a1^-1", "a2 b2^-1 a2^-1 b1"),
)

_ENTRIES = (
    CatalogEntry(
        "F1", "infinite cyclic group (free of rank 1)",
        "generators: a\n", rules=()),
    CatalogEntry(
        "F2", "free group of rank 2",
        "generators: a, b\n", rules=()),
    CatalogEntry(
        "Z2", "free abelian group of rank 2",
        "generators: a, b\nrelator: a b a^-1 b^-1\n",
        rules=_COMMUTATION_AB),
    CatalogEntry(
        "Z3", "free abelian group of rank 3",
        "generators: a, b, c\n"
        "relator: a b a^-1 b^-1\n"
        "relator: a c a^-1 c^-1\n"
        "relator: b c b^-1 c^-1\n",
        rules=_Z3_RULES),
    CatalogEntry(
        "H3", "integral Heisenberg group (c central commutator)",
        "generators: a, b, c\n"
        "relator: a b a^-1 b^-1 c^-1\n"
        "relator: a c a^-1 c^-1\n"
        "relator: b c b^-1 c^-1\n",
        completion_required=True),
    CatalogEntry(
        "S2", "genus-2 orientable surface group",
        "generators: a1, a2, b1, b2\n"
        "relator: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1\n",
        rules=_SURFACE_RULES),
    CatalogEntry(
        "BS12", "Baumslag-Solitar group BS(1,2)",
        "generators: a, t\nrelator: t a t^-1 a^-2\n",
        completion_required=True),
)

CATALOG = {entry.name: entry for entry in _ENTRIES}

_SYSTEM_CACHE: dict = {}


def catalog_names():
    return [entry.name for entry in _ENTRIES]


def get_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; available: {catalog_names()}")


def load(name: str, *, max_rules: int = DEFAULT_MAX_RULES,
         max_len: int = DEFAULT_MAX_LEN):
    """Return (presentation, rewriting system) for a catalog entry.

    Entries flagged completion-required run bounded completion here; the
    returned system may then be INCOMPLETE, in which case downstream
    ball construction will refuse it.
    """
    entry = get_entry(name)
    presentation = parse_presentation(entry.source)
    cache_key = (name, max_rules, max_len)
    rws = _SYSTEM_CACHE.get(cache_key)
    if rws is None:
        if entry.completion_required:
            rws = knuth_bendix_bounded(presentation, max_rules=max_rules,
                                       max_len=max_len)
        else:
            pairs = [(presentation.word(l), presentation.word(r))
                     for l, r in entry.rules]
            rws = system_from_rules(presentation.num_generators, pairs)
            if not rws.confluent:
                raise AssertionError(
                    f"catalog rules for {name} failed the confluence check")
        _SYSTEM_CACHE[cache_key] = rws
    return presentation, rws
